"""Cross-route verification suites.

Every quantity in this package has two independent computation routes: a
closed form and the iterated recycling cascade, which never divides by the
loop denominator 1 - gamma.  The cascade's coefficients check the closed
form's upsilon and xi, its phase slope sigma = 2 d(upsilon)/d(phi) checks the
homodyne and bound factors (lambda1 = |Re sigma|, lambda2 = |sigma|), and its
|upsilon|**2 + |xi|**2 checks the photon factor lambda3.  Output
normalization and energy balance are sum rules of the closed form.  The
checks run over seeded pseudo-random points and a regular derivative grid
and report the worst deviation of each, together with the tolerance it must
stay under.  The command line `verify` subcommand prints these results and
gates its exit code on them.

`run_all` takes each point set, the derivative grid and then the sample, in
chunks of about CHUNK_POINT_LOSSES (point, loss) pairs, one cascade per
chunk serving every line that reads it, and keeps each line's worst over the
chunks.  Each set's one pass count is fixed from the whole set before its
first chunk, so no printed byte depends on the chunk size, and peak memory
does not grow with the set.  `oracle_equivalence` is the same chunk loop
over the points it is given, and `sample_points` the sample in one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .loop import RecycledCoefficients, cascade, closed_form, loop_ratio, refuse_pole
from .metrology import lambda1_values, lambda2_values, lambda3_values
from .optics import LoopParameters, check_integer, check_loss, raise_where

DEFAULT_LOSSES = (0.05, 0.10, 0.15, 0.20, 0.5, 0.9)
DEFAULT_POINTS = 1000
DEFAULT_SEED = 0
DEFAULT_GRID = 50
DERIVATIVE_LOSSES = (0.05, 0.10, 0.15, 0.20)
STAGE_TOL = 1e-14

ORACLE_TOL = 1e-10
NORMALIZATION_TOL = 1e-12
ENERGY_TOL = 1e-12
DERIVATIVE_RTOL = 1e-6
PHOTON_SUM_RTOL = 1e-12
SMALL_VALUE_FLOOR = 1e-3

# Most (point, loss) pairs one suite of `run_all` may evaluate: exactly a
# 1000x1000 derivative grid at the six default losses.  Peak memory does not
# grow with them (36-40 MB RSS), so the cap bounds time: at the cap
# `verify --points 1 --grid 1000` takes 1.4-1.8 s and `verify --points
# 6000000 --losses 0.5 --grid 8` 4.0-5.7 s (CLI wall time, 2 vCPU, numpy
# 2.4.6, x86-64).
MAX_POINT_LOSSES = 6 * 10**6

# (point, loss) pairs `run_all` evaluates at once; a chunk holds at least one
# point at every loss.  At 2**13 a complex array is 128 KiB, so a chunk's
# cascade stays in the core's cache; 2**12, 2**14 and 2**15 each took 10-20 %
# more CPU time at --grid 1000.
CHUNK_POINT_LOSSES = 2**13


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def sample_points(points: int = DEFAULT_POINTS, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Seeded pseudo-random (phi, theta0) pairs, uniform over [0, 2*pi)^2:
    `_sample_chunks` in one chunk.  `run_all` checks points >= 1 and
    seed >= 0."""
    (sample,) = _sample_chunks(points, seed, max(1, points))
    return sample


# One-point forms of the two coefficient routes.  Only tests and the
# per-layer tracer (bench/tracing.py, which looks both names up in this
# module) use them.
def _one_point(coef: RecycledCoefficients) -> RecycledCoefficients:
    return RecycledCoefficients(complex(coef.upsilon), complex(coef.vac_a),
                                complex(coef.xi), complex(coef.vac_b))


def closed_form_coefficients(params: LoopParameters) -> RecycledCoefficients:
    """`closed_form` at one operating point."""
    return _one_point(closed_form(params.phi, params.theta0, params.loss))


def iterate_series(params: LoopParameters, stages: int) -> RecycledCoefficients:
    """`cascade` of `stages` interferometers (stages - 1 recycling passes) at
    one operating point; stages=1 is the conventional interferometer."""
    return _one_point(cascade(params.phi, params.theta0, params.loss, stages - 1)[0])


def _sample_chunks(points: int, seed: int, size: int):
    """The seeded sample as consecutive chunks of at most `size` pairs:
    every chunk continues the one generator's stream.  No points make one
    empty chunk."""
    rng = np.random.default_rng(seed)
    for start in range(0, max(1, points), size):
        yield rng.uniform(0.0, 2.0 * np.pi, size=(min(size, points - start), 2))


def _grid_chunks(grid_n: int, size: int):
    """The grid_n x grid_n derivative grid over [0, 2*pi)^2 as (phi, theta0)
    pairs, phi-major, in consecutive chunks of at most `size` pairs."""
    axis = np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False)
    for start in range(0, grid_n * grid_n, size):
        index = np.arange(start, min(start + size, grid_n * grid_n))
        yield np.stack((axis[index // grid_n], axis[index % grid_n]), axis=-1)


def _at_losses(points: np.ndarray, losses):
    """(phi, theta0, loss) broadcasting every point against every loss.

    All three are two-dimensional: numpy multiplies a one-element (1, 1)
    array by a (1,) one on its scalar path, which rounds a complex product
    apart from the vector loops, so a one-point chunk would print other
    digits.
    """
    return points[None, :, 0], points[None, :, 1], np.asarray(losses, dtype=float)[:, None]


def _worst(deviation) -> float:
    return float(np.max(np.abs(deviation), initial=0.0))


def _passes(chunks, least) -> int:
    """The one recycling pass count for every point of `chunks` at every
    loss: 2**k for the fewest k that bring the largest loop-ratio magnitude,
    sqrt(1-L)*|sin(phi/2)| at the least loss, under STAGE_TOL, so each
    point's truncation stays below it.  An empty loss list counts as the
    blocked loop L = 1.  Refuses the pole at the least loss through
    `refuse_pole`, the test of `closed_form`, so it is refused under one
    name whichever route meets it first; then raises ConvergenceError where
    else the loop does not contract.
    """
    largest = 0.0
    for points in chunks:
        phi, theta0 = points[:, 0], points[:, 1]
        gamma = loop_ratio(phi, theta0, least)
        refuse_pole(1.0 - gamma, phi, theta0, least)
        gmag = np.abs(gamma)
        raise_where(~(gmag < 1.0), ConvergenceError,
                    "loop ratio magnitude >= 1: the series does not contract", phi, theta0, least)
        largest = max(largest, gmag.max(initial=0.0))
    power, doublings = largest, 0
    while power >= STAGE_TOL:
        power, doublings = power * power, doublings + 1
    return 2**doublings


def _oracle_check(iterated: RecycledCoefficients, closed: RecycledCoefficients) -> CheckResult:
    worst = max(
        _worst(iterated.upsilon - closed.upsilon),
        _worst(iterated.xi - closed.xi),
        _worst(np.abs(iterated.vac_a) - np.abs(closed.vac_a)),
        _worst(np.abs(iterated.vac_b) - np.abs(closed.vac_b)),
    )
    return CheckResult("oracle equivalence (cascade vs closed form)", worst, ORACLE_TOL)


def oracle_equivalence(points: np.ndarray, losses=DEFAULT_LOSSES) -> CheckResult:
    """Iterated cascade versus summed closed form at every point and loss:
    `run_all`'s oracle line, through its chunk loop over consecutive chunks
    of `points`, so its peak does not grow with them.

    Every point makes the same `_passes` count, set by the largest loop
    ratio of `points` at the least loss.  No points read deviation 0.
    """
    (result,) = _over_chunks(
        lambda size: (points[start:start + size] for start in range(0, max(1, len(points)), size)),
        losses, _oracle_only)
    return result


def output_normalization(coef: RecycledCoefficients) -> CheckResult:
    """|upsilon|**2 + |vac_a|**2 = 1: the monitored output is a free mode.

    This sum rule is what pins the quadrature variance of the output to
    exactly one, so it doubles as the noise check for homodyne detection.
    """
    worst = _worst(np.abs(coef.upsilon) ** 2 + np.abs(coef.vac_a) ** 2 - 1.0)
    return CheckResult("output-mode normalization", worst, NORMALIZATION_TOL)


def energy_balance(coef: RecycledCoefficients, loss) -> CheckResult:
    """|upsilon|**2 + loss*|xi|**2 = 1: photons exit at a or are absorbed."""
    worst = _worst(np.abs(coef.upsilon) ** 2 + loss * np.abs(coef.xi) ** 2 - 1.0)
    return CheckResult("energy balance", worst, ENERGY_TOL)


def _factor_vs_derivative(name: str, closed, numeric) -> CheckResult:
    """Closed factor versus the same factor from the cascade's phase slope,
    relative.

    Points where the factor is below SMALL_VALUE_FLOOR are excluded: near
    signal nulls the relative comparison measures only cancellation noise.
    With no point left the deviation reads -inf, which `run_all` refuses
    for a whole grid.
    """
    mask = closed >= SMALL_VALUE_FLOOR
    relative = (numeric[mask] - closed[mask]) / closed[mask]
    return CheckResult(name, float(np.max(np.abs(relative), initial=-np.inf)), DERIVATIVE_RTOL)


def hd_factor_vs_derivative(closed, numeric) -> CheckResult:
    """Closed homodyne factor versus |Re sigma|, the real part of the slope."""
    return _factor_vs_derivative("homodyne factor vs exact derivative", closed, numeric)


def qcrb_factor_vs_derivative(closed, numeric) -> CheckResult:
    """Closed bound factor versus |sigma|, the modulus of the slope."""
    return _factor_vs_derivative("qcrb factor vs exact derivative", closed, numeric)


def photon_factor_consistency(coef: RecycledCoefficients, lambda3) -> CheckResult:
    """Closed photon factor versus the cascade's |upsilon|**2 + |xi|**2,
    relative."""
    assembled = np.abs(coef.upsilon) ** 2 + np.abs(coef.xi) ** 2
    worst = _worst((lambda3 - assembled) / np.maximum(1.0, assembled))
    return CheckResult("photon factor vs coefficient sum", worst, PHOTON_SUM_RTOL)


# The per-chunk lines of `run_all`'s two phases and of `oracle_equivalence`,
# given a chunk's points at every loss and the chunk's cascade.
def _grid_checks(phi, theta0, loss, iterated, slope) -> tuple[CheckResult, ...]:
    return (hd_factor_vs_derivative(lambda1_values(phi, theta0, loss), np.abs(slope.real)),
            qcrb_factor_vs_derivative(lambda2_values(phi, theta0, loss), np.abs(slope)))


def _sample_checks(phi, theta0, loss, iterated, slope) -> tuple[CheckResult, ...]:
    closed = closed_form(phi, theta0, loss)
    return (_oracle_check(iterated, closed), output_normalization(closed),
            energy_balance(closed, loss),
            photon_factor_consistency(iterated, lambda3_values(phi, theta0, loss)))


def _oracle_only(phi, theta0, loss, iterated, slope) -> tuple[CheckResult]:
    return (_oracle_check(iterated, closed_form(phi, theta0, loss)),)


def _over_chunks(chunks, losses, checks) -> list[CheckResult]:
    """Each line of `checks` at its worst over a point set, given as
    `chunks(size)`, a fresh iterator of the set in one or more chunks of at
    most `size` points.  One pass over the set fixes its pass count; a
    second evaluates every chunk at every loss.  The worst of a line is the
    np.max of its chunks' worst, so a NaN anywhere reads NaN."""
    size = max(1, CHUNK_POINT_LOSSES // max(1, len(losses)))
    passes = _passes(chunks(size), np.asarray(losses, dtype=float).min(initial=1.0))
    per_chunk = []
    for points in chunks(size):
        phi, theta0, loss = _at_losses(points, losses)
        # Rebinding frees the previous chunk's cascade only once this one
        # exists, so the C allocator reuses its pages.  Freed as a whole,
        # each chunk went back to the system and was faulted in again: ~40 %
        # of `verify --points 1 --grid 1000`.
        evaluated = cascade(phi, theta0, loss, passes)
        per_chunk.append(checks(phi, theta0, loss, *evaluated))
    return [CheckResult(line[0].name, float(np.max([r.deviation for r in line])),
                        line[0].tolerance) for line in zip(*per_chunk)]


def run_all(points: int = DEFAULT_POINTS, seed: int = DEFAULT_SEED,
            losses=DEFAULT_LOSSES, grid_n: int = DEFAULT_GRID) -> list[CheckResult]:
    """Run every suite and return the individual results.

    Every input is checked before anything is allocated: the losses
    (`check_loss`), points >= 1, seed >= 0 and grid_n >= 2 as integers
    (`check_integer`), and both suite sizes, points x losses and
    grid_n**2 x derivative losses, against MAX_POINT_LOSSES.  The
    derivative grid runs first, so a grid with no point above
    SMALL_VALUE_FLOOR is refused before any point is sampled; then the
    sample.
    """
    check_loss(losses)
    # Python integers, so that the size products below cannot wrap.
    points, seed, grid_n = (check_integer("points", points, 1), check_integer("seed", seed, 0),
                            check_integer("grid_n", grid_n, 2))
    # An even grid holds the lossless pole, so the derivative comparisons
    # need loss > 0; fall back to the stock losses otherwise.
    derivative_losses = tuple(l for l in losses if l > 0.0) or DERIVATIVE_LOSSES
    for what, count in ((f"{points} points", points * len(losses)),
                        (f"{grid_n}x{grid_n} grid", grid_n**2 * len(derivative_losses))):
        if count > MAX_POINT_LOSSES:
            raise ParameterError(f"{what}: {count} point-losses exceed {MAX_POINT_LOSSES}")
    hd, qcrb = _over_chunks(lambda size: _grid_chunks(grid_n, size), derivative_losses,
                            _grid_checks)
    if -np.inf in (hd.deviation, qcrb.deviation):
        raise ParameterError(f"no point of the {grid_n}x{grid_n} derivative grid has a "
                             f"factor >= {SMALL_VALUE_FLOOR}")
    oracle, normalization, energy, photon = _over_chunks(
        lambda size: _sample_chunks(points, seed, size), losses, _sample_checks)
    return [oracle, normalization, energy, hd, qcrb, photon]
