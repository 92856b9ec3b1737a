"""Cross-route verification suites.

Every quantity in this package has two independent computation routes:
summed closed forms versus the iterated recycling cascade for the loop
coefficients, and closed trigonometric forms versus finite differences for
the enhancement factors.  The checks here drive both routes over seeded
pseudo-random points and regular grids and report the worst deviation of
each pair, together with the tolerance it must stay under.  The command
line `verify` subcommand prints these results and gates its exit code on
them.

`run_all` evaluates each route once, in one broadcast call over all its
points and losses, with the losses along the first axis.  The oracle suite
evaluates its own two routes; the other suites only compare arrays that
`run_all` evaluated for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ParameterError
from .loop import RecycledCoefficients, cascade, closed_form, loop_ratio, passes_for_tolerance
from .metrology import lambda1_values, lambda2_values, lambda3_values
from .optics import LoopParameters, check_loss

DEFAULT_LOSSES = (0.05, 0.10, 0.15, 0.20, 0.5, 0.9)
DEFAULT_POINTS = 1000
DEFAULT_SEED = 0
DEFAULT_GRID = 50
DEFAULT_STEP = 1e-4
DERIVATIVE_LOSSES = (0.05, 0.10, 0.15, 0.20)
STAGE_TOL = 1e-14

ORACLE_TOL = 1e-10
NORMALIZATION_TOL = 1e-12
ENERGY_TOL = 1e-12
DERIVATIVE_RTOL = 1e-6
PHOTON_SUM_RTOL = 1e-12
SMALL_VALUE_FLOOR = 1e-3

# Most (point, loss) pairs one suite of `run_all` may evaluate: exactly a
# 1000x1000 derivative grid at the six default losses.  Peak memory grows
# linearly with them, about 200 bytes each on the derivative grid and 265 on
# the sampled points (numpy 2.4.6, x86-64), so a run at the cap peaks near
# 1.3 GB or 1.6 GB respectively.
MAX_POINT_LOSSES = 6 * 10**6


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def sample_points(points: int = DEFAULT_POINTS, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Seeded pseudo-random (phi, theta0) pairs, uniform over [0, 2*pi)^2;
    `run_all` checks points >= 1 and seed >= 0."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, size=(points, 2))


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
    return _one_point(cascade(params.phi, params.theta0, params.loss, stages - 1))


def _at_losses(points: np.ndarray, losses):
    """(phi, theta0, loss) broadcasting every point against every loss."""
    return points[:, 0], points[:, 1], np.asarray(losses, dtype=float)[:, None]


def _worst(deviation) -> float:
    return float(np.max(np.abs(deviation), initial=0.0))


def oracle_equivalence(points: np.ndarray, losses=DEFAULT_LOSSES) -> CheckResult:
    """Iterated cascade versus summed closed form.

    Each point makes the recycling passes that bring its loop-ratio power
    under STAGE_TOL.
    """
    phi, theta0, loss = _at_losses(points, losses)
    passes = passes_for_tolerance(phi, theta0, loss, STAGE_TOL)
    iterated = cascade(phi, theta0, loss, passes)
    closed = closed_form(phi, theta0, loss)
    worst = max(
        _worst(iterated.upsilon - closed.upsilon),
        _worst(iterated.xi - closed.xi),
        _worst(np.abs(iterated.vac_a) - np.abs(closed.vac_a)),
        _worst(np.abs(iterated.vac_b) - np.abs(closed.vac_b)),
    )
    return CheckResult("oracle equivalence (cascade vs closed form)", worst, ORACLE_TOL)


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


def finite_difference_factors(phi, theta0, loss, step=None):
    """lambda1 and lambda2 by Richardson-extrapolated central differences
    in phi (broadcasts).

    Independent of the closed trigonometric kernels: differentiates the
    closed-form coefficient upsilon.  The homodyne factor is the slope of
    the carrier-referenced mean quadrature, 2|Re(d upsilon/d phi)|; the
    bound factor is 2|d upsilon/d phi|.  Combining the central differences
    at step and step/2 as (4*D(step/2) - D(step))/3 cancels their step**2
    error term, so the truncation error scales with step**4.

    `step` (a number or an array broadcasting with the points) defaults per
    point to min(DEFAULT_STEP, 0.01*|1 - gamma|): near the resonance
    upsilon varies on a scale of |1 - gamma| in phi, about L at small
    loss, so a fixed step would span it.
    """
    if step is None:
        step = np.minimum(DEFAULT_STEP, 0.01 * np.abs(1.0 - loop_ratio(phi, theta0, loss)))
    else:
        step = np.asarray(step, dtype=float)
        outside = ~((step > 0.0) & (step <= 1e-3))
        if np.any(outside):
            raise ParameterError(f"step must lie in (0, 1e-3], got {float(step[outside].flat[0])}")
    phi = np.asarray(phi)
    # Twice the central-difference slope of upsilon at step/2 and at step.
    half, full = ((closed_form(phi + h, theta0, loss).upsilon
                   - closed_form(phi - h, theta0, loss).upsilon) / h for h in (0.5 * step, step))
    slope = (4.0 * half - full) / 3.0
    return np.abs(slope.real), np.abs(slope)


def _factor_vs_derivative(name: str, closed, numeric) -> CheckResult:
    """Closed factor versus finite-difference values on a derivative grid,
    relative.

    Points where the factor is below SMALL_VALUE_FLOOR are excluded: near
    signal nulls the relative comparison measures only cancellation noise.
    """
    mask = closed >= SMALL_VALUE_FLOOR
    if not mask.any():
        n = closed.shape[-1]
        raise ParameterError(f"no point of the {n}x{n} derivative grid has a "
                             f"factor >= {SMALL_VALUE_FLOOR}")
    worst = _worst((numeric[mask] - closed[mask]) / closed[mask])
    return CheckResult(name, worst, DERIVATIVE_RTOL)


def hd_factor_vs_derivative(closed, numeric) -> CheckResult:
    """Closed homodyne factor versus finite-difference error propagation."""
    return _factor_vs_derivative("homodyne factor vs finite difference", closed, numeric)


def qcrb_factor_vs_derivative(closed, numeric) -> CheckResult:
    """Closed bound factor versus twice the modulus of the coefficient slope."""
    return _factor_vs_derivative("qcrb factor vs finite difference", closed, numeric)


def photon_factor_consistency(coef: RecycledCoefficients, lambda3) -> CheckResult:
    """Closed photon factor versus |upsilon|**2 + |xi|**2, relative."""
    assembled = np.abs(coef.upsilon) ** 2 + np.abs(coef.xi) ** 2
    worst = _worst((lambda3 - assembled) / np.maximum(1.0, assembled))
    return CheckResult("photon factor vs coefficient sum", worst, PHOTON_SUM_RTOL)


# The phases of `run_all` after the oracle, one function each so that a
# phase's arrays are freed before the next phase allocates its own.
def _identity_checks(points: np.ndarray, losses) -> tuple[CheckResult, ...]:
    """The three sum rules on one closed form of the sample."""
    phi, theta0, loss = _at_losses(points, losses)
    coef = closed_form(phi, theta0, loss)
    return (output_normalization(coef), energy_balance(coef, loss),
            photon_factor_consistency(coef, lambda3_values(phi, theta0, loss)))


def _derivative_checks(grid_n: int, losses) -> tuple[CheckResult, ...]:
    """Both factor checks on one finite-difference pass over the grid."""
    axis = np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False)
    phi, theta0 = axis[:, None], axis[None, :]
    loss = np.asarray(losses, dtype=float)[:, None, None]
    hd, qcrb = finite_difference_factors(phi, theta0, loss)
    return (hd_factor_vs_derivative(lambda1_values(phi, theta0, loss), hd),
            qcrb_factor_vs_derivative(lambda2_values(phi, theta0, loss), qcrb))


def run_all(points: int = DEFAULT_POINTS, seed: int = DEFAULT_SEED,
            losses=DEFAULT_LOSSES, grid_n: int = DEFAULT_GRID) -> list[CheckResult]:
    """Run every suite and return the individual results.

    Every input is checked before anything is allocated: the losses, that
    points, seed and grid_n are integers, that points >= 1, seed >= 0 and
    the grid has 2 points per axis, and both suite sizes, points x losses
    and grid_n**2 x derivative losses, against MAX_POINT_LOSSES.  The
    derivative phase runs first, so a grid with no point above
    SMALL_VALUE_FLOOR is refused before any point is sampled; then the
    oracle, with nothing else held; then the identity phase.
    """
    check_loss(losses)
    for name, value in (("points", points), ("seed", seed), ("grid_n", grid_n)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ParameterError(f"{name} must be an integer, got {value}")
    # Python integers, so that the size products below cannot wrap.
    points, seed, grid_n = int(points), int(seed), int(grid_n)
    if points < 1:
        raise ParameterError(f"points must be >= 1, got {points}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if grid_n < 2:
        raise ParameterError(f"derivative grid needs at least 2 points per axis, got {grid_n}")
    # The finite-difference comparisons need loss > 0 to stay clear of the
    # lossless resonance; fall back to the stock losses otherwise.
    derivative_losses = tuple(l for l in losses if l > 0.0) or DERIVATIVE_LOSSES
    for what, count in ((f"{points} points", points * len(losses)),
                        (f"{grid_n}x{grid_n} grid", grid_n**2 * len(derivative_losses))):
        if count > MAX_POINT_LOSSES:
            raise ParameterError(f"{what}: {count} point-losses exceed {MAX_POINT_LOSSES}")
    hd, qcrb = _derivative_checks(grid_n, derivative_losses)
    pts = sample_points(points, seed)
    oracle = oracle_equivalence(pts, losses)
    normalization, energy, photon = _identity_checks(pts, losses)
    return [oracle, normalization, energy, hd, qcrb, photon]
