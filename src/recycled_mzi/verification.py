"""Cross-route verification suites.

Every quantity in this package has two independent computation routes:
summed closed forms versus the iterated recycling cascade for the loop
coefficients, and closed trigonometric forms versus the exact phase
derivative of the closed-form coefficient for the enhancement factors.
The checks here drive both routes over seeded pseudo-random points and
regular grids and report the worst deviation of each pair, together with
the tolerance it must stay under.  The command line `verify` subcommand
prints these results and gates its exit code on them.

`run_all` evaluates each route once, in one broadcast call over all its
points and losses, with the losses along the first axis.  The oracle suite
evaluates its own two routes; the other suites only compare arrays that
`run_all` evaluated for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConvergenceError, ParameterError
from .loop import RecycledCoefficients, _denominator, cascade, closed_form, loop_ratio
from .metrology import lambda1_values, lambda2_values, lambda3_values
from .optics import LoopParameters, _raise_where, check_loss

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
# 1000x1000 derivative grid at the six default losses.  Peak memory grows
# linearly with them, about 47 bytes each on the derivative grid (the slope of
# peak RSS between `verify --points 1` at --grid 500 and 1000) and 262 on the
# sampled points (between `--points 10**6` and 6*10**6 at one loss; numpy
# 2.4.6, x86-64), so a run at the cap peaks near 0.3 GB or 1.6 GB
# respectively.
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

    Every point makes the same 2**k recycling passes, with k the fewest
    squarings that bring the sample's largest loop-ratio magnitude under
    STAGE_TOL, so each point's truncation stays below it.  That magnitude,
    sqrt(1-L)*|sin(phi/2)|, peaks at the smallest loss; an empty loss list
    counts as the blocked loop L = 1.  Raises ConvergenceError where it does
    not contract.
    """
    phi, theta0, loss = _at_losses(points, losses)
    least = loss.min(initial=1.0)
    gmag = np.abs(loop_ratio(phi, theta0, least))
    _raise_where(~(gmag < 1.0), ConvergenceError,
                 "loop ratio magnitude >= 1: the series does not contract", phi, theta0, least)
    power, doublings = gmag.max(), 0
    while power >= STAGE_TOL:
        power, doublings = power * power, doublings + 1
    iterated = cascade(phi, theta0, loss, 2**doublings)
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


def derivative_factors(phi, theta0, loss):
    """lambda1 = 2|Re s| and lambda2 = 2|s| from the exact slope s of the
    closed-form upsilon in phi (broadcasts), independent of the kernels.

    With u = exp(-i*phi), f = sqrt(1-L)*exp(-i*theta0) and
    d = 2 - f + f*u = 2*(1 - gamma), upsilon = (u - 1)/2 - f*(u + 1)**2/(2*d)
    and s = -i*u*[1/2 - f*(u + 1)*(4 - 3*f + f*u)/(2*d**2)], whose bracket
    is ((1 - f)/(1 - gamma))**2/2.  Raises ResonantPoleError exactly where
    `closed_form` does.
    """
    _, feedback, denom = _denominator(phi, theta0, loss)
    slope = -1j * np.exp(-1j * np.asarray(phi)) * ((1.0 - feedback) / denom) ** 2  # 2s
    return np.abs(slope.real), np.abs(slope)


def _factor_vs_derivative(name: str, closed, numeric) -> CheckResult:
    """Closed factor versus exact-derivative values on a derivative grid,
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
    """Closed homodyne factor versus twice the real part of the coefficient slope."""
    return _factor_vs_derivative("homodyne factor vs exact derivative", closed, numeric)


def qcrb_factor_vs_derivative(closed, numeric) -> CheckResult:
    """Closed bound factor versus twice the modulus of the coefficient slope."""
    return _factor_vs_derivative("qcrb factor vs exact derivative", closed, numeric)


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
    """Both factor checks on one exact-derivative pass over the grid."""
    axis = np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False)
    phi, theta0 = axis[:, None], axis[None, :]
    loss = np.asarray(losses, dtype=float)[:, None, None]
    hd, qcrb = derivative_factors(phi, theta0, loss)
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
    # An even grid holds the lossless pole, so the derivative comparisons
    # need loss > 0; fall back to the stock losses otherwise.
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
