"""Steady state of the interferometer with its second output fed back into
its second input through a phase shift theta0 and a power loss L.

Closing the loop sums a geometric series in the loop ratio

    gamma = sqrt(1-L) * exp(-i*theta0) * s22,   |gamma| = sqrt(1-L)*|sin(phi/2)|,

which contracts whenever L > 0.  Two array routes compute the coefficients,
both broadcasting over (phi, theta0, loss): `closed_form` evaluates the
summed series directly; `cascade` composes the m recycling passes of the
equivalent cascade of single interferometers (one pass per stage) into
gamma**m and the partial sum 1 + gamma + ... + gamma**(m-1) by repeated
squaring, and serves as an independent numerical oracle.

Vacuum bookkeeping: the cascade feeds vacuum into the first stage's unused
port and through every loss splitter.  Vacuum modes are phase-insensitive
and enter every first or second moment only through the sum of squared
coefficient magnitudes, so each output carries a single aggregate vacuum
coefficient; `cascade` reports it with zero phase, and comparisons against
the closed form are meaningful for its magnitude only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, ResonantPoleError
from .optics import check_loss, mzi_entries

# Below this loop-denominator magnitude the steady state is numerically
# meaningless; reachable only at L = 0 with phi = pi, theta0 = 0 (mod 2*pi).
POLE_THRESHOLD = 1e-9


@dataclass(frozen=True)
class RecycledCoefficients:
    """Linear input-output coefficients of the recycled interferometer.

    upsilon and xi map the coherent input onto the monitored output a and
    the recirculated output b; vac_a and vac_b are the aggregate vacuum
    coefficients of the same outputs.  |upsilon|**2 + |vac_a|**2 = 1 (output
    a is a proper free mode) and |upsilon|**2 + loss*|xi|**2 = 1 (every
    input photon either exits at a or is absorbed on the recycling arm).
    The circulating output b is not a free mode, so no such sum rule
    constrains xi and vac_b; |xi| may exceed 1 when the loop resonates.

    Fields are complex arrays, shaped as the broadcast arguments of
    `closed_form` or `cascade`.
    """

    upsilon: complex
    vac_a: complex
    xi: complex
    vac_b: complex


def _feedback(theta0, loss):
    """Amplitude factor sqrt(1-L)*exp(-i*theta0) of one trip round the loop.

    Each route of this module takes its loss through here first, so the
    loss is checked here.
    """
    return np.sqrt(1.0 - check_loss(loss)) * np.exp(-1j * np.asarray(theta0))


def _raise_where(mask, error: type, message: str, phi, theta0, loss) -> None:
    """Raise `error` naming the first point where `mask` holds."""
    if np.any(mask):
        at = np.unravel_index(np.argmax(mask), np.shape(mask))
        phi, theta0, loss = (float(np.broadcast_to(x, np.shape(mask))[at])
                             for x in (phi, theta0, loss))
        raise error(f"{message} at phi={phi}, theta0={theta0}, loss={loss}")


def loop_ratio(phi, theta0, loss):
    """Per-pass amplitude ratio gamma of the recycling loop (broadcasts)."""
    return _feedback(theta0, loss) * mzi_entries(phi)[3]


def closed_form(phi, theta0, loss) -> RecycledCoefficients:
    """Steady-state coefficients from the summed geometric series (broadcasts).

    Raises ResonantPoleError if any point lies within POLE_THRESHOLD of the
    lossless pole.
    """
    s11, s12, s21, s22 = mzi_entries(phi)
    feedback = _feedback(theta0, loss)
    denom = 1.0 - feedback * s22
    _raise_where(np.abs(denom) < POLE_THRESHOLD, ResonantPoleError,
                 "lossless loop resonance: no steady state", phi, theta0, loss)
    sqrt_loss = np.sqrt(loss)
    return RecycledCoefficients(
        upsilon=s11 + s12 * s21 * (feedback / denom),
        vac_a=s12 * sqrt_loss / denom,
        xi=s21 / denom,
        vac_b=s22 * sqrt_loss / denom,
    )


def cascade(phi, theta0, loss, passes) -> RecycledCoefficients:
    """Coefficients after a finite number of recycling passes (broadcasts).

    A pass feeds the second output of one stage, attenuated by sqrt(1-L)
    and rotated by exp(-i*theta0), plus sqrt(L) of fresh vacuum, into the
    second input of the next.  Converges to `closed_form` at the geometric
    rate |gamma|.  passes=0 is the conventional interferometer with no
    recycling.

    Each point makes its own number of passes.  After m passes the port b
    holds seed = gamma**m of the first stage's vacuum and total = 1 + gamma
    + ... + gamma**(m - 1) times each per-pass offset: feedback*s21 of the
    input and sqrt(L) of the loss vacuum.  With power = gamma**(2**j) and
    block = 1 + ... + gamma**(2**j - 1), 2**j more passes map seed ->
    power*seed and total -> power*total + block, and squaring maps (power,
    block) -> (power**2, block*(1 + power)).  A point takes that step where
    bit j of its count is set, so the cost is one array step per bit of the
    largest count.  No step divides by 1 - gamma, which keeps the route
    independent of `closed_form`.
    """
    passes = np.asarray(passes)
    if np.any(passes < 0):
        raise ParameterError(f"recycling passes must be >= 0, got {int(passes.min())}")
    s11, s12, s21, s22 = mzi_entries(phi)
    feedback = _feedback(theta0, loss)
    shape = np.broadcast_shapes(np.shape(phi), np.shape(theta0), np.shape(loss), passes.shape)

    seed, total = np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex)
    power, block = feedback * s22, 1.0
    for bit in range(int(passes.max(initial=0)).bit_length()):
        seed = np.where((passes >> bit) & 1, power * seed, seed)
        total = np.where((passes >> bit) & 1, power * total + block, total)
        power, block = power * power, block * (1.0 + power)
    coef_in, coef_vac = feedback * s21 * total, np.sqrt(loss) * total

    return RecycledCoefficients(
        upsilon=s11 + s12 * coef_in,
        vac_a=np.hypot(np.abs(s12 * seed), np.abs(s12 * coef_vac)) + 0j,
        xi=s21 + s22 * coef_in,
        vac_b=np.hypot(np.abs(s22 * seed), np.abs(s22 * coef_vac)) + 0j,
    )


def passes_for_tolerance(phi, theta0, loss, tol: float):
    """Smallest m with |gamma|**m < tol per point (broadcasts).

    m recycling passes bring the cascade's truncation error under tol.
    Raises ConvergenceError where the loop does not contract.  The count
    fits int64: |gamma| < 1 means |gamma| <= 1 - 2**-53, so m stays below
    about 6.7e18 < 2**63 for every double tol > 0.
    """
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    gmag = np.abs(loop_ratio(phi, theta0, loss))
    _raise_where(~(gmag < 1.0), ConvergenceError,
                 "loop ratio magnitude >= 1: the series does not contract", phi, theta0, loss)
    # Log estimate, then correct for rounding at the boundary.
    with np.errstate(divide="ignore"):
        m = np.maximum(1.0, np.ceil(np.log(tol) / np.log(gmag))).astype(np.int64)
    while np.any(short := gmag**m >= tol):
        m = m + short
    while np.any(long := (m > 1) & (gmag ** (m - 1) < tol)):
        m = m - long
    return m
