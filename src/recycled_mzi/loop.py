"""Steady state of the interferometer with its second output fed back into
its second input through a phase shift theta0 and a power loss L.

Closing the loop sums a geometric series in the loop ratio

    gamma = sqrt(1-L) * exp(-i*theta0) * s22,   |gamma| = sqrt(1-L)*|sin(phi/2)|,

which contracts whenever L > 0.  Two array routes compute the coefficients,
both broadcasting over (phi, theta0, loss): `closed_form` evaluates the
summed series directly; `cascade` rebuilds the same coefficients by stepping
through the equivalent cascade of single interferometers, one recycling pass
per stage, and serves as an independent numerical oracle.

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
from .optics import mzi_entries

# Below this loop-denominator magnitude the steady state is numerically
# meaningless; reachable only at L = 0 with phi = pi, theta0 = 0 (mod 2*pi).
POLE_THRESHOLD = 1e-9

# Most recycling passes a cascade may make.  The lockstep oracle costs one
# array step per pass of its longest cascade, so this bounds its runtime.
STAGE_CAP = 10**6


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
    """Amplitude factor sqrt(1-L)*exp(-i*theta0) of one trip round the loop."""
    loss = np.asarray(loss, dtype=float)
    outside = ~((loss >= 0.0) & (loss <= 1.0))
    if np.any(outside):
        raise ParameterError(f"loss must lie in [0, 1], got {float(loss[outside].flat[0])}")
    return np.sqrt(1.0 - loss) * np.exp(-1j * np.asarray(theta0))


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

    Steps the cascade recursion: the second input of stage k+1 is the
    second output of stage k, attenuated by sqrt(1-L) and rotated by
    exp(-i*theta0), plus sqrt(L) of fresh vacuum.  Converges to
    `closed_form` at the geometric rate |gamma|.  passes=0 is the
    conventional interferometer with no recycling.

    Each point makes its own number of passes.  All points step in
    lockstep, those with the most passes first, so that the points still
    recycling at any pass form a prefix of that order; the cost is one
    array step per pass of the longest cascade.
    """
    passes = np.asarray(passes)
    outside = (passes < 0) | (passes > STAGE_CAP)
    if np.any(outside):
        raise ParameterError(f"recycling passes must lie in [0, {STAGE_CAP}], "
                             f"got {int(passes[outside].flat[0])}")
    s11, s12, s21, s22 = mzi_entries(phi)
    feedback = _feedback(theta0, loss)
    shape = np.broadcast_shapes(np.shape(phi), np.shape(theta0), np.shape(loss), passes.shape)
    flat_passes = np.broadcast_to(passes, shape).ravel()
    order = np.argsort(-flat_passes, kind="stable")
    gamma, drive, sqrt_loss = (np.broadcast_to(x, shape).ravel()[order]
                               for x in (feedback * s22, feedback * s21, np.sqrt(loss)))

    # Coefficients of the stage input port b: on the coherent input, on the
    # first stage's vacuum port, and on the loss-channel vacuum.  A pass maps
    # each row c to gamma*c + offset.
    coef = np.zeros((3, flat_passes.size), dtype=complex)
    coef[1] = 1.0
    offset = np.stack([drive, np.zeros_like(drive), sqrt_loss])
    ascending = np.sort(flat_passes)
    pass_index = np.arange(flat_passes.max(initial=0))
    for n in ascending.size - np.searchsorted(ascending, pass_index, side="right"):
        rows = coef[:, :n]
        rows *= gamma[:n]
        rows += offset[:, :n]
    unsorted = np.empty_like(coef)
    unsorted[:, order] = coef
    coef_in, coef_seed, coef_vac = unsorted.reshape((3,) + shape)

    return RecycledCoefficients(
        upsilon=s11 + s12 * coef_in,
        vac_a=np.hypot(np.abs(s12 * coef_seed), np.abs(s12 * coef_vac)) + 0j,
        xi=s21 + s22 * coef_in,
        vac_b=np.hypot(np.abs(s22 * coef_seed), np.abs(s22 * coef_vac)) + 0j,
    )


def passes_for_tolerance(phi, theta0, loss, tol: float):
    """Smallest m with |gamma|**m < tol per point (broadcasts).

    m recycling passes bring the cascade's truncation error under tol.
    Raises ConvergenceError, before any cascade is stepped, where the loop
    does not contract or needs more than STAGE_CAP passes.
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
    _raise_where(m > STAGE_CAP, ConvergenceError,
                 f"the cascade needs more than {STAGE_CAP} passes to reach tol={tol}",
                 phi, theta0, loss)
    return m
