"""Steady state of the interferometer with its second output fed back into
its second input through a phase shift theta0 and a power loss L.

Closing the loop sums a geometric series in the loop ratio

    gamma = sqrt(1-L) * exp(-i*theta0) * s22,   |gamma| = sqrt(1-L)*|sin(phi/2)|,

which contracts whenever L > 0.  Two array routes compute the coefficients,
both broadcasting over (phi, theta0, loss): `closed_form` evaluates the
summed series directly; `cascade` composes m recycling passes of the
equivalent cascade of single interferometers (one pass per stage), the same
m at every point, into gamma**m and the partial sum 1 + gamma + ... +
gamma**(m-1) by repeated squaring, carrying their phase derivatives along,
and serves as the independent numerical oracle for the coefficients and for
the phase slope of upsilon that the sensitivity factors measure.

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

from .errors import ResonantPoleError
from .optics import check_integer, check_loss, mzi_entries, raise_where

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


def loop_ratio(phi, theta0, loss):
    """Per-pass amplitude ratio gamma of the recycling loop (broadcasts)."""
    return _feedback(theta0, loss) * mzi_entries(phi)[3]


def refuse_pole(denom, phi, theta0, loss) -> None:
    """Raise ResonantPoleError naming the first point where the loop
    denominator 1 - gamma is below POLE_THRESHOLD in magnitude: the lossless
    pole, where no steady state exists.  `closed_form` and the pass count of
    `verification` both refuse the pole here."""
    raise_where(np.abs(denom) < POLE_THRESHOLD, ResonantPoleError,
                "lossless loop resonance: no steady state", phi, theta0, loss)


def closed_form(phi, theta0, loss) -> RecycledCoefficients:
    """Steady-state coefficients from the summed geometric series (broadcasts).

    Raises ResonantPoleError (`refuse_pole`) if any point lies within
    POLE_THRESHOLD of the lossless pole, where |1 - gamma| < POLE_THRESHOLD.
    """
    s11, s12, s21, s22 = mzi_entries(phi)
    feedback = _feedback(theta0, loss)
    denom = 1.0 - feedback * s22
    refuse_pole(denom, phi, theta0, loss)
    sqrt_loss = np.sqrt(loss)
    return RecycledCoefficients(
        upsilon=s11 + s12 * s21 * (feedback / denom),
        vac_a=s12 * sqrt_loss / denom,
        xi=s21 / denom,
        vac_b=s22 * sqrt_loss / denom,
    )


def cascade(phi, theta0, loss, passes) -> tuple[RecycledCoefficients, np.ndarray]:
    """Coefficients after `passes` recycling passes, and their phase slope
    sigma = 2 d(upsilon)/d(phi) (broadcasts over the phases and the loss;
    every point makes the same integer count of passes).

    A pass feeds the second output of one stage, attenuated by sqrt(1-L)
    and rotated by exp(-i*theta0), plus sqrt(L) of fresh vacuum, into the
    second input of the next.  Converges to `closed_form` at the geometric
    rate |gamma|.  passes=0 is the conventional interferometer with no
    recycling.

    After m passes the port b holds seed = gamma**m of the first stage's
    vacuum and total = 1 + gamma + ... + gamma**(m - 1) times each per-pass
    offset: feedback*s21 of the input and sqrt(L) of the loss vacuum.  With
    power = gamma**(2**j) and block = 1 + ... + gamma**(2**j - 1), 2**j more
    passes map seed -> power*seed and total -> power*total + block, and
    squaring maps (power, block) -> (power**2, block*(1 + power)).  The
    cascade takes that step for each set bit j of m, so it costs one array
    step per bit of m.  The same steps carry each array's derivative in phi
    by the product rule, starting from d(gamma) = feedback*d(s22); as
    upsilon = s11 + feedback*s12**2*total, the slope is
    sigma = 2*(d(s11) + feedback*(2*s12*d(s12)*total + s12**2*d(total))).
    No step divides by 1 - gamma, which keeps the route independent of
    `closed_form`.
    """
    passes = check_integer("passes", passes, 0)
    s11, s12, s21, s22 = mzi_entries(phi)
    # d(exp(-i*phi))/d(phi) = -i*exp(-i*phi), so d(s11) = -i*(s11 + 1/2),
    # d(s12) = d(s21) = -i*(s12 - i/2) and d(s22) = -d(s11).
    ds11, ds12 = -1j * (s11 + 0.5), -1j * s12 - 0.5
    feedback = _feedback(theta0, loss)
    shape = np.broadcast_shapes(np.shape(phi), np.shape(theta0), np.shape(loss))

    seed, total = np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex)
    dtotal = np.zeros(shape, dtype=complex)
    power, block = feedback * s22, 1.0
    dpower, dblock = -feedback * ds11, 0.0
    # numpy takes `x * temporary` in place as `temporary * x`, but only
    # for arrays past 256 KiB, and fused multiply-adds round the two orders
    # of a complex product apart.  No product here has a temporary second
    # operand (hence `grow`), so no digit depends on the array size.
    for bit in range(passes.bit_length()):
        if bit:
            grow = 1.0 + power
            power, dpower, block, dblock = (power * power, 2.0 * power * dpower, block * grow,
                                            dblock * grow + block * dpower)
        if passes >> bit & 1:
            seed, total, dtotal = (power * seed, power * total + block,
                                   dpower * total + power * dtotal + dblock)
    coef_in = feedback * s21 * total
    # The first stage's vacuum and the loss vacuum are independent modes, so
    # each output takes them in quadrature: |seed|**2 + L*|total|**2.
    vacuum = np.sqrt(np.abs(seed) ** 2 + loss * np.abs(total) ** 2)
    slope = 2.0 * (ds11 + (2.0 * s12 * ds12 * total + s12 * s12 * dtotal) * feedback)

    coefficients = RecycledCoefficients(
        upsilon=s11 + s12 * coef_in,
        vac_a=np.abs(s12) * vacuum + 0j,
        xi=s21 + s22 * coef_in,
        vac_b=np.abs(s22) * vacuum + 0j,
    )
    return coefficients, slope

