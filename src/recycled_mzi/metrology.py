"""Figures of merit of the recycled interferometer.

Three dimensionless enhancement factors compare the recycled scheme with a
conventional interferometer fed by the same coherent state:

* lambda1: homodyne phase sensitivity gain.  The shot-noise-limited
  sensitivity of the conventional scheme, 1/|alpha|, improves to
  1/(lambda1*|alpha|).
* lambda2: quantum Cramer-Rao bound gain.  The conventional bound 1/|alpha|
  tightens to 1/(lambda2*|alpha|), independent of the detection scheme.
* lambda3: circulating photon gain, the mean photon number inside the
  interferometer in units of the input photon number |alpha|**2.

Each factor has two implementations: a closed trigonometric form (the
`*_values` kernels, broadcasting over (phi, theta0, loss); `merit_report`
evaluates all three at one operating point) and an independent route through
the loop coefficients or finite differences, which lives in the verification
suites.

The local oscillator of the homodyne detector is referenced to the input
carrier, so the input carrier phase drops out of every factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResonantPoleError
from .loop import _raise_where, closed_form
from .optics import LoopParameters

# The closed trigonometric kernels divide by the squared loop denominator,
# which loses every significant double-precision digit well before the
# coefficient formulas do; `_trig_pieces` rejects a wider neighborhood of the
# lossless resonance for all three.
KERNEL_POLE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class MeritReport:
    """All figures of merit at one operating point.

    dphi_hd and dphi_qcrb are the homodyne sensitivity and the quantum
    Cramer-Rao bound in radians; they are +inf where the corresponding
    factor vanishes or the input carries no photons.  upsilon and xi are the
    closed-form loop coefficients the photon numbers derive from.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    dphi_hd: float
    dphi_qcrb: float
    n_a_out: float
    n_b_out: float
    n_total_inside: float
    upsilon: complex
    xi: complex


def _trig_pieces(phi, theta0, loss):
    """Pieces shared by the kernels, in this order: loss, sqrt(1-L), cos(phi),
    cos(theta0), half_denom_sq and the full-size
    shift = 2*sqrt(1-L)*(cos(theta0 + phi) - cos(theta0)).

    Only lambda3 needs the shift; lambda1 and lambda2 take the first five
    pieces, so it is freed before their own temporaries are built.

    Raises ResonantPoleError where |1 - gamma| < KERNEL_POLE_THRESHOLD.  The
    minimum is checked first: the mask costs more, and only a hit needs it.
    """
    loss = np.asarray(loss)
    trans_sq = 1.0 - loss
    trans = np.sqrt(trans_sq)
    cos_phi, cos_theta0 = np.cos(phi), np.cos(theta0)
    shift = 2.0 * trans * (np.cos(np.asarray(theta0) + np.asarray(phi)) - cos_theta0)
    # Half the squared modulus of the common loop denominator, 2*|1 - gamma|**2.
    half_denom_sq = shift - trans_sq * cos_phi - loss + 3.0
    floor = 2.0 * KERNEL_POLE_THRESHOLD**2
    if half_denom_sq.min(initial=np.inf) < floor:
        _raise_where(half_denom_sq < floor, ResonantPoleError,
                     f"|1 - gamma| < {KERNEL_POLE_THRESHOLD}, too near the lossless resonance",
                     phi, theta0, loss)
    return loss, trans, cos_phi, cos_theta0, half_denom_sq, shift


def lambda1_values(phi, theta0, loss):
    """Homodyne enhancement factor, broadcasting over all arguments.

    Zero (not an error) where the mean quadrature is stationary in phi.
    """
    loss, trans, cos_phi, cos_theta0, half_denom_sq = _trig_pieces(phi, theta0, loss)[:5]
    # One expression, so no full-size intermediate stays bound to a name.
    signal = np.abs((trans * cos_theta0 - 1.0)
                    * ((2.0 - loss - 2.0 * trans * cos_theta0) * np.sin(phi)
                       - trans * (cos_phi + 1.0) * np.sin(theta0)))
    return 4.0 * signal / (half_denom_sq * half_denom_sq)


def lambda2_values(phi, theta0, loss):
    """Quantum Cramer-Rao enhancement factor, broadcasting."""
    loss, trans, _, cos_theta0, half_denom_sq = _trig_pieces(phi, theta0, loss)[:5]
    return np.abs(2.0 * (2.0 - loss - 2.0 * trans * cos_theta0) / half_denom_sq)


def lambda3_values(phi, theta0, loss):
    """Circulating-photon enhancement factor, broadcasting.

    Equals |upsilon|**2 + |xi|**2 and is >= 1 for every loss in (0, 1]:
    recycling can only add photons to the interferometer.
    """
    loss, _, _, _, half_denom_sq, shift = _trig_pieces(phi, theta0, loss)
    return (shift - 2.0 * loss + 4.0) / half_denom_sq


def merit_report(params: LoopParameters) -> MeritReport:
    """All figures of merit at one operating point.

    The kernels' pole guard is the wider one, so they run first.
    """
    l1, l2, l3 = (float(kernel(params.phi, params.theta0, params.loss))
                  for kernel in (lambda1_values, lambda2_values, lambda3_values))
    coef = closed_form(params.phi, params.theta0, params.loss)
    upsilon, xi = complex(coef.upsilon), complex(coef.xi)
    # Energy conservation across the lossless splitters makes the photon
    # number inside the interferometer the sum of the two output numbers.
    n_input = params.alpha_mag**2
    n_a = abs(upsilon) ** 2 * n_input
    n_b = abs(xi) ** 2 * n_input
    return MeritReport(
        lambda1=l1,
        lambda2=l2,
        lambda3=l3,
        dphi_hd=1.0 / (l1 * params.alpha_mag) if l1 * params.alpha_mag > 0.0 else math.inf,
        dphi_qcrb=1.0 / (l2 * params.alpha_mag) if l2 * params.alpha_mag > 0.0 else math.inf,
        n_a_out=n_a,
        n_b_out=n_b,
        n_total_inside=n_a + n_b,
        upsilon=upsilon,
        xi=xi,
    )


METRICS = {
    "lambda1": lambda1_values,
    "lambda2": lambda2_values,
    "lambda3": lambda3_values,
}
