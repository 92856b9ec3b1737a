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
`lambda*` functions and their `*_values` vectorized kernels) and an
independent route through the loop coefficients or finite differences,
which lives in the verification suites.

The local oscillator of the homodyne detector is referenced to the input
carrier, so the input carrier phase drops out of every factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loop import RecycledCoefficients, check_off_resonance, closed_form_coefficients
from .optics import LoopParameters

# The closed trigonometric kernels divide by the squared loop denominator,
# which loses every significant double-precision digit well before the
# coefficient formulas do; reject a wider neighborhood of the lossless
# resonance for them.
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
    trans = np.sqrt(1.0 - np.asarray(loss))
    theta_shift = np.cos(np.asarray(theta0) + np.asarray(phi)) - np.cos(theta0)
    # Half the squared modulus of the common loop denominator.
    half_denom_sq = (2.0 * trans * theta_shift - (1.0 - np.asarray(loss)) * np.cos(phi)
                     - np.asarray(loss) + 3.0)
    return trans, theta_shift, half_denom_sq


def lambda1_values(phi, theta0, loss):
    """Homodyne enhancement factor, broadcasting over all arguments.

    A scalar call and an array call can differ by up to 2 ulp (in about
    0.1 % of points): `half_denom_sq**2` calls pow() on a numpy scalar but
    multiplies on an array.  The lambda2 and lambda3 kernels have no power
    and agree exactly.
    """
    trans, _, half_denom_sq = _trig_pieces(phi, theta0, loss)
    loss = np.asarray(loss)
    bracket = ((2.0 - loss - 2.0 * trans * np.cos(theta0)) * np.sin(phi)
               - trans * (np.cos(phi) + 1.0) * np.sin(theta0))
    return 4.0 * np.abs((trans * np.cos(theta0) - 1.0) * bracket) / half_denom_sq**2


def lambda2_values(phi, theta0, loss):
    """Quantum Cramer-Rao enhancement factor, broadcasting."""
    trans, _, half_denom_sq = _trig_pieces(phi, theta0, loss)
    return np.abs(2.0 * (2.0 - np.asarray(loss) - 2.0 * trans * np.cos(theta0))
                  / half_denom_sq)


def lambda3_values(phi, theta0, loss):
    """Circulating-photon enhancement factor, broadcasting.

    Equals |upsilon|**2 + |xi|**2 and is >= 1 for every loss in (0, 1]:
    recycling can only add photons to the interferometer.
    """
    trans, theta_shift, half_denom_sq = _trig_pieces(phi, theta0, loss)
    return (2.0 * trans * theta_shift - 2.0 * np.asarray(loss) + 4.0) / half_denom_sq


def _factor_at(kernel, params: LoopParameters) -> float:
    check_off_resonance(params.phi, params.theta0, params.loss, KERNEL_POLE_THRESHOLD)
    return float(kernel(params.phi, params.theta0, params.loss))


def lambda1(params: LoopParameters) -> float:
    """Homodyne enhancement factor at one operating point.

    Zero (not an error) where the mean quadrature is stationary in phi;
    the sensitivity there is reported as +inf by `merit_report`.
    """
    return _factor_at(lambda1_values, params)


def lambda2(params: LoopParameters) -> float:
    """Quantum Cramer-Rao enhancement factor at one operating point."""
    return _factor_at(lambda2_values, params)


def lambda3(params: LoopParameters) -> float:
    """Circulating-photon enhancement factor at one operating point."""
    return _factor_at(lambda3_values, params)


def photon_numbers(params: LoopParameters) -> tuple[float, float, float]:
    """Mean photon numbers (output a, output b, total inside).

    Energy conservation across the lossless splitters makes the photon
    number inside the interferometer equal to the sum of the two output
    numbers, |upsilon*alpha|**2 + |xi*alpha|**2.
    """
    return _photon_numbers(closed_form_coefficients(params), params.alpha_mag)


def _photon_numbers(coef: RecycledCoefficients, alpha_mag: float) -> tuple[float, float, float]:
    n_input = alpha_mag**2
    n_a = abs(coef.upsilon) ** 2 * n_input
    n_b = abs(coef.xi) ** 2 * n_input
    return n_a, n_b, n_a + n_b


def merit_report(params: LoopParameters) -> MeritReport:
    """All figures of merit at one operating point.

    The wider kernel threshold guards the whole report, so the resonance is
    checked and the coefficients are built once.
    """
    coef = closed_form_coefficients(params, KERNEL_POLE_THRESHOLD)
    l1, l2, l3 = (float(kernel(params.phi, params.theta0, params.loss))
                  for kernel in (lambda1_values, lambda2_values, lambda3_values))
    n_a, n_b, n_total = _photon_numbers(coef, params.alpha_mag)
    return MeritReport(
        lambda1=l1,
        lambda2=l2,
        lambda3=l3,
        dphi_hd=1.0 / (l1 * params.alpha_mag) if l1 * params.alpha_mag > 0.0 else math.inf,
        dphi_qcrb=1.0 / (l2 * params.alpha_mag) if l2 * params.alpha_mag > 0.0 else math.inf,
        n_a_out=n_a,
        n_b_out=n_b,
        n_total_inside=n_total,
        upsilon=coef.upsilon,
        xi=coef.xi,
    )


METRICS = {
    "lambda1": lambda1_values,
    "lambda2": lambda2_values,
    "lambda3": lambda3_values,
}
