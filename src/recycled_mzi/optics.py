"""Operating point of the recycled interferometer and the scattering matrix
of its Mach-Zehnder core: balanced beam splitter, one-arm phase shifter,
balanced beam splitter.

Sign convention: the phase shifter multiplies the upper arm by exp(-i*phi)
and leaves the lower arm untouched.  All closed forms downstream assume this
convention, so it must not be changed in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ParameterError


def check_loss(loss) -> np.ndarray:
    """The recycling-arm loss as a float64 array, checked element by element.

    Every element must be a real number in [0, 1].  A bool is refused though
    True == 1: a flag is not a loss.  A float64 array is returned without a
    copy.  Raises ParameterError naming the first element that is not a
    real number, is a bool, NaN or infinite, or lies outside [0, 1].
    """
    # A Python scalar or sequence keeps its elements' own types as objects,
    # so a bool among numbers is seen before conversion turns it into 1.0.
    given = loss if isinstance(loss, np.ndarray) else np.asarray(loss, dtype=object)
    # Elements that are not losses become NaN, which the range test refuses.
    if given.dtype == object:
        values = np.array([np.nan if isinstance(x, (bool, np.bool_)) or not isinstance(x, Real)
                           else x for x in given.flat], dtype=float).reshape(given.shape)
    elif given.dtype.kind in "fiu":
        values = given.astype(float, copy=False)
    else:
        values = np.full(given.shape, np.nan)
    # min and max propagate NaN, so these two comparisons also refuse it.
    if values.min(initial=np.inf) >= 0.0 and values.max(initial=-np.inf) <= 1.0:
        return values
    flat = values.ravel()
    first = np.argmax(~((flat >= 0.0) & (flat <= 1.0)))
    raise ParameterError(f"loss must lie in [0, 1], got {given.flat[first]}")


@dataclass(frozen=True)
class LoopParameters:
    """Operating point of the recycled interferometer.

    phi and theta0 are phases in radians (any finite reals with a finite
    sum; all derived quantities are 2*pi-periodic).  loss is the power
    fraction lost per round trip on the recycling arm.  alpha_mag is the
    coherent input amplitude, so alpha_mag**2 is the mean input photon
    number.  The input carrier phase is not a field: the homodyne local
    oscillator is referenced to the carrier, so no figure of merit depends
    on it.
    """

    phi: float
    theta0: float
    loss: float
    alpha_mag: float = 1.0

    def __post_init__(self) -> None:
        # The kernels take the cosine of theta0 + phi, so the sum must be
        # finite too.
        if not (isinstance(self.phi, Real) and isinstance(self.theta0, Real)
                and math.isfinite(self.phi + self.theta0)):
            raise ParameterError("phi, theta0 and their sum must be finite real numbers")
        if check_loss(self.loss).ndim:
            raise ParameterError(f"loss must be one number, got shape {np.shape(self.loss)}")
        # The photon numbers scale with alpha_mag**2, which must stay finite.
        if not (isinstance(self.alpha_mag, Real) and self.alpha_mag >= 0.0
                and math.isfinite(self.alpha_mag * self.alpha_mag)):
            raise ParameterError(
                f"alpha_mag must be a real number >= 0 with a finite square, got {self.alpha_mag!r}")


def mzi_entries(phi):
    """Expanded entries of the Mach-Zehnder matrix, broadcasting over phi.

    The matrix is bs @ diag(exp(-i*phi), 1) @ bs with the balanced splitter
    bs = [[1, i], [i, 1]]/sqrt(2).  Returns (s11, s12, s21, s22) with
        s11 = (exp(-i*phi) - 1)/2      s12 = i (exp(-i*phi) + 1)/2
        s21 = i (exp(-i*phi) + 1)/2    s22 = (1 - exp(-i*phi))/2
    """
    u = np.exp(-1j * np.asarray(phi))
    s11 = 0.5 * (u - 1.0)
    s12 = 0.5j * (u + 1.0)
    return s11, s12, s12, -s11

