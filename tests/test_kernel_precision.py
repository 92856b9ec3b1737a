"""The precision of the factor kernels, against a 60-digit reference.

Each `*_values` kernel is evaluated in double precision at seeded random
points of the torus, at points a few sqrt(L) from the resonance (pi, 0) and
at (pi, 0) itself, and compared with the same factor evaluated at 60 digits
on the same double inputs.  The reference is a precision yardstick, not a
route of its own: it evaluates the factors' defining expressions, so it
measures what rounding in double precision costs each kernel, and where.

The bounds are today's measured envelope, not a target.  A change to the
kernels may only lower them.
"""

import math

import mpmath
import numpy as np
import pytest

from recycled_mzi.metrology import METRICS


def reference_factors(phi, theta0, loss):
    """lambda1, lambda2 and lambda3 at one point, at 60 digits.

    With t = sqrt(1-L), u = exp(-i*phi), f = t*exp(-i*theta0) and
    gamma = f*(1 - u)/2: the slope of upsilon in phi is
    s = -(i*u/2)*((1 - f)/(1 - gamma))**2, lambda1 = 2|Re s|,
    lambda2 = 2|s| and lambda3 = (|1 - f|**2 + |1 + f*u|**2)/(2|1 - gamma|**2).
    """
    with mpmath.workdps(60):
        trans = mpmath.sqrt(1 - mpmath.mpf(loss))
        u = mpmath.expj(-mpmath.mpf(phi))
        feedback = trans * mpmath.expj(-mpmath.mpf(theta0))
        one_minus_gamma = 1 - feedback * (1 - u) / 2
        slope = -0.5j * u * ((1 - feedback) / one_minus_gamma) ** 2
        inside = ((abs(1 - feedback) ** 2 + abs(1 + feedback * u) ** 2)
                  / (2 * abs(one_minus_gamma) ** 2))
        return 2 * abs(slope.real), 2 * abs(slope), inside


def sample(loss):
    """300 seeded points on the torus, 300 within 3*sqrt(L) of (pi, 0) on
    each axis, and (pi, 0): phi and theta0 arrays."""
    rng = np.random.default_rng(2)
    near = np.array([math.pi, 0.0]) + math.sqrt(loss) * rng.uniform(-3.0, 3.0, (300, 2))
    points = np.vstack([rng.uniform(0.0, 2.0 * math.pi, (300, 2)), near, [[math.pi, 0.0]]])
    return points.T


def worst_errors(loss):
    """Each kernel's worst relative error on `sample(loss)`.

    lambda1's error is taken relative to lambda2, the slope's modulus: its
    own value passes through zero (at (pi, 0), for one), where no double
    kernel has relative digits left.
    """
    phi, theta0 = sample(loss)
    exact = np.array([[float(value) for value in reference_factors(p, q, loss)]
                      for p, q in zip(phi, theta0)]).T
    scale = {"lambda1": exact[1], "lambda2": exact[1], "lambda3": exact[2]}
    return {metric: float(np.max(np.abs(METRICS[metric](phi, theta0, loss) - exact[k])
                                 / scale[metric]))
            for k, metric in enumerate(sorted(METRICS))}


# Worst relative error per loss and kernel on `sample(loss)`, measured with
# numpy 2.4.6 on x86-64 (lambda1, lambda2, lambda3):
#   1e-5  3.3e-6  2.4e-6  2.4e-6
#   2e-5  4.6e-7  2.2e-6  2.2e-6   (lambda2 = 1.0000022204 at (pi, 0))
#   1e-4  3.1e-8  8.9e-8  8.9e-8
#   1e-2  3.9e-12 3.6e-12 2.4e-12
#   0.1   5.6e-14 5.8e-14 3.6e-14
#   0.5   4.3e-15 3.3e-15 1.5e-15
#   1     0       0       0
# The bounds leave about a factor 2 for other libm builds; at L = 1 the loop
# is blocked and two ulps are allowed.  From L = 1e-2 down the worst error
# tracks eps/L**2: near the resonance half_denom_sq = 2|1 - gamma|**2 ~ L**2/2
# is a sum of terms of order 1.
ENVELOPE = {
    1e-5: {"lambda1": 7e-6, "lambda2": 5e-6, "lambda3": 5e-6},
    2e-5: {"lambda1": 1e-6, "lambda2": 5e-6, "lambda3": 5e-6},
    1e-4: {"lambda1": 7e-8, "lambda2": 2e-7, "lambda3": 2e-7},
    1e-2: {"lambda1": 8e-12, "lambda2": 8e-12, "lambda3": 5e-12},
    0.1: {"lambda1": 1.2e-13, "lambda2": 1.2e-13, "lambda3": 8e-14},
    0.5: {"lambda1": 1e-14, "lambda2": 7e-15, "lambda3": 3e-15},
    1.0: {"lambda1": 4.5e-16, "lambda2": 4.5e-16, "lambda3": 4.5e-16},
}


@pytest.mark.parametrize("loss", sorted(ENVELOPE))
def test_kernels_stay_inside_the_measured_envelope(loss):
    worst = worst_errors(loss)
    assert all(worst[metric] <= ENVELOPE[loss][metric] for metric in METRICS), worst
