"""The exact phase derivative of upsilon behind `verify`'s factor checks.

`derivative_factors` is the second route to lambda1 and lambda2, so it is
checked against neither kernel: its formula against a symbolic derivative
of the summed loop series, and its values against a 50-digit numerical
derivative of upsilon.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from recycled_mzi import ResonantPoleError, closed_form
from recycled_mzi.verification import SMALL_VALUE_FLOOR, derivative_factors


def test_formula_is_the_derivative_of_the_summed_series():
    phi, theta0 = sp.symbols("phi theta0", real=True)
    trans = sp.symbols("trans", positive=True)
    u = sp.exp(-sp.I * phi)
    # `mzi_entries`' documented entries; s21 = s12.
    s11, s12, s22 = (u - 1) / 2, sp.I * (u + 1) / 2, (1 - u) / 2
    feedback = trans * sp.exp(-sp.I * theta0)
    # The loop sum s11 + s12*f*s21*(1 + f*s22 + (f*s22)**2 + ...).
    upsilon = s11 + s12 * feedback * s12 / (1 - feedback * s22)
    # Half the slope `derivative_factors` evaluates.
    implemented = -sp.I * u / 2 * ((1 - feedback) / (1 - feedback * s22)) ** 2
    assert sp.simplify(sp.diff(upsilon, phi) - implemented) == 0


# Worst relative error of both factors against the 50-digit derivative, in
# units of lambda2, per loss.  Over seeds 0-9 of the draw below it reached
# 1.1e-15 at L = 0.5, 3.3e-15 at 0.1, 3.8e-14 at 1e-2, 2.8e-12 at 1e-4 and
# 4.8e-10 at 1e-6 (numpy 2.4.6, x86-64).  It grows as eps/L: near the
# resonance 1 - f and 1 - gamma cancel to about L.
DERIVATIVE_BOUND = {0.5: 1e-13, 0.1: 1e-13, 1e-2: 1e-13, 1e-4: 1e-11, 1e-6: 1e-9}


@pytest.mark.parametrize("loss", sorted(DERIVATIVE_BOUND))
def test_matches_a_50_digit_derivative_of_upsilon(loss):
    """40 random points and 5 within a few L of the resonance (pi, 0), where
    lambda2 >= SMALL_VALUE_FLOOR.  Bounds: 1e-13 for L >= 1e-2, 1e-11 at
    1e-4 and 1e-9 at 1e-6."""
    rng = np.random.default_rng(26)
    near = [math.pi, 0.0] + loss * rng.uniform(-3.0, 3.0, (5, 2))
    phi, theta0 = np.vstack([rng.uniform(0.0, 2 * math.pi, (40, 2)), near]).T
    hd, qcrb = derivative_factors(phi, theta0, loss)

    worst = 0.0
    with mpmath.workdps(50):
        trans = mpmath.sqrt(1 - mpmath.mpf(loss))
        for i in range(len(phi)):
            feedback = trans * mpmath.expj(-mpmath.mpf(theta0[i]))

            def upsilon(p):
                u = mpmath.expj(-p)
                return (u - 1) / 2 - feedback * (u + 1) ** 2 / (2 * (2 - feedback + feedback * u))

            slope = mpmath.diff(upsilon, mpmath.mpf(phi[i]))
            exact_hd, exact_qcrb = 2 * abs(slope.real), 2 * abs(slope)
            if exact_qcrb < SMALL_VALUE_FLOOR:
                continue
            worst = max(worst, float(max(abs(hd[i] - exact_hd), abs(qcrb[i] - exact_qcrb))
                                     / exact_qcrb))
    assert worst < DERIVATIVE_BOUND[loss]


@pytest.mark.parametrize("theta0", [0.0, 1e-10, 5e-10, 2e-9, 1e-8])
def test_refuses_exactly_where_closed_form_does(theta0):
    # At L = 0 and phi = pi, |1 - gamma| = |1 - exp(-i*theta0)| ~ theta0
    # crosses POLE_THRESHOLD = 1e-9 in this list.  The guard runs before any
    # division, so no RuntimeWarning is raised either (warnings are errors).
    def refuses(route):
        try:
            route(math.pi, theta0, 0.0)
        except ResonantPoleError:
            return True
        return False

    assert refuses(derivative_factors) == refuses(closed_form)
    assert refuses(derivative_factors) == (theta0 < 1e-9)
