"""The cascade's phase slope behind `verify`'s factor checks.

`cascade` returns sigma = 2 d(upsilon)/d(phi), the second route to lambda1 =
|Re sigma| and lambda2 = |sigma|, so it is checked against neither kernel:
its recurrences against symbolic derivatives, its limit against the
derivative of the summed loop series, and its values against a 50-digit
numerical derivative of upsilon and against that derivative's closed form.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from recycled_mzi import cascade
from recycled_mzi.verification import SMALL_VALUE_FLOOR

# Passes enough at every loss these tests use: sqrt(1 - 1e-6)**(2**40)
# underflows to 0, after which a squaring changes nothing.
CONVERGED = 2**40


def cascade_factors(phi, theta0, loss):
    """lambda1 = |Re sigma| and lambda2 = |sigma| from the slope of the
    converged cascade (broadcasts): the route `verify` checks the kernels
    against."""
    slope = cascade(phi, theta0, loss, CONVERGED)[1]
    return np.abs(slope.real), np.abs(slope)


def summed_slope(phi, theta0, loss):
    """sigma from the summed series: with u = exp(-i*phi) and
    f = sqrt(1-L)*exp(-i*theta0), sigma = -i*u*((1 - f)/(1 - gamma))**2.
    A reference only: it divides by 1 - gamma, which the cascade never does."""
    u = np.exp(-1j * np.asarray(phi))
    feedback = np.sqrt(1.0 - np.asarray(loss)) * np.exp(-1j * np.asarray(theta0))
    return -1j * u * ((1.0 - feedback) / (1.0 - feedback * (1.0 - u) / 2.0)) ** 2


def test_formula_is_the_derivative_of_the_summed_series():
    phi, theta0 = sp.symbols("phi theta0", real=True)
    trans = sp.symbols("trans", positive=True)
    u = sp.exp(-sp.I * phi)
    # `mzi_entries`' documented entries; s21 = s12 and s22 = -s11.
    s11, s12, s22 = (u - 1) / 2, sp.I * (u + 1) / 2, (1 - u) / 2
    ds11, ds12 = sp.diff(s11, phi), sp.diff(s12, phi)
    # The entry derivatives `cascade` takes from the entries themselves.
    assert sp.simplify(ds11 - (-sp.I * (s11 + sp.Rational(1, 2)))) == 0
    assert sp.simplify(ds12 - (-sp.I * s12 - sp.Rational(1, 2))) == 0
    feedback = trans * sp.exp(-sp.I * theta0)
    gamma = feedback * s22
    # The cascade's slope with its partial sum replaced by the whole series
    # 1/(1 - gamma), against the derivative of the summed upsilon and the
    # reference's closed form.
    total = 1 / (1 - gamma)
    slope = 2 * (ds11 + feedback * (2 * s12 * ds12 * total + s12**2 * sp.diff(total, phi)))
    upsilon = s11 + s12 * feedback * s12 / (1 - feedback * s22)
    assert sp.simplify(slope - 2 * sp.diff(upsilon, phi)) == 0
    assert sp.simplify(slope + sp.I * u * ((1 - feedback) / (1 - gamma)) ** 2) == 0


@pytest.mark.parametrize("passes", [1, 2, 5, 6, 11])
def test_recurrences_carry_the_exact_derivative(passes):
    # `cascade`'s squaring and set-bit steps, on gamma(phi) as a function:
    # after m passes total = 1 + gamma + ... + gamma**(m - 1), and dtotal
    # must be its derivative, whatever bits m sets.
    phi = sp.symbols("phi", real=True)
    gamma = sp.Function("gamma")(phi)
    seed, total, dtotal = 1, 0, 0
    power, dpower, block, dblock = gamma, sp.diff(gamma, phi), 1, 0
    for bit in range(passes.bit_length()):
        if bit:
            grow = 1 + power
            power, dpower, block, dblock = (power * power, 2 * power * dpower, block * grow,
                                            dblock * grow + block * dpower)
        if passes >> bit & 1:
            seed, total, dtotal = (power * seed, power * total + block,
                                   dpower * total + power * dtotal + dblock)
    partial = sum(gamma**k for k in range(passes))
    assert sp.expand(seed - gamma**passes) == 0
    assert sp.expand(total - partial) == 0
    assert sp.expand(dtotal - sp.diff(partial, phi)) == 0


# Worst relative error of both factors against the 50-digit derivative, in
# units of lambda2, per loss.  Over seeds 0-9 of the draw below it reached
# 4.2e-15 at L = 0.5, 2.0e-13 at 0.1 and at 1e-2, 6.1e-12 at 1e-4 and 4.8e-10
# at 1e-6 (numpy 2.4.6, x86-64): about eps/L, from the ~log2(1/L) squarings
# and the partial sum's growth to ~1/L near the resonance.
DERIVATIVE_BOUND = {0.5: 1e-14, 0.1: 4e-13, 1e-2: 4e-13, 1e-4: 1.2e-11, 1e-6: 1e-9}


@pytest.mark.parametrize("loss", sorted(DERIVATIVE_BOUND))
def test_matches_a_50_digit_derivative_of_upsilon(loss):
    """40 random points and 5 within a few L of the resonance (pi, 0), where
    lambda2 >= SMALL_VALUE_FLOOR."""
    rng = np.random.default_rng(26)
    near = [math.pi, 0.0] + loss * rng.uniform(-3.0, 3.0, (5, 2))
    phi, theta0 = np.vstack([rng.uniform(0.0, 2 * math.pi, (40, 2)), near]).T
    hd, qcrb = cascade_factors(phi, theta0, loss)

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


# Largest |sigma_cascade - sigma_summed| / |sigma_summed| over the 2*10**4
# random points below: 7.1e-15 at L = 0.5, 9.3e-13 at 0.05, 2.3e-11 at 1e-2
# and 2.4e-9 at 1e-4 (3.1e-8 over four other seeds).  The summed form
# carries most of it, as it divides by 1 - gamma: against 50 digits the
# cascade stays within DERIVATIVE_BOUND.
SUMMED_BOUND = {0.5: 2e-14, 0.05: 2e-12, 1e-2: 5e-11, 1e-4: 5e-9}


@pytest.mark.parametrize("loss", sorted(SUMMED_BOUND))
def test_agrees_with_the_summed_slope(loss):
    phi, theta0 = np.random.default_rng(18).uniform(0.0, 2 * math.pi, (2, 2 * 10**4))
    reference = summed_slope(phi, theta0, loss)
    slope = cascade(phi, theta0, loss, CONVERGED)[1]
    assert np.max(np.abs(slope - reference) / np.abs(reference)) < SUMMED_BOUND[loss]
