"""The closed kernels' numerators and denominator as squared moduli.

With t = sqrt(1-L), A = |1 - t*exp(i*theta0)|**2 and
B = |1 + t*exp(i*(theta0 + phi))|**2, `lambda2_values` is 2A/h and
`lambda3_values` is (A + B)/h, with h = half_denom_sq = 2*|1 - gamma|**2.
The kernels' expressions are transcribed here, checked symbolically, and
tied back to the kernels numerically.
"""

import math

import numpy as np
import sympy as sp

from recycled_mzi import lambda2_values, lambda3_values

phi, theta0 = sp.symbols("phi theta0", real=True)
trans = sp.symbols("trans", nonnegative=True)
loss = 1 - trans**2


def squared_modulus(z):
    return sp.expand_complex(z * sp.conjugate(z))


A = squared_modulus(1 - trans * sp.exp(sp.I * theta0))
B = squared_modulus(1 + trans * sp.exp(sp.I * (theta0 + phi)))
# `loop_ratio`: gamma = t*exp(-i*theta0)*s22 with s22 = (1 - exp(-i*phi))/2.
GAMMA = trans * sp.exp(-sp.I * theta0) * (1 - sp.exp(-sp.I * phi)) / 2

# `_trig_pieces` and the two kernels, as written there.
SHIFT = 2 * trans * (sp.cos(theta0 + phi) - sp.cos(theta0))
HALF_DENOM_SQ = SHIFT - trans**2 * sp.cos(phi) - loss + 3
LAMBDA2_NUMERATOR = 2 * (2 - loss - 2 * trans * sp.cos(theta0))
LAMBDA3_NUMERATOR = SHIFT - 2 * loss + 4


def vanishes(expr):
    return sp.simplify(sp.expand_trig(sp.expand(expr))) == 0


def test_half_denom_sq_is_twice_the_squared_loop_denominator():
    assert vanishes(HALF_DENOM_SQ - 2 * squared_modulus(1 - GAMMA))


def test_lambda2_numerator_is_twice_a():
    assert vanishes(LAMBDA2_NUMERATOR - 2 * A)


def test_lambda3_numerator_is_a_plus_b():
    assert vanishes(LAMBDA3_NUMERATOR - (A + B))


def test_qcrb_depends_on_phi_only_through_the_loop_denominator():
    # The paper's claim that the recycled QCRB depends on phi: lambda2 = 2A/h
    # and A holds no phi.  With the loop blocked, t = 0 makes A = 1 and
    # h = 2, so lambda2 = 1 at every phase, the conventional bound.
    assert not sp.simplify(A).has(phi)
    assert HALF_DENOM_SQ.has(phi)
    assert sp.simplify((LAMBDA2_NUMERATOR / HALF_DENOM_SQ).subs(trans, 0)) == 1


def test_transcription_matches_the_kernels():
    rng = np.random.default_rng(27)
    points = rng.uniform(0.0, 2 * math.pi, (20, 2))
    pieces = sp.lambdify((phi, theta0, trans), (A, B, HALF_DENOM_SQ), "math")
    for value in (0.05, 0.5, 0.9):
        for p, t0 in points:
            a, b, h = pieces(p, t0, math.sqrt(1 - value))
            assert math.isclose(float(lambda2_values(p, t0, value)), 2 * a / h,
                                rel_tol=1e-12)
            assert math.isclose(float(lambda3_values(p, t0, value)), (a + b) / h,
                                rel_tol=1e-12)
