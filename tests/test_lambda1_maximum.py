"""The maximum of lambda1 as a root of one quintic: an exact reference.

With the half-angle variables x = tan((phi - pi)/2), y = tan(theta0/2) and
t = sqrt(1 - L), `lambda1_values` is 8|F| with F = x*(1 + x**2)*a*b/H**2,
where

    a = (1 - t) + (1 + t)*y**2,
    b = (1 + t**2)*(1 + y**2) - 2*t*(1 - y**2) + 2*t*x*y,
    H = 2*(1 + t**2 + x**2)*(1 + y**2) - 4*t*(1 - y**2) + 8*t*x*y.

At a critical point of F inside the chart both logarithmic derivatives
vanish, which gives two polynomials in (x, y).  Their resultant in y
factors into x**6, (x**2 + L)**6, factors in t alone and one even
polynomial of degree 10 in x: in z = x**2 the quintic QUINTIC.  So the x of
every interior maximum is the square root of a positive root of QUINTIC,
and its y a real root of the second polynomial there.  The chart leaves
out the lines phi = 0 (x infinite) and theta0 = pi (y infinite), where F
is a function of one variable; their critical points are roots of one
polynomial each.  The largest |F| over all these candidates, evaluated at
50 digits, is the maximum of lambda1.

sympy derives each step from the kernel's expression; mpmath finds the
roots.  The compass search of `loss_curve` is then measured against it.
"""

import functools

import mpmath
import pytest
import sympy as sp

from recycled_mzi import lambda1_values, loss_curve

x, y, u = sp.symbols("x y u", real=True)
trans = sp.symbols("trans", positive=True)
loss = 1 - trans**2

a = (1 - trans) + (1 + trans) * y**2
b = (1 + trans**2) * (1 + y**2) - 2 * trans * (1 - y**2) + 2 * trans * x * y
H = 2 * (1 + trans**2 + x**2) * (1 + y**2) - 4 * trans * (1 - y**2) + 8 * trans * x * y
F = x * (1 + x**2) * a * b / H**2

# The degree-10 factor of the resultant, in z = x**2 and the loss.
z, L = sp.symbols("z L")
QUINTIC = (-L**3 * z**5 - L * (6 * L**3 - 18 * L**2 + 16 * L - 3) * z**4
           + (4 - 22 * L + 30 * L**2 - 17 * L**3 + 16 * L**4 - 9 * L**5) * z**3
           - L * (6 * L**4 - 6 * L**3 + 13 * L**2 - 24 * L + 9) * z**2
           - L**2 * (L**3 + 6 * L - 6) * z - L**3)


def stationary_polynomials():
    """d(log F)/dx and d(log F)/dy, each times the factors it divides by."""
    p_x = ((1 + 3 * x**2) * b * H
           + x * (1 + x**2) * (sp.diff(b, x) * H - 2 * b * sp.diff(H, x)))
    p_y = sp.diff(a, y) * b * H + a * (sp.diff(b, y) * H - 2 * b * sp.diff(H, y))
    return sp.expand(p_x), sp.expand(p_y)


def critical_polynomial(f, var):
    """The numerator of df/dvar, for f rational in var."""
    return sp.fraction(sp.together(sp.diff(f, var)))[0]


@functools.cache
def derivation():
    """The resultant's factors, and the pieces `exact_lambda1_maximum` evaluates."""
    p_x, p_y = stationary_polynomials()
    _, factors = sp.factor_list(sp.expand(sp.resultant(p_x, p_y, y)), x, trans)
    # The lines phi = 0 and theta0 = pi: x and y at infinity.
    on_phi_zero = sp.cancel(F.subs(x, 1 / u)).subs(u, 0)
    on_theta0_pi = sp.cancel(F.subs(y, 1 / u)).subs(u, 0)
    mp = "mpmath"
    pieces = {
        "F": sp.lambdify((x, y, trans), F, mp),
        "p_y": sp.lambdify((x, trans), sp.Poly(p_y, y).all_coeffs(), mp),
        "quintic": sp.lambdify(L, sp.Poly(QUINTIC, z).all_coeffs(), mp),
        "on_phi_zero": sp.lambdify((y, trans), on_phi_zero, mp),
        "phi_zero_critical": sp.lambdify(
            trans, sp.Poly(critical_polynomial(on_phi_zero, y), y).all_coeffs(), mp),
        "on_theta0_pi": sp.lambdify((x, trans), on_theta0_pi, mp),
        "theta0_pi_critical": sp.lambdify(
            trans, sp.Poly(critical_polynomial(on_theta0_pi, x), x).all_coeffs(), mp),
    }
    return factors, pieces


def real_roots(coefficients):
    """The real roots of a polynomial, highest coefficient first, at the working precision."""
    while coefficients and coefficients[0] == 0:
        coefficients = coefficients[1:]
    if len(coefficients) < 2:
        return []
    roots = mpmath.polyroots(coefficients, maxsteps=200, extraprec=100)
    return [root.real for root in map(mpmath.mpc, roots)
            if abs(root.imag) <= mpmath.mpf(10) ** (-30) * max(1, abs(root))]


@functools.cache
def exact_lambda1_maximum(loss_value):
    """(max lambda1, phi, theta0) at one loss in (0, 1), at 50 digits.

    The maximizer is the candidate with the largest value; its twin
    (2*pi - phi, 2*pi - theta0) ties.
    """
    _, pieces = derivation()
    with mpmath.workdps(50):
        t = mpmath.sqrt(1 - mpmath.mpf(loss_value))
        candidates = []
        for root in real_roots(pieces["quintic"](mpmath.mpf(loss_value))):
            if root <= 0:
                continue
            for half_phi in (mpmath.sqrt(root), -mpmath.sqrt(root)):
                for half_theta0 in real_roots(pieces["p_y"](half_phi, t)):
                    candidates.append((abs(pieces["F"](half_phi, half_theta0, t)),
                                       half_phi, half_theta0))
        for half_theta0 in real_roots(pieces["phi_zero_critical"](t)):
            candidates.append((abs(pieces["on_phi_zero"](half_theta0, t)),
                               mpmath.inf, half_theta0))
        for half_phi in real_roots(pieces["theta0_pi_critical"](t)):
            candidates.append((abs(pieces["on_theta0_pi"](half_phi, t)), half_phi, mpmath.inf))
        value, half_phi, half_theta0 = max(candidates, key=lambda c: c[0])
        phi = mpmath.pi + 2 * mpmath.atan(half_phi)
        theta0 = 2 * mpmath.atan(half_theta0)
        return 8 * value, phi % (2 * mpmath.pi), theta0 % (2 * mpmath.pi)


def test_half_angle_form_is_the_kernel():
    # `lambda1_values` is 4|signal|/half_denom_sq**2, transcribed as written
    # there with cos(theta0 + phi) expanded.  With signal = 2*x*a*b/(c*d**2)
    # and half_denom_sq = H/(c*d), where c = 1 + x**2 and d = 1 + y**2,
    # it is 8|F|.
    c, d = 1 + x**2, 1 + y**2
    cos_phi, sin_phi = -(1 - x**2) / c, -2 * x / c
    cos_theta0, sin_theta0 = (1 - y**2) / d, 2 * y / d
    shift = 2 * trans * (cos_theta0 * cos_phi - sin_theta0 * sin_phi - cos_theta0)
    half_denom_sq = shift - trans**2 * cos_phi - loss + 3
    signal = ((trans * cos_theta0 - 1)
              * ((2 - loss - 2 * trans * cos_theta0) * sin_phi
                 - trans * (cos_phi + 1) * sin_theta0))
    assert sp.expand(sp.cancel(signal * c * d**2) - 2 * x * a * b) == 0
    assert sp.expand(sp.cancel(half_denom_sq * c * d) - H) == 0


def test_resultant_factors_into_the_quintic():
    factors, _ = derivation()
    in_x = {sp.expand(factor): power for factor, power in factors if factor.has(x)}
    degree_ten = [factor for factor in in_x if sp.degree(factor, x) == 10]
    assert len(degree_ten) == 1
    assert in_x == {x: 6, sp.expand(x**2 + loss): 6, degree_ten[0]: 1}
    in_loss = sp.expand(degree_ten[0].subs(x, sp.sqrt(z)).subs(trans, sp.sqrt(1 - L)))
    assert sp.expand(in_loss - QUINTIC) == 0


@pytest.mark.parametrize("loss_value, maximum", [(0.1, 9.32277350743305),
                                                 (1e-3, 673.73444928256)])
def test_reference_maxima(loss_value, maximum):
    value, phi, theta0 = exact_lambda1_maximum(loss_value)
    assert float(value) == pytest.approx(maximum, rel=1e-14)
    # The kernel at the maximizer, to the kernel's precision there.
    assert float(lambda1_values(float(phi), float(theta0), loss_value)) == pytest.approx(
        float(value), rel=1e-10)


# The relative gap (exact - located)/exact of the searched lambda1 maximum
# may not grow past these ceilings, about twice the gaps measured: 1.0e-9,
# 7.6e-11, 6.2e-12, 8.0e-13 and 7.9e-15 at the bench's golden losses;
# 4.6e-6 at 1e-3, 3.5e-9 at 0.01, 1.7e-11 at 0.05, 2.6e-12 at 0.1, 4.3e-13
# and 4.7e-13 at 0.15 and 0.2, and within 1e-14 either way from 0.5 up.
# The search moves only to strictly larger kernel values, so the maximum it
# reports is no more above the exact one than the kernel's rounding.
GAP_CEILINGS = {
    0.015067: 2e-9, 0.035201: 2e-10, 0.075335: 2e-11, 0.150671: 2e-12, 0.352014: 1e-13,
    1e-3: 1e-5, 0.01: 1e-8, 0.05: 5e-11, 0.1: 5e-12, 0.15: 1e-12, 0.2: 1e-12,
    0.5: 1e-14, 0.9: 1e-14, 0.99: 1e-14, 0.999: 1e-14,
}


def test_searched_maxima_against_the_exact_ones():
    # `loss_curve` gives each loss the record `maximize` gives it alone.
    records = loss_curve("lambda1", list(GAP_CEILINGS))
    for record, ceiling in zip(records, GAP_CEILINGS.values()):
        exact = exact_lambda1_maximum(record.loss)[0]
        gap = float((exact - record.lambda_max) / exact)
        assert -1e-14 <= gap <= ceiling, (record.loss, gap)
