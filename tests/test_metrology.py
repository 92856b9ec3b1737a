import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recycled_mzi import (
    LoopParameters,
    ParameterError,
    ResonantPoleError,
    closed_form,
    lambda1_values,
    lambda2_values,
    lambda3_values,
    merit_report,
)
from recycled_mzi.loop import POLE_THRESHOLD, loop_ratio
from recycled_mzi.metrology import KERNEL_POLE_THRESHOLD
from recycled_mzi.verification import (
    DERIVATIVE_RTOL,
    finite_difference_factors,
    output_normalization,
)

REFERENCE = LoopParameters(phi=2.5702, theta0=0.3524, loss=0.10)

angles = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)


def angle_grid(n=100):
    return np.linspace(0.0, 2 * math.pi, n, endpoint=False)


def fd_lambda1(params, step=1e-6):
    return float(finite_difference_factors(params.phi, params.theta0, params.loss, step)[0])


def fd_lambda2(params, step=1e-6):
    return float(finite_difference_factors(params.phi, params.theta0, params.loss, step)[1])


class TestHomodyneMoments:
    # The homodyne mean quadrature is 2*Re(upsilon*alpha) and its variance
    # is one because |upsilon|**2 + |vac_a|**2 = 1.
    def test_blocked_loop_quarter_phase(self):
        coef = closed_form(math.pi / 2, 0.7, 1.0)
        assert 2.0 * coef.upsilon.real == pytest.approx(-1.0, abs=1e-12)

    def test_covariance_is_identity(self):
        for params in (REFERENCE, LoopParameters(phi=1.0, theta0=2.0, loss=0.5)):
            result = output_normalization(closed_form(params.phi, params.theta0, params.loss))
            assert result.passed

    def test_mean_follows_coherent_amplitude(self):
        params = LoopParameters(phi=0.9, theta0=5.0, loss=0.3, alpha_mag=2.0)
        coef = closed_form(params.phi, params.theta0, params.loss)
        report = merit_report(params)
        assert report.n_a_out == pytest.approx(abs(coef.upsilon * params.alpha_mag) ** 2,
                                               rel=1e-12)
        assert report.n_b_out == pytest.approx(abs(coef.xi * params.alpha_mag) ** 2, rel=1e-12)


class TestLambda1:
    def test_reference_optimum_value(self):
        assert merit_report(REFERENCE).lambda1 == pytest.approx(9.32, abs=5e-3)

    def test_blocked_loop_reduces_to_sine(self):
        phi = angle_grid(100)[:, None]
        values = lambda1_values(phi, np.array([0.0, 1.0, 4.5]), 1.0)
        assert np.max(np.abs(values - np.abs(np.sin(phi)))) < 1e-12

    def test_zero_at_stationary_origin(self):
        for loss in (0.05, 0.3, 0.9):
            assert merit_report(LoopParameters(phi=0.0, theta0=0.0, loss=loss)).lambda1 == 0.0


def test_scalar_and_array_kernel_calls_agree():
    rng = np.random.default_rng(20261018)
    phi, theta0 = rng.uniform(0.0, 2 * math.pi, (2, 3000))
    loss = rng.uniform(0.01, 1.0, 3000)
    for kernel in (lambda1_values, lambda2_values, lambda3_values):
        array = kernel(phi, theta0, loss)
        scalar = np.array([float(kernel(float(p), float(t), float(l)))
                           for p, t, l in zip(phi, theta0, loss)])
        np.testing.assert_array_equal(array, scalar)


class TestLambda1Numeric:
    def test_reference_optimum(self):
        assert fd_lambda1(REFERENCE, step=1e-5) == pytest.approx(9.32, abs=1e-2)

    def test_blocked_loop(self):
        params = LoopParameters(phi=math.pi / 2, theta0=0.0, loss=1.0)
        assert fd_lambda1(params, step=1e-5) == pytest.approx(1.0, abs=1e-6)

    def test_stationary_origin(self):
        params = LoopParameters(phi=0.0, theta0=0.0, loss=0.1)
        assert fd_lambda1(params, step=1e-5) < 1e-4

    def test_agrees_with_closed_form_on_grid(self):
        step = 1e-6
        phi = angle_grid(50)[:, None]
        theta0 = angle_grid(50)[None, :]
        for loss in (0.05, 0.10, 0.15, 0.20):
            closed = lambda1_values(phi, theta0, loss)
            for i in range(0, 50, 7):
                for j in range(0, 50, 7):
                    if closed[i, j] < 1e-3:
                        continue
                    numeric = fd_lambda1(
                        LoopParameters(phi=float(phi[i, 0]), theta0=float(theta0[0, j]),
                                       loss=loss), step)
                    assert numeric == pytest.approx(closed[i, j], rel=1e-6)

    def test_default_step_near_sharp_ridge(self):
        # Point (449, 25) of `verify --grid 1000` at L = 0.05, where lambda1
        # is small and steep: a plain central difference at step 1e-6 is
        # 1.4e-6 off there, over DERIVATIVE_RTOL.
        axis = angle_grid(1000)
        phi, theta0 = axis[449], axis[25]
        closed = lambda1_values(phi, theta0, 0.05)
        numeric = finite_difference_factors(phi, theta0, 0.05)[0]
        assert abs(numeric - closed) / closed < DERIVATIVE_RTOL

    @pytest.mark.parametrize("step", [0.0, -1e-6, 2e-3, np.array([1e-4, 2e-3, 1e-5])])
    def test_step_domain(self, step):
        with pytest.raises(ParameterError):
            fd_lambda1(REFERENCE, step)


class TestLambda2:
    def test_blocked_loop_is_unity_everywhere(self):
        phi = np.array([0.0, 1.0, math.pi, 5.0])[:, None]
        theta0 = np.array([0.0, 2.0, 6.0])
        assert np.max(np.abs(lambda2_values(phi, theta0, 1.0) - 1.0)) < 1e-12

    def test_beats_homodyne_at_reference_optimum(self):
        assert merit_report(REFERENCE).lambda2 > 9.32

    def test_hand_value_at_origin(self):
        # 2(2 - L - 2 sqrt(1-L)) / (3 - L - (1-L)) simplified by hand for
        # phi = theta0 = 0, L = 0.1.
        params = LoopParameters(phi=0.0, theta0=0.0, loss=0.1)
        factor = merit_report(params).lambda2
        assert factor == pytest.approx(1.9 - 2 * math.sqrt(0.9), rel=1e-12)
        # Cross-check through the finite-difference bound.
        assert fd_lambda2(params) == pytest.approx(factor, rel=1e-5)

    def test_lower_bounds_homodyne_factor(self):
        phi = angle_grid(60)[:, None]
        theta0 = angle_grid(60)[None, :]
        for loss in (0.05, 0.10, 0.15, 0.20, 0.5, 1.0):
            gap = lambda2_values(phi, theta0, loss) - lambda1_values(phi, theta0, loss)
            assert gap.min() > -1e-9

    @pytest.mark.parametrize("loss", [1e-3, 0.01, 0.1, 0.5, 1.0])
    def test_homodyne_information_never_exceeds_quantum_information(self, loss):
        # Braunstein & Caves, PRL 72, 3439 (1994).  The bound is reached: on
        # these points max(lambda1/lambda2) - 1 lies between -8.0e-10 (at
        # L = 0.01) and -1.1e-14 (at L = 1).
        phi, theta0 = np.random.default_rng(3439).uniform(0.0, 2 * math.pi, (2, 10**5))
        bound = lambda2_values(phi, theta0, loss)
        assert np.all(lambda1_values(phi, theta0, loss) <= bound * (1.0 + 1e-9))


class TestQcrbGeneral:
    # The bound is 1/(2|d upsilon/d phi| |alpha|), the pure-state Fisher
    # information of a coherent output with unit covariance.
    def test_blocked_loop_reaches_shot_noise(self):
        params = LoopParameters(phi=math.pi / 2, theta0=0.0, loss=1.0)
        assert 1.0 / fd_lambda2(params) == pytest.approx(1.0, abs=1e-6)

    def test_consistent_with_closed_factor_at_reference(self):
        assert 1.0 / fd_lambda2(REFERENCE) == pytest.approx(1.0 / merit_report(REFERENCE).lambda2,
                                                             abs=1e-6)

    def test_step_domain(self):
        with pytest.raises(ParameterError):
            fd_lambda2(REFERENCE, step=1.0)


class TestPhotonNumbers:
    def test_blocked_loop_conserves_input(self):
        for phi, theta0 in ((0.3, 1.0), (2.0, 4.0)):
            report = merit_report(LoopParameters(phi=phi, theta0=theta0, loss=1.0))
            assert report.n_total_inside == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_input(self):
        report = merit_report(LoopParameters(phi=1.0, theta0=0.5, loss=0.2, alpha_mag=0.0))
        assert (report.n_a_out, report.n_b_out, report.n_total_inside) == (0.0, 0.0, 0.0)

    def test_total_matches_closed_factor_at_reference(self):
        report = merit_report(REFERENCE)
        assert report.n_total_inside == pytest.approx(report.lambda3, abs=1e-12)

    def test_scales_with_input_photons(self):
        base = merit_report(REFERENCE)
        loud = merit_report(LoopParameters(phi=2.5702, theta0=0.3524, loss=0.10, alpha_mag=3.0))
        assert loud.n_total_inside == pytest.approx(9.0 * base.n_total_inside, rel=1e-12)


class TestLambda3:
    def test_blocked_loop_is_unity(self):
        grid = angle_grid(20)
        assert np.max(np.abs(lambda3_values(grid[:, None], grid, 1.0) - 1.0)) < 1e-12

    def test_recycling_never_drains_photons(self):
        phi = angle_grid(100)[:, None]
        theta0 = angle_grid(100)[None, :]
        assert lambda3_values(phi, theta0, 0.05).min() >= 1.0 - 1e-12

    def test_matches_coefficient_sum(self):
        phi = np.array([2.5702, 1.0, 5.5])
        theta0 = np.array([0.3524, 4.0, 0.2])
        loss = np.array([0.05, 0.2, 0.7])[:, None]
        coef = closed_form(phi, theta0, loss)
        assembled = np.abs(coef.upsilon) ** 2 + np.abs(coef.xi) ** 2
        np.testing.assert_allclose(lambda3_values(phi, theta0, loss), assembled, rtol=1e-12)


# Per loss, the largest |(2*lambda3 - lambda2) - 2B/h| / max(1, 2*lambda3)
# allowed below: about four times the largest seen on 20 samples of 2*10**5
# and 3 samples of 10**6 uniform points (2.6e-8, 3.7e-10, 6.9e-12, 8.4e-14,
# 3.1e-15 and 0).  The gap grows as the loss falls because the kernels lose
# digits to cancellation near the resonance.
BUDGET_RTOL = {1e-4: 1e-7, 1e-3: 1.5e-9, 1e-2: 3e-11, 0.1: 3e-13, 0.5: 1.2e-14, 1.0: 1e-15}


class TestPhotonBudget:
    """2*lambda3 - lambda2 = 2B/h with B = |1 + sqrt(1-L) e^{i(theta0+phi)}|**2
    and h = 2|1 - gamma|**2, so lambda1 <= lambda2 <= 2*lambda3: the
    sensitivity gains are bounded by the photons held in the interferometer."""

    @pytest.mark.parametrize("loss", sorted(BUDGET_RTOL))
    def test_remainder_is_the_second_squared_modulus(self, loss):
        phi, theta0 = np.random.default_rng(2009).uniform(0.0, 2 * math.pi, (2, 2 * 10**5))
        l1, l2, l3 = (kernel(phi, theta0, loss)
                      for kernel in (lambda1_values, lambda2_values, lambda3_values))
        # h from the loop's own ratio, not from the kernels' trigonometry.
        h = 2.0 * np.abs(1.0 - loop_ratio(phi, theta0, loss)) ** 2
        b = np.abs(1.0 + math.sqrt(1.0 - loss) * np.exp(1j * (theta0 + phi))) ** 2
        remainder = 2.0 * l3 - l2
        gap = np.abs(remainder - 2.0 * b / h) / np.maximum(1.0, 2.0 * l3)
        assert gap.max() <= BUDGET_RTOL[loss]
        # B > 0 for L > 0, so the second bound is strict.
        assert remainder.min() > 0.0
        assert np.all(l1 <= l2 * (1.0 + 1e-9))


class TestMeritReport:
    def test_sensitivities_invert_the_factors(self):
        report = merit_report(LoopParameters(phi=2.5702, theta0=0.3524, loss=0.10, alpha_mag=2.0))
        assert report.dphi_hd == pytest.approx(1.0 / (report.lambda1 * 2.0), rel=1e-12)
        assert report.dphi_qcrb == pytest.approx(1.0 / (report.lambda2 * 2.0), rel=1e-12)

    def test_carries_the_closed_form_coefficients(self):
        report = merit_report(REFERENCE)
        coef = closed_form(REFERENCE.phi, REFERENCE.theta0, REFERENCE.loss)
        assert (report.upsilon, report.xi) == (coef.upsilon, coef.xi)

    def test_total_photons_sum_outputs(self):
        report = merit_report(REFERENCE)
        assert report.n_total_inside == report.n_a_out + report.n_b_out

    def test_stationary_point_reports_infinite_sensitivity(self):
        report = merit_report(LoopParameters(phi=0.0, theta0=0.0, loss=0.1))
        assert report.lambda1 == 0.0
        assert report.dphi_hd == math.inf

    def test_vacuum_input_reports_infinite_sensitivity(self):
        report = merit_report(LoopParameters(phi=2.5702, theta0=0.3524, loss=0.10, alpha_mag=0.0))
        assert report.dphi_hd == math.inf
        assert report.dphi_qcrb == math.inf

    def test_kernel_pole_guard(self):
        # |1 - gamma| is about 1e-7 here: inside the kernels' wider guard but
        # outside the coefficient formulas' own.
        phi, theta0, loss = math.pi, 1e-7, 0.0
        assert POLE_THRESHOLD < abs(1.0 - loop_ratio(phi, theta0, loss)) < KERNEL_POLE_THRESHOLD
        coef = closed_form(phi, theta0, loss)
        assert np.isfinite(coef.upsilon) and np.isfinite(coef.xi)
        with pytest.raises(ResonantPoleError):
            merit_report(LoopParameters(phi=phi, theta0=theta0, loss=loss))
        # Every kernel guards itself: near the pole off the resonance line and
        # at a tiny loss on it (0/0 without the guard), finite just outside.
        for kernel in (lambda1_values, lambda2_values, lambda3_values):
            for inside in ((phi, theta0, loss), (math.pi, 0.0, 1e-9)):
                with pytest.raises(ResonantPoleError):
                    kernel(*inside)
            assert np.isfinite(kernel(math.pi, 2e-6, 0.0))

    def test_kernels_finite_just_outside_pole_guard(self):
        # The search masks no non-finite values: for loss in (0, 1] every
        # point a kernel accepts must give a finite value.  At L = 1e-9 the
        # kernels would give 0/0 at the pole itself.
        offsets = np.linspace(-4.0 * KERNEL_POLE_THRESHOLD, 4.0 * KERNEL_POLE_THRESHOLD, 161)
        phi, theta0 = np.broadcast_arrays(math.pi + offsets[:, None], offsets[None, :])
        gap = np.abs(1.0 - loop_ratio(phi, theta0, 1e-9))
        band = (gap > 1.01 * KERNEL_POLE_THRESHOLD) & (gap < 2.0 * KERNEL_POLE_THRESHOLD)
        assert np.count_nonzero(band) > 100
        for kernel in (lambda1_values, lambda2_values, lambda3_values):
            assert np.isfinite(kernel(phi[band], theta0[band], 1e-9)).all()


class TestPeriodicity:
    @given(phi=angles, theta0=angles)
    @settings(max_examples=100)
    def test_factors_are_periodic(self, phi, theta0):
        two_pi = 2 * math.pi
        for values in (lambda1_values, lambda2_values, lambda3_values):
            base = values(phi, theta0, 0.1)
            shifted = values(phi + two_pi, theta0 + two_pi, 0.1)
            # lambda1 reaches ~9 at this loss, so the rounding of phi + 2*pi
            # shows relative to the value.
            assert abs(base - shifted) <= 1e-12 * max(1.0, abs(base))
