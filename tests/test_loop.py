import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recycled_mzi import (
    ConvergenceError,
    LoopParameters,
    ParameterError,
    ResonantPoleError,
    cascade,
    closed_form,
    mzi_entries,
    verification,
)
from recycled_mzi.loop import loop_ratio, passes_for_tolerance
from recycled_mzi.verification import (
    ORACLE_TOL,
    closed_form_coefficients,
    oracle_equivalence,
    sample_points,
)

angles = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)
losses_strategy = st.floats(min_value=0.01, max_value=1.0)

ORACLE_LOSSES = (0.05, 0.10, 0.15, 0.20, 0.5, 0.9)


def random_points(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2 * math.pi, size=(n, 2))


def test_loop_ratio_magnitude():
    # |gamma| = sqrt(1-L) |sin(phi/2)| for any theta0.
    for phi, theta0 in random_points(50, seed=3):
        for loss in (0.0, 0.3, 1.0):
            gamma = loop_ratio(phi, theta0, loss)
            expected = math.sqrt(1 - loss) * abs(math.sin(phi / 2))
            assert abs(gamma) == pytest.approx(expected, abs=1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("phi,theta0", [(0.3, 1.1), (2.5, 0.0), (4.0, 5.9)])
    def test_blocked_loop_ignores_theta0(self, phi, theta0):
        coef = closed_form(phi, theta0, 1.0)
        assert coef.upsilon == pytest.approx((cmath.exp(-1j * phi) - 1) / 2, abs=1e-14)

    def test_blocked_loop_at_zero_phase(self):
        coef = closed_form(0.0, 0.0, 1.0)
        assert coef.upsilon == pytest.approx(0.0, abs=1e-14)
        assert coef.xi == pytest.approx(1j, abs=1e-14)
        # With the loop blocked, a single stage already is the steady state.
        single = cascade(0.0, 0.0, 1.0, 0)
        assert single.upsilon == coef.upsilon
        assert single.xi == coef.xi

    def test_blocked_loop_equals_single_interferometer_exactly(self):
        for phi, theta0 in random_points(100, seed=7):
            coef = closed_form(phi, theta0, 1.0)
            s11, _, s21, _ = mzi_entries(phi)
            assert abs(coef.upsilon - s11) < 1e-14
            assert abs(coef.xi - s21) < 1e-14

    def test_energy_balance_at_reference_optimum(self):
        coef = closed_form(2.5702, 0.3524, 0.10)
        balance = abs(coef.upsilon) ** 2 + 0.10 * abs(coef.xi) ** 2
        assert balance == pytest.approx(1.0, abs=1e-12)

    def test_matches_rational_forms(self):
        # Reference: the summed series as two rational one-liners,
        #   upsilon = (e0 (1 - ep) - 2 t) / (2 ep e0 + t (1 - ep)),
        #   xi      = i e0 (1 + ep) / (same denominator),
        # with t = sqrt(1-L), e0 = exp(i*theta0), ep = exp(i*phi).
        for phi, theta0 in random_points(200, seed=11):
            for loss in ORACLE_LOSSES:
                coef = closed_form(phi, theta0, loss)
                t, e0, ep = math.sqrt(1 - loss), cmath.exp(1j * theta0), cmath.exp(1j * phi)
                denom = 2 * ep * e0 + t * (1 - ep)
                assert abs(coef.upsilon - (e0 * (1 - ep) - 2 * t) / denom) < 1e-12
                assert abs(coef.xi - 1j * e0 * (1 + ep) / denom) < 1e-12

    def test_array_route_matches_scalar_wrapper(self):
        points = random_points(50, seed=19)
        loss = np.array(ORACLE_LOSSES)[:, None]
        coef = closed_form(points[:, 0], points[:, 1], loss)
        assert coef.upsilon.shape == (len(ORACLE_LOSSES), 50)
        for i, l in enumerate(ORACLE_LOSSES):
            for j, (phi, theta0) in enumerate(points):
                scalar = closed_form_coefficients(LoopParameters(phi=phi, theta0=theta0, loss=l))
                for field in ("upsilon", "vac_a", "xi", "vac_b"):
                    # numpy's vector and scalar complex loops may round apart.
                    expected = getattr(scalar, field)
                    error = abs(getattr(coef, field)[i, j] - expected)
                    assert error < 1e-14 * max(1, abs(expected))

    def test_resonance_anywhere_in_an_array_rejected(self):
        with pytest.raises(ResonantPoleError, match="phi=3.14"):
            closed_form(np.array([1.0, math.pi]), 0.0, 0.0)

    def test_lossless_resonance_rejected(self):
        with pytest.raises(ResonantPoleError):
            closed_form(math.pi, 0.0, 0.0)

    def test_lossless_off_resonance_allowed(self):
        coef = closed_form(math.pi, 1.0, 0.0)
        assert abs(coef.upsilon) == pytest.approx(1.0, abs=1e-12)


class TestIterateSeries:
    """The `cascade` oracle; a cascade of m + 1 stages makes m passes."""

    def test_single_stage_is_conventional_interferometer(self):
        points = random_points(50, seed=5)
        coef = cascade(points[:, 0], points[:, 1], 0.3, 0)
        s11, s12, s21, s22 = mzi_entries(points[:, 0])
        assert np.max(np.abs(coef.upsilon - s11)) < 1e-15
        assert np.max(np.abs(coef.xi - s21)) < 1e-15
        np.testing.assert_allclose(np.abs(coef.vac_a), np.abs(s12), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.abs(coef.vac_b), np.abs(s22), rtol=0, atol=1e-15)

    def test_blocked_loop_makes_stages_irrelevant(self):
        assert cascade(1.3, 0.4, 1.0, 4) == cascade(1.3, 0.4, 1.0, 0)

    def test_converges_to_closed_form(self):
        points = random_points(20, seed=13)
        phi, theta0 = points[:, 0], points[:, 1]
        iterated = cascade(phi, theta0, 0.10, passes_for_tolerance(phi, theta0, 0.10, 1e-12))
        closed = closed_form(phi, theta0, 0.10)
        assert np.max(np.abs(iterated.upsilon - closed.upsilon)) < 1e-10
        assert np.max(np.abs(iterated.xi - closed.xi)) < 1e-10
        assert np.max(np.abs(np.abs(iterated.vac_a) - np.abs(closed.vac_a))) < 1e-10
        assert np.max(np.abs(np.abs(iterated.vac_b) - np.abs(closed.vac_b))) < 1e-10

    def test_rejects_zero_stages(self):
        with pytest.raises(ParameterError, match=r">= 0, got -1"):
            cascade(1.0, 0.0, 0.5, -1)

    def test_lockstep_matches_point_by_point_recursion(self):
        # Every point of one array call carries its own pass count; the
        # reference steps each point alone in plain complex arithmetic.
        points = random_points(40, seed=29)
        passes = np.arange(40) % 7 * 9
        batch = cascade(points[:, 0], points[:, 1], 0.2, passes)
        for k, (phi, theta0) in enumerate(points):
            s11, s12, s21, s22 = (complex(s) for s in mzi_entries(phi))
            feedback = math.sqrt(0.8) * cmath.exp(-1j * theta0)
            coef_in, coef_seed, coef_vac = 0j, 1 + 0j, 0j
            for _ in range(passes[k]):
                coef_in = feedback * s22 * coef_in + feedback * s21
                coef_seed = feedback * s22 * coef_seed
                coef_vac = feedback * s22 * coef_vac + math.sqrt(0.2)
            expected = {
                "upsilon": s11 + s12 * coef_in,
                "vac_a": math.hypot(abs(s12 * coef_seed), abs(s12 * coef_vac)),
                "xi": s21 + s22 * coef_in,
                "vac_b": math.hypot(abs(s22 * coef_seed), abs(s22 * coef_vac)),
            }
            for field, value in expected.items():
                assert abs(getattr(batch, field)[k] - value) < 1e-13 * max(1, abs(value))

    def test_peak_memory_per_point(self):
        # The passes compose on two complex arrays, gamma**m and the partial
        # sum: ~240 bytes per point at the peak.
        points = random_points(10**5, seed=31)
        phi, theta0 = points[:, 0], points[:, 1]
        passes = passes_for_tolerance(phi, theta0, 0.05, verification.STAGE_TOL)
        tracemalloc.start()
        try:
            cascade(phi, theta0, 0.05, passes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 260 * len(points)


class TestStagesForTolerance:
    """`passes_for_tolerance`: the fewest recycling passes m with
    |gamma|**m < tol, the count `cascade` takes."""

    def test_dead_loop_needs_one_stage(self):
        assert passes_for_tolerance(1.0, 0.0, 1.0, 1e-12) == 1

    # phi=pi makes |sin(phi/2)| = 1, so |gamma| = sqrt(1-L) exactly.
    def test_half_ratio(self):
        assert passes_for_tolerance(math.pi, 0.3, 0.75, 1e-12) == 40

    def test_nine_tenths_ratio(self):
        assert passes_for_tolerance(math.pi, 0.3, 0.19, 1e-9) == 197

    # |gamma| = 0.5 exactly, so the log estimate k of tol = 0.5**k is one
    # pass short: 0.5**k < tol fails, and the correction adds a pass.
    @pytest.mark.parametrize("k", [10, 20, 40])
    def test_log_estimate_one_pass_short(self, k):
        assert passes_for_tolerance(math.pi, 0.0, 0.75, 0.5**k) == k + 1

    # Found by a seeded search: tol lies one ulp above |gamma|**20, yet the
    # rounded log estimate is 21, so the correction removes a pass.
    def test_log_estimate_one_pass_long(self):
        phi, theta0, loss = 0.4540560545967532, 3.141421899600922, 0.7466565044898218
        tol = 1.213232935752659e-19
        gmag = abs(loop_ratio(phi, theta0, loss))
        assert np.ceil(np.log(tol) / np.log(gmag)) == 21
        assert gmag**20 < tol <= gmag**19
        assert passes_for_tolerance(phi, theta0, loss, tol) == 20

    @given(phi=angles, theta0=angles, loss=st.floats(min_value=0.05, max_value=0.99),
           tol=st.floats(min_value=1e-14, max_value=1e-3))
    @settings(max_examples=200)
    def test_result_is_minimal(self, phi, theta0, loss, tol):
        m = passes_for_tolerance(phi, theta0, loss, tol)
        gmag = abs(loop_ratio(phi, theta0, loss))
        assert gmag**m < tol
        if m > 1:
            assert gmag ** (m - 1) >= tol

    def test_brute_force_agreement(self):
        # Independent route: count multiplications directly.
        points = random_points(25, seed=17)
        counts = []
        for phi, theta0 in points:
            gmag = abs(loop_ratio(phi, theta0, 0.4))
            power, count = 1.0, 0
            while power >= 1e-10:
                power *= gmag
                count += 1
            counts.append(count)
        passes = passes_for_tolerance(points[:, 0], points[:, 1], 0.4, 1e-10)
        np.testing.assert_array_equal(passes, counts)

    def test_noncontracting_loop_rejected(self):
        with pytest.raises(ConvergenceError):
            passes_for_tolerance(math.pi, 1.0, 0.0, 1e-9)

    def test_slowly_contracting_loop(self):
        # |gamma| = sqrt(1 - 1e-9) needs ~6.4e10 passes for 1e-14; squaring
        # composes them in 36 array steps.
        phi, theta0, loss = math.pi, 1.0, 1e-9
        m = passes_for_tolerance(phi, theta0, loss, 1e-14)
        gmag = abs(loop_ratio(phi, theta0, loss))
        assert 6e10 < m < 7e10
        assert gmag**m < 1e-14 <= gmag ** (m - 1)
        iterated = cascade(phi, theta0, loss, m)
        closed = closed_form(phi, theta0, loss)
        for field in ("upsilon", "xi"):
            assert abs(getattr(iterated, field) - getattr(closed, field)) < ORACLE_TOL
        for field in ("vac_a", "vac_b"):
            assert abs(abs(getattr(iterated, field)) - abs(getattr(closed, field))) < ORACLE_TOL

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ParameterError):
            passes_for_tolerance(1.0, 0.0, 0.5, 0.0)


class TestSteadyStateInvariants:
    def test_oracle_equivalence_over_losses(self):
        result = oracle_equivalence(random_points(1000, seed=0)[:200], ORACLE_LOSSES)
        assert result.deviation < 1e-10

    def test_oracle_near_phi_zero(self):
        # At phi = 5e-5 the loop ratio is ~1.8e-5, so passes_for_tolerance
        # asks for 3 passes; a cascade one pass short misses 1e-10.
        result = oracle_equivalence(np.array([[5e-5, 1.0]]), (0.5,))
        assert result.deviation < 1e-13

    def test_single_stage_fails(self, monkeypatch):
        # One interferometer, no recycling: far from the steady state.  The
        # suite must catch a cascade truncated to no passes at all.
        monkeypatch.setattr(verification, "passes_for_tolerance", lambda *args: 0)
        assert not oracle_equivalence(sample_points(100)).passed

    def test_normalization_and_energy_balance(self):
        points = random_points(200, seed=23)
        loss = np.array(ORACLE_LOSSES)[:, None]
        coef = closed_form(points[:, 0], points[:, 1], loss)
        mode_norm = np.abs(coef.upsilon) ** 2 + np.abs(coef.vac_a) ** 2
        energy = np.abs(coef.upsilon) ** 2 + loss * np.abs(coef.xi) ** 2
        assert np.max(np.abs(mode_norm - 1.0)) < 1e-12
        assert np.max(np.abs(energy - 1.0)) < 1e-12

    @given(phi=angles, theta0=angles, loss=losses_strategy)
    @settings(max_examples=200)
    def test_energy_balance_property(self, phi, theta0, loss):
        coef = closed_form(phi, theta0, loss)
        assert abs(coef.upsilon) ** 2 + loss * abs(coef.xi) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_run_all_evaluates_each_route_once(monkeypatch):
    # One finite-difference pass serves both factor checks, one cascade the
    # oracle, and two closed forms of the sample the oracle and the three
    # identities.  The results and their order do not depend on the count.
    kwargs = {"points": 7, "seed": 3, "losses": (0.1, 0.5), "grid_n": 5}
    expected = verification.run_all(**kwargs)
    calls = []

    def counted(name):
        original = getattr(verification, name)

        def wrapper(phi, *args, **kwargs):
            calls.append((name, np.broadcast_shapes(np.shape(phi), np.shape(args[0]),
                                                    np.shape(args[1]))))
            return original(phi, *args, **kwargs)
        monkeypatch.setattr(verification, name, wrapper)

    for name in ("finite_difference_factors", "cascade", "closed_form"):
        counted(name)
    assert verification.run_all(**kwargs) == expected
    assert [result.name for result in expected] == [
        "oracle equivalence (cascade vs closed form)", "output-mode normalization",
        "energy balance", "homodyne factor vs finite difference",
        "qcrb factor vs finite difference", "photon factor vs coefficient sum"]
    names = [name for name, _ in calls]
    assert names.count("finite_difference_factors") == 1
    assert names.count("cascade") == 1
    assert calls.count(("closed_form", (2, 7))) == 2
