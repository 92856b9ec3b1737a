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
from recycled_mzi.loop import loop_ratio
from recycled_mzi.verification import (
    ORACLE_TOL,
    STAGE_TOL,
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


def oracle_passes(points, losses):
    """`oracle_equivalence` at points x losses and the one pass count it
    hands to `cascade`."""
    counts = []

    def recorded(phi, theta0, loss, passes):
        counts.append(passes)
        return cascade(phi, theta0, loss, passes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "cascade", recorded)
        result = oracle_equivalence(np.atleast_2d(points), losses)
    (passes,) = counts
    return result, passes


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
        single, _ = cascade(0.0, 0.0, 1.0, 0)
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
        coef, slope = cascade(points[:, 0], points[:, 1], 0.3, 0)
        s11, s12, s21, s22 = mzi_entries(points[:, 0])
        assert np.max(np.abs(coef.upsilon - s11)) < 1e-15
        assert np.max(np.abs(coef.xi - s21)) < 1e-15
        np.testing.assert_allclose(np.abs(coef.vac_a), np.abs(s12), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.abs(coef.vac_b), np.abs(s22), rtol=0, atol=1e-15)
        # sigma = 2 d(s11)/d(phi) = -i*exp(-i*phi): lambda2 = 1, lambda1 = |sin(phi)|.
        assert np.max(np.abs(slope + 1j * np.exp(-1j * points[:, 0]))) < 1e-15

    def test_blocked_loop_makes_stages_irrelevant(self):
        assert cascade(1.3, 0.4, 1.0, 4) == cascade(1.3, 0.4, 1.0, 0)

    def test_converges_to_closed_form(self):
        points = random_points(20, seed=13)
        phi, theta0 = points[:, 0], points[:, 1]
        # |gamma| <= sqrt(0.9), and sqrt(0.9)**1024 < 1e-23.
        iterated, _ = cascade(phi, theta0, 0.10, 1024)
        closed = closed_form(phi, theta0, 0.10)
        assert np.max(np.abs(iterated.upsilon - closed.upsilon)) < 1e-10
        assert np.max(np.abs(iterated.xi - closed.xi)) < 1e-10
        assert np.max(np.abs(np.abs(iterated.vac_a) - np.abs(closed.vac_a))) < 1e-10
        assert np.max(np.abs(np.abs(iterated.vac_b) - np.abs(closed.vac_b))) < 1e-10

    def test_rejects_zero_stages(self):
        # One count for the whole call: a non-negative integer, of Python
        # or numpy type, but not a flag.
        for bad in (-1, np.int64(-1), True, np.True_, 1.5, 2.0, np.float64(2.0),
                    np.array(2), np.array([1, 2])):
            with pytest.raises(ParameterError, match=r"^passes must be (an integer|>= 0), got"):
                cascade(1.0, 0.0, 0.5, bad)
        # A 0-d array prints as its value; its repr says why it is refused.
        with pytest.raises(ParameterError, match=r"^passes must be an integer, got array\(2\)$"):
            cascade(1.0, 0.0, 0.5, np.array(2))

    def test_lockstep_matches_point_by_point_recursion(self):
        # Every point of one array call makes the same passes, counted by a
        # Python or numpy integer; the reference steps each point alone in
        # plain complex arithmetic, carrying the phase derivative of the
        # input coefficient pass by pass.
        points = random_points(40, seed=29)
        for passes in (0, 1, 2, np.int64(3), np.int32(9), 27, np.uint64(54)):
            batch, slope = cascade(points[:, 0], points[:, 1], 0.2, passes)
            # A numpy count makes the very passes of its Python int.
            assert cascade(1.0, 0.3, 0.2, passes) == cascade(1.0, 0.3, 0.2, int(passes))
            for k, (phi, theta0) in enumerate(points):
                s11, s12, s21, s22 = (complex(s) for s in mzi_entries(phi))
                u = cmath.exp(-1j * phi)
                ds11, ds12, ds22 = -0.5j * u, 0.5 * u, 0.5j * u
                feedback = math.sqrt(0.8) * cmath.exp(-1j * theta0)
                coef_in, coef_seed, coef_vac, dcoef_in = 0j, 1 + 0j, 0j, 0j
                for _ in range(passes):
                    dcoef_in = (feedback * ds22 * coef_in + feedback * s22 * dcoef_in
                                + feedback * ds12)
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
                sigma = 2 * (ds11 + ds12 * coef_in + s12 * dcoef_in)
                assert abs(slope[k] - sigma) < 1e-13 * max(1, abs(sigma))

    def test_peak_memory_per_point(self):
        # The passes compose on gamma**m, the partial sum and the phase
        # derivatives of both: ~340 bytes per point at the peak, against
        # ~240 before the slope was carried.  2**11 passes is the count the
        # oracle picks for these points at L = 0.05.
        points = random_points(10**5, seed=31)
        phi, theta0 = points[:, 0], points[:, 1]
        passes = 2**11
        tracemalloc.start()
        try:
            cascade(phi, theta0, 0.05, passes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 360 * len(points)


class TestStagesForTolerance:
    """The pass count of `oracle_equivalence`: 2**k for the fewest k with
    max|gamma|**(2**k) < STAGE_TOL over the sample, one count for every point."""

    def test_dead_loop_needs_one_stage(self):
        # An empty loss list, or no points, leaves nothing to check and
        # counts as the dead loop.
        for points, losses in (([1.0, 0.0], (1.0,)), ([1.0, 0.0], ()),
                               (np.empty((0, 2)), ORACLE_LOSSES)):
            result, passes = oracle_passes(points, losses)
            assert passes == 1
            assert result.deviation == 0.0

    # phi=pi makes |sin(phi/2)| = 1, so |gamma| = sqrt(1-L) exactly.
    def test_half_ratio(self):
        assert oracle_passes([math.pi, 0.3], (0.75,))[1] == 64

    # The smallest loss sets the count for every loss of the sample.
    def test_nine_tenths_ratio(self):
        points = [[math.pi, 0.3], [1.0, 2.0]]
        assert oracle_passes(points, (0.75, 0.19, 0.5))[1] == 512

    @given(phi=angles, theta0=angles, loss=st.floats(min_value=0.05, max_value=0.99))
    @settings(max_examples=200)
    def test_result_is_minimal(self, phi, theta0, loss):
        _, m = oracle_passes([phi, theta0], (loss,))
        gmag = abs(loop_ratio(phi, theta0, loss))
        assert type(m) is int and m & (m - 1) == 0
        assert gmag**m < STAGE_TOL
        if m > 1:
            assert gmag ** (m // 2) >= STAGE_TOL

    def test_brute_force_agreement(self):
        # Independent route: count multiplications directly for the
        # sample's largest ratio, then round up to a power of two.
        points = random_points(25, seed=17)
        gmag = max(abs(loop_ratio(phi, theta0, 0.4)) for phi, theta0 in points)
        power, count = 1.0, 0
        while power >= STAGE_TOL:
            power *= gmag
            count += 1
        assert oracle_passes(points, (0.4,))[1] == 1 << (count - 1).bit_length()

    def test_pole_refused_as_closed_form_refuses_it(self):
        # At the lossless pole |gamma| = 1 as well: the pass count refuses
        # the pole first, with `closed_form`'s error and message.
        with pytest.raises(ResonantPoleError) as closed:
            closed_form(math.pi, 0.0, 0.0)
        with pytest.raises(ResonantPoleError) as counted:
            oracle_equivalence(np.array([[1.0, 0.0], [math.pi, 0.0]]), (0.5, 0.0))
        assert str(counted.value) == str(closed.value)

    def test_noncontracting_loop_rejected(self):
        with pytest.raises(ConvergenceError, match=r"phi=3.14.*loss=0.0"):
            oracle_equivalence(np.array([[1.0, 0.0], [math.pi, 1.0]]), (0.5, 0.0))

    def test_slowly_contracting_loop(self):
        # |gamma| = sqrt(1 - 1e-9) needs ~6.4e10 passes for 1e-14; squaring
        # composes 2**36 of them in 36 squarings.
        phi, theta0, loss = math.pi, 1.0, 1e-9
        result, m = oracle_passes([phi, theta0], (loss,))
        gmag = abs(loop_ratio(phi, theta0, loss))
        assert m == 2**36
        assert gmag**m < STAGE_TOL <= gmag ** (m // 2)
        assert result.deviation < ORACLE_TOL


class TestSteadyStateInvariants:
    def test_oracle_equivalence_over_losses(self):
        result = oracle_equivalence(random_points(1000, seed=0)[:200], ORACLE_LOSSES)
        assert result.deviation < 1e-10

    def test_oracle_near_phi_zero(self):
        # At phi = 5e-5 the loop ratio is ~1.8e-5, so the oracle makes 4
        # passes; a cascade of 2 passes would miss 1e-10.
        result = oracle_equivalence(np.array([[5e-5, 1.0]]), (0.5,))
        assert result.deviation < 1e-13

    def test_peak_memory_does_not_grow_with_the_points(self):
        # Chunk by chunk: ~3 MB traced, where the whole sample at the six
        # default losses, held at once, traced 323 MB.
        points = sample_points(200000)
        tracemalloc.start()
        try:
            oracle_equivalence(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_single_stage_fails(self, monkeypatch):
        # One interferometer, no recycling: far from the steady state.  The
        # suite must catch a cascade truncated to no passes at all.
        monkeypatch.setattr(verification, "cascade",
                            lambda phi, theta0, loss, passes: cascade(phi, theta0, loss, 0))
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
    # One chunk of each point set at these sizes: one cascade of the grid
    # serves both factor checks with its slope, and one cascade and one
    # closed form of the sample serve the oracle, the two sum rules and the
    # photon check.  Each set makes its own one pass count.  The results and
    # their order do not depend on the counts.
    kwargs = {"points": 7, "seed": 3, "losses": (0.1, 0.5), "grid_n": 5}
    expected = verification.run_all(**kwargs)
    # numpy integers count as their Python ints.
    as_numpy = {**kwargs, "points": np.int64(7), "grid_n": np.int32(5)}
    assert verification.run_all(**as_numpy) == expected
    calls, passes = [], []

    def counted(name):
        original = getattr(verification, name)

        def wrapper(phi, *args, **kwargs):
            calls.append((name, np.broadcast_shapes(np.shape(phi), np.shape(args[0]),
                                                    np.shape(args[1]))))
            if name == "cascade":
                passes.append(args[2])
            return original(phi, *args, **kwargs)
        monkeypatch.setattr(verification, name, wrapper)

    for name in ("cascade", "closed_form"):
        counted(name)
    assert verification.run_all(**kwargs) == expected
    assert [result.name for result in expected] == [
        "oracle equivalence (cascade vs closed form)", "output-mode normalization",
        "energy balance", "homodyne factor vs exact derivative",
        "qcrb factor vs exact derivative", "photon factor vs coefficient sum"]
    assert calls == [("cascade", (2, 25)), ("cascade", (2, 7)), ("closed_form", (2, 7))]
    assert all(type(count) is int for count in passes)


# Sizes whose chunks divide neither point set: 50 points and 7 x 7 = 49 grid
# points, at two losses.
CHUNKED = {"points": 50, "seed": 5, "losses": (0.0, 0.05), "grid_n": 7}


@pytest.mark.parametrize("chunk", [1, 2 * 9, 2 * 13])
def test_chunk_size_changes_no_result(monkeypatch, chunk):
    # One point a chunk at 1; 9 sample points (two losses) and 18 grid
    # points (one derivative loss, 0.05) a chunk at 18; 13 and 26 at 26.
    # `oracle_equivalence` on the sample is `run_all`'s oracle line.
    sample = sample_points(CHUNKED["points"], seed=CHUNKED["seed"])
    expected = verification.run_all(**CHUNKED)
    oracle = oracle_equivalence(sample, CHUNKED["losses"])
    assert oracle == expected[0]
    monkeypatch.setattr(verification, "CHUNK_POINT_LOSSES", chunk)
    assert verification.run_all(**CHUNKED) == expected
    assert oracle_equivalence(sample, CHUNKED["losses"]) == oracle


def test_sample_chunks_join_to_the_sample():
    # `sample_points` is the one-chunk case; `random_points` draws the same
    # stream in one call of its own.
    np.testing.assert_array_equal(sample_points(100, seed=11), random_points(100, seed=11))
    for size in (1, 7, 64, 1000):
        chunks = list(verification._sample_chunks(100, 11, size))
        assert max(len(chunk) for chunk in chunks) == min(size, 100)
        np.testing.assert_array_equal(np.concatenate(chunks), sample_points(100, seed=11))
    assert sample_points(0).shape == (0, 2)
