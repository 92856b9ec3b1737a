import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from recycled_mzi import (
    ConvergenceError,
    LoopParameters,
    ParameterError,
    ResonantPoleError,
    lambda1_values,
    lambda2_values,
    lambda3_values,
    loss_curve,
    maximize,
    merit_report,
    sweep,
)
from recycled_mzi import landscape, metrology
from recycled_mzi.landscape import OptimumRecord
from recycled_mzi.metrology import KERNEL_POLE_THRESHOLD, METRICS
from test_lambda1_maximum import exact_lambda1_maximum

TWO_PI = 2 * math.pi


def scalar_compass_maximize(metric_tag, loss, grid_seed=200, tol=1e-8):
    """`maximize` with one scalar kernel call per probe, one seed at a time.

    The reference for the lockstep search: the same seeding, probes, moves,
    step halving, tie window and wrapping, evaluated point by point.
    """
    grid = sweep(metric_tag, loss, grid_seed)
    kernel = METRICS[metric_tag]
    axis = grid.axis
    evaluations = grid.values.size
    coarse = np.where(np.isfinite(grid.values), grid.values, -np.inf)
    seeds = np.argsort(-coarse.ravel(), kind="stable")[:landscape.REFINE_SEEDS]

    candidates = []
    step0 = TWO_PI / grid_seed
    for flat_index in seeds:
        i, j = divmod(int(flat_index), grid_seed)
        x, y = float(axis[i]), float(axis[j])
        best = float(coarse[i, j])
        step = step0
        while step >= tol:
            probes = ((x + step, y), (x - step, y), (x, y + step), (x, y - step))
            values = []
            for px, py in probes:
                value = float(kernel(px, py, loss))
                evaluations += 1
                if not math.isfinite(value):
                    value = -math.inf
                values.append(value)
            move = max(range(4), key=values.__getitem__)
            if values[move] > best:
                x, y = probes[move]
                best = values[move]
            else:
                step *= 0.5
        candidates.append((best, x % TWO_PI, y % TWO_PI))

    top = max(value for value, _, _ in candidates)
    window = landscape.TIE_RTOL * max(1.0, abs(top))
    tied = [c for c in candidates if c[0] >= top - window]
    _, phi_star, theta0_star = min(tied, key=lambda c: (c[1], c[2]))
    lambda_max = float(kernel(phi_star, theta0_star, loss))
    evaluations += 1
    return OptimumRecord(loss=loss, metric_tag=metric_tag, lambda_max=lambda_max,
                         phi_star=phi_star, theta0_star=theta0_star,
                         evaluations=evaluations)


def max_bound_factor(loss):
    """Measured maximum of lambda2: 1 + 1/L up to L = (sqrt(5) - 1)/2.

    Above it the maximum sits at (phi, theta0) = (0, pi) and equals
    (1 + sqrt(1 - L))**2; the two branches meet where sqrt(1 - L) = L.
    """
    if loss <= (math.sqrt(5.0) - 1.0) / 2.0:
        return 1.0 + 1.0 / loss
    return (1.0 + math.sqrt(1.0 - loss)) ** 2


class TestSweep:
    def test_grid_shapes_and_determinism(self):
        grid = sweep("lambda1", 0.10, 40)
        assert grid.values.shape == (40, 40)
        # One axis for both phi and theta0.
        assert [field.name for field in dataclasses.fields(grid)] == ["axis", "values"]
        np.testing.assert_array_equal(grid.axis, np.linspace(0.0, TWO_PI, 40, endpoint=False))
        again = sweep("lambda1", 0.10, 40)
        np.testing.assert_array_equal(grid.values, again.values)

    def test_one_size_for_both_axes(self):
        with pytest.raises(TypeError):
            sweep("lambda1", 0.1, 9, 7)
        with pytest.raises(TypeError):
            sweep(metric_tag="lambda1", loss=0.1, n_phi=9, n_theta0=7)

    def test_photon_factor_never_below_unity(self):
        grid = sweep("lambda3", 0.05, 200)
        assert grid.values.min() >= 1.0 - 1e-12

    def test_blocked_loop_rows_are_sine(self):
        grid = sweep("lambda1", 1.0, 100)
        expected = np.abs(np.sin(grid.axis))
        for j in range(100):
            np.testing.assert_allclose(grid.values[:, j], expected, atol=1e-12)

    def test_dense_grid_reaches_reference_maximum(self):
        grid = sweep("lambda1", 0.10, 400)
        assert grid.values.max() == pytest.approx(9.32, rel=0.02)

    def test_values_match_pointwise_evaluation(self):
        # Rows are phi and columns theta0.  A square grid shows no
        # transposition in its shape, so check corner and interior cells, and
        # that the landscape is not symmetric under transposition.
        grid = sweep("lambda1", 0.15, 13)
        for i, j in [(0, 0), (0, 12), (12, 0), (12, 12), (4, 9), (9, 4)]:
            assert grid.values[i, j] == lambda1_values(grid.axis[i], grid.axis[j], 0.15)
        assert not np.allclose(grid.values, grid.values.T)
        params = LoopParameters(phi=float(grid.axis[4]), theta0=float(grid.axis[9]),
                                loss=0.15)
        assert grid.values[4, 9] == merit_report(params).lambda1

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_row_blocks_equal_one_kernel_call(self, metric):
        # 300 columns: blocks of 28 rows, the last one of 20.
        grid = sweep(metric, 0.15, 300)
        whole = METRICS[metric](grid.axis[:, None], grid.axis, 0.15)
        np.testing.assert_array_equal(grid.values, whole)

    def test_peak_memory_near_the_grid(self):
        # The kernel runs on row blocks, so its temporaries stay small
        # beside the grid it fills.
        tracemalloc.start()
        try:
            grid = sweep("lambda1", 0.1, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * grid.values.nbytes

    @pytest.mark.parametrize("kwargs", [
        {"metric_tag": "lambda9", "loss": 0.1, "n": 10},
        {"metric_tag": "lambda1", "loss": 0.0, "n": 10},
        {"metric_tag": "lambda1", "loss": 1.5, "n": 10},
        {"metric_tag": "lambda1", "loss": 0.1, "n": 1},
        {"metric_tag": "lambda1", "loss": 0.1, "n": 2001},
        {"metric_tag": "lambda1", "loss": np.array([0.1, 0.2]), "n": 10},
        {"metric_tag": "lambda1", "loss": 0.5, "n": 2.5},
        {"metric_tag": "lambda1", "loss": 0.5, "n": 10.0},
        {"metric_tag": "lambda1", "loss": 0.5, "n": True},
        # Its square wraps to 0 in int64.
        {"metric_tag": "lambda1", "loss": 0.1, "n": np.int64(2**32)},
        {"metric_tag": "lambda1", "loss": 0.5, "n": np.True_},
    ])
    def test_domain_errors(self, kwargs):
        with pytest.raises(ParameterError):
            sweep(**kwargs)


class TestMaximize:
    def test_reference_optimum(self):
        record = maximize("lambda1", 0.10, grid_seed=200, tol=1e-8)
        assert record.lambda_max == pytest.approx(9.32, abs=0.05)
        assert record.phi_star == pytest.approx(2.5702, abs=1e-3)
        assert record.theta0_star == pytest.approx(0.3524, abs=1e-3)

    def test_blocked_loop_homodyne_peak(self):
        record = maximize("lambda1", 1.0, grid_seed=100, tol=1e-8)
        assert record.lambda_max == pytest.approx(1.0, abs=1e-12)
        # The twin peak at 3*pi/2 ties; the lexicographically smaller wins.
        assert record.phi_star == pytest.approx(math.pi / 2, abs=1e-6)

    def test_blocked_loop_flat_bound_landscape(self):
        record = maximize("lambda2", 1.0, grid_seed=100, tol=1e-8)
        assert record.lambda_max == pytest.approx(1.0, abs=1e-12)

    def test_bound_factor_maximum_closed_form(self):
        for loss in (0.01, 0.05, 0.10, 0.20, 0.5, 0.75, 1.0):
            record = maximize("lambda2", loss)
            assert record.lambda_max == pytest.approx(max_bound_factor(loss), rel=1e-8)

    def test_photon_factor_maximum_closed_form(self):
        for loss in (0.01, 0.05, 0.10, 0.20, 0.5, 1.0):
            record = maximize("lambda3", loss)
            assert record.lambda_max == pytest.approx(1.0 / loss, rel=1e-8)

    def test_small_loss_precision_envelope(self):
        # README's envelope at L = 1e-3, below the 1e-8 pinned from 0.01 up:
        # 1.3e-6 and 1.2e-6 measured.
        loss = 1e-3
        assert maximize("lambda2", loss).lambda_max == pytest.approx(1.0 + 1.0 / loss, rel=2e-6)
        assert maximize("lambda3", loss).lambda_max == pytest.approx(1.0 / loss, rel=2e-6)

    def test_homodyne_small_loss_envelope(self):
        # README's envelope for lambda1 at L = 1e-3: the compass stops 4.6e-6
        # below the exact maximum 673.73444928256 and prints 673.731318983.
        reference = float(exact_lambda1_maximum(1e-3)[0])
        assert reference * (1.0 - 5e-6) <= maximize("lambda1", 1e-3).lambda_max < reference

    def test_bit_identical_reruns(self):
        first = maximize("lambda1", 0.10)
        second = maximize("lambda1", 0.10)
        assert first == second

    def test_reported_value_reproducible_at_maximizer(self):
        for metric, values in (("lambda1", lambda1_values), ("lambda2", lambda2_values)):
            record = maximize(metric, 0.13)
            re_evaluated = float(values(record.phi_star, record.theta0_star, 0.13))
            assert abs(re_evaluated - record.lambda_max) < 1e-12

    def test_local_optimality(self):
        record = maximize("lambda1", 0.10)
        eps = 1e-4
        for dphi, dtheta in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
            neighbor = float(lambda1_values(record.phi_star + dphi,
                                            record.theta0_star + dtheta, 0.10))
            assert record.lambda_max >= neighbor

    def test_beats_dense_grid(self):
        for loss in (0.05, 0.10):
            record = maximize("lambda1", loss, grid_seed=200, tol=1e-8)
            dense = sweep("lambda1", loss, 400).values.max()
            assert record.lambda_max >= dense - 1e-9

    def test_dominates_seeding_grid(self):
        record = maximize("lambda2", 0.15, grid_seed=50)
        assert record.lambda_max >= sweep("lambda2", 0.15, 50).values.max()

    @pytest.mark.parametrize("kwargs", [
        {"metric_tag": "lambda1", "loss": 0.0},
        {"metric_tag": "lambda1", "loss": 0.1, "tol": 1e-12},
        {"metric_tag": "lambda1", "loss": 0.1, "tol": 0.5},
        {"metric_tag": "nope", "loss": 0.1},
        {"metric_tag": "lambda3", "loss": True},
        {"metric_tag": "lambda3", "loss": np.True_},
        {"metric_tag": "lambda1", "loss": 0.1, "grid_seed": 1},
        # 10**10 coarse cells: refused by the sweep size cap.
        {"metric_tag": "lambda1", "loss": 0.1, "grid_seed": 100000},
        {"metric_tag": "lambda1", "loss": np.array([0.1, 0.2])},
        {"metric_tag": "lambda1", "loss": 0.5, "grid_seed": 3.5},
        {"metric_tag": "lambda1", "loss": 0.5, "grid_seed": True},
        {"metric_tag": "lambda1", "loss": 0.5, "tol": None},
        {"metric_tag": "lambda1", "loss": 0.5, "tol": True},
        {"metric_tag": "lambda1", "loss": 0.5, "tol": "1e-3"},
        {"metric_tag": "lambda1", "loss": 0.5, "tol": 1e-3j},
    ])
    def test_domain_errors(self, kwargs):
        with pytest.raises(ParameterError):
            maximize(**kwargs)

    def test_tol_checked_before_grid_is_built(self, monkeypatch):
        monkeypatch.setattr(landscape, "sweep",
                            lambda *_: pytest.fail("grid built before tol was checked"))
        with pytest.raises(ParameterError, match="tol"):
            maximize("lambda1", 0.1, tol=0.5)


# Every metric at tol 1e-3, and at tol 1e-8 where the scalar reference takes
# well under a second: below L = 0.1 it needs seconds per case, and from a
# 2x2 grid the lambda3 search crawls along a ridge for minutes.
COMPASS_CASES = (
    [(metric, loss, grid_seed, 1e-3) for metric in sorted(METRICS)
     for loss in (0.01, 0.0123, 0.05, 0.1, 0.35, 1.0) for grid_seed in (2, 7, 60)]
    + [(metric, loss, grid_seed, 1e-8) for metric in sorted(METRICS)
       for loss in (0.1, 0.35, 1.0) for grid_seed in (7, 60)]
    # A tol the halved step hits exactly: the search still takes that step.
    + [(metric, 0.1, 7, TWO_PI / 7 / 2**7) for metric in sorted(METRICS)])


class TestLockstepCompass:
    # L = 1 makes the lambda2 landscape flat, so every probe ties.
    @pytest.mark.parametrize("metric, loss, grid_seed, tol", COMPASS_CASES)
    def test_matches_scalar_compass(self, metric, loss, grid_seed, tol):
        assert (maximize(metric, loss, grid_seed=grid_seed, tol=tol)
                == scalar_compass_maximize(metric, loss, grid_seed=grid_seed, tol=tol))


class TestLossCurve:
    def test_four_reference_losses_decrease(self):
        records = loss_curve("lambda1", [0.05, 0.10, 0.15, 0.20])
        values = [r.lambda_max for r in records]
        assert values == sorted(values, reverse=True)
        assert all(v > 1.0 for v in values)

    def test_moderate_loss_still_beats_conventional(self):
        # The paper's claim that recycling beats the conventional
        # interferometer, up to losses near total: max lambda1 reads about
        # 2.74, 1.53, 1.15 and 1.05 at L = 0.5, 0.9, 0.99 and 0.999.
        records = loss_curve("lambda1", [0.10, 0.5, 0.9, 0.99, 0.999])
        assert all(record.lambda_max > 1.0 for record in records)

    def test_bound_curve_dominates_homodyne_curve(self):
        losses = [0.05, 0.10, 0.15, 0.20]
        hd = loss_curve("lambda1", losses)
        bound = loss_curve("lambda2", losses)
        for hd_record, bound_record in zip(hd, bound):
            assert bound_record.lambda_max >= hd_record.lambda_max

    def test_preserves_input_order(self):
        records = loss_curve("lambda2", [0.20, 0.05])
        assert [r.loss for r in records] == [0.20, 0.05]
        assert records[1].lambda_max > records[0].lambda_max

    def test_checks_every_loss_before_refining(self, monkeypatch):
        monkeypatch.setattr(landscape, "sweep",
                            lambda *_, **__: pytest.fail("grid built before every loss was checked"))
        with pytest.raises(ParameterError, match="got 1.5"):
            loss_curve("lambda1", [0.1, 0.2, 1.5])

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": 0.5}, "tol"),
        ({"metric_tag": "nope"}, "unknown metric"),
        ({"grid_seed": 1}, "must be >= 2"),
        ({"grid_seed": 100000}, "exceeds"),
        ({"grid_seed": 3.5}, "integer"),
        ({"tol": None}, "tol"),
        ({"losses": 0.5}, "iterable"),
        # A string would otherwise be read character by character.
        ({"losses": "0.5"}, "iterable"),
        ({"losses": np.array(0.5)}, "iterable"),
    ])
    def test_checks_every_argument_before_any_grid(self, monkeypatch, kwargs, match):
        monkeypatch.setattr(landscape, "sweep",
                            lambda *_, **__: pytest.fail("grid built before the arguments were checked"))
        with pytest.raises(ParameterError, match=match):
            loss_curve(**{"metric_tag": "lambda1", "losses": [0.1, 0.2], **kwargs})

    def test_empty_list(self):
        assert loss_curve("lambda1", []) == []

    def test_refuses_a_loss_below_the_search_floor(self, monkeypatch):
        monkeypatch.setattr(landscape, "sweep",
                            lambda *_, **__: pytest.fail("grid built before the floor was checked"))
        below = np.nextafter(landscape.SEARCH_LOSS_FLOOR, 0.0)
        with pytest.raises(ParameterError, match=r"loss must lie in \[4e-06, 1\]"):
            loss_curve("lambda1", [0.1, below])

    @pytest.mark.parametrize("loss, grid_seed", [(0.1, np.int64(20)), (np.float32(0.25), 20)])
    def test_records_hold_plain_numbers(self, loss, grid_seed):
        (record,) = loss_curve("lambda2", [loss], grid_seed=grid_seed, tol=1e-4)
        assert type(record.loss) is float
        assert type(record.evaluations) is int
        json.dumps(dataclasses.asdict(record))
        assert record == maximize("lambda2", float(loss), grid_seed=int(grid_seed), tol=1e-4)


class TestSeeds:
    # Peaked landscapes, and lambda2 at L = 1, where every cell ties.
    @pytest.mark.parametrize("metric, loss, grid_seed", [
        ("lambda1", 0.1, 60), ("lambda3", 0.05, 200), ("lambda2", 1.0, 200),
        ("lambda2", 1.0, 2), ("lambda1", 1.0, 100)])
    def test_match_full_stable_argsort(self, metric, loss, grid_seed):
        grid = sweep(metric, loss, grid_seed)
        count = min(landscape.REFINE_SEEDS, grid_seed * grid_seed)
        order = np.argsort(-grid.values.ravel(), kind="stable")[:count]
        i, j = np.divmod(order, grid_seed)
        pos, best = landscape._seeds(metric, loss, grid_seed, count)
        np.testing.assert_array_equal(pos, [grid.axis[i], grid.axis[j]])
        np.testing.assert_array_equal(best, grid.values[i, j])


# Loss lists against one scalar search per loss.
CURVE_CASES = [
    # Unsorted, with a duplicate and with L = 1, where every lambda2 probe ties.
    ([0.35, 0.01, 1.0, 0.0123, 0.01, 0.1], 7, 1e-3),
    ([0.1, 1.0, 0.35, 0.1], 60, 1e-8),
    # A 2 x 2 grid gives 4 seeds per loss, fewer than REFINE_SEEDS.
    ([0.05, 1.0, 0.01], 2, 1e-3),
    # The start step 2*pi/700 is already below tol: no iteration at all.
    ([0.1, 0.01, 1.0], 700, 1e-2),
    # A tol the halved step hits exactly.
    ([1.0, 0.1, 0.35], 7, TWO_PI / 7 / 2**7),
    # Small losses: every seed crawls a ridge for thousands of steps.
    ([0.01, 0.02], 200, 1e-6),
    # 200 searching rows: every patch has side 1 from the first call.
    ([0.0125 * k for k in range(1, 41)], 7, 1e-3),
]


class TestLockstepCurve:
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("losses, grid_seed, tol", CURVE_CASES,
                             ids=["unsorted", "tol-1e-8", "grid-2", "no-iteration", "exact-tol",
                                  "small-loss-crawl", "side-1"])
    def test_matches_scalar_compass_per_loss(self, metric, losses, grid_seed, tol):
        assert (loss_curve(metric, losses, grid_seed=grid_seed, tol=tol)
                == [scalar_compass_maximize(metric, loss, grid_seed=grid_seed, tol=tol)
                    for loss in losses])

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_kernel_work_follows_the_slowest_loss(self, monkeypatch, metric):
        kernel = METRICS[metric]
        shapes = []

        def counted(phi, theta0, loss):
            shapes.append(np.broadcast(phi, theta0, loss).shape)
            return kernel(phi, theta0, loss)

        monkeypatch.setitem(METRICS, metric, counted)

        def run(losses):
            shapes.clear()
            records = loss_curve(metric, losses, grid_seed=20, tol=1e-6)
            return records, list(shapes)

        losses = [0.2, 0.05, 0.5, 0.05, 0.1]
        alone = [run([loss]) for loss in losses]
        records, calls = run(losses)
        assert records == [one for (one,), _ in alone]
        # One seed grid per loss, then the compass calls, each on the
        # (probe, row, node, node) patch of the rows still searching, then
        # one re-evaluation per loss.
        assert calls[:len(losses)] == [(20, 20)] * len(losses)
        assert calls[-len(losses):] == [()] * len(losses)
        compass = calls[len(losses):-len(losses)]
        assert all(len(shape) == 4 and shape[1] >= 1 for shape in compass)
        # A call evaluates at most the patch budget, unless one step per row
        # already costs more.
        assert all(math.prod(shape) <= max(landscape.PATCH_POINTS, 4 * shape[1])
                   for shape in compass)
        # Every row of every call takes at least one step, so no call probes
        # a retired seed or comes after the last one retires.
        steps = [(record.evaluations - 20 * 20 - 1) // 4 for record in records]
        assert sum(shape[1] for shape in compass) <= sum(steps)
        # These are ridge crawls of hundreds of steps.  The longest search
        # takes at least the mean over the seeds of the slowest loss.
        slowest_mean = max(steps) / landscape.REFINE_SEEDS
        assert slowest_mean > 300
        assert len(compass) < slowest_mean / 3
        assert len(compass) < sum(len(one_calls) - 2 for _, one_calls in alone)

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_patch_side_follows_the_point_budget(self, monkeypatch, metric):
        """The patch budget alone sizes a patch: 4 rows get side
        isqrt(PATCH_POINTS // 16) = 13."""
        kernel = METRICS[metric]
        shapes = []

        class FirstPatch(Exception):
            pass

        def first_patch(phi, theta0, loss):
            shapes.append(shape := np.broadcast(phi, theta0, loss).shape)
            if len(shape) == 4:
                raise FirstPatch
            return kernel(phi, theta0, loss)

        monkeypatch.setitem(METRICS, metric, first_patch)
        # A 2 x 2 seed grid: 4 searching rows.
        with pytest.raises(FirstPatch):
            loss_curve(metric, [0.1], grid_seed=2, tol=1e-6)
        assert shapes == [(2, 2), (4, 4, 13, 13)]

    def test_a_seed_past_the_iteration_cap_raises(self, monkeypatch):
        # From a 20 x 20 grid at tol 1e-6 the lambda1 seeds take at most 190
        # iterations at L = 0.5 and over 4000 at 0.01.
        uncapped = loss_curve("lambda1", [0.5], grid_seed=20, tol=1e-6)
        monkeypatch.setattr(landscape, "MAX_COMPASS_ITERATIONS", 1000)
        assert loss_curve("lambda1", [0.5], grid_seed=20, tol=1e-6) == uncapped
        with pytest.raises(ConvergenceError, match=r"^lambda1 search at loss 0\.01 took more "
                                                   r"than 1000 compass iterations$"):
            loss_curve("lambda1", [0.5, 0.01], grid_seed=20, tol=1e-6)

    def test_pole_on_the_path_still_raises(self, monkeypatch):
        kernel = METRICS["lambda1"]

        def guarded(phi, theta0, loss):
            # Every compass call.
            if np.ndim(phi) == 4:
                raise ResonantPoleError("a probe on the path")
            return kernel(phi, theta0, loss)

        monkeypatch.setitem(METRICS, "lambda1", guarded)
        with pytest.raises(ResonantPoleError, match="on the path"):
            loss_curve("lambda1", [0.1], grid_seed=20, tol=1e-6)


def lambda3_argmax(loss):
    """Closed-form maximizer of lambda3, where it equals 1/L.

    The factored lambda3 = 1 + t**2*cos(phi/2)**2 / (1 - 2*t*s*sin(psi) + t**2*s**2),
    with t = sqrt(1 - L), s = sin(phi/2) and psi = theta0 + phi/2, peaks at
    sin(psi) = 1 and s = t.
    """
    phi = 2.0 * math.asin(math.sqrt(1.0 - loss))
    return phi, math.pi / 2 - phi / 2


def wrapped_distance(a, b):
    gap = (a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


class TestPhotonFactorArgmax:
    def test_oracle_reaches_inverse_loss(self):
        for loss in np.linspace(0.01, 1.0, 199):
            phi, theta0 = lambda3_argmax(loss)
            assert float(lambda3_values(phi, theta0, loss)) * loss == pytest.approx(1.0, abs=1e-10)

    def test_maximize_lands_on_oracle_or_its_twin(self):
        # The maximum sits on a ridge diagonal to the compass axes, so the
        # located maximizer drifts along it as the loss falls.  Measured
        # distances (rad): 7.0e-6 at L = 0.01, 8.9e-7 at 0.05, 5.1e-7 at 0.1,
        # 4.7e-8 at 0.35, 3.2e-9 at 0.9.  At L = 1 the landscape is flat.
        tolerances = {0.01: 1e-5, 0.05: 2e-6, 0.1: 1e-6, 0.35: 1e-7, 0.9: 1e-8}
        records = loss_curve("lambda3", list(tolerances))
        for record, (loss, tolerance) in zip(records, tolerances.items()):
            phi, theta0 = lambda3_argmax(loss)
            distance = min(
                max(wrapped_distance(record.phi_star, p), wrapped_distance(record.theta0_star, t))
                for p, t in ((phi, theta0), (TWO_PI - phi, TWO_PI - theta0)))
            assert distance < tolerance, (loss, distance)


class TestSearchLossFloor:
    """From SEARCH_LOSS_FLOOR up no kernel call can meet the pole guard.

    |1 - gamma| is least at (pi, 0) and its 2*pi images, where half_denom_sq
    = 2(1 - sqrt(1 - L))**2 >= L**2/2: four times the guard at the floor.
    """

    @pytest.mark.parametrize("loss", [landscape.SEARCH_LOSS_FLOOR,
                                      1.5 * landscape.SEARCH_LOSS_FLOOR, 1e-5])
    def test_guard_cannot_trip_at_or_above_the_floor(self, loss):
        assert landscape.SEARCH_LOSS_FLOOR == 4.0 * KERNEL_POLE_THRESHOLD
        centres = np.array([(math.pi + TWO_PI * i, TWO_PI * j)
                            for i in (-1, 0, 1) for j in (-1, 0, 1)]).T
        offsets = np.random.default_rng(29).uniform(-1e-5, 1e-5, (2, 9, 20000))
        phi, theta0 = np.concatenate([centres, (centres[..., None] + offsets).reshape(2, -1)],
                                     axis=1)
        for kernel in METRICS.values():
            assert np.isfinite(kernel(phi, theta0, loss)).all()
        half_denom_sq = metrology._trig_pieces(phi, theta0, loss)[4]
        guard = 2.0 * KERNEL_POLE_THRESHOLD**2
        assert half_denom_sq.min() >= 4.0 * guard - 32 * np.finfo(float).eps
