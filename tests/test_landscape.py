import math

import numpy as np
import pytest

from recycled_mzi import (
    LoopParameters,
    ParameterError,
    lambda1_values,
    lambda2_values,
    loss_curve,
    maximize,
    merit_report,
    sweep,
)
from recycled_mzi import landscape
from recycled_mzi.landscape import OptimumRecord
from recycled_mzi.metrology import METRICS

TWO_PI = 2 * math.pi


def scalar_compass_maximize(metric_tag, loss, grid_seed=200, tol=1e-8):
    """`maximize` with one scalar kernel call per probe, one seed at a time.

    The reference for the lockstep search: the same seeding, probes, moves,
    step halving, tie window and wrapping, evaluated point by point.
    """
    grid = sweep(metric_tag, loss, grid_seed, grid_seed)
    kernel = METRICS[metric_tag]
    axis = grid.phi_points
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
        grid = sweep("lambda1", 0.10, 40, 30)
        assert grid.values.shape == (40, 30)
        assert grid.phi_points.shape == (40,)
        assert grid.theta0_points.shape == (30,)
        again = sweep("lambda1", 0.10, 40, 30)
        np.testing.assert_array_equal(grid.values, again.values)

    def test_photon_factor_never_below_unity(self):
        grid = sweep("lambda3", 0.05, 200, 200)
        assert grid.values.min() >= 1.0 - 1e-12

    def test_blocked_loop_rows_are_sine(self):
        grid = sweep("lambda1", 1.0, 100, 100)
        expected = np.abs(np.sin(grid.phi_points))
        for j in range(100):
            np.testing.assert_allclose(grid.values[:, j], expected, atol=1e-12)

    def test_dense_grid_reaches_reference_maximum(self):
        grid = sweep("lambda1", 0.10, 400, 400)
        assert grid.values.max() == pytest.approx(9.32, rel=0.02)

    def test_values_match_pointwise_evaluation(self):
        grid = sweep("lambda1", 0.15, 11, 13)
        params = LoopParameters(phi=float(grid.phi_points[4]),
                                theta0=float(grid.theta0_points[9]), loss=0.15)
        assert grid.values[4, 9] == merit_report(params).lambda1

    @pytest.mark.parametrize("kwargs", [
        {"metric_tag": "lambda9", "loss": 0.1, "n_phi": 10, "n_theta0": 10},
        {"metric_tag": "lambda1", "loss": 0.0, "n_phi": 10, "n_theta0": 10},
        {"metric_tag": "lambda1", "loss": 1.5, "n_phi": 10, "n_theta0": 10},
        {"metric_tag": "lambda1", "loss": 0.1, "n_phi": 1, "n_theta0": 10},
        {"metric_tag": "lambda1", "loss": 0.1, "n_phi": 20000, "n_theta0": 20000},
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
            dense = sweep("lambda1", loss, 400, 400).values.max()
            assert record.lambda_max >= dense - 1e-9

    def test_dominates_seeding_grid(self):
        record = maximize("lambda2", 0.15, grid_seed=50)
        assert record.lambda_max >= sweep("lambda2", 0.15, 50, 50).values.max()

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
        (record,) = loss_curve("lambda1", [0.10])
        assert record.lambda_max > 1.0

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
        monkeypatch.setattr(landscape, "maximize",
                            lambda *_, **__: pytest.fail("refined before every loss was checked"))
        with pytest.raises(ParameterError, match="got 1.5"):
            loss_curve("lambda1", [0.1, 0.2, 1.5])
