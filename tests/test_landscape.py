import math

import numpy as np
import pytest

from recycled_mzi import (
    LoopParameters,
    ParameterError,
    lambda1,
    lambda1_values,
    lambda2_values,
    loss_curve,
    maximize,
    sweep,
)
from recycled_mzi import landscape

TWO_PI = 2 * math.pi


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
        assert grid.values[4, 9] == lambda1(params)

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
        # The located maximum of the bound factor lands on 1 + 1/L.
        for loss in (0.05, 0.10, 0.20, 0.4):
            record = maximize("lambda2", loss)
            assert record.lambda_max == pytest.approx(1.0 + 1.0 / loss, rel=1e-8)

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
