"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line so the suite doubles as a human-readable
release report: run `pytest tests/test_acceptance.py -s`.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from recycled_mzi import (
    LoopParameters,
    cascade,
    closed_form,
    lambda1_values,
    lambda2_values,
    lambda3_values,
    loss_curve,
    merit_report,
    sweep,
)
from recycled_mzi.cli import main
from recycled_mzi.verification import oracle_equivalence, sample_points
from test_derivative import cascade_factors

ORACLE_LOSSES = (0.05, 0.10, 0.15, 0.20, 0.5, 0.9)
GRID_LOSSES = (0.05, 0.10, 0.15, 0.20)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def grid_axes(n=50):
    axis = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return axis[:, None], axis[None, :]


def test_criterion_1_headline_optimum(capsys):
    with criterion(1, "headline optimum at ten percent loss"):
        start = time.perf_counter()
        code, out = cli(capsys, "optimize", "--metric", "lambda1", "--losses", "0.10")
        elapsed = time.perf_counter() - start
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == pytest.approx(9.32, abs=0.05)
        assert float(row[3]) == pytest.approx(2.5702, abs=1e-3)
        assert float(row[4]) == pytest.approx(0.3524, abs=1e-3)
        assert elapsed < 10.0


def test_criterion_2_conventional_limit():
    with criterion(2, "blocked loop recovers the conventional interferometer"):
        start = time.perf_counter()
        phi, theta0 = grid_axes(100)
        hd = lambda1_values(phi, theta0, 1.0)
        assert np.max(np.abs(hd - np.abs(np.sin(phi)) * np.ones_like(theta0))) < 1e-12
        assert np.max(np.abs(lambda2_values(phi, theta0, 1.0) - 1.0)) < 1e-12
        assert np.max(np.abs(lambda3_values(phi, theta0, 1.0) - 1.0)) < 1e-12
        # Independent oracle: a single cascade stage is the conventional
        # interferometer, and the blocked loop must coincide with it.
        for p, t in [(0.3, 1.0), (2.0, 4.4), (5.1, 0.2), (3.9, 5.8)]:
            single, _ = cascade(p, t, 1.0, 0)
            closed = closed_form(p, t, 1.0)
            assert single.upsilon == closed.upsilon
            assert single.xi == closed.xi
        assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_equivalence():
    with criterion(3, "iterated cascade matches closed form"):
        start = time.perf_counter()
        result = oracle_equivalence(sample_points(1000, seed=0), ORACLE_LOSSES)
        elapsed = time.perf_counter() - start
        assert result.deviation < 1e-10
        assert elapsed < 5.0


def test_criterion_4_purity_and_energy_balance():
    with criterion(4, "unit output noise and energy balance"):
        points = sample_points(1000, seed=0)
        loss = np.array(ORACLE_LOSSES)[:, None]
        coef = closed_form(points[:, 0], points[:, 1], loss)
        assert coef.upsilon.shape == (len(ORACLE_LOSSES), 1000)
        worst_norm = np.max(np.abs(np.abs(coef.upsilon) ** 2 + np.abs(coef.vac_a) ** 2 - 1.0))
        worst_energy = np.max(np.abs(np.abs(coef.upsilon) ** 2 + loss * np.abs(coef.xi) ** 2
                                     - 1.0))
        assert worst_norm < 1e-12
        assert worst_energy < 1e-12


def test_criterion_5_qcrb_consistency():
    with criterion(5, "cascade-slope bound agrees with the closed factor"):
        phi, theta0 = grid_axes(50)
        for loss in GRID_LOSSES:
            closed = lambda2_values(phi, theta0, loss)
            numeric = cascade_factors(phi, theta0, loss)[1]
            assert np.max(np.abs(numeric - closed) / closed) < 1e-6
        # The cascade-slope bound times the closed factor is the
        # shot-noise limit; spot the identity at single points across the
        # grid where the factor is alive.
        axis = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)
        worst = 0.0
        for loss in GRID_LOSSES:
            for i in range(0, 50, 7):
                for j in range(0, 50, 7):
                    params = LoopParameters(phi=float(axis[i]), theta0=float(axis[j]),
                                            loss=loss)
                    factor = merit_report(params).lambda2
                    if factor <= 1e-3:
                        continue
                    bound = 1.0 / float(cascade_factors(params.phi, params.theta0,
                                                        params.loss)[1])
                    worst = max(worst, abs(bound * factor - 1.0))
        assert worst < 1e-6


def test_criterion_6_bound_ordering():
    with criterion(6, "quantum bound dominates homodyne factor"):
        phi, theta0 = grid_axes(50)
        for loss in GRID_LOSSES:
            gap = lambda2_values(phi, theta0, loss) - lambda1_values(phi, theta0, loss)
            assert gap.min() >= -1e-9


def test_criterion_7_loss_curve_shape():
    with criterion(7, "optimum-versus-loss curves"):
        start = time.perf_counter()
        losses = np.linspace(0.02, 0.5, 25)
        hd = [r.lambda_max for r in loss_curve("lambda1", losses)]
        bound = [r.lambda_max for r in loss_curve("lambda2", losses)]
        elapsed = time.perf_counter() - start
        assert all(a >= b - 1e-12 for a, b in zip(hd, hd[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(bound, bound[1:]))
        assert hd[4] > 1.0  # entry for loss 0.10
        assert all(b >= h for h, b in zip(hd, bound))
        assert elapsed < 60.0


def _largest_component(mask):
    # Flood fill on the torus; angles wrap, so adjacency does too.
    n, m = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    largest = 0
    for i0 in range(n):
        for j0 in range(m):
            if not mask[i0, j0] or seen[i0, j0]:
                continue
            size = 0
            stack = [(i0, j0)]
            seen[i0, j0] = True
            while stack:
                i, j = stack.pop()
                size += 1
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    a, b = (i + di) % n, (j + dj) % m
                    if mask[a, b] and not seen[a, b]:
                        seen[a, b] = True
                        stack.append((a, b))
            largest = max(largest, size)
    return largest


def test_criterion_8_landscapes():
    with criterion(8, "landscape sweeps"):
        for loss in GRID_LOSSES:
            for metric in ("lambda1", "lambda2", "lambda3"):
                start = time.perf_counter()
                grid = sweep(metric, loss, 200)
                assert time.perf_counter() - start < 5.0
                if metric == "lambda3":
                    assert grid.values.min() >= 1.0 - 1e-12
                else:
                    above_unity = grid.values > 1.0
                    assert above_unity.any()
                    # The enhancement region is a coherent patch, not noise.
                    assert _largest_component(above_unity) >= 100


def test_criterion_9_byte_determinism(capsys, tmp_path):
    with criterion(9, "byte-identical reruns of every command"):
        commands = [
            ("point", "--phi", "2.5702", "--theta0", "0.3524", "--loss", "0.10"),
            ("sweep", "--metric", "lambda1", "--loss", "0.10", "--n", "100"),
            ("optimize", "--metric", "lambda2", "--losses", "0.05,0.2"),
            ("verify", "--points", "150"),
        ]
        for argv in commands:
            code_a, out_a = cli(capsys, *argv)
            code_b, out_b = cli(capsys, *argv)
            assert code_a == code_b == 0
            assert out_a.encode() == out_b.encode()
        # File outputs go through the atomic writer; check those bytes too.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            cli(capsys, "sweep", "--metric", "lambda3", "--loss", "0.05", "--n", "120",
                "--out", str(path))
        assert a.read_bytes() == b.read_bytes()
