"""The summary of scripts/bench_pairs.py on canned bench/run.py results.

No benchmark runs here: the results are written out by hand.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(wall_s, items_per_s, setup_s=0.25, peak_rss_mb=90.0, failed=0):
    values = {"wall_s": wall_s, "items_per_s": items_per_s, "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb}
    return {"correct": failed == 0, "attempted": 12, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()}}


def canned(parent_walls, change_walls, **change_fields):
    return {
        "parent": [result(wall, 480_000 / wall) for wall in parent_walls],
        "change": [result(wall, 480_000 / wall, **change_fields) for wall in change_walls],
    }


PARENT_WALLS = [1.40, 1.45, 1.50, 1.42, 1.48, 1.46, 1.44, 1.41, 1.47, 1.43]


def test_clear_gain_on_both_directions():
    change = [wall * 0.8 for wall in PARENT_WALLS]
    summary = bench_pairs.summarize(canned(PARENT_WALLS, change), DECLARED)
    wall, rate = summary["metrics"]["wall_s"], summary["metrics"]["items_per_s"]
    assert wall["change_wins"] == rate["change_wins"] == "10/10"
    assert wall["gain"] and rate["gain"]
    assert wall["relative_worsening"] == pytest.approx(-0.2, abs=1e-3)
    assert rate["relative_worsening"] == pytest.approx(-0.25, abs=1e-3)
    assert wall["parent"]["median"] == pytest.approx(1.445)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((1.4225, 1.4675))
    assert wall["within_bound"] and wall["resolved"]
    # Identical setup times: every pair ties, which counts for neither side.
    setup = summary["metrics"]["setup_s"]
    assert setup["change_wins"] == "0/10"
    assert not setup["gain"] and setup["within_bound"]
    assert summary["all_correct"]
    assert summary["runs"]["change"][0] == {"correct": True, "attempted": 12, "failed": 0}


def test_eight_wins_in_ten_is_no_gain():
    change = [wall * 0.8 for wall in PARENT_WALLS[:8]] + [wall * 1.1 for wall in PARENT_WALLS[8:]]
    wall = bench_pairs.summarize(canned(PARENT_WALLS, change), DECLARED)["metrics"]["wall_s"]
    assert wall["change_wins"] == "8/10"
    assert not wall["gain"]


def test_gap_inside_parent_spread_is_no_gain():
    change = [wall - 0.01 for wall in PARENT_WALLS]
    wall = bench_pairs.summarize(canned(PARENT_WALLS, change), DECLARED)["metrics"]["wall_s"]
    assert wall["change_wins"] == "10/10"
    assert not wall["gain"]


def test_worsening_past_bound_and_failed_runs():
    change = [wall * 1.5 for wall in PARENT_WALLS]
    summary = bench_pairs.summarize(canned(PARENT_WALLS, change, peak_rss_mb=120.0, failed=1),
                                    DECLARED)
    assert summary["metrics"]["wall_s"]["relative_worsening"] == pytest.approx(0.5, abs=1e-3)
    assert not summary["metrics"]["wall_s"]["within_bound"]
    assert not summary["metrics"]["peak_rss_mb"]["within_bound"]
    assert not summary["all_correct"]


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 2.0, 1.0, 2.0]
    slower = bench_pairs.summarize(canned(parent, [1.1, 2.1, 1.1, 2.1]), DECLARED)
    assert not slower["metrics"]["wall_s"]["resolved"]
    faster = bench_pairs.summarize(canned(parent, [0.5, 0.6, 0.5, 0.6]), DECLARED)
    assert faster["metrics"]["wall_s"]["resolved"]
    assert faster["metrics"]["items_per_s"]["resolved"]


def test_unequal_pairs_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize(canned(PARENT_WALLS, PARENT_WALLS[:9]), DECLARED)


def test_gain_must_show_on_every_seed():
    faster = bench_pairs.summarize(canned(PARENT_WALLS, [w * 0.8 for w in PARENT_WALLS]), DECLARED)
    inside = bench_pairs.summarize(canned(PARENT_WALLS, [w - 0.01 for w in PARENT_WALLS]), DECLARED)
    assert bench_pairs.gain_on_every_seed([faster, faster])["wall_s"]
    every = bench_pairs.gain_on_every_seed([faster, inside])
    assert set(every) == {spec["name"] for spec in DECLARED}
    assert not every["wall_s"] and not every["items_per_s"]


def test_each_seed_runs_its_own_pairs(monkeypatch, tmp_path):
    checkouts = {}
    for side in bench_pairs.SIDES:
        checkouts[side] = tmp_path / side
        checkouts[side].mkdir()
        (checkouts[side] / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    ran = []

    def run_bench(checkout, workload, seed, seconds):
        ran.append(seed)
        # The change is faster at seed 1 only.
        wall = 0.5 if checkout == checkouts["change"] and seed == 1 else 1.0
        return result(wall, 480_000 / wall)

    probes = []

    def time_probe(code):
        probes.append(code)
        return {"pass": 0.05, "import numpy": 0.15}[code] + 0.001 * len(probes)

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "time_probe", time_probe)
    monkeypatch.setattr(bench_pairs, "bench_digest", lambda checkout: "same")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(checkouts["parent"]), str(checkouts["change"]),
                             "--workload", "raster", "--seed", "1", "--seed", "2",
                             "--pairs", "2", "--out", str(out)]) == 0
    assert ran == [1] * 4 + [2] * 4
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {"raster seed 1", "raster seed 2"}
    assert report["workloads"]["raster seed 1"]["metrics"]["wall_s"]["gain"]
    assert report["workloads"]["raster seed 2"]["metrics"]["wall_s"]["change_wins"] == "0/2"
    assert report["gain_on_every_seed"]["raster"]["seeds"] == [1, 2]
    assert report["environment"]["variables"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONUNBUFFERED": "1"}
    assert not report["gain_on_every_seed"]["raster"]["metrics"]["wall_s"]
    # One of each start-up probe per pair, the order alternating by pair.
    assert probes == ["pass", "import numpy", "import numpy", "pass"] * 2
    floor = report["workloads"]["raster seed 2"]["startup_floor"]
    assert set(floor) == {"python_s", "import_numpy_s"}
    assert floor["python_s"]["runs"] == [0.055, 0.058]
    assert floor["import_numpy_s"]["runs"] == [0.156, 0.157]
    numpy_floor = floor["import_numpy_s"]
    assert (numpy_floor["unit"], numpy_floor["median"]) == ("s", pytest.approx(0.1565))
    assert numpy_floor["q1"] <= numpy_floor["median"] <= numpy_floor["q3"]
    assert "startup_floor" in report["end_to_end_protocol"]


def test_start_up_probe_runs_python_with_one_openblas_thread():
    seconds = bench_pairs.time_probe(
        "import os, sys; sys.exit(os.environ['OPENBLAS_NUM_THREADS'] != '1')")
    assert 0.0 < seconds < bench_pairs.RUN_TIMEOUT_S
