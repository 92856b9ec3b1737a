"""Tests of the benchmark's own pieces.

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


# -- seeded generator ---------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_draw_is_deterministic(workload):
    first = workloads.draw(workload, 7, 3)
    again = workloads.draw(workload, 7, 3)
    assert [inv.args for inv in first.invocations] == [inv.args for inv in again.invocations]
    assert first.items == again.items
    other = workloads.draw(workload, 8, 3)
    assert [inv.args for inv in other.invocations] != [inv.args for inv in first.invocations]


@pytest.mark.parametrize("position", [0.0, 0.3, 0.5, 0.999999, 1.0 - 2.0**-53])
def test_losses_stay_in_their_strata(position):
    losses = workloads.draw_losses(position)
    assert len(losses) == len(workloads.LOSS_STRATA)
    for index, (loss, (lo, hi)) in enumerate(zip(losses, workloads.LOSS_STRATA)):
        last = index == len(workloads.LOSS_STRATA) - 1
        assert lo <= loss <= hi if last else lo <= loss < hi
        # On the 1e-6 lattice, so the argv spells the exact loss.
        assert Fraction(repr(loss)) * workloads.LOSS_LATTICE == round(loss * workloads.LOSS_LATTICE)
    assert workloads.draw_losses(0.0) == tuple(lo for lo, _ in workloads.LOSS_STRATA)
    assert workloads.draw_losses(1.0 - 2.0**-53)[-1] == workloads.LOSS_STRATA[-1][1]


def _losses(rep):
    args = rep.invocations[0].args
    return [float(loss) for loss in args[args.index("--losses") + 1].split(",")]


def test_optimum_curve_reps_cover_the_strata_evenly():
    for seed in range(20):
        firsts = sorted(_losses(workloads.draw("optimum_curve", seed, rep))[0] for rep in range(5))
        # Five Weyl steps leave no gap wider than half the first stratum.
        gaps = [b - a for a, b in zip([0.01] + firsts, firsts + [0.02])]
        assert max(gaps) < 0.005


def test_optimum_curve_argv_carries_the_drawn_losses():
    rep = workloads.draw("optimum_curve", 3, 0)
    lists = {inv.args[inv.args.index("--losses") + 1] for inv in rep.invocations}
    assert len(lists) == 1
    assert rep.items == len(workloads.METRIC_TAGS) * len(workloads.LOSS_STRATA)


def test_raster_loss_in_range():
    for seed in range(200):
        rep = workloads.draw("raster", seed, 0)
        loss = float(rep.invocations[0].args[4])
        assert workloads.RASTER_LOSS_RANGE[0] <= loss <= workloads.RASTER_LOSS_RANGE[1]


# -- self-time arithmetic -----------------------------------------------------

def test_self_time_subtracts_union_of_children_and_aggregates():
    spans = [
        tracing.Span(0, "root", None, 0.0, 10.0),
        tracing.Span(1, "a", 0, 1.0, 3.0),
        tracing.Span(2, "b", 0, 2.0, 5.0),    # overlaps a: [1, 5] counts once
        tracing.Span(3, "c", 0, 9.0, 12.0),   # clipped to the parent: [9, 10]
        tracing.Span(4, "d", 2, 2.5, 3.0),    # grandchild: charged to b only
    ]
    times = tracing.self_times(spans, Counter({0: 0.5, 2: 0.25}))
    assert times[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert times[1] == pytest.approx(2.0)
    assert times[2] == pytest.approx(3.0 - 0.5 - 0.25)
    assert times[3] == pytest.approx(3.0)
    assert times[4] == pytest.approx(0.5)


def test_tracer_charges_aggregated_calls_to_the_open_span():
    ticks = iter([0.0, 1.0, 4.0, 6.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):          # 0.0
        with tracer.span("inner"):      # 1.0 .. 4.0
            tracer.add_call("hot", 0.5)
        tracer.add_call("hot", 1.25)
    assert tracer.busy == Counter({"outer": 6.0, "inner": 3.0, "hot": 1.75})
    assert tracer.calls["hot"] == 2
    assert tracer.self_time("outer") == pytest.approx(6.0 - 3.0 - 1.25)
    assert tracer.self_time("inner") == pytest.approx(3.0 - 0.5)


def test_instrument_counts_and_restores():
    from recycled_mzi import landscape, metrology

    original = landscape.maximize, dict(metrology.METRICS)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        record = landscape.maximize("lambda2", 0.2, grid_seed=20, tol=1e-4)
    assert (landscape.maximize, metrology.METRICS) == original
    assert tracer.counts["landscape.evaluations"] == record.evaluations
    # One 20x20 seed grid, then one scalar call per evaluation.
    assert tracer.calls[tracing.RASTER_KERNEL] == 1
    assert tracer.calls[tracing.SCALAR_KERNEL] == record.evaluations - 400
    assert tracer.counts["metrology.kernel_points"] == record.evaluations


# -- failures are counted, not raised -----------------------------------------

def _invocation(check=lambda data: None):
    return workloads.Invocation(("verify", "--points", "3"), None, check)


def test_wrong_digest_is_a_failure():
    good = b"all checks passed\n"
    ledger = run.Ledger({"verify --points 3": hashlib.sha256(b"other").hexdigest()})
    assert not ledger.judge(_invocation(), run.Outcome(0, b"", good))
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "digest differs" in ledger.failures[0]


def test_bad_exit_code_and_traceback_are_one_failure():
    ledger = run.Ledger({})
    outcome = run.Outcome(1, b"Traceback (most recent call last):\n", b"")
    assert not ledger.judge(_invocation(), outcome)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert len(ledger.failures) == 2


def test_malformed_output_is_a_failure():
    ledger = run.Ledger({})
    invocation = _invocation(lambda data: workloads.check_optimum(data, "lambda2", (0.1,)))
    assert not ledger.judge(invocation, run.Outcome(0, b"", b"not json"))
    assert not ledger.judge(invocation, run.Outcome(0, b"", None))
    assert (ledger.attempted, ledger.failed) == (2, 2)


def test_missing_golden_is_a_failure_only_when_required():
    ledger = run.Ledger({})
    assert ledger.judge(_invocation(), run.Outcome(0, b"", b"x"))
    assert not ledger.judge(_invocation(), run.Outcome(0, b"", b"x"), require_golden=True)
    assert ledger.failed == 1


def test_output_must_match_reference():
    ledger = run.Ledger({})
    assert not ledger.judge(_invocation(), run.Outcome(0, b"", b"x"), reference=b"y")
    assert ledger.failed == 1


def test_optimum_check_catches_an_inaccurate_maximum():
    from recycled_mzi import landscape

    record = landscape.maximize("lambda3", 0.2, grid_seed=40)
    payload = [dict(loss=record.loss, metric_tag=record.metric_tag,
                    lambda_max=record.lambda_max, phi_star=record.phi_star,
                    theta0_star=record.theta0_star, evaluations=record.evaluations)]
    error = workloads.check_optimum(json.dumps(payload).encode(), "lambda3", (0.2,))
    assert error <= workloads.OPTIMUM_RTOL
    payload[0]["lambda_max"] *= 1.0 + 1e-6
    with pytest.raises(workloads.CheckFailed):
        workloads.check_optimum(json.dumps(payload).encode(), "lambda3", (0.2,))


def test_verify_check_rejects_a_failed_suite():
    passing = "".join(f"suite {k}  max deviation 0  tolerance 1e-10  PASS\n" for k in range(6))
    workloads.check_verify((passing + "all checks passed\n").encode())
    failing = passing.replace("PASS", "FAIL", 1) + "verification FAILED\n"
    with pytest.raises(workloads.CheckFailed):
        workloads.check_verify(failing.encode())


def test_raster_check_rejects_a_changed_value(tmp_path):
    from recycled_mzi import cli

    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--metric", "lambda1", "--loss", "0.2", "--n", "8",
                     "--out", str(out)]) == 0
    data = out.read_bytes()
    workloads.check_raster(data, "lambda1", 0.2, 8, sample_seed=1)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_raster(data, "lambda1", 0.2, 9, sample_seed=1)
    rows = data.decode().split("\n")
    for index in range(1, 65):
        phi, theta0, value = rows[index].split(",")
        rows[index] = f"{phi},{theta0},{float(value) * 1.001!r}"
    with pytest.raises(workloads.CheckFailed):
        workloads.check_raster("\n".join(rows).encode(), "lambda1", 0.2, 8, sample_seed=1)


# -- BENCHMARK.json and the program's known defect ----------------------------

def test_benchmark_json_matches_the_driver():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.BENCHMARKED
    per_layer = tracing.layer_metrics(tracing.Tracer(), 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in per_layer.values()]
    full = tracing.layer_metrics(tracing.Tracer(), 0.0, verify=True)
    assert set(per_layer) < set(full)
    assert "loop.cascade_stages" in full


@pytest.mark.xfail(strict=True, reason=(
    "program defect: stages_for_tolerance picks m with |gamma|**m < 1e-14 but "
    "iterate_series makes m - 1 passes, so near phi = 0 the oracle misses its "
    "tolerance; verify_suite rejoins BENCHMARK.json once this passes"))
def test_oracle_check_passes_near_phi_zero():
    import numpy as np
    from recycled_mzi import verification

    result = verification.oracle_equivalence(np.array([[5e-5, 1.0]]), losses=(0.5,))
    assert result.passed, f"deviation {result.deviation:.2e} >= {result.tolerance:.0e}"
