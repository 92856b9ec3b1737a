"""Seeded workloads of the benchmark: the CLI arguments they run and the
checks their outputs must pass.

A workload run ("rep") is a fixed set of `python -m recycled_mzi`
invocations whose inputs are drawn from (workload, seed, rep index), so a
seed names one sequence of reps and every rep of a run gets fresh inputs.
Medians over reps then estimate a per-workload figure rather than the cost
of one particular draw, which keeps runs at different seeds comparable.

Checks take the raw output bytes, raise `CheckFailed` (or any exception on
malformed output) when the output is wrong, and return the worst relative
error against a closed form where one exists, else None.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("raster", "optimum_curve", "verify_suite")
# The workloads BENCHMARK.json lists, and the ones a traced run covers.
# verify_suite stays runnable but is left out while `verify` fails on about
# one random --seed in 15 (see LAYERS.md): a run of it reports that failure
# as `correct: false`, so it cannot serve as a baseline until the program
# is fixed.
BENCHMARKED = ("raster", "optimum_curve")
DEFAULT_SEED = 0
WORK_DIR = ".bench_work"

METRIC_TAGS = ("lambda1", "lambda2", "lambda3")
TWO_PI = 2.0 * math.pi

# raster: one sweep per metric, CSV written with --out.
RASTER_N = 400
RASTER_LOSS_RANGE = (0.05, 0.5)
RASTER_SAMPLE_ROWS = 200
RASTER_RTOL = 1e-11
RASTER_ATOL = 1e-12

# optimum_curve: one loss per stratum, so every rep crawls the small-loss
# ridge once and pays the per-seed overhead of the large losses once.
LOSS_STRATA = ((0.01, 0.02), (0.02, 0.05), (0.05, 0.1), (0.1, 0.2), (0.2, 0.5))
LOSS_LATTICE = 10**6
WEYL_STEP = (math.sqrt(5.0) - 1.0) / 2.0
# Located maxima against lambda_max re-evaluated at the reported maximizer,
# and against the closed-form maxima 1 + 1/L (lambda2) and 1/L (lambda3).
REEVAL_RTOL = 1e-12
OPTIMUM_RTOL = 1e-8

# verify_suite: points drawn per rep; the losses are verify's stock six
# (verification.DEFAULT_LOSSES).
VERIFY_POINTS = 3000
VERIFY_LOSS_COUNT = 6
VERIFY_SUITES = 6


class CheckFailed(Exception):
    """An output that does not meet its workload's correctness check."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments after `python -m recycled_mzi`, the
    --out path it writes (None when the output is stdout) and its check."""

    args: tuple[str, ...]
    out: str | None
    check: Callable[[bytes], float | None]

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Rep:
    """One workload run and the work items it completes."""

    invocations: tuple[Invocation, ...]
    items: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _format_number(value: float) -> str:
    return f"{value:.12g}"


def _kernel(metric: str):
    from recycled_mzi import metrology

    return getattr(metrology, f"{metric}_values")


def check_raster(data: bytes, metric: str, loss: float, n: int, sample_seed: int) -> None:
    """Header, row count, and a seeded sample of rows recomputed from the
    kernel at the exact grid points."""
    import numpy as np

    lines = data.decode("utf-8").split("\n")
    _require(lines[0] == "phi,theta0,value", f"bad header {lines[0]!r}")
    _require(lines[-1] == "", "missing final newline")
    rows = lines[1:-1]
    _require(len(rows) == n * n, f"{len(rows)} rows, expected {n * n}")
    axis = np.linspace(0.0, TWO_PI, n, endpoint=False)
    picked = sorted(random.Random(sample_seed).sample(range(n * n),
                                                      min(RASTER_SAMPLE_ROWS, n * n)))
    i = np.array([r // n for r in picked])
    j = np.array([r % n for r in picked])
    expected = _kernel(metric)(axis[i], axis[j], loss)
    for k, r in enumerate(picked):
        fields = rows[r].split(",")
        _require(len(fields) == 3, f"row {r}: {rows[r]!r}")
        _require(fields[0] == _format_number(axis[i[k]]), f"row {r}: phi {fields[0]}")
        _require(fields[1] == _format_number(axis[j[k]]), f"row {r}: theta0 {fields[1]}")
        _require(math.isclose(float(fields[2]), float(expected[k]),
                              rel_tol=RASTER_RTOL, abs_tol=RASTER_ATOL),
                 f"row {r}: value {fields[2]}, recomputed {expected[k]!r}")


def closed_form_maximum(metric: str, loss: float) -> float:
    """max lambda2 = 1 + 1/L, max lambda3 = 1/L; lambda1 <= lambda2 bounds lambda1."""
    return 1.0 / loss if metric == "lambda3" else 1.0 + 1.0 / loss


def check_optimum(data: bytes, metric: str, losses: tuple[float, ...]) -> float | None:
    """Every loss located, lambda_max reproduced at the maximizer, and the
    maxima against their closed forms.  Returns the worst relative error of
    lambda2/lambda3 against 1 + 1/L and 1/L, None for lambda1."""
    records = json.loads(data)
    _require(isinstance(records, list) and len(records) == len(losses),
             f"expected {len(losses)} records")
    kernel = _kernel(metric)
    worst = 0.0
    for record, loss in zip(records, losses):
        _require(set(record) == {"loss", "metric_tag", "lambda_max", "phi_star",
                                 "theta0_star", "evaluations"}, f"bad record {record}")
        _require(record["loss"] == loss and record["metric_tag"] == metric,
                 f"record {record} does not match loss {loss}")
        _require(isinstance(record["evaluations"], int) and record["evaluations"] > 0,
                 f"bad evaluation count in {record}")
        phi, theta0, value = record["phi_star"], record["theta0_star"], record["lambda_max"]
        _require(0.0 <= phi < TWO_PI and 0.0 <= theta0 < TWO_PI,
                 f"maximizer not wrapped: {record}")
        again = float(kernel(phi, theta0, loss))
        _require(math.isclose(value, again, rel_tol=REEVAL_RTOL),
                 f"lambda_max {value} but {again} at the maximizer")
        bound = closed_form_maximum(metric, loss)
        if metric == "lambda1":
            _require(1.0 < value <= bound * (1.0 + OPTIMUM_RTOL),
                     f"lambda1 maximum {value} outside (1, {bound}]")
            continue
        rel = abs(value - bound) / bound
        _require(rel <= OPTIMUM_RTOL, f"{metric} maximum {value} vs closed form {bound}")
        worst = max(worst, rel)
    return None if metric == "lambda1" else worst


def check_verify(data: bytes) -> None:
    lines = data.decode("utf-8").splitlines()
    _require(lines[-1:] == ["all checks passed"], "missing 'all checks passed'")
    suites = lines[:-1]
    _require(len(suites) == VERIFY_SUITES and all(line.endswith("  PASS") for line in suites),
             f"expected {VERIFY_SUITES} passing suites, got {suites}")


def _draw_raster(seed: int, rep: int) -> Rep:
    rng = random.Random(f"raster/{seed}/{rep}")
    lo, hi = RASTER_LOSS_RANGE
    loss = f"{rng.uniform(lo, hi):.4f}"
    sample_seed = rng.randrange(2**32)
    invocations = []
    for metric in METRIC_TAGS:
        out = f"{WORK_DIR}/raster-{metric}.csv"
        check = functools.partial(check_raster, metric=metric, loss=float(loss),
                                  n=RASTER_N, sample_seed=sample_seed)
        invocations.append(Invocation(
            ("sweep", "--metric", metric, "--loss", loss, "--n", str(RASTER_N), "--out", out),
            out, check))
    return Rep(tuple(invocations), len(METRIC_TAGS) * RASTER_N * RASTER_N)


def draw_losses(position: float) -> tuple[float, ...]:
    """One loss per stratum, each at relative `position` in [0, 1) of its
    stratum, on the 1e-6 lattice: [lo, hi) except the last stratum, which
    includes its upper end."""
    losses = []
    last = len(LOSS_STRATA) - 1
    for index, (lo, hi) in enumerate(LOSS_STRATA):
        lo_q, hi_q = round(lo * LOSS_LATTICE), round(hi * LOSS_LATTICE)
        width = hi_q - lo_q + (index == last)
        losses.append((lo_q + min(int(position * width), width - 1)) / LOSS_LATTICE)
    return tuple(losses)


def _draw_optimum_curve(seed: int, rep: int) -> Rep:
    # Refinement cost falls steeply with the loss inside the small-loss
    # strata, so iid draws make one rep cost up to 1.7x another.  All strata
    # share one relative position, and successive reps step it along a
    # golden-ratio (Weyl) sequence from a seeded start: any few reps of a
    # run cover the strata evenly, and the median rep sits near the middle
    # of the cost range whatever the seed.
    start = random.Random(f"optimum_curve/{seed}").random()
    losses = draw_losses((start + rep * WEYL_STEP) % 1.0)
    loss_list = ",".join(repr(loss) for loss in losses)
    invocations = tuple(
        Invocation(("optimize", "--metric", metric, "--losses", loss_list, "--format", "json"),
                   None, functools.partial(check_optimum, metric=metric, losses=losses))
        for metric in METRIC_TAGS)
    return Rep(invocations, len(METRIC_TAGS) * len(losses))


def _draw_verify_suite(seed: int, rep: int) -> Rep:
    rng = random.Random(f"verify_suite/{seed}/{rep}")
    verify_seed = str(rng.randrange(2**31))
    invocation = Invocation(("verify", "--points", str(VERIFY_POINTS), "--seed", verify_seed),
                            None, check_verify)
    return Rep((invocation,), VERIFY_POINTS * VERIFY_LOSS_COUNT)


_DRAW = {
    "raster": _draw_raster,
    "optimum_curve": _draw_optimum_curve,
    "verify_suite": _draw_verify_suite,
}


def draw(workload: str, seed: int, rep: int) -> Rep:
    """The inputs of rep `rep` of `workload` under `seed`; deterministic."""
    return _DRAW[workload](seed, rep)
