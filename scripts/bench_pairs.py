#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize it.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload raster \\
        --seed 11 --seed 12 --pairs 10 --seconds 10 --out BENCH_12.json

PARENT_DIR and CHANGE_DIR are two source checkouts (for example two
`git clone`s at the two commits).  For each workload the script runs
`python3 bench/run.py --workload W --seed S --seconds T` once in each
checkout per pair, unchanged and one process at a time: even pairs run the
parent first, odd pairs the change first.  Each `--seed` gets its own
pairs.  It refuses to run when the two checkouts' benchmark files differ,
because a comparison needs identical benchmark code on both sides.

The output JSON holds, per workload and per end-to-end metric of
BENCHMARK.json, each side's median, quartiles and runs, the relative
worsening of the change's median against its bound, and how many pairs the
change won; each run's `correct`, `attempted` and `failed`; and provenance,
including the timing-relevant environment variables the runs inherit
(`null` when unset).
One seed can show a gain that is the machine's run-to-run spread, so
`gain_on_every_seed` holds, per workload and metric, whether the gain showed
on every seed of this invocation.  When `--out` exists, its other keys
(notes written by hand, workloads of an earlier invocation) are kept and
only the workloads and seeds run now are replaced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

SIDES = ("parent", "change")
# What bench/run.py compares: its own code, its golden digests and the
# metric declarations.
BENCH_FILES = ("BENCHMARK.json", "bench/run.py", "bench/workloads.py", "bench/tracing.py",
               "bench/golden.json")
RUN_TIMEOUT_S = 1800
# Environment variables that both sides' children inherit and that move
# their timings: BLAS and OpenMP thread counts, and bytecode caching.
TIMING_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")


def bench_digest(checkout: Path) -> str:
    """sha256 over the benchmark files of one checkout."""
    digest = hashlib.sha256()
    for name in BENCH_FILES:
        digest.update(name.encode() + b"\0" + (checkout / name).read_bytes() + b"\0")
    return digest.hexdigest()


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `bench/run.py` run in `checkout`: its JSON result line, plus the
    git revision its provenance line names."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    # bench/run.py puts its own checkout's src first; an inherited
    # PYTHONPATH would still reach both sides' children after it.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("provenance "):
            result["git_revision"] = json.loads(line[len("provenance "):])["git_revision"]
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(value, 4) for value in values]}


def summarize(runs: dict[str, list[dict]], declared: list[dict]) -> dict:
    """Per-metric comparison of alternating runs.

    `runs` maps "parent" and "change" to equally long lists of bench/run.py
    result objects, pair i being runs["parent"][i] with runs["change"][i].
    `declared` is BENCHMARK.json's `end_to_end` list (name, better, bound).
    A metric shows a gain when the change wins at least 9 in 10 pairs (ties
    count for neither) and the medians differ, in the better direction, by
    more than the parent's interquartile range.  It stays within its bound
    when its relative worsening does not exceed the bound.
    """
    pairs = len(runs["parent"])
    if pairs < 2 or len(runs["change"]) != pairs:
        raise ValueError("need at least two pairs, as many change runs as parent runs")
    metrics = {}
    for spec in declared:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        parent, change = (quartiles(values[side]) for side in SIDES)
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        worsening = sign * (change["median"] - parent["median"]) / parent["median"]
        parent_iqr = parent["q3"] - parent["q1"]
        metrics[name] = {
            "unit": spec["unit"],
            "parent": parent,
            "change": change,
            "relative_worsening": round(worsening, 4),
            "parent_iqr_rel": round(parent_iqr / parent["median"], 4),
            "change_wins": f"{wins}/{pairs}",
            "bound": spec["bound"],
            "within_bound": worsening <= spec["bound"],
            # Runs spread wider than the bound cannot show the bound held,
            # unless every change run beats every parent run.
            "resolved": (parent_iqr / parent["median"] <= spec["bound"]
                         or max(sign * v for v in values["change"])
                         < min(sign * v for v in values["parent"])),
            "gain": (wins >= 0.9 * pairs
                     and -sign * (change["median"] - parent["median"]) > parent_iqr),
        }
    return {
        "metrics": metrics,
        "runs": {side: [{key: run[key] for key in ("correct", "attempted", "failed")}
                        for run in runs[side]] for side in SIDES},
        "all_correct": all(run["correct"] and run["failed"] == 0
                           for side in SIDES for run in runs[side]),
    }


def gain_on_every_seed(summaries: list[dict]) -> dict[str, bool]:
    """Per metric, whether each of `summarize`'s results shows a gain."""
    return {name: all(summary["metrics"][name]["gain"] for summary in summaries)
            for name in summaries[0]["metrics"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="bench workload; repeat for several")
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="workload seed; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    digests = {side: bench_digest(path) for side, path in checkouts.items()}
    if digests["parent"] != digests["change"]:
        print("the two checkouts' benchmark files differ; refusing to compare",
              file=sys.stderr)
        return 2
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["end_to_end_protocol"] = {
        "command": "python3 bench/run.py --workload W --seed S --seconds T",
        "order": "even pairs run the parent first, odd pairs the change first; "
                 "each side in its own checkout",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over each side's runs",
        "relative_worsening": "(change - parent) / parent of the medians, sign flipped "
                              "for higher-is-better metrics; positive is worse",
        "gain": "change wins >= 9/10 of the pairs and the median gap, in the better "
                "direction, exceeds the parent's interquartile range",
        "gain_on_every_seed": "per workload and metric, the gain on every seed of the "
                              "invocation that wrote it",
    }
    report["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "bench_sha256": digests["change"],
        "variables": {name: os.environ.get(name) for name in TIMING_VARIABLES},
    }
    workloads = report.setdefault("workloads", {})
    every_seed = report.setdefault("gain_on_every_seed", {})
    for workload in args.workload:
        summaries = []
        for seed in args.seed:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    result = run_bench(checkouts[side], workload, seed, args.seconds)
                    runs[side].append(result)
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"wall_s {result['metrics']['wall_s']['value']:.4f} "
                          f"correct {result['correct']}", flush=True)
            summary = summarize(runs, declared)
            summary["seed"], summary["seconds"], summary["pairs"] = seed, args.seconds, args.pairs
            summary["revisions"] = {side: runs[side][0].get("git_revision") for side in SIDES}
            workloads[f"{workload} seed {seed}"] = summary
            summaries.append(summary)
            every_seed[workload] = {"seeds": args.seed[:len(summaries)],
                                    "metrics": gain_on_every_seed(summaries)}
            # Written after each seed, so a later failure keeps the runs done.
            args.out.write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n")
            print(f"wrote {workload} seed {seed} to {args.out}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
