"""End-to-end and per-layer benchmark of the recycled-mzi command line.

    python3 bench/run.py --workload {raster,optimum_curve,verify_suite}
                         --seed N --seconds S --trace {0,1}
    python3 bench/run.py --update-golden

Run from anywhere inside a source checkout; the package is taken from the
checkout's `src/`.  With `--trace 0` the benchmark runs the real CLI
(`python -m recycled_mzi ...`) as child processes, one at a time (a closed
loop with one client), and reports the end-to-end metrics of one workload.
With `--trace 1` it calls `cli.main` in process, once untraced and once with
every layer wrapped (see tracing.py), over one rep of the named workload and
of every workload BENCHMARK.json lists, and reports the per-layer metrics.  Every output is checked (workloads.py) and
outputs of the default-seed rep are compared with the sha256 digests in
golden.json.  The last line of stdout is the JSON result; the lines before
it give provenance and the metrics by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

SETUP_PROBES_PER_REP = 3
MIN_REPS = 3
CHILD_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one invocation did: exit code, stderr, output bytes (None when
    the output file is missing), wall time and peak RSS of a child process."""

    exit_code: int
    stderr: bytes
    output: bytes | None
    wall_s: float = 0.0
    maxrss_kb: int = 0


class Ledger:
    """Attempted and failed invocations, with the reason for each failure."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.argv: list[list[str]] = []
        self.closed_form_errors: list[float] = []

    def judge(self, invocation, outcome: Outcome, require_golden: bool = False,
              reference: bytes | None = None) -> bool:
        """Check one outcome; a bad one is counted and recorded, never raised.

        `reference` is output the invocation must reproduce byte for byte."""
        self.attempted += 1
        self.argv.append(list(invocation.args))
        problems = []
        if outcome.exit_code != 0:
            problems.append(f"exit code {outcome.exit_code}")
        if b"Traceback" in outcome.stderr:
            problems.append("traceback on stderr")
        if outcome.output is None:
            problems.append("no output")
        else:
            try:
                error = invocation.check(outcome.output)
                if error is not None:
                    self.closed_form_errors.append(error)
            except Exception as exc:  # any malformed output is a failed check
                problems.append(f"check failed: {exc!r}")
            expected = self.golden.get(invocation.key)
            if expected is None and require_golden:
                problems.append("no golden digest")
            elif expected is not None and hashlib.sha256(outcome.output).hexdigest() != expected:
                problems.append("digest differs from golden")
            if reference is not None and outcome.output != reference:
                problems.append("output differs from the untraced run")
        if problems:
            self.failed += 1
            self.failures.extend(f"{invocation.key}: {problem}" for problem in problems)
        return not problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[int, float, int]:
    """Run one child to completion; (exit code, wall seconds, ru_maxrss KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def take_output(invocation, stdout: bytes) -> bytes | None:
    """The invocation's output: its --out file, removed once read, or stdout."""
    if invocation.out is None:
        return stdout
    path = ROOT / invocation.out
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def run_child(invocation, work: Path) -> Outcome:
    argv = [sys.executable, "-m", "recycled_mzi", *invocation.args]
    stdout_path, stderr_path = work / "stdout", work / "stderr"
    code, wall, maxrss = spawn(argv, stdout_path, stderr_path)
    output = take_output(invocation, stdout_path.read_bytes())
    return Outcome(code, stderr_path.read_bytes(), output, wall, maxrss)


def run_in_process(invocation) -> Outcome:
    from recycled_mzi import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(invocation.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    output = take_output(invocation, stdout.getvalue().encode("utf-8"))
    return Outcome(code, stderr.getvalue().encode("utf-8"), output)


def probe_setup(work: Path) -> tuple[float, int]:
    """Wall seconds and ru_maxrss of a fresh interpreter importing the package."""
    code, wall, maxrss = spawn([sys.executable, "-c", "import recycled_mzi"],
                               work / "stdout", work / "stderr")
    if code != 0:
        raise RuntimeError("import recycled_mzi failed: "
                           + (work / "stderr").read_text(errors="replace"))
    return wall, maxrss


def end_to_end(workload: str, seed: int, seconds: int, ledger: Ledger,
               work: Path) -> tuple[dict, dict]:
    """The end-to-end metrics of one workload, and the samples behind them."""
    from workloads import DEFAULT_SEED, draw

    peak_kb = probe_setup(work)[1]  # warm-up, untimed
    # The default-seed rep is checked against the golden digests and warms
    # the file cache; it is not timed.
    for invocation in draw(workload, DEFAULT_SEED, 0).invocations:
        outcome = run_child(invocation, work)
        peak_kb = max(peak_kb, outcome.maxrss_kb)
        ledger.judge(invocation, outcome, require_golden=True)

    # Set-up probes are spread over the run, between reps, so that their
    # median sees the same machine as the reps do.
    setup_walls, walls, rates = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        for _ in range(SETUP_PROBES_PER_REP):
            wall, maxrss = probe_setup(work)
            setup_walls.append(wall)
            peak_kb = max(peak_kb, maxrss)
        rep = draw(workload, seed, len(walls))
        outcomes = [run_child(invocation, work) for invocation in rep.invocations]
        wall = sum(outcome.wall_s for outcome in outcomes)
        walls.append(wall)
        rates.append(rep.items / wall)
        for invocation, outcome in zip(rep.invocations, outcomes):
            peak_kb = max(peak_kb, outcome.maxrss_kb)
            ledger.judge(invocation, outcome)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, {"rep_wall_s": walls, "setup_wall_s": setup_walls}


def traced(workload: str, seed: int, ledger: Ledger) -> dict:
    """One rep of the named workload and of every benchmarked one, untraced
    then traced, so every benchmarked layer is measured in every traced run.
    The loop and verification layers are reported only when verify_suite is
    named, the one workload that reaches them."""
    from tracing import Tracer, instrument, layer_metrics
    from workloads import BENCHMARKED, draw

    order = [workload] + [name for name in BENCHMARKED if name != workload]
    invocations = [inv for name in order for inv in draw(name, seed, 0).invocations]

    def one_pass(tracer=None) -> tuple[float, list[Outcome]]:
        outcomes = []
        start = time.perf_counter()
        for invocation in invocations:
            if tracer is None:
                outcomes.append(run_in_process(invocation))
            else:
                with tracer.span("cli.main"):
                    outcomes.append(run_in_process(invocation))
        return time.perf_counter() - start, outcomes

    untraced_s, plain = one_pass()
    tracer = Tracer()
    with instrument(tracer):
        traced_s, outcomes = one_pass(tracer)
    for invocation, outcome, reference in zip(invocations, outcomes, plain):
        ledger.judge(invocation, reference)
        ledger.judge(invocation, outcome, reference=reference.output)
    return layer_metrics(tracer, traced_s - untraced_s, verify=workload == "verify_suite")


def git_revision() -> str:
    """HEAD of the checkout's git metadata, read from files only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int, argv) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": argv,
    }


def update_golden(work: Path) -> int:
    """Write golden.json from the default-seed rep of every workload; refuses
    when any output fails its check."""
    from workloads import DEFAULT_SEED, WORKLOADS, draw

    ledger = Ledger({})
    digests = {}
    for workload in WORKLOADS:
        for invocation in draw(workload, DEFAULT_SEED, 0).invocations:
            outcome = run_child(invocation, work)
            if ledger.judge(invocation, outcome):
                digests[invocation.key] = hashlib.sha256(outcome.output).hexdigest()
    if ledger.failures:
        print("\n".join(ledger.failures), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from the default-seed reps")
    args = parser.parse_args(argv)
    if not args.update_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recycled_mzi" / "__init__.py").is_file():
        print(f"no package source at {SRC}: run inside a recycled-mzi checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # --out paths in the generated argv are relative to the root
    from workloads import WORK_DIR

    work = ROOT / WORK_DIR
    work.mkdir(exist_ok=True)
    try:
        if args.update_golden:
            return update_golden(work)
        ledger = Ledger(json.loads(GOLDEN.read_text()))
        samples = {}
        if args.trace:
            metrics = traced(args.workload, args.seed, ledger)
        else:
            metrics, samples = end_to_end(args.workload, args.seed, args.seconds, ledger, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.seconds,
                                               args.trace, ledger.argv)))
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    if samples:
        print("samples " + json.dumps(samples))
    summary = dict(metrics)
    summary["error_rate"] = (ledger.failed / ledger.attempted, "1")
    if ledger.closed_form_errors:
        summary["optimum_rel_err"] = (max(ledger.closed_form_errors), "1")
    for name, (value, unit) in summary.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
