"""Command-line front end.

Subcommands:
    point     figures of merit at one operating point, as JSON
    sweep     raster one enhancement factor over (phi, theta0), as CSV
    optimize  located maxima over a list of losses, as CSV or JSON
    verify    cross-route verification suites; nonzero exit on violation

Output is byte-deterministic for identical flags: fixed float formatting,
fixed row order, newline line endings, and atomic writes (temp file plus
rename) so partial files never appear at --out paths.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator

from .errors import ModelError
from .landscape import SweepGrid, loss_curve, sweep
from .metrology import METRICS, merit_report
from .optics import LoopParameters
from . import verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# Every number in CSV output: 12 significant digits.
NUMBER_FORMAT = "%.12g"


def _format_number(value: float) -> str:
    return NUMBER_FORMAT % value


def _write_chunks(chunks: Iterable[str], out_path: str | None) -> None:
    """Write text chunks to stdout, or atomically to `out_path` as they come."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file private (0600); give it the mode a plain
        # open() would, 0666 less the umask.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, out_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# `point` and `optimize` write one string; bench/tracing.py wraps this name.
def _write_text(text: str, out_path: str | None) -> None:
    _write_chunks((text,), out_path)


def _radians(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _parse_losses(text: str) -> list[float]:
    try:
        losses = [float(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ModelError(f"could not parse loss list {text!r}") from None
    if not losses:
        raise ModelError("loss list is empty")
    return losses


def cmd_point(args: argparse.Namespace) -> int:
    params = LoopParameters(phi=_radians(args.phi, args.degrees),
                            theta0=_radians(args.theta0, args.degrees),
                            loss=args.loss, alpha_mag=args.alpha)
    # The MeritReport fields in order; complex coefficients as [re, im].
    payload = {key: [value.real, value.imag] if isinstance(value, complex) else value
               for key, value in dataclasses.asdict(merit_report(params)).items()}
    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def sweep_csv(grid: SweepGrid) -> Iterator[str]:
    """CSV text `phi,theta0,value` of a sweep, row-major in phi then theta0.

    Yields the header line, then one chunk of lines per phi row, so the text
    of the whole grid is never held at once.  Each row is one `%` operation
    on a per-grid template.  The NUL that marks the phi field never occurs
    in a formatted number.
    """
    yield "phi,theta0,value\n"
    template = "".join([f"\0,{_format_number(theta0)},{NUMBER_FORMAT}\n"
                        for theta0 in grid.theta0_points.tolist()])
    for phi, row in zip(grid.phi_points.tolist(), grid.values):
        yield template.replace("\0", _format_number(phi)) % tuple(row.tolist())


def cmd_sweep(args: argparse.Namespace) -> int:
    n_phi = args.n_phi if args.n_phi is not None else args.n
    n_theta0 = args.n_theta0 if args.n_theta0 is not None else args.n
    grid = sweep(args.metric, args.loss, n_phi, n_theta0)
    _write_chunks(sweep_csv(grid), args.out)
    return EXIT_OK


# CSV columns of `optimize`: the OptimumRecord fields, then an error column
# that is always empty, because a bad argument exits 2 with no output.
OPTIMIZE_HEADER = "loss,metric,lambda_max,phi_star,theta0_star,evaluations,error"


def _optimize_csv(records) -> str:
    lines = [OPTIMIZE_HEADER]
    lines.extend(",".join(_format_number(value) if isinstance(value, float) else str(value)
                          for value in dataclasses.astuple(record)) + ","
                 for record in records)
    return "\n".join(lines) + "\n"


def cmd_optimize(args: argparse.Namespace) -> int:
    records = loss_curve(args.metric, _parse_losses(args.losses),
                         grid_seed=args.grid_seed, tol=args.tol)
    if args.format == "json":
        text = json.dumps([dataclasses.asdict(record) for record in records], indent=2) + "\n"
    else:
        text = _optimize_csv(records)
    _write_text(text, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_all(points=args.points, seed=args.seed,
                                   losses=_parse_losses(args.losses), grid_n=args.grid)
    width = max(len(result.name) for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:<{width}}  max deviation {result.deviation:.3e}  "
              f"tolerance {result.tolerance:.1e}  {status}")
    if all(result.passed for result in results):
        print("all checks passed")
        return EXIT_OK
    print("verification FAILED")
    return EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recycled-mzi",
        description="Phase sensitivity and photon budget of a photon-recycled "
                    "Mach-Zehnder interferometer with coherent input.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="figures of merit at one operating point")
    point.add_argument("--phi", type=float, required=True, help="phase shift (radians)")
    point.add_argument("--theta0", type=float, required=True,
                       help="recycling-arm phase (radians)")
    point.add_argument("--loss", type=float, required=True,
                       help="recycling-arm power loss fraction in [0, 1]")
    point.add_argument("--alpha", type=float, default=1.0,
                       help="coherent amplitude magnitude (default 1)")
    point.add_argument("--degrees", action="store_true",
                       help="interpret all angle flags as degrees")
    point.add_argument("--out", default=None, help="output path (default stdout)")
    point.set_defaults(handler=cmd_point)

    sweep_cmd = sub.add_parser("sweep", help="raster one factor over (phi, theta0)")
    sweep_cmd.add_argument("--metric", required=True, choices=sorted(METRICS))
    sweep_cmd.add_argument("--loss", type=float, required=True)
    sweep_cmd.add_argument("--n", type=int, default=200,
                           help="grid points per axis (default 200)")
    sweep_cmd.add_argument("--n-phi", type=int, default=None, help="override phi axis size")
    sweep_cmd.add_argument("--n-theta0", type=int, default=None,
                           help="override theta0 axis size")
    sweep_cmd.add_argument("--out", default=None)
    sweep_cmd.set_defaults(handler=cmd_sweep)

    optimize = sub.add_parser("optimize", help="maximize one factor over a loss list")
    optimize.add_argument("--metric", required=True, choices=sorted(METRICS))
    optimize.add_argument("--losses", required=True,
                          help="comma-separated losses, each in (0, 1]")
    optimize.add_argument("--grid-seed", type=int, default=200,
                          help="coarse grid size per axis (default 200)")
    optimize.add_argument("--tol", type=float, default=1e-8,
                          help="refinement step tolerance (default 1e-8)")
    optimize.add_argument("--format", choices=("csv", "json"), default="csv")
    optimize.add_argument("--out", default=None)
    optimize.set_defaults(handler=cmd_optimize)

    verify = sub.add_parser("verify", help="run the cross-route verification suites")
    verify.add_argument("--points", type=int, default=verification.DEFAULT_POINTS)
    verify.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    verify.add_argument("--losses", default=",".join(str(l) for l in verification.DEFAULT_LOSSES))
    verify.add_argument("--grid", type=int, default=verification.DEFAULT_GRID)
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    # An unwritable --out path is a usage error like a domain error.
    except (ModelError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "reason": str(exc)}),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
