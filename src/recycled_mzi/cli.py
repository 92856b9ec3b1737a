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

import numpy as np

from .errors import ModelError
from .landscape import SweepGrid, loss_curve, sweep
from .metrology import METRICS, merit_report
from .optics import LoopParameters

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# Every number in CSV output: 12 significant digits.
NUMBER_FORMAT = "%.12g"


def _format_number(value: float) -> str:
    return NUMBER_FORMAT % value


# The vectorized NUMBER_FORMAT of `format_values`.  Its fast path covers
# x in [1e-4, 1e12), where "%.12g" prints fixed notation: with
# k = floor(log10 x), the 12-digit mantissa m = rint(x * 10**(11 - k)) is
# printed as "0000" + its digits with a '.' inserted after byte k + 5, the
# trailing zeros of the fraction (and a bare '.') dropped, and then the
# pad's first min(k + 4, 4) bytes dropped.  The text of one value is built
# in three uint64 words, first byte lowest, and read back as `S24`.
_U64 = np.uint64
_FAST_MIN, _FAST_MAX = 1e-4, 1e12
# 10**0 ... 10**15, each exact in a double.
_POWERS_OF_TEN = 10.0 ** np.arange(16)
# x * 10**(11 - k) < 2**40 rounds once, by at most 2**-14.  Farther than this
# from a half, rint gives the correctly rounded mantissa; nearer, the value
# takes the per-value route.
_TIE_MARGIN = 0.5 - 2.0 ** -11
_ASCII_ZEROS = _U64(0x3030303030303030)
# Values per `format_values` call in `sweep_csv`.  At 16384 a 400 x 400 grid
# formatted ~1 ms faster (best of 20) and a process peaked ~2 MB higher.
FORMAT_BLOCK_VALUES = 4096


def _byte_masks(count: int) -> list[np.ndarray]:
    """Word w of each 24-byte mask whose first n bytes are set, n < count."""
    return [np.array([(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(count)], _U64)
            for w in range(3)]


_BELOW = _byte_masks(17)
_KEEP = _byte_masks(18)
_DOT = [np.array([ord(".") << 8 * (n - 8 * w) if 0 <= n - 8 * w < 8 else 0
                  for n in range(17)], _U64) for w in range(3)]


def _digit_bytes(lanes: np.ndarray) -> np.ndarray:
    """Each 32-bit lane (< 10**4) as four digit bytes 0-9, first digit lowest."""
    tens = ((lanes * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)  # // 100
    lanes = tens | ((lanes - tens * _U64(100)) << _U64(16))
    tens = ((lanes * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # // 10
    return tens | ((lanes - tens * _U64(10)) << _U64(8))


def format_values(values: np.ndarray) -> list[bytes]:
    """`NUMBER_FORMAT % x` as ASCII bytes, for each float64 x of a 1-D array.

    Values outside the fast path (see above), and the near-halves where one
    rounding of x * 10**(11 - k) could land on the wrong side, are formatted
    one at a time, so every text equals the `%` text exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    fast = (values >= _FAST_MIN) & (values < _FAST_MAX)
    # The rest become 1.0, and the exponent is clipped to the fast path's, so
    # no step below overflows, divides by zero or casts out of range.
    x = np.where(fast, values, 1.0)
    exponent = np.floor(np.log10(x))
    np.clip(exponent, -4, 11, out=exponent)
    exponent = exponent.astype(np.intp)
    scaled = x * _POWERS_OF_TEN[11 - exponent]
    mantissa = np.rint(scaled)
    # A log10 rounded across a power of ten leaves the mantissa outside
    # [1e11, 1e12), except where x rounds to that power, whose text it gives.
    fast &= ((np.abs(scaled - mantissa) < _TIE_MARGIN)
             & (mantissa >= 1e11) & (mantissa < 1e12))
    mantissa = mantissa.astype(_U64)
    first4 = mantissa // _U64(10**8)
    last8 = mantissa - first4 * _U64(10**8)
    middle4 = last8 // _U64(10**4)
    # Word 0 is the "0000" pad and the first 4 digits, word 1 the last 8.
    digits = np.empty((len(values), 2), _U64)
    digits[:, 0] = first4 << _U64(32)
    digits[:, 1] = middle4 | ((last8 - middle4 * _U64(10**4)) << _U64(32))
    digits = _digit_bytes(digits)
    # The last nonzero digit's byte, from the float exponent of each word's
    # highest set bit (a word of zero digits has exponent 0).
    exponents = digits.astype(np.float64).view(np.int64) >> 52
    last = (np.maximum(exponents[:, 1] + 64, exponents[:, 0]) - 1023) >> 3
    digits |= _ASCII_ZEROS
    word0, word1 = digits[:, 0], digits[:, 1]
    dot = exponent + 5
    length = np.where(last >= dot, last + 2, dot)
    below0, below1 = _BELOW[0][dot], _BELOW[1][dot]
    above0, above1 = word0 & ~below0, word1 & ~below1
    # Insert the '.' by moving the bytes at and after it one byte up, then
    # clear the bytes past the text.
    text0 = ((word0 & below0) | (above0 << _U64(8)) | _DOT[0][dot]) & _KEEP[0][length]
    text1 = ((word1 & below1) | (above1 << _U64(8)) | (above0 >> _U64(56))
             | _DOT[1][dot]) & _KEEP[1][length]
    text2 = ((above1 >> _U64(56)) | _DOT[2][dot]) & _KEEP[2][length]
    # Drop the pad: a right shift by `drop` bits across the words.  The carry
    # moves in two shifts, so that none is by 64 bits (drop = 0): C leaves
    # that shift undefined, and this code does not rely on numpy's answer.
    drop = (np.minimum(dot, 5) * 8 - 8).astype(_U64)
    carry = _U64(63) - drop
    words = np.empty((len(values), 3), _U64)
    words[:, 0] = (text0 >> drop) | ((text1 << carry) << _U64(1))
    words[:, 1] = (text1 >> drop) | ((text2 << carry) << _U64(1))
    words[:, 2] = text2 >> drop
    # `tolist` drops the NUL bytes that pad each text to 24.
    texts = words.view("S24").ravel().tolist()
    slow = np.flatnonzero(~fast)
    for index, value in zip(slow.tolist(), values[slow].tolist()):
        texts[index] = (NUMBER_FORMAT % value).encode("ascii")
    return texts


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
    of the whole grid is never held at once.  The values are formatted by
    `format_values`, a block of about FORMAT_BLOCK_VALUES at a time, and
    each row is one `%` operation on a per-grid bytes template.  The NUL
    that marks the phi field never occurs in a formatted number.
    """
    yield "phi,theta0,value\n"
    theta0_points = grid.theta0_points.tolist()
    template = "".join([f"\0,{_format_number(theta0)},%s\n"
                        for theta0 in theta0_points]).encode("ascii")
    width = max(len(theta0_points), 1)
    block_rows = max(FORMAT_BLOCK_VALUES // width, 1)
    phi_points = grid.phi_points.tolist()
    for start in range(0, len(phi_points), block_rows):
        texts = format_values(np.ravel(grid.values[start:start + block_rows]))
        for offset, phi in enumerate(phi_points[start:start + block_rows]):
            row = tuple(texts[offset * width:(offset + 1) * width])
            yield (template.replace(b"\0", _format_number(phi).encode("ascii")) % row
                   ).decode("ascii")


def cmd_sweep(args: argparse.Namespace) -> int:
    n_phi = args.n_phi if args.n_phi is not None else args.n
    n_theta0 = args.n_theta0 if args.n_theta0 is not None else args.n
    grid = sweep(args.metric, args.loss, n_phi, n_theta0)
    _write_chunks(sweep_csv(grid), args.out)
    return EXIT_OK


# CSV columns of `optimize`: the OptimumRecord fields.
OPTIMIZE_HEADER = "loss,metric,lambda_max,phi_star,theta0_star,evaluations"


def _optimize_csv(records) -> str:
    lines = [OPTIMIZE_HEADER]
    lines.extend(",".join(_format_number(value) if isinstance(value, float) else str(value)
                          for value in dataclasses.astuple(record))
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
    # Imported here, so that the other commands never load the suites.
    from . import verification

    options = {name: getattr(args, name) for name in ("points", "seed", "losses", "grid_n")
               if name in args}
    if "losses" in options:
        options["losses"] = _parse_losses(options["losses"])
    results = verification.run_all(**options)
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of the help text raises.

    argparse drops an OSError from its own writes, so without this an
    unbuffered `--help` into a closed pipe would exit 0 with nothing said.
    """

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    # No defaults here: a flag left out is left out of the call to `run_all`,
    # whose signature holds them.
    verify = sub.add_parser("verify", help="run the cross-route verification suites",
                            argument_default=argparse.SUPPRESS)
    verify.add_argument("--points", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--losses")
    verify.add_argument("--grid", type=int, dest="grid_n", metavar="GRID")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        # argparse has printed the help (exit 0) or a usage error (exit 2).
        except SystemExit as exc:
            code = exc.code
        else:
            code = args.handler(args)
        # What is still buffered belongs to this command: a reader that has
        # gone fails it here, like any other write.
        sys.stdout.flush()
        return code
    # An unwritable --out path or stdout is a usage error like a domain error.
    except (ModelError, OSError) as exc:
        # A broken pipe is stdout's: --out is written through a temp file.
        # The bytes the failed write left in stdout's buffer would fail again
        # at the interpreter's last flush, which exits 120: send them to
        # os.devnull instead.
        if isinstance(exc, BrokenPipeError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(json.dumps({"error": type(exc).__name__, "reason": str(exc)}),
              file=sys.stderr)
        return EXIT_USAGE
