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
import os
import stat
import sys
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import ModelError
from .landscape import SEARCH_LOSS_FLOOR, SweepGrid, block_rows, loss_curve, sweep
from .metrology import METRICS, merit_report
from .optics import LoopParameters

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# Every number in CSV output: 12 significant digits.
NUMBER_FORMAT = "%.12g"


# The vectorized NUMBER_FORMAT of `format_values`.  Its fast path covers
# x in [1e-4, 1e12), where "%.12g" prints fixed notation: with
# k = floor(log10 x), the 12-digit mantissa m = rint(x * 10**(11 - k)) is
# printed digit by digit, with a '.' after the units digit when a nonzero
# digit follows it, and a leading "0." and zeros when k < 0.  So the text
# is fixed by k and the place of m's last nonzero digit, and each byte of
# it is one byte of a 16-byte source row: m's 12 digits, then "0.", then
# NUL bytes.
_FAST_MIN, _FAST_MAX = 1e-4, 1e12
# 10**0 ... 10**15, each exact in a double.
_POWERS_OF_TEN = 10.0 ** np.arange(16)
# x * 10**(11 - k) < 2**40 rounds once, by at most 2**-14.  Farther than this
# from a half, rint gives the correctly rounded mantissa; nearer, the value
# takes the per-value route.
_TIE_MARGIN = 0.5 - 2.0 ** -11


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each quad q < 10**4 as one 4-byte word of ASCII digits, "0000" ...
    "9999", and the place (0-3) of its last nonzero digit; a quad of zeros
    has place -12, below every other quad's."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    words = np.stack(digits + ord("0"), axis=1).view(np.uint32).ravel()
    return words, np.where(digits > 0, np.arange(4)[:, None], -12).max(axis=0)


def _layouts() -> np.ndarray:
    """For each k in [-4, 11] and last-digit place in [0, 11], which source
    byte fills each of the 17 text bytes: row (k + 4) * 12 + last.  Source
    bytes 0-11 are m's digits, 12 a '0', 13 the '.' and 14 a NUL."""
    k = np.arange(-4, 12)[:, None, None]
    last = np.arange(12)[None, :, None]
    byte = np.arange(17)
    # Printed places run from min(k, 0) (a leading 0 when k < 0) to
    # max(k, last); place p < 0 is a '0', place p >= 0 digit p of m.
    first = np.minimum(k, 0)
    units = k - first
    fraction = last > k
    place = first + byte - (byte > units)
    length = np.where(fraction, last - first + 2, units + 1)
    source = np.where(place < 0, 12, place)
    source = np.where(fraction & (byte == units + 1), 13, source)
    return np.where(byte < length, source, 14).reshape(192, 17)


_QUAD_WORDS, _QUAD_LAST = _quad_tables()
# A source row's last word: bytes 12-15, "0." and two NULs.
_TAIL_WORD = np.frombuffer(b"0.\0\0", np.uint32)[0]
_LAYOUTS = _layouts()


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
    # The rest take the mantissa 1e11, so that every quad is below 10**4.
    mantissa = np.where(fast, mantissa, 1e11).astype(np.int64)
    first, rest = np.divmod(mantissa, 10**8)
    middle, end = np.divmod(rest, 10**4)
    last = np.maximum(np.maximum(_QUAD_LAST.take(first), _QUAD_LAST.take(middle) + 4),
                      _QUAD_LAST.take(end) + 8)
    # Source rows of 16 bytes: the three quads' digits, then "0." and NULs.
    source = np.empty((len(values), 4), np.uint32)
    source[:, 0] = _QUAD_WORDS.take(first)
    source[:, 1] = _QUAD_WORDS.take(middle)
    source[:, 2] = _QUAD_WORDS.take(end)
    source[:, 3] = _TAIL_WORD
    gather = _LAYOUTS.take((exponent + 4) * 12 + last, axis=0)
    gather += np.arange(0, 16 * len(values), 16)[:, None]
    # `tolist` drops the NUL bytes that pad each text to 17.
    texts = source.view(np.uint8).ravel().take(gather).view("S17").ravel().tolist()
    slow = np.flatnonzero(~fast)
    for index, value in zip(slow.tolist(), values[slow].tolist()):
        texts[index] = (NUMBER_FORMAT % value).encode("ascii")
    return texts


def _write_chunks(chunks: Iterable[str], out_path: str | None) -> None:
    """Write text chunks to stdout, or atomically to `out_path` as they come.

    `out_path` is written through its symlinks, like open() would, and what
    it resolves to must be a regular file or a new path: os.replace would
    put a regular file in place of a symlink, a FIFO or a device node.
    """
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    target = os.path.realpath(out_path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        # A new path takes the mode a plain open() would give it, 0666 less
        # the umask.
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        raise FileExistsError(f"{out_path!r} is not a regular file; --out must be a "
                              f"regular file or a new path")
    directory = os.path.dirname(target)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file private (0600); an existing file keeps its
        # permission bits, as open() would keep them.
        os.fchmod(fd, mode & 0o777)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# `point` and `optimize` write one string; bench/tracing.py wraps this name.
def _write_text(text: str, out_path: str | None) -> None:
    _write_chunks((text,), out_path)


def _parse_losses(text: str) -> list[float]:
    try:
        losses = [float(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ModelError(f"could not parse loss list {text!r}") from None
    if not losses:
        raise ModelError("loss list is empty")
    return losses


def cmd_point(args: argparse.Namespace) -> int:
    params = LoopParameters(phi=args.phi, theta0=args.theta0, loss=args.loss,
                            alpha_mag=args.alpha)
    # The MeritReport fields in order; complex coefficients as [re, im].
    payload = {key: [value.real, value.imag] if isinstance(value, complex) else value
               for key, value in dataclasses.asdict(merit_report(params)).items()}
    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def sweep_csv(grid: SweepGrid) -> Iterator[str]:
    """CSV text `phi,theta0,value` of a sweep, row-major in phi then theta0.

    Yields the header line, then one chunk of lines per phi row, so the text
    of the whole grid is never held at once.  `format_values` formats the
    axis once, and the values over the row blocks `landscape.sweep` evaluates;
    each row is one `%` operation on a per-grid bytes template.  The NUL
    that marks the phi field never occurs in a formatted number.
    """
    yield "phi,theta0,value\n"
    axis = format_values(grid.axis)
    template = b"".join([b"\0," + theta0 + b",%s\n" for theta0 in axis])
    width, rows = len(axis), block_rows(len(axis))
    for start in range(0, width, rows):
        texts = format_values(np.ravel(grid.values[start:start + rows]))
        for offset, phi in enumerate(axis[start:start + rows]):
            row = tuple(texts[offset * width:(offset + 1) * width])
            yield (template.replace(b"\0", phi) % row).decode("ascii")


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = sweep(args.metric, args.loss, args.n)
    _write_chunks(sweep_csv(grid), args.out)
    return EXIT_OK


# CSV columns of `optimize`: the OptimumRecord fields.
OPTIMIZE_HEADER = "loss,metric,lambda_max,phi_star,theta0_star,evaluations"


def _optimize_csv(records) -> str:
    lines = [OPTIMIZE_HEADER]
    lines.extend(",".join(NUMBER_FORMAT % value if isinstance(value, float) else str(value)
                          for value in dataclasses.astuple(record))
                 for record in records)
    return "\n".join(lines) + "\n"


def cmd_optimize(args: argparse.Namespace) -> int:
    records = loss_curve(args.metric, _parse_losses(args.losses))
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
    point.add_argument("--out", default=None, help="output path (default stdout)")
    point.set_defaults(handler=cmd_point)

    sweep_cmd = sub.add_parser("sweep", help="raster one factor over (phi, theta0)")
    sweep_cmd.add_argument("--metric", required=True, choices=sorted(METRICS))
    sweep_cmd.add_argument("--loss", type=float, required=True)
    sweep_cmd.add_argument("--n", type=int, default=200,
                           help="grid points per axis (default 200)")
    sweep_cmd.add_argument("--out", default=None)
    sweep_cmd.set_defaults(handler=cmd_sweep)

    optimize = sub.add_parser("optimize", help="maximize one factor over a loss list")
    optimize.add_argument("--metric", required=True, choices=sorted(METRICS))
    optimize.add_argument("--losses", required=True,
                          help=f"comma-separated losses, each in [{SEARCH_LOSS_FLOOR:g}, 1]")
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
    # An unwritable --out path or stdout is a usage error like a domain error.
    except (ModelError, OSError) as exc:
        # The reason is best-effort: a stderr that is closed, or whose reader
        # has gone, must not turn exit 2 into the uncaught error's exit 1.
        try:
            print(json.dumps({"error": type(exc).__name__, "reason": str(exc)}),
                  file=sys.stderr)
        except OSError:
            pass
        code = EXIT_USAGE
    return code
