import contextlib
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from recycled_mzi import cli, landscape, verification
from recycled_mzi.cli import main
from recycled_mzi.errors import ModelError
from recycled_mzi.landscape import MAX_GRID_POINTS, SweepGrid, sweep
from recycled_mzi.metrology import METRICS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def assert_same_lines(actual, expected):
    """Fail at the first line (or list item) where `actual` and `expected`
    differ, naming it.  pytest's own report of a failed `==` on two long
    texts diffs them whole, which took minutes on a misordered sweep."""
    if isinstance(actual, (str, bytes)):
        actual, expected = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    if actual != expected:
        index = next((i for i, pair in enumerate(zip(actual, expected)) if pair[0] != pair[1]),
                     min(len(actual), len(expected)))
        got, want = (lines[index] if index < len(lines) else "<end>"
                     for lines in (actual, expected))
        pytest.fail(f"line {index} of {len(actual)} (expected {len(expected)}): "
                    f"{got!r} != {want!r}", pytrace=False)


def per_cell_sweep_csv(grid):
    """CSV text of a sweep, one f-string `.12g` field per value of each cell.

    The reference for the streamed `cli.sweep_csv`: it formats the axis
    again for every cell and joins the whole text at once.  It spells the
    number format on its own, so it pins the bytes whatever the CLI uses.
    """
    lines = ["phi,theta0,value"]
    for i, phi in enumerate(grid.axis):
        row = grid.values[i]
        for j, theta0 in enumerate(grid.axis):
            lines.append(f"{phi:.12g},{theta0:.12g},{row[j]:.12g}")
    return "\n".join(lines) + "\n"


class TestPoint:
    def test_reference_optimum(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--phi", "2.5702", "--theta0", "0.3524",
                               "--loss", "0.10", "--alpha", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda1"] == pytest.approx(9.32, abs=5e-3)
        assert payload["lambda2"] > payload["lambda1"]
        assert payload["n_total_inside"] == pytest.approx(payload["lambda3"], rel=1e-12)
        assert len(payload["upsilon"]) == 2
        assert len(payload["xi"]) == 2

    def test_blocked_loop_unity_factors(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--loss", "1", "--phi", "1.5707963267948966",
                               "--theta0", "0", "--alpha", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda1"] == pytest.approx(1.0, abs=1e-12)
        assert payload["lambda2"] == pytest.approx(1.0, abs=1e-12)
        assert payload["lambda3"] == pytest.approx(1.0, abs=1e-12)

    def test_lossless_resonance_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "point", "--loss", "0", "--phi", "3.14159265",
                                 "--theta0", "0")
        assert code == 2
        assert out == ""
        reason = json.loads(err)
        assert reason["error"] == "ResonantPoleError"

    def test_degrees_flag_is_gone(self, capsys, monkeypatch):
        # Angles are radians only: the flag is a usage error before any work.
        monkeypatch.setattr(cli, "merit_report", lambda *_: pytest.fail("point evaluated"))
        code, out, err = run_cli(capsys, "point", "--phi", "90", "--theta0", "0",
                                 "--loss", "0.3", "--degrees")
        assert (code, out) == (2, "")
        assert err.startswith("usage: recycled-mzi")
        assert "unrecognized arguments: --degrees\n" in err
        code, out, _ = run_cli(capsys, "point", "--help")
        assert code == 0
        assert "--phi PHI" in out
        assert "--degrees" not in out

    def test_domain_error_before_output(self, capsys):
        code, out, err = run_cli(capsys, "point", "--phi", "1", "--theta0", "0",
                                 "--loss", "1.5")
        assert code == 2
        assert out == ""
        assert "ParameterError" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "point.json"
        code, out, _ = run_cli(capsys, "point", "--phi", "1", "--theta0", "2",
                               "--loss", "0.2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["lambda3"] > 1.0


class TestSweep:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--metric", "lambda1", "--loss", "0.10",
                               "--n", "400")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["phi", "theta0", "value"]
        assert len(rows) == 160000

    def test_row_major_ordering(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--metric", "lambda3", "--loss", "0.2",
                            "--n", "4")
        _, rows = read_csv(out)
        phis = [float(row[0]) for row in rows]
        thetas = [float(row[1]) for row in rows]
        step = math.pi / 2
        # 12-significant-digit formatting bounds the round-trip error.
        assert phis == pytest.approx([0, 0, 0, 0, step, step, step, step,
                                      2 * step, 2 * step, 2 * step, 2 * step,
                                      3 * step, 3 * step, 3 * step, 3 * step], abs=1e-9)
        assert thetas[:4] == pytest.approx([0, step, 2 * step, 3 * step], abs=1e-9)

    def test_photon_factor_floor(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--metric", "lambda3", "--loss", "0.20",
                            "--n", "100")
        _, rows = read_csv(out)
        assert min(float(row[2]) for row in rows) >= 1.0

    def test_bound_factor_exceeds_unity_somewhere(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--metric", "lambda2", "--loss", "0.05",
                            "--n", "100")
        _, rows = read_csv(out)
        assert max(float(row[2]) for row in rows) > 1.0

    def test_axis_size_options_are_gone(self, capsys, monkeypatch):
        # `--n` alone sizes both axes, as the library's `sweep` takes one size.
        monkeypatch.setattr(cli, "sweep", lambda *_: pytest.fail("sweep started"))
        for flag in (("--n-phi", "7"), ("--n-theta0", "5")):
            code, out, err = run_cli(capsys, "sweep", "--metric", "lambda1", "--loss", "0.1",
                                     *flag)
            assert (code, out) == (2, "")
            assert err.startswith("usage: recycled-mzi")
            assert f"unrecognized arguments: {' '.join(flag)}" in err
        code, out, _ = run_cli(capsys, "sweep", "--help")
        assert code == 0
        assert "--n N" in out
        assert "--n-phi" not in out and "--n-theta0" not in out

    def test_invalid_grid_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--metric", "lambda1", "--loss", "0.1",
                               "--n", "1")
        assert code == 2
        assert out == ""

    def test_no_partial_file_on_error(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--metric", "lambda1", "--loss", "0.0",
                             "--n", "10", "--out", str(target))
        assert code == 2
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


    def test_tiny_loss_off_the_pole(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--metric", "lambda3", "--loss", "1e-12",
                               "--n", "5")
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 25
        assert all(math.isfinite(float(row[2])) for row in rows)

    def test_error_while_writing_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        def failing_csv(grid):
            yield "phi,theta0,value\n"
            raise ModelError("failed after the header")

        monkeypatch.setattr(cli, "sweep_csv", failing_csv)
        target = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--metric", "lambda1", "--loss", "0.1",
                                 "--n", "10", "--out", str(target))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ModelError"
        assert list(tmp_path.iterdir()) == []


class TestStreamedSweep:
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("loss", [1e-4, 0.1, 1.0])
    @pytest.mark.parametrize("n,block", [(2, 2), (3, 7), (7, 3), (50, 50)])
    def test_chunks_join_to_per_cell_text(self, monkeypatch, metric, loss, n, block):
        # Row blocks of `block` values, ceil(block / n) rows each: all 3 rows
        # in one block at (3, 7), one row a block in the other cases.
        monkeypatch.setattr(landscape, "SWEEP_BLOCK_VALUES", block)
        grid = sweep(metric, loss, n)
        chunks = list(cli.sweep_csv(grid))
        assert len(chunks) == 1 + n
        assert_same_lines("".join(chunks), per_cell_sweep_csv(grid))

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_out_file_bytes_equal_stdout_bytes(self, tmp_path, metric):
        argv = [sys.executable, "-m", "recycled_mzi", "sweep", "--metric", metric,
                "--loss", "0.15", "--n", "30"]
        target = tmp_path / "sweep.csv"
        to_stdout = subprocess.run(argv, capture_output=True, check=True)
        subprocess.run([*argv, "--out", str(target)], capture_output=True, check=True)
        assert_same_lines(target.read_bytes(), to_stdout.stdout)

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_peak_memory_below_file_size(self, tmp_path, metric):
        # The text of the whole grid is never held: the traced peak stays
        # within half the written file size above it.
        target = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            code = main(["sweep", "--metric", metric, "--loss", "0.1", "--n", "400",
                         "--out", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.5 * target.stat().st_size


# Every float the kernels never produce as well as the ones they do: signed
# zeros, subnormals, integral values, the switch to exponent form at 1e16 and
# 1e-5, infinities and nan, mixed with arbitrary doubles.
edge_floats = (st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.0, -3.0, 1e15, 1e16,
                                123456789012345.0, 1e-5, 9.9999999999995e-6, 1e-4,
                                math.inf, -math.inf, math.nan])
               | st.floats(allow_nan=True, allow_infinity=True))


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_sweep_csv_formats_any_grid_like_per_cell(data, n):
    # Arbitrary values, so a row or column out of order shows.
    grid = SweepGrid(
        axis=data.draw(arrays(np.float64, n, elements=edge_floats)),
        values=data.draw(arrays(np.float64, (n, n), elements=edge_floats)),
    )
    assert_same_lines("".join(cli.sweep_csv(grid)), per_cell_sweep_csv(grid))


def percent_texts(values):
    return [(cli.NUMBER_FORMAT % value).encode("ascii") for value in values.tolist()]


class TestFormatValues:
    """`cli.format_values` against `%`, value by value."""

    def test_million_doubles_across_the_fast_path(self):
        # [1e-8, 1e13] holds the fast path [1e-4, 1e12) and both its edges.
        values = 10.0 ** np.random.default_rng(20).uniform(-8.0, 13.0, 1_000_000)
        assert_same_lines(cli.format_values(values), percent_texts(values))

    def test_halves_at_every_digit(self):
        # (n + 1/2) * 10**-j and the doubles either side: exact decimal
        # halves, and values a hair off a half that the scaling to 12 digits
        # can round onto it.
        rng = np.random.default_rng(21)
        n = rng.integers(0, 10**12, 100_000).astype(np.float64)
        j = rng.integers(0, 20, 100_000)
        halves = (n + 0.5) * 10.0 ** -j.astype(np.float64)
        values = np.concatenate([halves, np.nextafter(halves, 0.0),
                                 np.nextafter(halves, np.inf)])
        assert_same_lines(cli.format_values(values), percent_texts(values))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-8, 15)
        below = np.nextafter(powers, 0.0)
        above = np.nextafter(powers, np.inf)
        values = np.concatenate([powers, below, np.nextafter(below, 0.0),
                                 above, np.nextafter(above, np.inf)])
        assert_same_lines(cli.format_values(values), percent_texts(values))
        # One value per text layout of the fast path, exponent k in [-4, 11]
        # and last nonzero digit at each place of 12, and its neighbours:
        # random doubles almost never print fewer than 7 digits.
        k = np.arange(-4, 12)[:, None]
        digits = 10**11 + 7 * 10 ** (11 - np.arange(12))
        layouts = (digits / 10.0 ** (11 - k)).ravel()
        values = np.concatenate([layouts, np.nextafter(layouts, 0.0),
                                 np.nextafter(layouts, np.inf)])
        assert_same_lines(cli.format_values(values), percent_texts(values))

    def test_every_axis_the_cli_accepts(self):
        # `sweep --n` takes 2 to 2000 points per axis, each axis as `sweep`
        # builds it.  Its 0.0 takes the per-value route.
        for n in range(2, math.isqrt(MAX_GRID_POINTS) + 1):
            axis = np.linspace(0.0, landscape.TWO_PI, n, endpoint=False)
            assert_same_lines(cli.format_values(axis), percent_texts(axis))

    def test_values_off_the_fast_path(self):
        values = np.array([0.0, -0.0, 5e-324, -2.5e-310, -3.0, 1e12, 999999999999.5,
                           9.99999999999995e-5, 123456789012.5, 1e300, np.inf, -np.inf,
                           np.nan])
        assert_same_lines(cli.format_values(values), percent_texts(values))

    def test_few_values_take_the_per_value_route(self, monkeypatch):
        # On a landscape only zeros and round-off specks (~1e-16) should
        # leave the fast path; this fails if it silently stops covering most.
        class CountingFormat(str):
            calls = 0

            def __mod__(self, value):
                CountingFormat.calls += 1
                return str.__mod__(self, value)

        monkeypatch.setattr(cli, "NUMBER_FORMAT", CountingFormat(cli.NUMBER_FORMAT))
        grid = sweep("lambda1", 0.2, 400)
        cli.format_values(grid.values.ravel())
        assert 0 < CountingFormat.calls <= 0.01 * grid.values.size

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("loss", [1e-4, 1e-3, 0.05, 0.5, 1.0])
    def test_landscapes_match_per_cell_text(self, metric, loss):
        # 130 values a row: 64 rows a block, so three blocks, the last of 2 rows.
        grid = sweep(metric, loss, 130)
        chunks = list(cli.sweep_csv(grid))
        assert len(chunks) == 1 + 130
        assert_same_lines("".join(chunks), per_cell_sweep_csv(grid))

    @pytest.mark.parametrize("block", [1, 5, 7, 35])
    def test_block_size_changes_no_byte(self, monkeypatch, block):
        # One constant sets the row blocks of both the kernel and the
        # formatter: 7 values a row, so ceil(block / 7) rows a block.
        calls = {"kernel": 0, "format": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(landscape, "SWEEP_BLOCK_VALUES", block)
        monkeypatch.setitem(landscape.METRICS, "lambda2",
                            counted("kernel", landscape.METRICS["lambda2"]))
        monkeypatch.setattr(cli, "format_values", counted("format", cli.format_values))
        grid = sweep("lambda2", 0.3, 7)
        chunks = list(cli.sweep_csv(grid))
        blocks = -(-7 // -(-block // 7))
        # One more format call: the axis.
        assert calls == {"kernel": blocks, "format": blocks + 1}
        assert len(chunks) == 1 + 7
        assert_same_lines("".join(chunks), per_cell_sweep_csv(grid))


# Grid sizes: refused ones (negative, 0, 1), accepted ones up to 30, and ones
# whose square grid holds more than MAX_GRID_POINTS.
grid_sizes = st.integers(-3, 30) | st.integers(math.isqrt(MAX_GRID_POINTS) + 1, 10**12)
sweep_losses = (st.sampled_from(["nan", "inf", "-inf", "0", "-0.1", "1", "1e-4", "1e-12",
                                 "1.5"])
                | st.floats(-0.5, 1.5).map(repr))


@given(metric=st.sampled_from(sorted(METRICS)), loss=sweep_losses, n=grid_sizes)
@settings(max_examples=150, deadline=None)
def test_sweep_argv_contract(metric, loss, n):
    argv = ["sweep", "--metric", metric, f"--loss={loss}", f"--n={n}"]
    accepted = 0.0 < float(loss) <= 1.0 and 2 <= n <= 30

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)

    assert code in (0, 2)
    assert "Traceback" not in stderr.getvalue()
    if not accepted:
        assert code == 2
        assert stdout.getvalue() == ""
    if code == 0:
        assert stdout.getvalue().count("\n") == 1 + n * n


point_floats = (st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e-300", "1e308",
                                  "-1e308", "3.141592653589793", "1.5"])
                | st.floats(allow_nan=True, allow_infinity=True).map(repr))


@given(phi=point_floats, theta0=point_floats, loss=sweep_losses | point_floats,
       alpha=st.none() | point_floats, degrees=st.booleans())
@settings(max_examples=300, deadline=None)
def test_point_argv_contract(phi, theta0, loss, alpha, degrees):
    """The exit contract of `point` for generated argv.

    Angles are radians only: the deleted `--degrees` is a usage error
    whatever the numbers.  Any other refusal is a domain error with one
    JSON line.  A refusal's traced peak stays below 2**20 bytes, as
    `optimize`'s and `verify`'s do.
    """
    argv = ["point", f"--phi={phi}", f"--theta0={theta0}", f"--loss={loss}"]
    if alpha is not None:
        argv.append(f"--alpha={alpha}")
    if degrees:
        argv.append("--degrees")

    stdout, stderr = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    out, err = stdout.getvalue(), stderr.getvalue()

    assert code in (0, 2)
    assert "Traceback" not in err
    if degrees:
        assert code == 2
        assert err.startswith("usage: recycled-mzi")
        assert "unrecognized arguments: --degrees\n" in err
    if code == 2:
        assert out == ""
        assert peak < 2**20
        if not degrees:
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] in ("ParameterError", "ResonantPoleError")
    else:
        assert 0.0 <= float(loss) <= 1.0
        assert len(json.loads(out)) == 10


# Loss lists for `verify`: edge floats, empty and malformed items, accepted
# losses, and the empty list.
verify_loss_items = (st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1", "1.5", "-0.1",
                                      "1e-300", "5e-324", "2e-5", "0.05", "1e308", "", " ",
                                      "abc", "0.1.2"])
                     | st.floats(-0.5, 1.5).map(repr))
# Sizes an accepted run keeps near 10**4 point-losses (at most 6 losses), and
# sizes past each cap whatever the losses.
POINT_CAP = verification.MAX_POINT_LOSSES
GRID_CAP = math.isqrt(POINT_CAP)
verify_points = st.integers(-3, 1000) | st.integers(POINT_CAP + 1, 10**15)
verify_grids = (st.integers(-40, 40)
                | st.integers(GRID_CAP + 1, 10**8).flatmap(lambda n: st.sampled_from([n, -n])))


@given(points=st.none() | verify_points, seed=st.none() | st.integers(-3, 2**64),
       grid=st.none() | verify_grids,
       losses=st.none() | st.lists(verify_loss_items, max_size=6).map(",".join))
@settings(max_examples=150, deadline=None)
def test_verify_argv_contract(points, seed, grid, losses):
    """The exit contract of `verify` for generated argv.

    Draws past a cap must be refused before anything is allocated.
    `test_optimize_argv_contract` states the same contract for `optimize`.
    """
    argv = ["verify"]
    for flag, value in (("points", points), ("seed", seed), ("grid", grid), ("losses", losses)):
        if value is not None:
            argv.append(f"--{flag}={value}")
    past_cap = ((points is not None and points > POINT_CAP)
                or (grid is not None and abs(grid) > GRID_CAP))

    stdout, stderr = io.StringIO(), io.StringIO()
    if past_cap:
        tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        if past_cap:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    out, err = stdout.getvalue(), stderr.getvalue()

    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if past_cap:
        assert code == 2
        assert peak < 2**20
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] in ("ModelError", "ParameterError", "ResonantPoleError")
    else:
        assert err == ""
        assert out.endswith("verification FAILED\n" if code == 1 else "all checks passed\n")


# Loss lists for `optimize`: about half are accepted losses from [0.01, 1],
# where a search takes tens of milliseconds; the rest mix those with
# refused losses on both sides of [4e-6, 1], edge floats, and empty and
# malformed items.
searched_losses = st.floats(0.01, 1.0).map(repr)
optimize_loss_lists = (
    st.lists(searched_losses, min_size=1, max_size=3)
    | st.lists(st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1", "1.5", "-0.1", "1e-6",
                                "3.9e-6", "5e-324", "1e308", "", " ", "abc", "0.1.2"])
               | searched_losses
               | st.floats(-1.0, landscape.SEARCH_LOSS_FLOOR, exclude_max=True).map(repr)
               | st.floats(1.0, 1e300, exclude_min=True).map(repr), max_size=3)
).map(",".join)
# The flags `optimize` no longer has: none in about half the draws, else
# one with a value.
removed_flags = st.just(()) | st.sampled_from([("--grid-seed", "2"), ("--grid-seed=200",),
                                               ("--tol", "1e-3"), ("--tol=1e-8",)])


def accepted_losses(text):
    """The losses `optimize --losses=text` searches, or None where it refuses them."""
    try:
        losses = [float(item) for item in text.split(",") if item.strip()]
    except ValueError:
        return None
    floor = landscape.SEARCH_LOSS_FLOOR
    return losses if losses and all(floor <= loss <= 1.0 for loss in losses) else None


@given(metric=st.sampled_from(sorted(METRICS)),
       losses=optimize_loss_lists,
       form=st.sampled_from([None, "csv", "json"]), removed=removed_flags)
@example(metric="lambda1", losses="0.1,,1", form="json", removed=())
@settings(max_examples=100, deadline=None)
def test_optimize_argv_contract(metric, losses, form, removed):
    """The exit contract of `optimize` for generated argv.

    Exactly the lists of losses in [4e-6, 1] run, and only without a
    removed flag; a removed flag is a usage error, anything else refused a
    domain error with one JSON line.  A refusal allocates no seed grid:
    its traced peak stays below 2**20 bytes, as `verify`'s does past a cap.
    """
    argv = ["optimize", "--metric", metric, f"--losses={losses}", *removed]
    if form is not None:
        argv.append(f"--format={form}")
    expected = None if removed else accepted_losses(losses)

    stdout, stderr = io.StringIO(), io.StringIO()
    if expected is None:
        tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        if expected is None:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    out, err = stdout.getvalue(), stderr.getvalue()

    assert code in (0, 2)
    assert "Traceback" not in err
    if expected is None:
        assert code == 2
        assert out == ""
        assert peak < 2**20
        if removed:
            assert err.startswith("usage: recycled-mzi")
            assert f"unrecognized arguments: {' '.join(removed)}\n" in err
        else:
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] in ("ModelError", "ParameterError")
    else:
        assert (code, err) == (0, "")
        if form == "json":
            printed = [record["loss"] for record in json.loads(out)]
        else:
            printed = [float(row[0]) for row in read_csv(out)[1]]
        assert printed == pytest.approx(expected, rel=1e-11)


class TestOptimize:
    @pytest.mark.parametrize("flag", [("--grid-seed", "2"), ("--tol", "1e-3")])
    def test_search_options_are_gone(self, capsys, monkeypatch, flag):
        # No search may start: at `--grid-seed 2` one never returned.
        monkeypatch.setattr(cli, "loss_curve", lambda *_: pytest.fail("search started"))
        code, out, err = run_cli(capsys, "optimize", "--metric", "lambda3", "--losses", "0.1",
                                 *flag)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_help_lists_no_search_options(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--help")
        assert code == 0
        assert "--losses" in out
        assert "--grid-seed" not in out and "--tol" not in out

    def test_reference_optimum_csv(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--metric", "lambda1",
                               "--losses", "0.10")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["loss", "metric", "lambda_max", "phi_star", "theta0_star",
                          "evaluations"]
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(9.32, abs=0.05)
        assert float(rows[0][3]) == pytest.approx(2.5702, abs=1e-3)
        assert float(rows[0][4]) == pytest.approx(0.3524, abs=1e-3)
        assert len(rows[0]) == len(header)

    def test_decreasing_maxima(self, capsys):
        _, out, _ = run_cli(capsys, "optimize", "--metric", "lambda1",
                            "--losses", "0.05,0.10,0.15,0.20")
        _, rows = read_csv(out)
        values = [float(row[2]) for row in rows]
        assert values == sorted(values, reverse=True)

    def test_blocked_loop_bound(self, capsys):
        _, out, _ = run_cli(capsys, "optimize", "--metric", "lambda2", "--losses", "1.0")
        _, rows = read_csv(out)
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, "optimize", "--metric", "lambda2", "--losses",
                            "0.2,0.5", "--format", "json")
        payload = json.loads(out)
        assert [record["loss"] for record in payload] == [0.2, 0.5]
        for record in payload:
            assert set(record) == {"loss", "metric_tag", "lambda_max", "phi_star",
                                   "theta0_star", "evaluations"}

    def test_invalid_loss_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--metric", "lambda1", "--losses", "0.0")
        assert code == 2
        assert out == ""

    def test_empty_loss_list_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "optimize", "--metric", "lambda1", "--losses", ",")
        assert code == 2

    @pytest.mark.parametrize("losses", ["1e-6", "0.1,1e-6"])
    def test_loss_below_the_search_floor_exits_2_before_any_grid(self, capsys, losses):
        argv = ("optimize", "--metric", "lambda1", "--losses", losses)
        # Once untraced, so that argparse's first-call caches do not count.
        run_cli(capsys, *argv)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ParameterError",
                                   "reason": "loss must lie in [4e-06, 1], got 1e-06"}
        # The 200 x 200 seed grid of 0.1 alone would take 320 kB.
        assert peak < 200 * 200 * 8


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--points", "200")
        assert code == 0
        assert "all checks passed" in out
        oracle_line = next(line for line in out.splitlines() if "oracle" in line)
        assert "PASS" in oracle_line

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        failing = verification.CheckResult("forced failure", 1.0, 1e-10)
        monkeypatch.setattr(verification, "run_all", lambda **_: [failing])
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL" in out
        assert out.endswith("verification FAILED\n")

    # Seeds whose points near phi = 0 exposed a cascade one pass short.
    @pytest.mark.parametrize("seed", [9, 12, 15, 33])
    def test_oracle_passes_near_phi_zero(self, capsys, seed):
        code, out, _ = run_cli(capsys, "verify", "--points", "3000", "--seed", str(seed))
        assert code == 0
        assert "all checks passed" in out

    def test_dead_loop_oracle_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--losses", "1.0", "--points", "200")
        assert code == 0
        oracle_line = next(line for line in out.splitlines() if "oracle" in line)
        assert "0.000e+00" in oracle_line

    # From the lossless loop, where every point of the default sample makes
    # the 2**34 (~1.7e10) cascade passes a point near phi = pi needs, up to
    # the blocked one.  The floor 5e-5 sits above the loss, about 3e-5,
    # below which the lambda2 kernel itself loses digits at (pi, 0), so the
    # qcrb check would fail for the kernel's sake, not the oracle's.
    @pytest.mark.parametrize("sizes", [(), ("--grid", "200", "--points", "100")])
    def test_passes_across_losses(self, capsys, sizes):
        losses = ",".join(["0"] + [repr(float(loss)) for loss in np.geomspace(5e-5, 1, 25)])
        code, out, _ = run_cli(capsys, "verify", "--losses", losses, *sizes)
        assert code == 0
        assert out.endswith("all checks passed\n")

    @pytest.mark.parametrize("argv,options", [
        ((), {}),
        (("--grid", "12"), {"grid_n": 12}),
        (("--points", "300", "--seed", "7", "--grid", "12", "--losses", "0.05,,0.5"),
         {"points": 300, "seed": 7, "grid_n": 12, "losses": [0.05, 0.5]}),
    ])
    def test_only_given_flags_reach_run_all(self, capsys, monkeypatch, argv, options):
        calls = []

        def run_all(**given):
            calls.append(given)
            return [verification.CheckResult("stub", 0.0, 1.0)]

        monkeypatch.setattr(verification, "run_all", run_all)
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert (code, calls) == (0, [options])
        assert out.endswith("all checks passed\n")

    def test_step_option_is_gone(self):
        result = subprocess.run([sys.executable, "-m", "recycled_mzi", "verify", "--step", "1e-4"],
                                capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments: --step" in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv,error", [
    (("verify", "--points", "0"), "ParameterError"),
    (("verify", "--grid", "1"), "ParameterError"),
    (("verify", "--losses", "0.1,1.5"), "ParameterError"),
    (("sweep", "--metric", "lambda1", "--loss", "0.1", "--n", "4", "--out", "{missing}/x.csv"),
     "FileNotFoundError"),
    (("point", "--phi", "1", "--theta0", "0", "--loss", "0.1", "--alpha", "1e200"),
     "ParameterError"),
    # Losses off the search's [4e-6, 1], anywhere in the list.
    (("optimize", "--metric", "lambda1", "--losses", "nan"), "ParameterError"),
    (("optimize", "--metric", "lambda2", "--losses", "0.1,inf", "--format", "json"),
     "ParameterError"),
    (("optimize", "--metric", "lambda3", "--losses=-0.1"), "ParameterError"),
    (("optimize", "--metric", "lambda1", "--losses", "0.2,1.5"), "ParameterError"),
    (("sweep", "--metric", "lambda1", "--loss", "0.1", "--n", "2001"), "ParameterError"),
    # One past MAX_POINT_LOSSES at the six default losses.
    (("verify", "--points", "1000001"), "ParameterError"),
    (("verify", "--grid", "1001"), "ParameterError"),
    # |1 - gamma| ~ 1e-7: outside the coefficients' pole guard, inside the
    # kernels' wider one.
    (("point", "--phi", "3.141592653589793", "--theta0", "1e-7", "--loss", "0"),
     "ResonantPoleError"),
    # An even grid holds phi = pi, theta0 = 0, where the kernels give 0/0 at
    # so small a loss.
    (("sweep", "--metric", "lambda3", "--loss", "1e-12", "--n", "4"), "ResonantPoleError"),
    # The derivative grid holds phi = pi, theta0 = 0 as well.
    (("verify", "--losses", "1e-9", "--grid", "2", "--points", "1"), "ResonantPoleError"),
    (("verify", "--seed", "-1"), "ParameterError"),
    (("optimize", "--metric", "lambda1", "--losses", "0.1,abc"), "ModelError"),
    # Every factor of the 2x2 derivative grid sits below SMALL_VALUE_FLOOR.
    (("verify", "--losses", "0.5", "--grid", "2", "--points", "1"), "ParameterError"),
    # The [0, 1] loss rule, before any point is sampled.
    (("verify", "--losses", "1.5"), "ParameterError"),
    # The (0, 1] rule of sweeps refuses nan as well.
    (("sweep", "--metric", "lambda1", "--loss", "nan"), "ParameterError"),
    # At the default grid: |1 - gamma| = 5e-10 at 1e-9 trips the guard
    # `closed_form` uses; 5e-8 at 1e-7 trips only the kernels' wider one.
    (("verify", "--losses", "1e-9"), "ResonantPoleError"),
    (("verify", "--losses", "1e-7"), "ResonantPoleError"),
    # Below the search floor 4e-6, refused before the seed grid holds the
    # pole at phi = pi, theta0 = 0.
    (("optimize", "--metric", "lambda1", "--losses", "1e-6"), "ParameterError"),
    # So small a loss that sqrt(1 - L) rounds to 1: the grid's row phi = pi
    # does not contract, and the pass count refuses its pole at theta0 = 0
    # under the name `closed_form` gives it.
    (("verify", "--losses", "1e-17"), "ResonantPoleError"),
])
def test_usage_and_domain_errors_exit_2(capsys, tmp_path, argv, error):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


def test_out_file_mode_follows_umask(capsys, tmp_path):
    # A new path takes 0666 less the umask; an existing file keeps its
    # permission bits, as open() would, though the rename replaces it.
    previous = os.umask(0o027)
    try:
        for name, existing, expected in (("new.json", None, 0o640),
                                         ("private.json", 0o600, 0o600),
                                         ("shared.json", 0o644, 0o644)):
            target = tmp_path / name
            if existing is not None:
                target.write_text("old\n")
                target.chmod(existing)
            code, _, _ = run_cli(capsys, "point", "--phi", "1", "--theta0", "2",
                                 "--loss", "0.2", "--out", str(target))
            assert code == 0
            assert json.loads(target.read_text())["lambda3"] > 1.0
            assert stat.S_IMODE(target.stat().st_mode) == expected, name
    finally:
        os.umask(previous)


@pytest.mark.parametrize("link", [False, True])
def test_out_refuses_a_fifo(capsys, tmp_path, link):
    # os.replace would put a regular file in the FIFO's place; through a
    # symlink the FIFO is what --out names.
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    target = tmp_path / "link.csv" if link else fifo
    if link:
        target.symlink_to(fifo)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(capsys, "sweep", "--metric", "lambda1", "--loss", "0.1",
                             "--n", "2", "--out", str(target))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "FileExistsError"
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("existing", [True, False])
def test_out_writes_through_a_symlink(capsys, tmp_path, existing):
    # As open() would: the link stays, and the file it names, existing or
    # not, takes the bytes.
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    if existing:
        real.write_text("old\n")
    link.symlink_to(real)
    code, out, _ = run_cli(capsys, "point", "--phi", "1", "--theta0", "2", "--loss", "0.2",
                           "--out", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink()
    assert json.loads(real.read_text())["lambda3"] > 1.0
    assert sorted(tmp_path.iterdir()) == [link, real]


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "recycled_mzi", "point", "--phi", "1.0",
         "--theta0", "0.5", "--loss", "0.2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["lambda3"] > 1.0


def entry_env(unbuffered=True):
    """The environment of an entry-module child: this copy of the package,
    with or without PYTHONUNBUFFERED."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# The entry module leaves by os._exit after flushing the standard streams.
# Each exit code, and what each stream carries, must be those of a normal exit.
FORCED_FAILURE = ("import runpy, sys\n"
                  "from recycled_mzi import verification\n"
                  "verification.ORACLE_TOL = -1.0\n"
                  "sys.argv = ['recycled-mzi', 'verify', '--points', '20']\n"
                  "runpy.run_module('recycled_mzi', run_name='__main__')\n")


@pytest.mark.parametrize("unbuffered", [True, False])
def test_module_entry_exit_codes_and_streams(tmp_path, unbuffered):
    env = entry_env(unbuffered)
    entry = [sys.executable, "-m", "recycled_mzi"]
    target = tmp_path / "sweep.csv"
    done = subprocess.run([*entry, "sweep", "--metric", "lambda3", "--loss", "0.2", "--n", "30",
                           "--out", str(target)], env=env, capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert target.read_text().count("\n") == 1 + 30 * 30

    failed = subprocess.run([sys.executable, "-c", FORCED_FAILURE], env=env,
                            capture_output=True, text=True)
    assert failed.returncode == 1
    assert failed.stdout.endswith("verification FAILED\n")
    assert "FAIL" in failed.stdout.splitlines()[0]
    assert failed.stderr == ""

    refused = subprocess.run([*entry, "point", "--phi", "1", "--theta0", "0", "--loss", "1.5"],
                             env=env, capture_output=True, text=True)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert len(refused.stderr.splitlines()) == 1
    assert json.loads(refused.stderr)["error"] == "ParameterError"

    shown = subprocess.run([*entry, "--help"], env=env, capture_output=True, text=True)
    assert (shown.returncode, shown.stderr) == (0, "")
    assert shown.stdout.startswith("usage: recycled-mzi")

    usage = subprocess.run([*entry, "sweep", "--metric", "lambda9", "--loss", "0.1"],
                           env=env, capture_output=True, text=True)
    assert (usage.returncode, usage.stdout) == (2, "")
    assert "invalid choice: 'lambda9'" in usage.stderr
    assert "Traceback" not in usage.stderr


BROKEN_PIPE = '{"error": "BrokenPipeError", "reason": "[Errno 32] Broken pipe"}'
LARGE_SWEEP = ("sweep", "--metric", "lambda1", "--loss", "0.1", "--n", "400")


def check_broken_pipe(code, stderr):
    """`main`'s one-line reason and exit 2, whether or not bytes were left
    in stdout's buffer."""
    assert (code, stderr.splitlines()) == (2, [BROKEN_PIPE])


@pytest.mark.parametrize("unbuffered", [True, False])
def test_module_entry_into_a_pipe_closed_after_one_line(unbuffered):
    # `recycled-mzi sweep ... | head -1`.
    child = subprocess.Popen([sys.executable, "-m", "recycled_mzi", *LARGE_SWEEP],
                             env=entry_env(unbuffered), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"phi,theta0,value\n"
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    check_broken_pipe(child.wait(timeout=60), stderr)


def run_into_closed_pipe(argv, unbuffered):
    """Run argv with stdout a pipe whose reader closed before it started."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(argv, env=entry_env(unbuffered), stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_module_entry_into_a_pipe_closed_before_it_starts(unbuffered):
    # Buffered, the header waits in the buffer when the first write fails.
    child = run_into_closed_pipe([sys.executable, "-m", "recycled_mzi", *LARGE_SWEEP],
                                 unbuffered)
    check_broken_pipe(child.returncode, child.stderr)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_module_entry_into_a_closed_pipe_with_a_small_output(unbuffered):
    # Buffered, the whole text waits in the buffer until `main` flushes it.
    child = run_into_closed_pipe([sys.executable, "-m", "recycled_mzi", "optimize", "--metric",
                                  "lambda2", "--losses", "0.1"], unbuffered)
    check_broken_pipe(child.returncode, child.stderr)


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
def test_help_exits_0_from_main(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: recycled-mzi")


def test_usage_error_exits_2_from_main(capsys):
    code, out, err = run_cli(capsys, "sweep", "--metric", "lambda9", "--loss", "0.1")
    assert (code, out) == (2, "")
    assert "invalid choice: 'lambda9'" in err


# The console script's way in, the shape of pip's wrapper around the entry
# `[project.scripts]` names.
CONSOLE_SCRIPT = "import sys\nfrom recycled_mzi.__main__ import run\nsys.exit(run())\n"


def test_console_script_is_the_entry_the_tests_run():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"recycled-mzi": "recycled_mzi.__main__:run"}
    assert "from recycled_mzi.__main__ import run\n" in CONSOLE_SCRIPT


@pytest.mark.parametrize("unbuffered", [True, False])
def test_console_script_into_a_closed_pipe(unbuffered):
    child = run_into_closed_pipe([sys.executable, "-c", CONSOLE_SCRIPT, *LARGE_SWEEP],
                                 unbuffered)
    check_broken_pipe(child.returncode, child.stderr)


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("entry", [("-m", "recycled_mzi"), ("-c", CONSOLE_SCRIPT)])
@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
def test_help_into_a_closed_pipe(unbuffered, entry, argv):
    # Buffered, the help text waits in the buffer; unbuffered, argparse
    # alone would drop the failed write and exit 0.
    child = run_into_closed_pipe([sys.executable, *entry, *argv], unbuffered)
    check_broken_pipe(child.returncode, child.stderr)


def run_with_closed_stderr(argv, unbuffered, broken_stdout):
    """Run argv with stderr a pipe whose reader closed before it started,
    and stdout the same pipe when `broken_stdout`."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(argv, env=entry_env(unbuffered), stderr=write_end,
                              stdout=write_end if broken_stdout else subprocess.PIPE)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("entry", [("-m", "recycled_mzi"), ("-c", CONSOLE_SCRIPT)])
@pytest.mark.parametrize("argv, broken_stdout", [
    # A domain error, whose one-line reason cannot be written.
    (("point", "--phi", "1", "--theta0", "0", "--loss", "2"), False),
    # A usage error: argparse drops the failed write of its message.
    (("sweep", "--metric", "lambda9", "--loss", "0.1"), False),
    # `... 2>&1 | head -1` once head has gone: stdout breaks, then stderr.
    (("optimize", "--metric", "lambda2", "--losses", "0.1"), True),
])
def test_unwritable_stderr_keeps_exit_2(unbuffered, entry, argv, broken_stdout):
    # Exit 1 is a failed verification's; buffered, the bytes left in
    # stderr's buffer would fail the interpreter's last flush, exit 120.
    child = run_with_closed_stderr([sys.executable, *entry, *argv], unbuffered, broken_stdout)
    assert child.returncode == 2
    assert broken_stdout or child.stdout == b""


def run_with_closed_streams(argv, redirections):
    """Run argv with the standard streams `redirections` closes (`>&-`,
    `2>&-`) closed before it starts, so Python sets them to None."""
    return subprocess.run(["sh", "-c", f'exec "$@" {redirections}', "sh", *argv],
                          env=entry_env(), stderr=subprocess.PIPE, text=True)


CLOSED_STDOUT = json.dumps({"error": "OSError",
                            "reason": str(OSError(errno.EBADF, os.strerror(errno.EBADF)))})


@pytest.mark.parametrize("entry", [("-m", "recycled_mzi"), ("-c", CONSOLE_SCRIPT)])
@pytest.mark.parametrize("argv", [
    ("point", "--phi", "1", "--theta0", "0", "--loss", "0.2"),
    ("sweep", "--metric", "lambda1", "--loss", "0.1", "--n", "4"),
    ("optimize", "--metric", "lambda2", "--losses", "0.1"),
    ("verify", "--points", "20"),
    ("--help",),
])
def test_stdout_closed_at_start_up_exits_2(entry, argv):
    # A closed pipe's exit and one-line reason, not a traceback's exit 1.
    child = run_with_closed_streams([sys.executable, *entry, *argv], ">&-")
    assert (child.returncode, child.stderr.splitlines()) == (2, [CLOSED_STDOUT])


@pytest.mark.parametrize("entry", [("-m", "recycled_mzi"), ("-c", CONSOLE_SCRIPT)])
def test_closed_stdout_is_no_error_for_out(tmp_path, entry):
    target = tmp_path / "closed.csv"
    child = run_with_closed_streams([sys.executable, *entry, "sweep", "--metric", "lambda1",
                                     "--loss", "0.1", "--n", "4", "--out", str(target)], ">&-")
    assert (child.returncode, child.stderr) == (0, "")
    assert target.read_text().count("\n") == 1 + 4 * 4


@pytest.mark.parametrize("entry", [("-m", "recycled_mzi"), ("-c", CONSOLE_SCRIPT)])
def test_stdout_and_stderr_closed_at_start_up_exit_2(entry):
    child = run_with_closed_streams([sys.executable, *entry, "point", "--phi", "1",
                                     "--theta0", "0", "--loss", "0.2"], ">&- 2>&-")
    assert child.returncode == 2


@pytest.mark.parametrize("argv", [
    *(("sweep", "--metric", metric, "--loss", "0.1", "--n", "24")
      for metric in sorted(METRICS)),
    *(("optimize", "--metric", "lambda1", "--losses", "0.05,0.2", "--format", form)
      for form in ("csv", "json")),
])
def test_module_entry_prints_the_bytes_of_main(capsys, argv):
    # The golden digests run main() in this process; this runs the entry
    # module, with its own start-up, in a new one.
    code, out, err = run_cli(capsys, *argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    entry = subprocess.run([sys.executable, "-m", "recycled_mzi", *argv], env=env,
                           capture_output=True)
    assert code == entry.returncode == 0
    assert err == "" and entry.stderr == b""
    assert entry.stdout == out.encode()


class TestDeterminism:
    def test_point_bytes_stable(self, capsys):
        _, first, _ = run_cli(capsys, "point", "--phi", "2.5702", "--theta0", "0.3524",
                              "--loss", "0.10")
        _, second, _ = run_cli(capsys, "point", "--phi", "2.5702", "--theta0", "0.3524",
                               "--loss", "0.10")
        assert first == second

    def test_sweep_files_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "sweep", "--metric", "lambda2", "--loss", "0.15", "--n", "50",
                "--out", str(a))
        run_cli(capsys, "sweep", "--metric", "lambda2", "--loss", "0.15", "--n", "50",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_optimize_files_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "optimize", "--metric", "lambda1", "--losses", "0.1,0.2",
                    "--out", str(path))
        assert a.read_bytes() == b.read_bytes()
