import contextlib
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
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from recycled_mzi import cli, verification
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


def per_cell_sweep_csv(grid):
    """CSV text of a sweep, one f-string `.12g` field per value of each cell.

    The reference for the streamed `cli.sweep_csv`: it formats both axes
    again for every cell and joins the whole text at once.  It spells the
    number format on its own, so it pins the bytes whatever the CLI uses.
    """
    lines = ["phi,theta0,value"]
    for i, phi in enumerate(grid.phi_points):
        row = grid.values[i]
        for j, theta0 in enumerate(grid.theta0_points):
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

    def test_degrees_flag(self, capsys):
        _, radians_out, _ = run_cli(capsys, "point", "--phi", str(math.pi / 2),
                                    "--theta0", "0", "--loss", "0.3")
        _, degrees_out, _ = run_cli(capsys, "point", "--phi", "90", "--theta0", "0",
                                    "--loss", "0.3", "--degrees")
        assert json.loads(degrees_out)["lambda1"] == pytest.approx(
            json.loads(radians_out)["lambda1"], rel=1e-12)

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

    def test_asymmetric_grid(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--metric", "lambda1", "--loss", "0.1",
                            "--n-phi", "7", "--n-theta0", "5")
        _, rows = read_csv(out)
        assert len(rows) == 35

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
    @pytest.mark.parametrize("n_phi,n_theta0", [(2, 2), (3, 7), (7, 3), (50, 50)])
    def test_chunks_join_to_per_cell_text(self, metric, loss, n_phi, n_theta0):
        grid = sweep(metric, loss, n_phi, n_theta0)
        chunks = list(cli.sweep_csv(grid))
        assert len(chunks) == 1 + n_phi
        assert "".join(chunks) == per_cell_sweep_csv(grid)

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_out_file_bytes_equal_stdout_bytes(self, tmp_path, metric):
        argv = [sys.executable, "-m", "recycled_mzi", "sweep", "--metric", metric,
                "--loss", "0.15", "--n-phi", "30", "--n-theta0", "20"]
        target = tmp_path / "sweep.csv"
        to_stdout = subprocess.run(argv, capture_output=True, check=True)
        subprocess.run([*argv, "--out", str(target)], capture_output=True, check=True)
        assert target.read_bytes() == to_stdout.stdout

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


@given(data=st.data(), n_phi=st.integers(1, 6), n_theta0=st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_sweep_csv_formats_any_grid_like_per_cell(data, n_phi, n_theta0):
    grid = SweepGrid(
        phi_points=data.draw(arrays(np.float64, n_phi, elements=edge_floats)),
        theta0_points=data.draw(arrays(np.float64, n_theta0, elements=edge_floats)),
        values=data.draw(arrays(np.float64, (n_phi, n_theta0), elements=edge_floats)),
    )
    assert "".join(cli.sweep_csv(grid)) == per_cell_sweep_csv(grid)


# Axis sizes: refused ones (negative, 0, 1), accepted ones up to 30, and ones
# that take the grid over MAX_GRID_POINTS with any other accepted axis.
axis_sizes = st.integers(-3, 30) | st.integers(MAX_GRID_POINTS // 2 + 1, 10**12)
sweep_losses = (st.sampled_from(["nan", "inf", "-inf", "0", "-0.1", "1", "1e-4", "1e-12",
                                 "1.5"])
                | st.floats(-0.5, 1.5).map(repr))


@given(metric=st.sampled_from(sorted(METRICS)), loss=sweep_losses, n=axis_sizes,
       n_phi=st.none() | axis_sizes, n_theta0=st.none() | axis_sizes)
@settings(max_examples=150, deadline=None)
def test_sweep_argv_contract(metric, loss, n, n_phi, n_theta0):
    argv = ["sweep", "--metric", metric, f"--loss={loss}", f"--n={n}"]
    if n_phi is not None:
        argv.append(f"--n-phi={n_phi}")
    if n_theta0 is not None:
        argv.append(f"--n-theta0={n_theta0}")
    rows = n if n_phi is None else n_phi
    cols = n if n_theta0 is None else n_theta0
    accepted = 0.0 < float(loss) <= 1.0 and 2 <= rows <= 30 and 2 <= cols <= 30

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)

    assert code in (0, 2)
    assert "Traceback" not in stderr.getvalue()
    if not accepted:
        assert code == 2
        assert stdout.getvalue() == ""
    if code == 0:
        assert stdout.getvalue().count("\n") == 1 + rows * cols


point_floats = (st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e-300", "1e308",
                                  "-1e308", "3.141592653589793", "1.5"])
                | st.floats(allow_nan=True, allow_infinity=True).map(repr))


@given(phi=point_floats, theta0=point_floats, loss=sweep_losses | point_floats,
       alpha=st.none() | point_floats, degrees=st.booleans())
@settings(max_examples=300, deadline=None)
def test_point_argv_contract(phi, theta0, loss, alpha, degrees):
    argv = ["point", f"--phi={phi}", f"--theta0={theta0}", f"--loss={loss}"]
    if alpha is not None:
        argv.append(f"--alpha={alpha}")
    if degrees:
        argv.append("--degrees")

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)

    assert code in (0, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 2:
        assert stdout.getvalue() == ""
        assert json.loads(stderr.getvalue())["error"] in ("ParameterError", "ResonantPoleError")
    else:
        assert 0.0 <= float(loss) <= 1.0
        assert len(json.loads(stdout.getvalue())) == 10


class TestOptimize:
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
        _, out, _ = run_cli(capsys, "optimize", "--metric", "lambda2", "--losses", "1.0",
                            "--grid-seed", "100")
        _, rows = read_csv(out)
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, "optimize", "--metric", "lambda2", "--losses",
                            "0.2,0.5", "--format", "json", "--grid-seed", "60")
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

    # From the lossless loop, where a point near phi = pi makes up to ~9e9
    # cascade passes, up to the blocked one.  The floor 5e-5 sits above the loss, about
    # 3e-5, below which the lambda2 kernel itself loses digits at (pi, 0),
    # so the qcrb check would fail for the kernel's sake, not the oracle's.
    @pytest.mark.parametrize("sizes", [(), ("--grid", "200", "--points", "100")])
    def test_passes_across_losses(self, capsys, sizes):
        losses = ",".join(["0"] + [repr(float(loss)) for loss in np.geomspace(5e-5, 1, 25)])
        code, out, _ = run_cli(capsys, "verify", "--losses", losses, *sizes)
        assert code == 0
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
    (("optimize", "--metric", "lambda1", "--losses", "0.1,0.2", "--grid-seed", "1"),
     "ParameterError"),
    (("optimize", "--metric", "lambda1", "--losses", "0.1", "--tol", "0.5", "--format", "json"),
     "ParameterError"),
    # A 74.5 GiB coarse grid: refused by the sweep size cap, not allocated.
    (("optimize", "--metric", "lambda1", "--losses", "0.1", "--grid-seed", "100000"),
     "ParameterError"),
    # One past MAX_GRID_POINTS = 2000**2.
    (("optimize", "--metric", "lambda1", "--losses", "0.1", "--grid-seed", "2001"),
     "ParameterError"),
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
])
def test_usage_and_domain_errors_exit_2(capsys, tmp_path, argv, error):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


def test_out_file_mode_follows_umask(capsys, tmp_path):
    target = tmp_path / "point.json"
    previous = os.umask(0o027)
    try:
        code, _, _ = run_cli(capsys, "point", "--phi", "1", "--theta0", "2", "--loss", "0.2",
                             "--out", str(target))
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "recycled_mzi", "point", "--phi", "1.0",
         "--theta0", "0.5", "--loss", "0.2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["lambda3"] > 1.0


@pytest.mark.parametrize("argv", [
    *(("sweep", "--metric", metric, "--loss", "0.1", "--n-phi", "24", "--n-theta0", "17")
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
                    "--grid-seed", "80", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()
