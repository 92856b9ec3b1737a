"""Smoke tests of the figure-data scripts, run as the README runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_landscape_grids(tmp_path):
    done = run_script("landscape_grids.py", "--grid", "4", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    files = sorted(tmp_path.glob("*.csv"))
    assert len(files) == 12
    for path in files:
        lines = path.read_text().splitlines()
        assert lines[0] == "phi,theta0,value"
        assert len(lines) == 1 + 4 * 4


def test_optimum_vs_loss(tmp_path):
    out = tmp_path / "o.csv"
    done = run_script("optimum_vs_loss.py", "--samples", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == ("loss,lambda1_max,phi_star_hd,theta0_star_hd,"
                        "lambda2_max,phi_star_qcrb,theta0_star_qcrb")
    assert len(lines) == 1 + 2
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.02, 0.5]
