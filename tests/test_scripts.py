"""Smoke tests of the figure-data scripts, run as the README runs them.

The sha256 digests pin every byte the scripts write, which between them
run through the sweep and compass paths.  They were recorded with numpy
2.4.6 on x86-64; regenerate one only for an intended output change and
say which changed and why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GRID_4_DIGESTS = {
    "lambda1_loss0.05.csv": "66b75765d396e3ad977374838bdeaaff739f44f189aa90084e057e2929e8e196",
    "lambda1_loss0.1.csv": "4153efcc61ea6d45a21f116b5a5db5a43e419bde7b46e530d57635eb8b1db9d1",
    "lambda1_loss0.15.csv": "154266dfda3ae8b3d6af40fd6600a64a77f49f1c94928cc3515e6a722381f56a",
    "lambda1_loss0.2.csv": "0a276295f12eee0bd83e4e525962f0a677bc88e44a043fc5236184a957bab207",
    "lambda2_loss0.05.csv": "7527a46d4922365a4a4121637655950f3e17d65061ec575214209fa176516dfb",
    "lambda2_loss0.1.csv": "c835efba7f6b7e69e7b5db48e732e123119e7278e7cd2478fcb171e86eab855c",
    "lambda2_loss0.15.csv": "64c0e202cce4b3723cfc51234ddec2445545973da9f2fe2d1d50a41d10a77b04",
    "lambda2_loss0.2.csv": "f66cfd67c426bec2b888199c57e862f2cc4f126aaac8ce840ba519424364d13a",
    "lambda3_loss0.05.csv": "45c42c4ee3b2e83b30af6b8346dc946248e7ab5236dccf39896a600c7ebc82c6",
    "lambda3_loss0.1.csv": "805f3b06a7272e00c62d997bbb75078a8c32d084e6702526f3c6234b1b6a7f9b",
    "lambda3_loss0.15.csv": "bdd316ba7c411a3418cd2d302ff43e271ab92743021d45fb06f01d0ac6700c40",
    "lambda3_loss0.2.csv": "e5389806ef7dec831534751e88d5f650050bd8bbc4833375bfb31efeeb3707b3",
}
OPTIMUM_5_DIGEST = "ef6acf780521b2356c93e23d9462a07a083608461c8937f4633f85871984664a"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert {path.name: sha256(path) for path in files} == GRID_4_DIGESTS


def test_optimum_vs_loss(tmp_path):
    out = tmp_path / "o.csv"
    done = run_script("optimum_vs_loss.py", "--samples", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == ("loss,lambda1_max,phi_star_hd,theta0_star_hd,"
                        "lambda2_max,phi_star_qcrb,theta0_star_qcrb")
    assert len(lines) == 1 + 2
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.02, 0.5]


def test_optimum_vs_loss_digest(tmp_path):
    out = tmp_path / "o.csv"
    done = run_script("optimum_vs_loss.py", "--samples", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert sha256(out) == OPTIMUM_5_DIGEST
