#!/usr/bin/env python3
"""Generate the enhancement-factor landscape grids.

Writes one CSV per (factor, loss) pair into the output directory, each a
200x200 raster over the (phi, theta0) torus: the data behind the landscape
heatmaps.  Rerunning reproduces identical files.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from recycled_mzi import sweep
from recycled_mzi.cli import _write_chunks, sweep_csv

METRICS = ("lambda1", "lambda2", "lambda3")
LOSSES = (0.05, 0.10, 0.15, 0.20)


def write_grid(out_dir: Path, grid_n: int, metric: str, loss: float) -> Path:
    grid = sweep(metric, loss, grid_n, grid_n)
    path = out_dir / f"{metric}_loss{loss:g}.csv"
    _write_chunks(sweep_csv(grid), path)
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--grid", type=int, default=200)
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for metric in METRICS:
        for loss in LOSSES:
            path = write_grid(args.out_dir, args.grid, metric, loss)
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
