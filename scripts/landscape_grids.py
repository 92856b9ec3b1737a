#!/usr/bin/env python3
"""Generate the enhancement-factor landscape grids.

Writes one CSV per (factor, loss) pair into the output directory, each a
200x200 raster over the (phi, theta0) torus: the data behind the landscape
heatmaps.  Rerunning reproduces identical files.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path

from recycled_mzi import sweep
from recycled_mzi.cli import sweep_csv


@dataclass
class Config:
    metrics: tuple[str, ...] = ("lambda1", "lambda2", "lambda3")
    losses: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20)
    grid: int = 200
    out_dir: Path = field(default_factory=lambda: Path("out"))


def write_grid(config: Config, metric: str, loss: float) -> Path:
    grid = sweep(metric, loss, config.grid, config.grid)
    path = config.out_dir / f"{metric}_loss{loss:g}.csv"
    path.write_text(sweep_csv(grid), encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--grid", type=int, default=200)
    args = parser.parse_args()

    config = Config(grid=args.grid, out_dir=args.out_dir)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    for metric in config.metrics:
        for loss in config.losses:
            path = write_grid(config, metric, loss)
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
