#!/usr/bin/env python3
"""Trace the maximum enhancement factors as a function of photon loss.

Produces one CSV with the located maxima of the homodyne factor and the
quantum-bound factor over a loss grid: the data behind the
optimum-versus-loss figure.  Deterministic, so reruns reproduce the file
byte for byte.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from recycled_mzi import loss_curve
from recycled_mzi.cli import _format_number

LOSS_MIN = 0.02
LOSS_MAX = 0.5
GRID_SEED = 200
TOL = 1e-8


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=25)
    parser.add_argument("--out", type=Path, default=Path("out/optimum_vs_loss.csv"))
    args = parser.parse_args()

    losses = np.linspace(LOSS_MIN, LOSS_MAX, args.samples)
    hd = loss_curve("lambda1", losses, grid_seed=GRID_SEED, tol=TOL)
    bound = loss_curve("lambda2", losses, grid_seed=GRID_SEED, tol=TOL)

    lines = ["loss,lambda1_max,phi_star_hd,theta0_star_hd,lambda2_max,phi_star_qcrb,theta0_star_qcrb"]
    for hd_record, bound_record in zip(hd, bound):
        lines.append(",".join(_format_number(value) for value in (
            hd_record.loss, hd_record.lambda_max, hd_record.phi_star, hd_record.theta0_star,
            bound_record.lambda_max, bound_record.phi_star, bound_record.theta0_star)))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out} ({args.samples} losses)")


if __name__ == "__main__":
    main()
