"""Parameter landscapes and their maxima.

`sweep` rasterizes one enhancement factor over the (phi, theta0) torus at a
fixed loss.  `maximize` locates the factor's maximum with a deterministic
two-stage search: a coarse grid seed followed by compass (pattern) descent
with a shrinking step from the best few grid cells.  No randomness anywhere,
so results are reproducible bit for bit.

The landscapes are symmetric under (phi, theta0) -> (2*pi-phi, 2*pi-theta0),
so maxima come in twin pairs; candidates whose refined values agree within a
tight relative window count as ties and the lexicographically smallest
wrapped maximizer wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .metrology import METRICS

TWO_PI = 2.0 * math.pi

# 2000 x 2000 cells: `sweep --n 2000 --out` takes ~4 s and peaks near
# 121 MB RSS (2 vCPU).  The CSV is streamed row by row, so the peak is the
# value grid and the kernel temporaries, not the 168 MB of text.
MAX_GRID_POINTS = 4 * 10**6

REFINE_SEEDS = 5

# Relative window within which two refined maxima are treated as equal.
# Wide enough to absorb refinement noise on the symmetric twin peak, far
# tighter than any genuinely distinct pair of local maxima.
TIE_RTOL = 1e-9

# Compass directions of the four probes: +phi, -phi, +theta0, -theta0.
COMPASS_DX = np.array([1.0, -1.0, 0.0, 0.0])
COMPASS_DY = np.array([0.0, 0.0, 1.0, -1.0])


@dataclass(frozen=True)
class SweepGrid:
    """Raster of one enhancement factor over the (phi, theta0) torus."""

    phi_points: np.ndarray
    theta0_points: np.ndarray
    loss: float
    values: np.ndarray
    metric_tag: str


@dataclass(frozen=True)
class OptimumRecord:
    """Located maximum of one enhancement factor at one loss."""

    loss: float
    metric_tag: str
    lambda_max: float
    phi_star: float
    theta0_star: float
    evaluations: int


def _check_loss(loss: float) -> None:
    if isinstance(loss, (bool, np.bool_)) or not 0.0 < loss <= 1.0:
        raise ParameterError(f"loss must lie in (0, 1], got {loss}")


def sweep(metric_tag: str, loss: float, n_phi: int, n_theta0: int) -> SweepGrid:
    """Evaluate a factor on an n_phi x n_theta0 grid over [0, 2*pi)^2."""
    if metric_tag not in METRICS:
        raise ParameterError(f"unknown metric {metric_tag!r}; expected one of {sorted(METRICS)}")
    _check_loss(loss)
    if n_phi < 2 or n_theta0 < 2:
        raise ParameterError("grid needs at least 2 points per axis")
    if n_phi * n_theta0 > MAX_GRID_POINTS:
        raise ParameterError(f"grid of {n_phi}x{n_theta0} exceeds {MAX_GRID_POINTS} points")
    phi = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    theta0 = np.linspace(0.0, TWO_PI, n_theta0, endpoint=False)
    values = METRICS[metric_tag](phi[:, None], theta0[None, :], loss)
    return SweepGrid(phi_points=phi, theta0_points=theta0, loss=loss,
                     values=values, metric_tag=metric_tag)


def maximize(metric_tag: str, loss: float, grid_seed: int = 200,
             tol: float = 1e-8) -> OptimumRecord:
    """Locate the maximum of a factor over (phi, theta0) at fixed loss.

    Seeds from the grid_seed x grid_seed `sweep`, whose checks and size cap
    hold here too, then refines from the best REFINE_SEEDS cells by compass
    search: probe one step along each axis, move to the best strictly
    improving probe, halve the step otherwise, stop below tol.  The seeds
    step in lockstep, one kernel call per iteration on the probes of all of
    them, and each follows the path it would follow alone; `evaluations`
    counts the coarse grid, the probes of seeds still searching and the
    final re-evaluation.  Angles stay unwrapped during the search (the
    factors are exactly periodic) and are wrapped into [0, 2*pi) for
    reporting.
    """
    if not 1e-10 <= tol <= 1e-2:
        raise ParameterError(f"tol must lie in [1e-10, 1e-2], got {tol}")
    grid = sweep(metric_tag, loss, grid_seed, grid_seed)
    kernel = METRICS[metric_tag]
    axis = grid.phi_points
    evaluations = grid.values.size
    # Non-finite cells (unreachable for loss > 0) are skipped, not refined.
    coarse = np.where(np.isfinite(grid.values), grid.values, -np.inf)
    # Stable row-major order makes equal cells rank lexicographically.
    seeds = np.argsort(-coarse.ravel(), kind="stable")[:REFINE_SEEDS]

    # A stopped seed's probes are evaluated too (one call keeps its shape)
    # but never applied or counted.
    i, j = np.divmod(seeds, grid_seed)
    x, y = axis[i], axis[j]
    best = coarse[i, j]
    step = np.full(seeds.size, TWO_PI / grid_seed)
    rows = np.arange(seeds.size)
    live = step >= tol
    while live.any():
        # Adding step * (+-1 or 0) is exact, so the probes are x +- step, y +- step.
        px = x[:, None] + step[:, None] * COMPASS_DX
        py = y[:, None] + step[:, None] * COMPASS_DY
        values = kernel(px, py, loss)
        values = np.where(np.isfinite(values), values, -np.inf)
        evaluations += 4 * int(np.count_nonzero(live))
        # argmax takes the first of equal probes.
        move = values.argmax(axis=1)
        gain = values[rows, move]
        improve = live & (gain > best)
        x = np.where(improve, px[rows, move], x)
        y = np.where(improve, py[rows, move], y)
        best = np.where(improve, gain, best)
        step = np.where(live & ~improve, 0.5 * step, step)
        live = step >= tol
    candidates = [(float(value), float(u) % TWO_PI, float(v) % TWO_PI)
                  for value, u, v in zip(best, x, y)]

    top = max(value for value, _, _ in candidates)
    window = TIE_RTOL * max(1.0, abs(top))
    tied = [c for c in candidates if c[0] >= top - window]
    _, phi_star, theta0_star = min(tied, key=lambda c: (c[1], c[2]))
    # Report the value at the wrapped maximizer so that re-evaluating the
    # factor there reproduces lambda_max exactly.
    lambda_max = float(kernel(phi_star, theta0_star, loss))
    evaluations += 1
    return OptimumRecord(loss=loss, metric_tag=metric_tag, lambda_max=lambda_max,
                         phi_star=phi_star, theta0_star=theta0_star,
                         evaluations=evaluations)


def loss_curve(metric_tag: str, losses, grid_seed: int = 200,
               tol: float = 1e-8) -> list[OptimumRecord]:
    """One located maximum per loss, in input order.

    Every loss is checked before any is refined, so a bad one late in the
    list costs no search.
    """
    losses = list(losses)
    for loss in losses:
        _check_loss(loss)
    return [maximize(metric_tag, loss, grid_seed=grid_seed, tol=tol)
            for loss in losses]
