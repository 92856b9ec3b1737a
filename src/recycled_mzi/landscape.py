"""Parameter landscapes and their maxima.

`sweep` rasterizes one enhancement factor over the (phi, theta0) torus at a
fixed loss.  `loss_curve` locates the factor's maximum at each of a list of
losses with a deterministic two-stage search: a coarse grid seed followed by
compass (pattern) descent with a shrinking step from the best few grid
cells.  The seeds of every loss step in one lockstep search, and a seed
retires once its step falls below the tolerance, so the kernel calls follow
the slowest loss rather than the sum over losses.  `maximize` is its one-loss
case.  No randomness anywhere, so results are reproducible bit for bit.

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

# Compass directions of the four probes, +phi, -phi, +theta0, -theta0, as
# (phi, theta0) components shaped to broadcast over (axis, row, probe).
COMPASS = np.array([[1.0, -1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, -1.0]])[:, None, :]


@dataclass(frozen=True)
class SweepGrid:
    """Raster of one enhancement factor over the (phi, theta0) torus."""

    phi_points: np.ndarray
    theta0_points: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class OptimumRecord:
    """Located maximum of one enhancement factor at one loss."""

    loss: float
    metric_tag: str
    lambda_max: float
    phi_star: float
    theta0_star: float
    evaluations: int


def _check_metric(metric_tag: str) -> None:
    if metric_tag not in METRICS:
        raise ParameterError(f"unknown metric {metric_tag!r}; expected one of {sorted(METRICS)}")


def _check_loss(loss: float) -> None:
    if isinstance(loss, (bool, np.bool_)) or not 0.0 < loss <= 1.0:
        raise ParameterError(f"loss must lie in (0, 1], got {loss}")


def _check_grid(n_phi: int, n_theta0: int) -> None:
    if n_phi < 2 or n_theta0 < 2:
        raise ParameterError("grid needs at least 2 points per axis")
    if n_phi * n_theta0 > MAX_GRID_POINTS:
        raise ParameterError(f"grid of {n_phi}x{n_theta0} exceeds {MAX_GRID_POINTS} points")


def sweep(metric_tag: str, loss: float, n_phi: int, n_theta0: int) -> SweepGrid:
    """Evaluate a factor on an n_phi x n_theta0 grid over [0, 2*pi)^2."""
    _check_metric(metric_tag)
    _check_loss(loss)
    _check_grid(n_phi, n_theta0)
    phi = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    theta0 = np.linspace(0.0, TWO_PI, n_theta0, endpoint=False)
    values = METRICS[metric_tag](phi[:, None], theta0[None, :], loss)
    return SweepGrid(phi_points=phi, theta0_points=theta0, values=values)


def maximize(metric_tag: str, loss: float, grid_seed: int = 200,
             tol: float = 1e-8) -> OptimumRecord:
    """Locate the maximum of a factor over (phi, theta0) at fixed loss.

    The one-loss case of `loss_curve`, which describes the search.
    """
    return loss_curve(metric_tag, [loss], grid_seed=grid_seed, tol=tol)[0]


def _seeds(metric_tag, loss, grid_seed, count):
    """The best `count` cells of one loss's coarse grid: (phi, theta0) and values.

    Only one grid is alive at a time: it is freed on return.
    """
    grid = sweep(metric_tag, loss, grid_seed, grid_seed)
    # Stable row-major order makes equal cells rank lexicographically.
    seeds = np.argsort(-grid.values.ravel(), kind="stable")[:count]
    i, j = np.divmod(seeds, grid_seed)
    return np.array([grid.phi_points[i], grid.theta0_points[j]]), grid.values[i, j]


def _compass(kernel, pos, best, row_loss, step0, tol):
    """Lockstep compass search from every row; its final pos, best and iterations.

    Row r starts at (pos[0, r], pos[1, r]) = (phi, theta0) with value best[r]
    at loss row_loss[r] and step step0.  Each iteration is one kernel call on
    the four probes of every searching row.  A row whose step falls below tol
    retires: its results are written back and it is never probed again.
    """
    final_pos, final_best = np.empty_like(pos), np.empty_like(best)
    iterations = np.zeros(best.size, dtype=np.int64)
    active = np.arange(best.size)
    step = np.full(best.size, step0)
    iteration = 0
    while True:
        done = step < tol
        # The first pass also sets up the per-row arguments.
        if iteration == 0 or done.any():
            gone = active[done]
            final_pos[:, gone], final_best[gone] = pos[:, done], best[done]
            iterations[gone] = iteration
            keep = ~done
            if not keep.any():
                return final_pos, final_best, iterations
            pos = pos[:, keep]
            active, best, step, row_loss = (part[keep] for part in (active, best, step, row_loss))
            offsets = 4 * np.arange(active.size)
            # One loss per probe: operands of one shape keep numpy's ufuncs
            # off the slower broadcasting path a (rows, 1) column takes.
            probe_loss = np.repeat(row_loss[:, None], 4, axis=1)
        iteration += 1
        # Adding step * (+-1 or 0) is exact, so the probes are pos +- step.
        probes = pos[:, :, None] + step[:, None] * COMPASS
        values = kernel(probes[0], probes[1], probe_loss)
        # argmax takes the first of equal probes.
        pick = values.argmax(axis=1) + offsets
        gain = values.take(pick)
        improve = gain > best
        pos = np.where(improve, probes.reshape(2, -1)[:, pick], pos)
        best = np.where(improve, gain, best)
        step = np.where(improve, step, 0.5 * step)


def loss_curve(metric_tag: str, losses, grid_seed: int = 200,
               tol: float = 1e-8) -> list[OptimumRecord]:
    """One located maximum per loss, in input order.

    Every argument is checked before any grid is built.  Each loss is seeded
    from its grid_seed x grid_seed `sweep`, one grid at a time, and refined
    from its best REFINE_SEEDS cells by compass search: probe one step along
    each axis, move to the best strictly improving probe, halve the step
    otherwise, stop below tol.  The seeds of all losses step in lockstep,
    one kernel call per iteration on the probes of the seeds still
    searching; a seed whose step falls below tol retires and is never probed
    again.  So the calls follow the slowest loss rather than the sum over
    losses, and each seed follows the path it would follow alone.
    `evaluations` counts the loss's coarse grid, the probes of its seeds and
    the final re-evaluation.  Angles stay unwrapped during the search (the
    factors are exactly periodic) and are wrapped into [0, 2*pi) for
    reporting.
    """
    losses = list(losses)
    _check_metric(metric_tag)
    for loss in losses:
        _check_loss(loss)
    if not 1e-10 <= tol <= 1e-2:
        raise ParameterError(f"tol must lie in [1e-10, 1e-2], got {tol}")
    _check_grid(grid_seed, grid_seed)
    if not losses:
        return []
    kernel = METRICS[metric_tag]

    # One row per seed, the seeds of each loss contiguous and in rank order.
    # pos[0] is phi and pos[1] theta0 of each row.
    per_loss = min(REFINE_SEEDS, grid_seed * grid_seed)
    seeds = [_seeds(metric_tag, loss, grid_seed, per_loss) for loss in losses]
    pos = np.concatenate([seed_pos for seed_pos, _ in seeds], axis=1)
    best = np.concatenate([seed_best for _, seed_best in seeds])
    row_loss = np.repeat(np.asarray(losses, dtype=float), per_loss)

    final_pos, final_best, iterations = _compass(kernel, pos, best, row_loss,
                                                 TWO_PI / grid_seed, tol)
    records = []
    for k, loss in enumerate(losses):
        rows = slice(k * per_loss, (k + 1) * per_loss)
        candidates = [(float(value), float(u) % TWO_PI, float(v) % TWO_PI)
                      for value, u, v in zip(final_best[rows], *final_pos[:, rows])]
        top = max(value for value, _, _ in candidates)
        window = TIE_RTOL * max(1.0, abs(top))
        tied = [c for c in candidates if c[0] >= top - window]
        _, phi_star, theta0_star = min(tied, key=lambda c: (c[1], c[2]))
        # Report the value at the wrapped maximizer so that re-evaluating the
        # factor there reproduces lambda_max exactly.
        lambda_max = float(kernel(phi_star, theta0_star, loss))
        evaluations = grid_seed * grid_seed + 4 * int(iterations[rows].sum()) + 1
        records.append(OptimumRecord(loss=loss, metric_tag=metric_tag,
                                     lambda_max=lambda_max, phi_star=phi_star,
                                     theta0_star=theta0_star, evaluations=evaluations))
    return records
