"""Parameter landscapes and their maxima.

`sweep` rasterizes one enhancement factor over the (phi, theta0) torus at a
fixed loss.  `loss_curve` locates its maximum at each of a list of losses by
a deterministic grid-seeded compass (pattern) search, which its docstring
describes; `maximize` is the one-loss case.  No randomness anywhere, so
results are reproducible bit for bit.

The landscapes are symmetric under (phi, theta0) -> (2*pi-phi, 2*pi-theta0),
so maxima come in twin pairs; candidates whose refined values agree within a
tight relative window count as ties and the lexicographically smallest
wrapped maximizer wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConvergenceError, ParameterError
from .metrology import KERNEL_POLE_THRESHOLD, METRICS
from .optics import check_integer, check_loss

TWO_PI = 2.0 * math.pi

# 2000 x 2000 cells: `sweep --loss 0.1 --n 2000 --out` takes 1.1-1.4 s and
# peaks at 63-64 MB RSS for each metric (CLI child; Python 3.11, numpy 2.4,
# 2 vCPU): the 30.5 MB grid, evaluated and formatted SWEEP_BLOCK_VALUES at a
# time.  The 168 MB of CSV text is streamed row by row.
MAX_GRID_POINTS = 4 * 10**6
# A whole-grid kernel call peaked at 122-153 MB, 2**16-value blocks at 83-84 MB.
SWEEP_BLOCK_VALUES = 2**13
# |1 - gamma| >= 1 - sqrt(1 - L) >= L/2 on the torus, so from this loss up
# half_denom_sq >= L**2/2 is at least four times the kernels' pole guard.
SEARCH_LOSS_FLOOR = 4.0 * KERNEL_POLE_THRESHOLD

REFINE_SEEDS = 5

# Relative window within which two refined maxima are treated as equal.
# Wide enough to absorb refinement noise on the symmetric twin peak, far
# tighter than any genuinely distinct pair of local maxima.
TIE_RTOL = 1e-9

# Compass directions of the four probes, +phi, -phi, +theta0, -theta0, as
# (phi, theta0) components shaped to broadcast over (axis, probe, row).
COMPASS = np.array([[1.0, -1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, -1.0]])[:, :, None]

# The kernel points one compass call aims at: the patch of step lattice it
# evaluates ahead of each searching row has side sqrt(PATCH_POINTS / (4 * rows)),
# so long loss lists fall back toward one step per call.
PATCH_POINTS = 3000

# Compass iterations one seed may take.  The default search's longest seed
# takes 354 163 (lambda1 at the search floor); from a 2 x 2 grid a lambda3
# seed crawls a ridge without end.
MAX_COMPASS_ITERATIONS = 2**20


@dataclass(frozen=True)
class SweepGrid:
    """Raster of one factor over the (phi, theta0) torus: values[i, j] at (axis[i], axis[j])."""

    axis: np.ndarray
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


def block_rows(n: int) -> int:
    """Rows of n values per block of both sweep loops, ceil(SWEEP_BLOCK_VALUES / n)."""
    return -(-SWEEP_BLOCK_VALUES // max(n, 1))


def _check_metric(metric_tag: str) -> None:
    if metric_tag not in METRICS:
        raise ParameterError(f"unknown metric {metric_tag!r}; expected one of {sorted(METRICS)}")


def _check_loss(loss: float, floor: float = 0.0) -> None:
    """One loss: `check_loss`'s [0, 1] rule, one number, L > 0 and L >= floor."""
    try:
        accepted = (value := check_loss(loss)).ndim == 0 and value > 0.0 and value >= floor
    except ParameterError:
        accepted = False
    if not accepted:
        raise ParameterError(f"loss must lie in {f'[{floor:g}' if floor else '(0'}, 1], got {loss}")


def _check_grid(n: int) -> None:
    if check_integer("grid size", n, 2) > math.isqrt(MAX_GRID_POINTS):
        raise ParameterError(f"grid of {n}x{n} exceeds {MAX_GRID_POINTS} points")


def sweep(metric_tag: str, loss: float, n: int) -> SweepGrid:
    """Evaluate a factor on an n x n grid over [0, 2*pi)^2."""
    _check_metric(metric_tag)
    _check_loss(loss)
    _check_grid(n)
    axis = np.linspace(0.0, TWO_PI, n, endpoint=False)
    kernel, values = METRICS[metric_tag], np.empty((n, n))
    rows = block_rows(n)
    for start in range(0, n, rows):
        values[start:start + rows] = kernel(axis[start:start + rows, None], axis, loss)
    return SweepGrid(axis=axis, values=values)


def maximize(metric_tag: str, loss: float, grid_seed: int = 200,
             tol: float = 1e-8) -> OptimumRecord:
    """The maximum of a factor over (phi, theta0) at one loss: `loss_curve`'s one-loss case."""
    return loss_curve(metric_tag, [loss], grid_seed=grid_seed, tol=tol)[0]


def _seeds(metric_tag, loss, grid_seed, count):
    """The best `count` cells of one loss's coarse grid: (phi, theta0) and values.

    Only one grid is alive at a time: it is freed on return.
    """
    grid = sweep(metric_tag, loss, grid_seed)
    # Stable row-major order makes equal cells rank lexicographically.  Only
    # the cells at or above the count-th best value need sorting.
    negated = -grid.values.ravel()
    kth = np.partition(negated, count - 1)[count - 1]
    candidates = np.flatnonzero(negated <= kth)
    seeds = candidates[np.argsort(negated[candidates], kind="stable")[:count]]
    i, j = np.divmod(seeds, grid_seed)
    return np.array([grid.axis[i], grid.axis[j]]), grid.values[i, j]


def _walk(kernel, pos, best, step, sign, loss, side):
    """Resolve each row's compass steps across one side x side patch of its step lattice.

    Row r's lattice runs from pos[:, r] along sign[:, r] (the direction of
    its last move on each axis) in steps of step[r]: X = x, x+dx, (x+dx)+dx,
    ... and Y likewise, the same sums single moves make.  One kernel call
    evaluates the four COMPASS probes of every node.  A node links to its
    +dx or +dy neighbour when that probe is the first-max probe and beats the
    node's own value (best at the root, else the probe value that led to
    it).  Pointer doubling finds where each row's chain of links ends; that
    node's outcome, a move to its winning probe or a halved step, closes the
    walk.  At side 1 the root is the whole patch: it has no links, so the
    walk is one compass step.  Returns the new pos, best, step and sign, and
    the iterations taken.
    """
    rows, nodes = best.size, side * side
    lattice = np.empty((2, rows, side))
    lattice[..., 0] = pos
    lattice[..., 1:] = (step * sign)[..., None]
    np.add.accumulate(lattice, axis=2, out=lattice)
    # probes[axis, probe, row, k] is the probe's coordinate from the k-th
    # lattice point; adding step * (+-1 or 0) is exact.
    probes = lattice[:, None] + (COMPASS * step)[..., None]
    values = kernel(probes[0][..., None], probes[1][..., None, :], loss).reshape(4, rows, nodes)
    # The first probe reaching the maximum: argmax(axis=0)'s pick, 3-4x faster here.
    gain = values.max(axis=0)
    pick = np.where(values[0] == gain, 0,
                    np.where(values[1] == gain, 1, np.where(values[2] == gain, 2, 3)))
    # Node (i, j) is n = i * side + j.  Its own value is the +dx probe of
    # node (i - 1, j), or for i = 0 the +dy probe of node (0, j - 1):
    # either way into the node evaluates the same point.
    forward = sign > 0.0
    own = np.empty((rows, nodes))
    own[:, 0] = best
    own[:, side:] = np.where(forward[0, :, None], values[0, :, :-side], values[1, :, :-side])
    own[:, 1:side] = np.where(forward[1, :, None], values[2, :, :side - 1],
                              values[3, :, :side - 1])
    improve = gain > own
    # Each node's link, as a flat index: its +dx or +dy neighbour inside
    # the patch, or itself where the walk ends.
    node = np.arange(nodes)
    ahead = np.where(forward, [[0], [2]], [[1], [3]])
    jump = ((pick == ahead[0, :, None]) * np.where(node < nodes - side, side, 0)
            + (pick == ahead[1, :, None]) * (node % side < side - 1))
    root = np.arange(0, rows * nodes, nodes)
    link = (root[:, None] + node + improve * jump).ravel()
    # A chain has at most 2 * side - 2 links.
    for _ in range(math.ceil(math.log2(2 * side - 1))):
        link = link.take(link)
    end = link[root]
    i, j = np.divmod(end - root, side)
    corner = np.arange(0, rows * side, side)
    at = np.array([lattice[0].ravel().take(corner + i), lattice[1].ravel().take(corner + j)])
    move, probe = improve.take(end), pick.take(end)
    component = COMPASS[..., 0].take(probe, axis=1)
    return (np.where(move, at + component * step, at),
            np.where(move, gain.take(end), own.take(end)),
            np.where(move, step, 0.5 * step),
            np.where(move & (component != 0.0), component, sign),
            i + j + 1)


def _compass(metric_tag, pos, best, row_loss, step0, tol):
    """Lockstep compass search from every row; its final pos, best and iterations.

    Row r starts at (pos[0, r], pos[1, r]) = (phi, theta0) with value best[r]
    at loss row_loss[r] and step step0.  Each kernel call resolves a stretch
    of every searching row's path (`_walk`) on a patch whose side is set by
    the rows still searching: a call costs at most PATCH_POINTS points,
    unless one step per row already costs more.  A row whose step falls
    below tol retires: its results are written back, it is never probed
    again, and the side grows to fit the rows left.  A row past
    MAX_COMPASS_ITERATIONS raises ConvergenceError.
    """
    kernel = METRICS[metric_tag]
    final_pos, final_best = np.empty_like(pos), np.empty_like(best)
    iterations = np.zeros(best.size, dtype=np.int64)
    rows = np.arange(best.size)
    step = np.full(best.size, step0)
    sign = np.ones_like(pos)
    while rows.size:
        side = max(1, math.isqrt(PATCH_POINTS // (4 * rows.size)))
        loss = row_loss[rows, None, None]
        while (live := step >= tol).all():
            pos, best, step, sign, more = _walk(kernel, pos, best, step, sign, loss, side)
            iterations[rows] += more
            if (over := iterations[rows] > MAX_COMPASS_ITERATIONS).any():
                raise ConvergenceError(
                    f"{metric_tag} search at loss {row_loss[rows][over][0]} took more than "
                    f"{MAX_COMPASS_ITERATIONS} compass iterations")
        done = ~live
        final_pos[:, rows[done]], final_best[rows[done]] = pos[:, done], best[done]
        pos, sign = pos[:, live], sign[:, live]
        rows, best, step = (part[live] for part in (rows, best, step))
    return final_pos, final_best, iterations


def loss_curve(metric_tag: str, losses, grid_seed: int = 200,
               tol: float = 1e-8) -> list[OptimumRecord]:
    """One located maximum per loss, in input order.

    Every argument is checked before any grid is built.  Each loss must lie in
    [SEARCH_LOSS_FLOOR, 1] = [4e-6, 1] (ParameterError otherwise): no grid cell
    or probe there comes within the kernels' pole guard.  Each loss is seeded
    from its grid_seed x grid_seed `sweep`, one grid at a time, and refined
    from its best REFINE_SEEDS cells by compass search: probe one step along
    each axis, move to the best strictly improving probe, halve the step
    otherwise, stop below tol.  The seeds of all losses search in lockstep:
    each kernel call evaluates a patch of the step lattice ahead of every seed
    still searching and resolves a stretch of its path (`_walk`); a seed whose
    step falls below tol retires and is never probed again.  So the calls
    follow the slowest loss rather than the sum over losses, and each seed
    makes the moves it would make alone, one step at a time: a ridge crawl of
    thousands of steps takes a few hundred calls.  A seed past
    MAX_COMPASS_ITERATIONS steps raises ConvergenceError.  `evaluations`
    counts the loss's coarse grid, the four probes of each step on its seeds'
    paths and the final re-evaluation: the probes the search reads, not the
    kernel points the patches spend.  Angles stay unwrapped during the search
    (the factors are exactly periodic) and are wrapped into [0, 2*pi) for
    reporting.
    """
    refused = "losses must be an iterable of numbers, got {!r}"
    # A string is iterable, but its characters are not losses.
    if isinstance(losses, (str, bytes)):
        raise ParameterError(refused.format(losses))
    try:
        losses = list(losses)
    except TypeError:
        raise ParameterError(refused.format(losses)) from None
    _check_metric(metric_tag)
    for loss in losses:
        _check_loss(loss, SEARCH_LOSS_FLOOR)
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 1e-10 <= tol <= 1e-2:
        raise ParameterError(f"tol must lie in [1e-10, 1e-2], got {tol}")
    _check_grid(grid_seed)
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

    final_pos, final_best, iterations = _compass(metric_tag, pos, best, row_loss,
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
        # Plain Python numbers, whatever number types the caller passed.
        evaluations = int(grid_seed) ** 2 + 4 * int(iterations[rows].sum()) + 1
        records.append(OptimumRecord(loss=float(loss), metric_tag=metric_tag,
                                     lambda_max=lambda_max, phi_star=phi_star,
                                     theta0_star=theta0_star, evaluations=evaluations))
    return records
