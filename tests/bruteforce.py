"""Independent brute-force oracles for small grids.

Everything here is written as direct loops over explicitly materialized cube
families, deliberately avoiding the library's prefix-sum sweeps, so the fast
paths can be checked against them exactly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from morreylab._windows import level_sums, window_kernels
from morreylab.conditions import BalanceResult, DoublingCheck, Interval
from morreylab.grid import (
    Grid,
    GridFunction,
    Supremum,
    dilate,
    dyadic_cubes,
    family_blocks,
    iter_family,
)
from morreylab.norms import IntervalNormTable, restricted_norm_table


def cube_mean(values: np.ndarray, cube) -> float:
    sub = values[cube.slices]
    return float(sub.sum()) / sub.size


def brute_morrey_norm(f: GridFunction, p: float, p0: float, fidelity: str):
    best, best_cube = -np.inf, None
    for cube in iter_family(f.grid, fidelity):
        avg = cube_mean(np.abs(f.values) ** p, cube)
        val = cube.volume ** (1.0 / p0) * avg ** (1.0 / p)
        if val > best:
            best, best_cube = val, cube
    return best, best_cube


def sweep_morrey_norm(f: GridFunction, p: float, p0: float, fidelity: str | None = None,
                      support=None) -> Supremum:
    """The Morrey norm of one function as a sweep of its own: per side length,
    the window sums of its integral image (axis 0 first, box terms in the
    order hi,hi - lo,hi - hi,lo + lo,lo), and a scalar arg-sup that keeps each
    block's first maximum and replaces the best only on strict improvement.

    This is the unbatched sweep, with its own prefix sums and arg-sup;
    `morrey_norms` must equal it bit for bit, value and witness.  A `support` (a Cube) restricts f to the box and forces the
    aligned family.
    """
    grid = f.grid
    n, h = grid.ndim, grid.cell_side
    fid = "aligned" if support is not None else (fidelity or grid.default_fidelity())
    g = np.abs(f.values) ** p
    origin = (0,) * n
    if support is not None:
        g, origin = g[support.slices], support.lo
    prefix = np.zeros(tuple(m + 1 for m in g.shape))
    if n == 1:
        np.cumsum(g, out=prefix[1:])
    else:
        np.cumsum(np.cumsum(g, axis=0), axis=1, out=prefix[1:, 1:])
    best, best_cube = -np.inf, None
    for s, start_lists in family_blocks(grid, fid, max_side=min(g.shape)):
        if n == 1:
            sums = prefix[s:] - prefix[:-s]
        else:
            sums = prefix[s:, s:] - prefix[:-s, s:] - prefix[s:, :-s] + prefix[:-s, :-s]
        vol = (s * h) ** n
        c = vol ** (1.0 / p0) * (grid.cell_volume / vol) ** (1.0 / p)
        vals = c * np.power(np.maximum(sums, 0.0), 1.0 / p)
        if fid == "aligned":
            blocks = [(vals, None)]
        else:
            blocks = [(vals[np.ix_(*starts)], starts)
                      for starts in itertools.product(start_lists, repeat=n)]
        for blk, starts in blocks:
            k = int(np.argmax(blk))
            if blk.flat[k] > best:
                index = np.unravel_index(k, blk.shape)
                corner = index if starts is None else [a[i] for a, i in zip(starts, index)]
                best = float(blk.flat[k])
                best_cube = grid.aligned_cube([o + int(x) for o, x in zip(origin, corner)], s)
    return Supremum(best, best_cube)


def brute_ap_constant(w: GridFunction, p: float, fidelity: str) -> float:
    best = -np.inf
    for cube in iter_family(w.grid, fidelity):
        if p == 1:
            val = cube_mean(w.values, cube) / float(w.values[cube.slices].min())
        else:
            pc = p / (p - 1.0)
            val = cube_mean(w.values, cube) * cube_mean(w.values ** (1 - pc), cube) ** (p - 1)
        best = max(best, val)
    return best


def brute_apq_constant(w: GridFunction, p: float, q: float, fidelity: str) -> float:
    pc = p / (p - 1.0)
    best = -np.inf
    for cube in iter_family(w.grid, fidelity):
        val = cube_mean(w.values**q, cube) ** (1 / q) * cube_mean(w.values**-pc, cube) ** (1 / pc)
        best = max(best, val)
    return best


def brute_fractional_maximal(f: GridFunction, alpha: float, fidelity: str) -> np.ndarray:
    grid = f.grid
    out = np.zeros(grid.shape)
    g = np.abs(f.values)
    cubes = list(iter_family(grid, fidelity))
    for idx in np.ndindex(grid.shape):
        best = 0.0
        for cube in cubes:
            inside = all(lo <= i < hi for i, lo, hi in zip(idx, cube.lo, cube.hi))
            if inside:
                best = max(best, cube.volume ** (alpha / grid.ndim) * cube_mean(g, cube))
        out[idx] = best
    return out


def enumerate_dyadic_covers(grid: Grid, level: int, coords: tuple) -> list[list]:
    """All antichain covers of one dyadic subtree (exponential; tiny grids only)."""
    cube = grid.dyadic_cube(level, coords)
    covers = [[cube]]
    if level < grid.depth:
        child_covers = []
        for child in cube.children():
            ccoords = tuple(c // child.side_cells for c in child.lo)
            child_covers.append(enumerate_dyadic_covers(grid, level + 1, ccoords))
        if grid.ndim == 1:
            for ca in child_covers[0]:
                for cb in child_covers[1]:
                    covers.append(ca + cb)
        else:
            for ca in child_covers[0]:
                for cb in child_covers[1]:
                    for cc in child_covers[2]:
                        for cd in child_covers[3]:
                            covers.append(ca + cb + cc + cd)
    return covers


def brute_hausdorff_content(grid: Grid, mask: np.ndarray, lam: float) -> float:
    """Minimum cover cost over every dyadic cover (enumerated)."""
    if not mask.any():
        return 0.0
    best = np.inf
    for cover in enumerate_dyadic_covers(grid, 0, (0,) * grid.ndim):
        cost = 0.0
        for cube in cover:
            if mask[cube.slices].any():
                cost += cube.side_length**lam
        best = min(best, cost)
    return best


def content_values_batched(grid: Grid, masks: np.ndarray, lam: float) -> np.ndarray:
    """Dyadic contents of many cell sets at once (no covers); masks shape (K,) + grid.shape.

    The tree DP of `hausdorff_content` run on the whole stack of masks, with
    the same pooling, so each value equals that function's value bit for bit.
    Time and memory are O(K N).
    """
    h = grid.cell_side
    costs = np.where(masks, h**lam, 0.0)
    for level in range(grid.depth - 1, -1, -1):
        own = ((grid.cells_per_side >> level) * h) ** lam
        costs = np.minimum(own, level_sums(costs, level, grid.ndim))
    return costs.reshape(len(masks))


def choquet_threshold_masks(phi: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """The layer-cake data of phi >= 0: thresholds 0 < t_1 < ... (0 and every
    distinct positive value) and one mask {phi > t} per threshold but the last."""
    levels = np.unique(phi.values)
    thresholds = np.concatenate([[0.0], levels[levels > 0]])
    masks = phi.values[None, ...] > thresholds[:-1].reshape((-1,) + (1,) * phi.grid.ndim)
    return thresholds, masks


def choquet_by_masks(phi: GridFunction, lam: float) -> float:
    """Choquet integral with one grid-sized mask per threshold, summed in the
    same `np.sum(gaps * contents)` form as `choquet_integral`."""
    thresholds, masks = choquet_threshold_masks(phi)
    if thresholds.size == 1:
        return 0.0
    contents = content_values_batched(phi.grid, masks, lam)
    return float(np.sum(np.diff(thresholds) * contents))


def brute_choquet_riemann(phi: GridFunction, lam: float, steps: int = 4000) -> float:
    """Riemann-sum layer cake on a fine threshold grid (upper-level sets)."""
    from morreylab.content import hausdorff_content

    top = float(phi.values.max())
    if top == 0:
        return 0.0
    ts = np.linspace(0, top, steps, endpoint=False)
    dt = top / steps
    total = 0.0
    for t in ts:
        total += hausdorff_content(phi.grid, phi.values > t, lam).value * dt
    return total


def brute_norm_doubling_1d(table: IntervalNormTable, kappa: float) -> DoublingCheck | None:
    """The 1D doubling check as a loop over dyadic cubes and their scalar
    dilates, keeping the first cube with the smallest ratio; None when every
    dilate is clipped."""
    worst, worst_cube, count = math.inf, None, 0
    for cube in dyadic_cubes(table.grid):
        big = dilate(cube, kappa)
        if big.clipped:
            continue
        count += 1
        ratio = table.value(big.lo[0], big.hi[0]) / table.value(cube.lo[0], cube.hi[0])
        if ratio < worst:
            worst, worst_cube = ratio, cube
    if count == 0:
        return None
    return DoublingCheck(worst >= 2.0 * (1 - 1e-12), worst_cube, worst, kappa, count)


def brute_norm_doubling(w: GridFunction, q: float, q0: float, kappa: float) -> DoublingCheck | None:
    """The doubling check as a loop over dyadic cubes and their scalar
    `dilate`s, each restricted norm from its own `sweep_morrey_norm`, keeping
    the first cube with the smallest ratio; None when every dilate is clipped.
    (In 1D the library reads the interval table instead, whose rounding
    differs.)"""
    worst, worst_cube, count = math.inf, None, 0
    for cube in dyadic_cubes(w.grid):
        big = dilate(cube, kappa)
        if big.clipped:
            continue
        count += 1
        ratio = (sweep_morrey_norm(w, q, q0, support=big).value
                 / sweep_morrey_norm(w, q, q0, support=cube).value)
        if ratio < worst:
            worst, worst_cube = ratio, cube
    if count == 0:
        return None
    return DoublingCheck(worst >= 2.0 * (1 - 1e-12), worst_cube, worst, kappa, count)


def box_corners(lo, hi) -> list[tuple[tuple[int, ...], bool]]:
    """The 2^n integral-image corners of the box [lo, hi), each with whether
    it is subtracted, in the term order of `_windows.window_sums_2d` (axis
    0's end varies fastest, upper end first)."""
    out = []
    for ends in itertools.product(*[(b, a) for a, b in zip(reversed(lo), reversed(hi))]):
        corner = ends[::-1]
        out.append((corner, sum(c == a for c, a in zip(corner, lo)) % 2 == 1))
    return out


def box_sum(image: np.ndarray, corners) -> float:
    """Inclusion-exclusion over `box_corners` of a zero-bordered integral image."""
    total = 0.0
    for corner, subtract in corners:
        term = float(image[corner])
        total = total - term if subtract else total + term
    return total


def brute_balance_upper_supremum(w: GridFunction, exps, power_blocks=None) -> BalanceResult:
    """The balance upper end as a loop over dyadic cubes, in any dimension:
    per cube the indicator block in closed form, then each power block
    without zeros, replaced only on strict improvement; the first cube with
    the largest product wins.  Each block integral is the `box_sum` of a
    whole-grid integral image over the cube's `box_corners`, and each power is
    Python's scalar `**`."""
    grid = w.grid
    pc = exps.p_conj
    cellvol = grid.cell_volume
    prefix_sum, _ = window_kernels(grid.ndim)
    g = w.power(-1.0).values**pc
    images = [("candidate blocks (dyadic indicators closed form)", prefix_sum(g))]
    for cert in power_blocks or []:
        bv = cert.weight.values
        if np.any(bv <= 0):
            continue
        integrand = g * bv ** (1.0 - pc)
        images.append((f"candidate blocks (power: {cert.label})",
                       prefix_sum(np.where(np.isfinite(integrand), integrand, 0.0))))
    cubes = dyadic_cubes(grid)
    norm_parts = restricted_norm_table(w, exps.q, exps.q0).values(
        np.array([c.lo for c in cubes]), np.array([c.hi for c in cubes])).reshape(-1)
    best = None
    for cube, norm_part in zip(cubes, norm_parts.tolist()):
        corners = box_corners(cube.lo, cube.hi)
        sums = [box_sum(image, corners) * cellvol for _, image in images]
        upper_block = (cube.side_length ** (exps.lam * (pc - 1.0)) * sums[0]) ** (1.0 / pc)
        prov = images[0][0]
        for (label, _), s in zip(images[1:], sums[1:]):
            v = s ** (1.0 / pc)
            if v < upper_block:
                upper_block, prov = v, label
        prefactor = cube.volume ** (exps.alpha / grid.ndim - 1.0)
        val = prefactor * norm_part * upper_block
        if best is None or val > best.interval.upper:
            best = BalanceResult(cube, Interval(0.0, val, {"upper": prov}), norm_part, upper_block, None)
    return best
