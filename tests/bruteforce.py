"""Independent brute-force oracles for small grids.

Everything here is written as direct loops over explicitly materialized cube
families, deliberately avoiding the library's prefix-sum sweeps, so the fast
paths can be checked against them exactly.
"""

from __future__ import annotations

import math

import numpy as np

from morreylab.conditions import DoublingCheck
from morreylab.grid import Grid, GridFunction, dilate, dyadic_cubes, iter_family
from morreylab.norms import IntervalNormTable


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
