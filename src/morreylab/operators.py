"""Maximal and fractional-integral operators on grid functions.

Per-cell quantifiers ("for all x") are evaluated at cell centers; since every
function is piecewise constant, suprema over a cell are attained there for the
families used.  Dilated cubes are clipped to the root but averaged against
their nominal volume (the function is zero outside the root), which keeps the
whole-space scaling of every constant.

The aligned M_alpha has two paths.  In 1D one pass over window start/end
pairs (`_windows.covering_pair_max`); in 2D one side length at a time
(`aligned_maximal_per_width`), which is also the 1D oracle of the pair pass.
The coefficient (s h)^alpha / s^n of each side s is a Python scalar `**`:
`np.power` rounds some of them differently in the last bit, and the two paths
agree bit for bit only on the same coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._windows import (
    broadcast_level,
    covering_pair_max,
    covering_window_extreme,
    level_sums,
    per_axis,
    prefix_sum_1d,
    tripled_sums,
    window_kernels,
)
from .grid import (
    Cube,
    DomainError,
    Fidelity,
    Grid,
    GridFunction,
    dilate,
    family_blocks,
    require_weight,
)


@dataclass(frozen=True)
class OperatorOutput:
    result: GridFunction
    tag: str
    params: dict = field(default_factory=dict, compare=False)

    @property
    def values(self) -> np.ndarray:
        return self.result.values


def fractional_maximal(f: GridFunction, alpha: float,
                       fidelity: Fidelity | None = None) -> OperatorOutput:
    """M_alpha f: per cell, sup over family cubes containing the cell of
    |Q|^(alpha/n) avg_Q |f|.  alpha = 0 is the Hardy-Littlewood maximal operator.
    """
    grid = f.grid
    ndim = grid.ndim
    if not 0 <= alpha < ndim:
        raise DomainError(f"need 0 <= alpha < n, got alpha={alpha}")
    fid: Fidelity = fidelity or grid.default_fidelity()
    h = grid.cell_side
    n = grid.cells_per_side
    if fid == "aligned":
        if ndim == 1:
            # scalar ** per width: np.power differs in the last bit
            coef = np.array([0.0] + [(s * h) ** alpha / s for s in range(1, n + 1)])
            out = covering_pair_max(prefix_sum_1d(np.abs(f.values)), coef)
        else:
            out = aligned_maximal_per_width(f, alpha)
    else:
        prefix_sum, window_sums = window_kernels(ndim)
        prefix = prefix_sum(np.abs(f.values))
        out = np.full(grid.shape, -np.inf)
        # strided start lists: along each axis a cell lies in at most one
        # cube of a list; the slot past the last start holds -inf (no cube)
        cells = np.arange(n)
        for s, start_lists in family_blocks(grid, fid):
            sums = (s * h) ** alpha / s**ndim * window_sums(prefix, s)
            for starts in itertools.product(start_lists, repeat=ndim):
                vals = np.full([len(a) + 1 for a in starts], -np.inf)
                vals[tuple(slice(len(a)) for a in starts)] = sums[np.ix_(*starts)]
                covering = [np.where((cells >= a[0]) & (cells < a[0] + s * len(a)),
                                     (cells - a[0]) // s, len(a)) for a in starts]
                np.maximum(out, vals[np.ix_(*covering)], out=out)
    return OperatorOutput(GridFunction(grid, out), "fractional_maximal",
                          {"alpha": alpha, "fidelity": fid})


def aligned_maximal_per_width(f: GridFunction, alpha: float) -> np.ndarray:
    """Aligned M_alpha f one side length at a time: each cell takes the extreme
    over the s-sided windows covering it, one axis at a time.

    This serves n >= 2, where a cube's one side ties the axes together; in 1D
    `fractional_maximal` uses `covering_pair_max` and this is its exact oracle.
    """
    grid = f.grid
    ndim = grid.ndim
    h = grid.cell_side
    n = grid.cells_per_side
    prefix_sum, window_sums = window_kernels(ndim)
    prefix = prefix_sum(np.abs(f.values))
    out = np.full(grid.shape, -np.inf)
    for s in range(1, n + 1):
        vals = (s * h) ** alpha / s**ndim * window_sums(prefix, s)
        np.maximum(out, per_axis(covering_window_extreme, vals, s, n), out=out)
    return out


def _dilated_scaled_averages(f: GridFunction, alpha: float, base: Cube,
                             alpha_weighting: bool) -> list[tuple[int, tuple, np.ndarray]]:
    """Per level within `base`: (level, dyadic coords of the first cube, scaled
    averages over 3Q of the level's cubes inside the base).

    With alpha_weighting the value is |Q|^(alpha/n) * avg_{3Q} f, otherwise the
    plain avg_{3Q} f.  Averages are taken against the nominal volume of 3Q.
    """
    grid = f.grid
    h = grid.cell_side
    cellvol = grid.cell_volume
    out = []
    for level in range(base.level, grid.depth + 1):
        s = grid.cells_per_side >> level
        block = level_sums(f.values, level, grid.ndim) * cellvol
        avg = tripled_sums(block) / (3 * s * h) ** grid.ndim
        scale = (s * h) ** alpha if alpha_weighting else 1.0
        first = tuple(a // s for a in base.lo)
        inside = tuple(slice(a // s, b // s) for a, b in zip(base.lo, base.hi))
        out.append((level, first, scale * avg[inside]))
    return out


def local_dyadic_maximal(f: GridFunction, alpha: float, base: Cube) -> OperatorOutput:
    """Local dyadic variant: sup over dyadic Q inside `base` containing x of
    |Q|^(alpha/n) avg_{3Q} |f|, defined on `base` (zero outside).
    """
    if not base.is_dyadic:
        raise DomainError("base cube must be dyadic")
    grid = f.grid
    g = abs(f)
    out = np.zeros(grid.shape)
    sub = np.full(base.extents, -np.inf)
    for level, _, vals in _dilated_scaled_averages(g, alpha, base, True):
        np.maximum(sub, broadcast_level(vals, grid.cells_per_side >> level), out=sub)
    out[base.slices] = sub
    return OperatorOutput(GridFunction(grid, out), "local_dyadic_maximal",
                          {"alpha": alpha, "base": base})


_KERNEL_CACHE: dict[tuple, np.ndarray] = {}


def _riesz_kernel_1d(grid: Grid, alpha: float) -> np.ndarray:
    key = (1, grid.depth, alpha)
    if key not in _KERNEL_CACHE:
        h = grid.cell_side
        n = grid.cells_per_side
        d = np.arange(1, n, dtype=np.float64)
        off = (d * h) ** (alpha - 1.0) * h
        # exact self-cell integral of |x-y|^(alpha-1) in 1D
        self_term = 2.0 * (h / 2.0) ** alpha / alpha
        koff = np.concatenate([[self_term], off])
        _KERNEL_CACHE[key] = np.concatenate([koff[:0:-1], koff])
    return _KERNEL_CACHE[key]


def _riesz_kernel_2d(grid: Grid, alpha: float) -> np.ndarray:
    key = (2, grid.depth, alpha)
    if key not in _KERNEL_CACHE:
        h = grid.cell_side
        n = grid.cells_per_side
        ax = (np.arange(n) + 0.5) * h
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        with np.errstate(divide="ignore"):
            kern = np.where(dist > 0, dist, 1.0) ** (alpha - 2.0) * h * h
        # self cell: bracket midpoint of the radial integrals over the
        # inscribed disc (r=h/2) and circumscribed disc (r=h/sqrt(2))
        r_in, r_out = h / 2.0, h / math.sqrt(2.0)
        self_term = math.pi * (r_in**alpha + r_out**alpha) / alpha
        np.fill_diagonal(kern, self_term)
        _KERNEL_CACHE[key] = kern
    return _KERNEL_CACHE[key]


def fractional_integral(f: GridFunction, alpha: float) -> OperatorOutput:
    """Riesz potential: I_alpha f(x) = int f(y) |x-y|^(alpha-n) dy by dense
    cell-to-cell kernel summation (center-to-center off the diagonal, exact or
    bracketed radial integral on the self cell).
    """
    grid = f.grid
    if not 0 < alpha < grid.ndim:
        raise DomainError(f"need 0 < alpha < n, got alpha={alpha}")
    if grid.ndim == 1:
        if grid.depth > 12:
            raise DomainError("dense 1D kernel summation is limited to depth <= 12")
        kern = _riesz_kernel_1d(grid, alpha)
        n = grid.cells_per_side
        out = np.convolve(f.values, kern, mode="full")[n - 1:2 * n - 1]
    else:
        if grid.depth > 6:
            raise DomainError("dense 2D kernel summation is limited to depth <= 6")
        kern = _riesz_kernel_2d(grid, alpha)
        out = (kern @ f.values.reshape(-1)).reshape(grid.shape)
    return OperatorOutput(GridFunction(grid, out), "fractional_integral", {"alpha": alpha})


def centered_weighted_maximal(f: GridFunction, sigma: GridFunction) -> OperatorOutput:
    """Centered maximal with respect to the measure sigma dx: per cell, sup over
    lattice cubes centered at the cell center (odd side lengths, clipped at the
    root; sigma vanishes outside, so the measure normalization is unaffected).
    """
    require_weight(sigma)
    grid = f.grid
    n = grid.cells_per_side
    num = np.abs(f.values) * sigma.values
    den = sigma.values
    out = np.full(grid.shape, -np.inf)
    # zero padding by the largest radius clips every cube to the root: the
    # padded integral image repeats the unpadded one's border values exactly
    pad = (n - 1) // 2
    prefix_sum, window_sums = window_kernels(grid.ndim)
    pn, pd = prefix_sum(np.pad(num, pad)), prefix_sum(np.pad(den, pad))
    for s in range(1, n + 1, 2):
        lo = pad - (s - 1) // 2
        sel = (slice(lo, lo + n + s),) * grid.ndim
        np.maximum(out, window_sums(pn[sel], s) / window_sums(pd[sel], s), out=out)
    return OperatorOutput(GridFunction(grid, out), "centered_weighted_maximal", {})


def dyadic_weighted_maximal(f: GridFunction, w: GridFunction) -> OperatorOutput:
    """Dyadic maximal with respect to w dx: sup over dyadic Q containing x of
    w(Q)^(-1) int_Q |f| w, evaluated exactly along each cell's ancestor chain.
    """
    require_weight(w)
    grid = f.grid
    num = np.abs(f.values) * w.values
    out = np.full(grid.shape, -np.inf)
    for level in range(grid.depth + 1):
        bn = level_sums(num, level, grid.ndim)
        bw = level_sums(w.values, level, grid.ndim)
        np.maximum(out, broadcast_level(bn / bw, grid.cells_per_side >> level), out=out)
    return OperatorOutput(GridFunction(grid, out), "dyadic_weighted_maximal", {})


def _check_disjoint_supports(family, attr: str, grid: Grid) -> None:
    count = np.zeros(grid.shape, dtype=np.int64)
    for sc in family.cubes:
        count += np.asarray(getattr(sc, attr), dtype=np.int64)
    if count.max(initial=0) > 1:
        raise DomainError("sparse family has overlapping ownership sets")


def sparse_maximal_form(f: GridFunction, family, alpha: float) -> OperatorOutput:
    """Sum over family cubes of 1_{E_Q} |Q|^(alpha/n) avg_{3Q} f (disjoint E_Q)."""
    grid = f.grid
    _check_disjoint_supports(family, "e_mask", grid)
    out = np.zeros(grid.shape)
    for sc in family.cubes:
        q = sc.cube
        term = q.volume ** (alpha / grid.ndim) * f.zero_extension_average(dilate(q, 3.0))
        out[np.asarray(sc.e_mask)] += term
    return OperatorOutput(GridFunction(grid, out), "sparse_maximal_form", {"alpha": alpha})


def sparse_integral_form(f: GridFunction, family, alpha: float) -> OperatorOutput:
    """Sum over family cubes of 1_Q |Q|^(alpha/n) avg_{3Q} f (full-cube indicators)."""
    grid = f.grid
    _check_disjoint_supports(family, "e_mask", grid)
    out = np.zeros(grid.shape)
    for sc in family.cubes:
        q = sc.cube
        term = q.volume ** (alpha / grid.ndim) * f.zero_extension_average(dilate(q, 3.0))
        out[q.slices] += term
    return OperatorOutput(GridFunction(grid, out), "sparse_integral_form", {"alpha": alpha})
