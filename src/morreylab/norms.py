"""Morrey norms and their weighted and dyadic variants.

The underlying quantity is always a supremum over a cube family of scaled
local averages.  Sweeps are vectorized per side length with prefix sums; the
maximum is reduced deterministically (sides ascending, lower corners
ascending, strict improvement wins) so results are run-to-run identical and
ties resolve to the smallest cube address.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._windows import prefix_sum_1d, prefix_sum_2d, window_sums_1d
from .grid import Cube, DomainError, Fidelity, Grid, GridFunction, family_blocks, require_weight

EXACT_SLACK = 1e-9
COUPLING_TOL = 1e-12


@dataclass(frozen=True)
class ExponentSet:
    """Exponent tuple (n, p, p0, q, q0, alpha, lam) with the coupling relations.

    The couplings are 1/q0 = 1/p0 - alpha/n, q/q0 = p/p0 and
    lam/n = 1 - p/p0 = 1 - q/q0; they are enforced to machine tolerance.
    """

    n: int
    p: float
    p0: float
    q: float
    q0: float
    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not (1 < self.p < self.p0):
            raise DomainError(f"need 1 < p < p0, got p={self.p}, p0={self.p0}")
        if not (1 < self.q < self.q0):
            raise DomainError(f"need 1 < q < q0, got q={self.q}, q0={self.q0}")
        if not (0 <= self.alpha < self.n):
            raise DomainError(f"need 0 <= alpha < n, got alpha={self.alpha}")
        checks = (
            abs(1 / self.q0 - (1 / self.p0 - self.alpha / self.n)),
            abs(self.q / self.q0 - self.p / self.p0),
            abs(self.lam / self.n - (1 - self.p / self.p0)),
            abs(self.lam / self.n - (1 - self.q / self.q0)),
        )
        if max(checks) > COUPLING_TOL:
            raise DomainError(f"exponent couplings violated by {max(checks):.3e}")
        if not (0 < self.lam < self.n):
            raise DomainError(f"need 0 < lam < n, got lam={self.lam}")

    @classmethod
    def coupled(cls, n: int, p: float, p0: float, alpha: float) -> ExponentSet:
        q0 = 1.0 / (1.0 / p0 - alpha / n)
        q = q0 * p / p0
        lam = n * (1.0 - p / p0)
        return cls(n=n, p=p, p0=p0, q=q, q0=q0, alpha=alpha, lam=lam)

    @classmethod
    def for_norms(cls, n: int, p: float, p0: float) -> ExponentSet:
        """Relaxed constructor for norm-only use: alpha = 0, so (q, q0) = (p, p0)."""
        return cls.coupled(n=n, p=p, p0=p0, alpha=0.0)

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)


def lambda_to_p0(p: float, lam: float, n: int) -> float:
    """Convert the (p, lam) form to the (p, p0) form via lam/n = 1 - p/p0."""
    if not 0 < lam < n:
        raise DomainError(f"need 0 < lam < n, got lam={lam}")
    return p / (1.0 - lam / n)


@dataclass(frozen=True)
class NormResult:
    value: float
    cube: Cube | None

    def __float__(self) -> float:
        return self.value


def _sweep_max_1d(grid: Grid, g: np.ndarray, coef, root_lo: int, root_hi: int,
                  fidelity: Fidelity, exponent: float) -> tuple[float, tuple[int, int]]:
    """max over family cubes inside [root_lo, root_hi) of coef(s) * wsum^exponent."""
    prefix = prefix_sum_1d(g)
    best, best_cube = -np.inf, None
    max_side = root_hi - root_lo
    for s, start_lists in family_blocks(grid, fidelity, max_side=max_side):
        c = coef(s)
        for starts in start_lists:
            sel = starts[(starts >= root_lo) & (starts + s <= root_hi)]
            if sel.size == 0:
                continue
            sums = prefix[sel + s] - prefix[sel]
            vals = c * np.power(np.maximum(sums, 0.0), exponent)
            k = int(np.argmax(vals))
            if vals[k] > best:
                best = float(vals[k])
                best_cube = (int(sel[k]), s)
    if best_cube is None:
        raise DomainError("empty cube family")
    return best, best_cube


def _sweep_max_2d(grid: Grid, g: np.ndarray, coef, lo: tuple[int, int],
                  hi: tuple[int, int], fidelity: Fidelity,
                  exponent: float) -> tuple[float, tuple[tuple[int, int], int]]:
    prefix = prefix_sum_2d(g)
    best, best_cube = -np.inf, None
    max_side = min(hi[0] - lo[0], hi[1] - lo[1])
    for s, start_lists in family_blocks(grid, fidelity, max_side=max_side):
        c = coef(s)
        for sa in start_lists:
            for sb in start_lists:
                ia = sa[(sa >= lo[0]) & (sa + s <= hi[0])]
                ib = sb[(sb >= lo[1]) & (sb + s <= hi[1])]
                if ia.size == 0 or ib.size == 0:
                    continue
                sums = (prefix[np.ix_(ia + s, ib + s)] - prefix[np.ix_(ia, ib + s)]
                        - prefix[np.ix_(ia + s, ib)] + prefix[np.ix_(ia, ib)])
                vals = c * np.power(np.maximum(sums, 0.0), exponent)
                k = int(np.argmax(vals))
                ki, kj = divmod(k, vals.shape[1])
                if vals[ki, kj] > best:
                    best = float(vals[ki, kj])
                    best_cube = ((int(ia[ki]), int(ib[kj])), s)
    if best_cube is None:
        raise DomainError("empty cube family")
    return best, best_cube


def morrey_norm(f: GridFunction, p: float, p0: float,
                fidelity: Fidelity | None = None,
                support: Cube | None = None) -> NormResult:
    """sup over cubes Q of |Q|^(1/p0) (avg_Q |f|^p)^(1/p), with the attaining cube.

    If `support` is given the function is restricted to it and the supremum is
    searched over aligned sub-cubes of the support box only.  For functions
    vanishing outside the support this is exact for the aligned family: any
    cube can be shrunk to an aligned sub-cube of the support without
    decreasing the value (the shrunk cube need not be dyadic, so the aligned
    family is forced in this mode).
    """
    if p > p0:
        raise DomainError(f"need p <= p0, got p={p} > p0={p0}")
    grid = f.grid
    fid: Fidelity = fidelity or grid.default_fidelity()
    if support is not None:
        fid = "aligned"
    h = grid.cell_side
    n = grid.ndim
    g = np.abs(f.values) ** p
    if support is not None:
        masked = np.zeros_like(g)
        masked[support.slices] = g[support.slices]
        g = masked
        lo, hi = support.lo, support.hi
    else:
        lo, hi = (0,) * n, (grid.cells_per_side,) * n

    cellvol = grid.cell_volume

    def coef(s: int) -> float:
        vol = (s * h) ** n
        return vol ** (1.0 / p0) * (cellvol / vol) ** (1.0 / p)

    if n == 1:
        best, (start, s) = _sweep_max_1d(grid, g, coef, lo[0], hi[0], fid, 1.0 / p)
        cube = grid.aligned_cube((start,), s)
    else:
        best, ((i, j), s) = _sweep_max_2d(grid, g, coef, lo, hi, fid, 1.0 / p)
        cube = grid.aligned_cube((i, j), s)
    return NormResult(best, cube)


def morrey_norm_lambda(f: GridFunction, p: float, lam: float,
                       fidelity: Fidelity | None = None,
                       support: Cube | None = None) -> NormResult:
    """Same supremum in the (p, lam) parameterization."""
    return morrey_norm(f, p, lambda_to_p0(p, lam, f.grid.ndim), fidelity, support)


def weighted_morrey_norm(f: GridFunction, w: GridFunction, p: float, p0: float,
                         fidelity: Fidelity | None = None,
                         support: Cube | None = None) -> NormResult:
    """Norm of the pointwise product f*w; the weight must be strictly positive."""
    require_weight(w)
    return morrey_norm(f * w, p, p0, fidelity, support)


def lp_norm(f: GridFunction, p: float) -> float:
    """Plain L^p norm over the root."""
    return float(np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p)


def weighted_lp_norm(f: GridFunction, w: GridFunction, p: float) -> float:
    """L^p norm with respect to the measure w dx."""
    return float(np.sum(np.abs(f.values) ** p * w.values) * f.grid.cell_volume) ** (1.0 / p)


def _level_block_sums(values: np.ndarray, level: int, grid: Grid) -> np.ndarray:
    """Sums of cell values over the dyadic cubes of one level (raw, no cell volume)."""
    s = grid.cells_per_side >> level
    if grid.ndim == 1:
        return values.reshape(1 << level, s).sum(axis=1)
    k = 1 << level
    return values.reshape(k, s, k, s).sum(axis=(1, 3))


def dyadic_weighted_morrey_norm(f: GridFunction, w: GridFunction, p: float,
                                lam: float) -> NormResult:
    """sup over dyadic Q of ( w(Q)^(-lam/n) * int_Q |f|^p w )^(1/p)."""
    require_weight(w)
    grid = f.grid
    if not 0 < lam < grid.ndim:
        raise DomainError(f"need 0 < lam < n, got lam={lam}")
    cellvol = grid.cell_volume
    num = np.abs(f.values) ** p * w.values
    best, best_cube = -np.inf, None
    for level in range(grid.depth + 1):
        s_num = _level_block_sums(num, level, grid) * cellvol
        s_w = _level_block_sums(w.values, level, grid) * cellvol
        vals = (s_w ** (-lam / grid.ndim) * s_num) ** (1.0 / p)
        k = int(np.argmax(vals))
        v = float(vals.reshape(-1)[k])
        if v > best:
            best = v
            coords = (k,) if grid.ndim == 1 else divmod(k, vals.shape[1])
            best_cube = grid.dyadic_cube(level, coords)
    return NormResult(best, best_cube)


def dyadic_weighted_morrey_values(g: GridFunction, w: GridFunction, p: float,
                                  lam: float) -> list[np.ndarray]:
    """Per-level arrays of the dyadic weighted Morrey functional (for localized checks)."""
    grid = g.grid
    cellvol = grid.cell_volume
    num = np.abs(g.values) ** p * w.values
    out = []
    for level in range(grid.depth + 1):
        s_num = _level_block_sums(num, level, grid) * cellvol
        s_w = _level_block_sums(w.values, level, grid) * cellvol
        out.append((s_w ** (-lam / grid.ndim) * s_num) ** (1.0 / p))
    return out


@dataclass(frozen=True)
class HolderCheck:
    lhs: float
    rhs: float
    ok: bool


def holder_morrey_check(f: GridFunction, g: GridFunction, b: GridFunction,
                        p: float) -> HolderCheck:
    """Exact Hölder inequality int f g <= (int f^p b)^(1/p) (int g^p' b^(1-p'))^(1/p').

    Requires f, g >= 0 and b > 0; the inequality is exact (not up to constant)
    and must always hold up to relative slack 1e-9.
    """
    if np.any(f.values < 0) or np.any(g.values < 0):
        raise DomainError("holder check requires nonnegative f and g")
    require_weight(b)
    pc = p / (p - 1.0)
    cellvol = f.grid.cell_volume
    lhs = float(np.sum(f.values * g.values)) * cellvol
    t1 = float(np.sum(f.values**p * b.values)) * cellvol
    t2 = float(np.sum(g.values**pc * b.values ** (1.0 - pc))) * cellvol
    rhs = t1 ** (1.0 / p) * t2 ** (1.0 / pc)
    return HolderCheck(lhs, rhs, lhs <= rhs * (1.0 + EXACT_SLACK))


class IntervalNormTable:
    """All restricted Morrey norms of one function over 1D cell intervals.

    table.value(lo, hi) equals morrey_norm(f restricted to [lo, hi), aligned
    family, support=[lo, hi)) and costs O(1) after an O(N^2) build.  Used by
    the doubling search where many thousands of restricted norms are needed.
    """

    def __init__(self, f: GridFunction, p: float, p0: float):
        grid = f.grid
        if grid.ndim != 1:
            raise DomainError("interval tables are 1D only")
        self.grid = grid
        n = grid.cells_per_side
        h = grid.cell_side
        g = np.abs(f.values) ** p
        prefix = prefix_sum_1d(g)
        cellvol = grid.cell_volume
        rows: list[np.ndarray] = [np.empty(0)]  # rows[s][i] = norm over [i, i+s)
        for s in range(1, n + 1):
            vol = s * h
            c = vol ** (1.0 / p0) * (cellvol / vol) ** (1.0 / p)
            vals = c * np.maximum(window_sums_1d(prefix, s), 0.0) ** (1.0 / p)
            if s > 1:
                prev = rows[s - 1]
                vals = np.maximum(vals, np.maximum(prev[:-1], prev[1:]))
            rows.append(vals)
        self._rows = rows

    def value(self, lo: int, hi: int) -> float:
        return float(self._rows[hi - lo][lo])

    def values(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """`value` over arrays of intervals [lo[k], hi[k])."""
        width = hi - lo
        out = np.empty(width.shape)
        for s in np.unique(width):
            sel = width == s
            out[sel] = self._rows[s][lo[sel]]
        return out
