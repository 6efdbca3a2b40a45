"""Morrey norms and their weighted and dyadic variants.

The underlying quantity is always a supremum over a cube family of scaled
local averages, swept once for any dimension by `grid.family_sup`: per side
length, the window sums of an integral image, then a deterministic arg-sup
(sides ascending, lower corners ascending, strict improvement wins), so
results are run-to-run identical and ties resolve to the smallest cube
address.  The order of every sum and the tie order are fixed in `_windows`.
A restricted norm sweeps the support's own sub-array; its integral image
equals that of the zero-extended function on the support exactly.

`morrey_norms` runs that sweep for a batch: many functions on one grid, or
many supports of one function, stacked by box shape along a leading axis, so
each side length costs one numpy pass for the whole stack.  Every kernel acts
on each item's slice alone, with the same operations in the same order, and
the arg-sup keeps one best per item, so each item's value and witness are
those of its own sweep; `morrey_norm` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._windows import ArgSup, first_max, level_sums, prefix_sum_1d, window_kernels, window_sums_1d
from .grid import (
    Cube,
    DomainError,
    Fidelity,
    GridFunction,
    Suprema,
    Supremum,
    family_sup,
    require_weight,
)

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


# cells per stack of `morrey_norms` (items times cells per item): each of the
# sweep's few temporaries is then at most 128 kB.  At 2^16 a 2D L=5 condition
# report ran about as fast but peaked 2 MB (6 %) higher.
_BATCH_CELLS = 1 << 14


def morrey_norms(fs: Sequence[GridFunction], p: float, p0: float,
                 fidelity: Fidelity | None = None,
                 supports: Sequence | None = None) -> Suprema:
    """`morrey_norm` of a batch of items in one numpy pass per side length.

    Item i is `fs[i]` over the whole grid or, when `supports` is given,
    restricted to `supports[i]`: a Cube, or a (lo, hi) pair of corners in
    cells.  Many supports of one function pass the function once per support;
    |f|^p is computed once per distinct function.  Items whose boxes have one
    shape are gathered into a stack along a leading batch axis, at most
    `_BATCH_CELLS` cells per stack.  Each item's sweep reads only its own
    slice of the stack, with the sums and the tie order of a sweep of its
    own, so item i equals `morrey_norm` of that item alone, value and
    witness, bit for bit.
    """
    if p > p0:
        raise DomainError(f"need p <= p0, got p={p} > p0={p0}")
    if not fs:
        raise DomainError("empty batch")
    grid = fs[0].grid
    if any(f.grid is not grid and f.grid != grid for f in fs):
        raise DomainError("the functions of a batch must share one grid")
    n = grid.ndim
    fid: Fidelity = fidelity or grid.default_fidelity()
    # |f|^p once per distinct function; item i reads row which[i]
    rows: dict[int, int] = {}
    which = np.array([rows.setdefault(id(f), len(rows)) for f in fs])
    powered = np.stack([np.abs(f.values) ** p for f in {id(f): f for f in fs}.values()])
    if supports is None:
        origins = np.zeros((len(fs), n), dtype=np.int64)
        ends = np.full((len(fs), n), grid.cells_per_side, dtype=np.int64)
    else:
        if len(supports) != len(fs):
            raise DomainError("need one support per function")
        fid = "aligned"
        boxes = [(c.lo, c.hi) if isinstance(c, Cube) else c for c in supports]
        origins = np.array([lo for lo, _ in boxes], dtype=np.int64).reshape(len(fs), n)
        ends = np.array([hi for _, hi in boxes], dtype=np.int64).reshape(len(fs), n)
        if np.any(origins < 0) or np.any(ends > grid.cells_per_side) or np.any(ends <= origins):
            raise DomainError("support outside the root or empty")

    h = grid.cell_side
    cellvol = grid.cell_volume
    prefix_sum, window_sums = window_kernels(n)
    values = np.empty(len(fs))
    corners = np.empty((len(fs), n), dtype=np.int64)
    sides = np.empty(len(fs), dtype=np.int64)
    # the items grouped by box shape with a sort: np.unique's first call
    # costs the process about 0.4 MB
    extents = ends - origins
    shape_codes = np.ravel_multi_index(tuple((extents - 1).T), (grid.cells_per_side,) * n)
    by_shape = np.argsort(shape_codes, kind="stable")
    for items in np.split(by_shape, np.flatnonzero(np.diff(shape_codes[by_shape])) + 1):
        shape = extents[items[0]].tolist()
        per_stack = max(1, _BATCH_CELLS // math.prod(shape))
        for start in range(0, len(items), per_stack):
            sel = items[start:start + per_stack]
            # gather each item's box: one row per item, one index per cell
            index = [which[sel].reshape((-1,) + (1,) * n)]
            for axis, extent in enumerate(shape):
                cells = np.arange(extent).reshape((-1,) + (1,) * (n - 1 - axis))
                index.append(origins[sel, axis].reshape((-1,) + (1,) * n) + cells)
            prefix = prefix_sum(powered[tuple(index)])

            def window_values(s: int) -> np.ndarray:
                vol = (s * h) ** n
                c = vol ** (1.0 / p0) * (cellvol / vol) ** (1.0 / p)
                return c * np.power(np.maximum(window_sums(prefix, s), 0.0), 1.0 / p)

            res = family_sup(grid, fid, window_values,
                             None if supports is None else origins[sel], max_side=min(shape))
            values[sel] = res.values
            corners[sel] = res.corners
            sides[sel] = res.sides
    return Suprema(grid, values, corners, sides)


def morrey_norm(f: GridFunction, p: float, p0: float,
                fidelity: Fidelity | None = None,
                support: Cube | None = None) -> Supremum:
    """sup over cubes Q of |Q|^(1/p0) (avg_Q |f|^p)^(1/p), with the attaining cube.

    If `support` is given the function is restricted to it and the supremum is
    searched over aligned sub-cubes of the support box only.  For functions
    vanishing outside the support this is exact for the aligned family: any
    cube can be shrunk to an aligned sub-cube of the support without
    decreasing the value (the shrunk cube need not be dyadic, so the aligned
    family is forced in this mode).  This is `morrey_norms` for a batch of one.
    """
    return morrey_norms([f], p, p0, fidelity, None if support is None else [support])[0]


def morrey_norm_lambda(f: GridFunction, p: float, lam: float,
                       fidelity: Fidelity | None = None,
                       support: Cube | None = None) -> Supremum:
    """Same supremum in the (p, lam) parameterization."""
    return morrey_norm(f, p, lambda_to_p0(p, lam, f.grid.ndim), fidelity, support)


def weighted_morrey_norm(f: GridFunction, w: GridFunction, p: float, p0: float,
                         fidelity: Fidelity | None = None,
                         support: Cube | None = None) -> Supremum:
    """Norm of the pointwise product f*w; the weight must be strictly positive."""
    require_weight(w)
    return morrey_norm(f * w, p, p0, fidelity, support)


def lp_norm(f: GridFunction, p: float) -> float:
    """Plain L^p norm over the root."""
    return float(np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p)


def weighted_lp_norm(f: GridFunction, w: GridFunction, p: float) -> float:
    """L^p norm with respect to the measure w dx."""
    return float(np.sum(np.abs(f.values) ** p * w.values) * f.grid.cell_volume) ** (1.0 / p)


def dyadic_weighted_morrey_norm(f: GridFunction, w: GridFunction, p: float,
                                lam: float) -> Supremum:
    """sup over dyadic Q of ( w(Q)^(-lam/n) * int_Q |f|^p w )^(1/p)."""
    require_weight(w)
    grid = f.grid
    if not 0 < lam < grid.ndim:
        raise DomainError(f"need 0 < lam < n, got lam={lam}")
    cellvol = grid.cell_volume
    num = np.abs(f.values) ** p * w.values
    sup, blocks = ArgSup(), []
    for level in range(grid.depth + 1):
        s_num = level_sums(num, level, grid.ndim) * cellvol
        s_w = level_sums(w.values, level, grid.ndim) * cellvol
        blocks.append(((s_w ** (-lam / grid.ndim) * s_num) ** (1.0 / p))[None])
        sup.offer(blocks[-1], level)
    value, block = sup.best()
    level = int(block[0])
    index = np.unravel_index(first_max(blocks[level])[0], blocks[level].shape[1:])
    return Supremum(float(value[0]), grid.dyadic_cube(level, index))


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


# The largest IntervalNormTable built, in floats: 1D depth 13 (N = 8192, 268 MB)
# fits, depth 14 (1.07 GB) does not.
MAX_TABLE_FLOATS = 1 << 26


def _interval_norm_rows(f: GridFunction, p: float, p0: float):
    """Yield, for s = 1..N in turn, the row of restricted Morrey norms over the
    1D cell intervals [i, i+s) of width s: the larger of the interval's own
    scaled window norm and the entries of its two width-(s-1) sub-intervals,
    so only the previous row need be held."""
    grid = f.grid
    if grid.ndim != 1:
        raise DomainError("interval tables are 1D only")
    h = grid.cell_side
    prefix = prefix_sum_1d(np.abs(f.values) ** p)
    cellvol = grid.cell_volume
    prev = None
    for s in range(1, grid.cells_per_side + 1):
        vol = s * h
        c = vol ** (1.0 / p0) * (cellvol / vol) ** (1.0 / p)
        row = c * np.maximum(window_sums_1d(prefix, s), 0.0) ** (1.0 / p)
        if prev is not None:
            row = np.maximum(row, np.maximum(prev[:-1], prev[1:]))
        yield row
        prev = row


class IntervalNormTable:
    """All restricted Morrey norms of one function over 1D cell intervals.

    table.value(lo, hi) equals morrey_norm(f restricted to [lo, hi), aligned
    family, support=[lo, hi)) up to rounding and costs O(1) after an O(N^2)
    build that keeps every row of `_interval_norm_rows`: N(N+1)/2 floats, so
    a table of more than MAX_TABLE_FLOATS raises DomainError before anything
    is allocated.  Used by the doubling search, which reads intervals of every
    width.
    """

    def __init__(self, f: GridFunction, p: float, p0: float):
        n = f.grid.cells_per_side
        if n * (n + 1) // 2 > MAX_TABLE_FLOATS:
            raise DomainError(f"an interval norm table of {n} cells needs "
                              f"{n * (n + 1) // 2} floats, over {MAX_TABLE_FLOATS}")
        self.grid = f.grid
        self._rows = [np.empty(0), *_interval_norm_rows(f, p, p0)]  # rows[s][i]: [i, i+s)

    def _read(self, s: int, lo: np.ndarray) -> np.ndarray:
        return self._rows[s][lo]

    def value(self, lo: int, hi: int) -> float:
        return float(self._read(hi - lo, lo))

    def values(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """`value` over arrays of intervals [lo[k], hi[k]) of any one shape
        (a 1D box corner array, shape (k, 1), included)."""
        width = hi - lo
        if width.size and np.all(width == width.flat[0]):
            return self._read(int(width.flat[0]), lo)
        out = np.empty(width.shape)
        for s in np.unique(width):
            sel = width == s
            out[sel] = self._read(int(s), lo[sel])
        return out


class DyadicNormTable(IntervalNormTable):
    """The entries of IntervalNormTable at the dyadic intervals only.

    It runs the same row sweep and keeps rows[2^k][::2^k] of each dyadic
    width, dropping every row once the next is built, so it holds O(N) floats
    and its entries equal the full table's bit for bit.  Reading any other
    interval raises DomainError.  Used by the balance supremum, which reads
    dyadic cubes only.
    """

    def __init__(self, f: GridFunction, p: float, p0: float):
        self._rows = {s: row[::s].copy()
                      for s, row in enumerate(_interval_norm_rows(f, p, p0), 1)
                      if s & (s - 1) == 0}

    def _read(self, s: int, lo: np.ndarray) -> np.ndarray:
        if s not in self._rows or np.any(lo % s):
            raise DomainError(f"not a dyadic interval of width {s}")
        return self._rows[s][lo // s]


class SupportNormCache:
    """Restricted Morrey norms of one function, each support evaluated once.

    `values(lo, hi)` takes boxes as int arrays of lower and upper corners,
    shape (k, n), and returns `morrey_norm(f, p, p0, support=box).value` for
    each.  The boxes not asked for before go to one `morrey_norms` call; the
    rest are read back.  Boxes are kept as one int64 code each (their 2n
    corner coordinates in base N+1, which fits up to 2D depth 15) in a sorted
    array beside their values, 16 bytes a box; it grows with the distinct
    boxes asked for, so it serves one search over one function and is then
    dropped.
    """

    def __init__(self, f: GridFunction, p: float, p0: float):
        self.grid = f.grid
        self._args = (f, p, p0)
        self._codes = np.empty(0, dtype=np.int64)
        self._values = np.empty(0)

    def values(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        corners = np.concatenate([lo, hi], axis=1)
        codes = np.ravel_multi_index(tuple(corners.T),
                                     (self.grid.cells_per_side + 1,) * corners.shape[1])
        pos = np.searchsorted(self._codes, codes)
        known = pos < len(self._codes)
        known[known] = self._codes[pos[known]] == codes[known]
        if not known.all():
            # the first row of each new code, in code order
            fresh = np.flatnonzero(~known)
            fresh = fresh[np.argsort(codes[fresh], kind="stable")]
            rows = fresh[np.concatenate([[True], np.diff(codes[fresh]) != 0])]
            f, p, p0 = self._args
            res = morrey_norms([f] * len(rows), p, p0,
                               supports=list(zip(lo[rows].tolist(), hi[rows].tolist())))
            codes_all = np.concatenate([self._codes, codes[rows]])
            order = np.argsort(codes_all)
            self._codes = codes_all[order]
            self._values = np.concatenate([self._values, res.values])[order]
            pos = np.searchsorted(self._codes, codes)
        return self._values[pos]


def _norm_reader(interval_table: type[IntervalNormTable], f: GridFunction, p: float,
                 p0: float) -> IntervalNormTable | SupportNormCache:
    if f.grid.ndim == 1:
        return interval_table(f, p, p0)
    return SupportNormCache(f, p, p0)


def restricted_norm_table(f: GridFunction, p: float,
                          p0: float) -> IntervalNormTable | SupportNormCache:
    """The restricted norms of f that a doubling search reads, by box: in 1D
    the all-interval IntervalNormTable (every interval at once, in its own
    rounding), otherwise a SupportNormCache (`morrey_norm` exactly)."""
    return _norm_reader(IntervalNormTable, f, p, p0)


def dyadic_norm_table(f: GridFunction, p: float,
                      p0: float) -> DyadicNormTable | SupportNormCache:
    """`restricted_norm_table` for a reader of dyadic cubes only: in 1D the
    O(N)-memory DyadicNormTable, whose entries equal the interval table's;
    otherwise the same SupportNormCache."""
    return _norm_reader(DyadicNormTable, f, p, p0)
