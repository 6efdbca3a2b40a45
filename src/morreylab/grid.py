"""Dyadic grids on the unit cube, cube arithmetic, and piecewise-constant functions.

Everything lives on the half-open root cube [0,1)^n with n in {1, 2}.  A grid of
depth L partitions the root into 2^(nL) congruent cells; cubes are addressed in
integer cell units, so all integrals of piecewise-constant functions are exact
finite sums and no quadrature error enters any downstream quantity.

Functions are implicitly extended by zero outside the root.  Dilated cubes that
stick out of the root are clipped (and flagged); their *nominal* volume is kept
so that averages over dilates can use the whole-space normalization.

All objects are immutable; every operation is a pure function.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from ._windows import ArgSup, first_max

Fidelity = Literal["dyadic", "aligned", "shifted"]

_SNAP_TOL = 1e-9


class DomainError(ValueError):
    """A cube or parameter left the supported domain."""


@dataclass(frozen=True)
class Grid:
    """Dyadic discretization of [0,1)^n with 2^depth cells per side."""

    ndim: int
    depth: int

    def __post_init__(self) -> None:
        if self.ndim not in (1, 2):
            raise DomainError(f"only dimensions 1 and 2 are supported, got {self.ndim}")
        if not 0 <= self.depth <= 24:
            raise DomainError(f"depth must be in [0, 24], got {self.depth}")

    @property
    def cells_per_side(self) -> int:
        return 1 << self.depth

    @property
    def cell_side(self) -> float:
        return 2.0 ** (-self.depth)

    @property
    def cell_volume(self) -> float:
        return self.cell_side**self.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_side,) * self.ndim

    @property
    def cell_count(self) -> int:
        return self.cells_per_side**self.ndim

    def default_fidelity(self) -> Fidelity:
        # Exhaustive aligned sweeps are affordable in 1D; 2D defaults to dyadic
        # with the aligned family reserved for small-depth oracle checks.
        return "aligned" if self.ndim == 1 else "dyadic"

    def root(self) -> Cube:
        n = self.cells_per_side
        return Cube(self, (0,) * self.ndim, (n,) * self.ndim)

    def dyadic_cube(self, level: int, coords: Sequence[int]) -> Cube:
        if not 0 <= level <= self.depth:
            raise DomainError(f"dyadic level {level} outside [0, {self.depth}]")
        side = self.cells_per_side >> level
        lo = tuple(int(c) * side for c in coords)
        hi = tuple(x + side for x in lo)
        return Cube(self, lo, hi)

    def aligned_cube(self, lo: Sequence[int], side_cells: int) -> Cube:
        lo_t = tuple(int(x) for x in lo)
        hi_t = tuple(x + int(side_cells) for x in lo_t)
        return Cube(self, lo_t, hi_t)

    def axis_centers(self) -> np.ndarray:
        """Physical coordinates of cell centers along one axis."""
        n = self.cells_per_side
        return (np.arange(n) + 0.5) * self.cell_side

    def cell_centers(self) -> np.ndarray:
        """Cell-center coordinates, shape grid.shape + (ndim,)."""
        axes = np.meshgrid(*(self.axis_centers(),) * self.ndim, indexing="ij")
        return np.stack(axes, axis=-1)


@dataclass(frozen=True)
class Cube:
    """Axis-parallel box in cell units, contained in the root.

    Unclipped cubes are squares.  Clipping a dilated cube to the root may break
    squareness in 2D; such cubes carry ``clipped=True`` and remember the side
    length of the unclipped original in ``nominal_side_cells``.
    """

    grid: Grid
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    clipped: bool = False
    nominal_side_cells: float | None = None

    def __post_init__(self) -> None:
        n = self.grid.cells_per_side
        if len(self.lo) != self.grid.ndim or len(self.hi) != self.grid.ndim:
            raise DomainError("cube corner dimension mismatch")
        for a, b in zip(self.lo, self.hi):
            if not (0 <= a < b <= n):
                raise DomainError(f"cube [{self.lo}, {self.hi}) outside root or empty")
        if not self.clipped and len(set(self.extents)) != 1:
            raise DomainError("unclipped cubes must be squares")

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def side_cells(self) -> int:
        ext = self.extents
        if len(set(ext)) != 1:
            raise DomainError("clipped cube is not square; use extents")
        return ext[0]

    @property
    def side_length(self) -> float:
        return self.side_cells * self.grid.cell_side

    @property
    def nominal_side_length(self) -> float:
        if self.nominal_side_cells is not None:
            return self.nominal_side_cells * self.grid.cell_side
        return self.side_length

    @property
    def volume(self) -> float:
        v = 1.0
        for e in self.extents:
            v *= e * self.grid.cell_side
        return v

    @property
    def nominal_volume(self) -> float:
        return self.nominal_side_length**self.grid.ndim

    @property
    def center(self) -> tuple[float, ...]:
        h = self.grid.cell_side
        return tuple((a + b) / 2.0 * h for a, b in zip(self.lo, self.hi))

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.extents))

    @property
    def is_dyadic(self) -> bool:
        ext = self.extents
        s = ext[0]
        if any(e != s for e in ext):
            return False
        if s & (s - 1):  # not a power of two
            return False
        return all(a % s == 0 for a in self.lo)

    @property
    def level(self) -> int:
        if not self.is_dyadic:
            raise DomainError("level is defined for dyadic cubes only")
        return self.grid.depth - self.side_cells.bit_length() + 1

    @property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, b) for a, b in zip(self.lo, self.hi))

    def contains(self, other: Cube) -> bool:
        return all(
            a <= oa and ob <= b
            for a, oa, ob, b in zip(self.lo, other.lo, other.hi, self.hi)
        )

    def parent(self) -> Cube:
        if self.level == 0:
            raise DomainError("root cube has no parent")
        s = self.side_cells
        lo = tuple((a // (2 * s)) * 2 * s for a in self.lo)
        return Cube(self.grid, lo, tuple(a + 2 * s for a in lo))

    def children(self) -> list[Cube]:
        s = self.side_cells
        if s == 1:
            return []
        half = s // 2
        out = []
        for off in itertools.product((0, half), repeat=self.grid.ndim):
            lo = tuple(a + o for a, o in zip(self.lo, off))
            out.append(Cube(self.grid, lo, tuple(a + half for a in lo)))
        return out

    def mask(self) -> np.ndarray:
        m = np.zeros(self.grid.shape, dtype=bool)
        m[self.slices] = True
        return m

    def address(self) -> tuple:
        """Deterministic sort key: (max extent, lower corner)."""
        return (max(self.extents), self.lo)


def dilate(cube: Cube, factor: float) -> Cube:
    """Concentric dilation snapped outward to the cell lattice and clipped to the root.

    The result always contains the exact dilate intersected with the root.  The
    unclipped side length is recorded in ``nominal_side_cells`` so callers can
    form whole-space averages of zero-extended functions.
    """
    if factor < 1:
        raise DomainError(f"dilation factor must be >= 1, got {factor}")
    n = cube.grid.cells_per_side
    lo_new, hi_new, clipped = [], [], False
    nominal = factor * max(cube.extents)
    for a, b in zip(cube.lo, cube.hi):
        c = (a + b) / 2.0
        half = factor * (b - a) / 2.0
        lo_f, hi_f = c - half, c + half
        lo_i = math.floor(lo_f + _SNAP_TOL)
        hi_i = math.ceil(hi_f - _SNAP_TOL)
        if lo_i < 0 or hi_i > n:
            clipped = True
        lo_new.append(max(lo_i, 0))
        hi_new.append(min(hi_i, n))
    return Cube(cube.grid, tuple(lo_new), tuple(hi_new), clipped=clipped,
                nominal_side_cells=nominal)


def dilate_intervals(lo: np.ndarray, hi: np.ndarray,
                     factor: float) -> tuple[np.ndarray, np.ndarray]:
    """`dilate` along one axis for arrays of cell intervals [lo, hi), unclipped.

    The ends are snapped with the float operations of `dilate`, so they agree
    with it exactly; clipping is left to the caller (an end below 0 or above
    cells_per_side).
    """
    c = (lo + hi) / 2.0
    half = factor * (hi - lo) / 2.0
    return (np.floor(c - half + _SNAP_TOL).astype(np.int64),
            np.ceil(c + half - _SNAP_TOL).astype(np.int64))


def dyadic_cubes(grid: Grid, region: Cube | None = None) -> list[Cube]:
    """All dyadic cubes contained in `region` (default root), region included."""
    if region is None:
        region = grid.root()
    if not region.is_dyadic:
        raise DomainError("region must be dyadic")
    out = []
    for level in range(region.level, grid.depth + 1):
        side = grid.cells_per_side >> level
        ranges = [range(a // side, b // side) for a, b in zip(region.lo, region.hi)]
        for coords in itertools.product(*ranges):
            out.append(grid.dyadic_cube(level, coords))
    return out


def family_blocks(grid: Grid, fidelity: Fidelity,
                  max_side: int | None = None) -> Iterator[tuple[int, list[range | np.ndarray]]]:
    """Yield (side_cells, per-axis start lists) describing a cube family.

    For each yielded block the family contains every cube with the given side
    and lower corner in the cartesian product of one start list per axis.  The
    aligned family takes every start, as a `range` (its sweeps read every
    window, so no index array is built); the strided families give int64
    arrays to gather with.  The "shifted" family adds third-shifted copies of
    the dyadic grids per level (shifts snapped to whole cells), giving a
    3^n-grid surrogate.
    """
    n = grid.cells_per_side
    cap = n if max_side is None else min(n, max_side)
    if fidelity == "aligned":
        for s in range(1, cap + 1):
            yield s, [range(n - s + 1)]
    elif fidelity == "dyadic":
        s = 1
        while s <= cap:
            yield s, [np.arange(0, n - s + 1, s, dtype=np.int64)]
            s *= 2
    elif fidelity == "shifted":
        s = 1
        while s <= cap:
            starts = [np.arange(0, n - s + 1, s, dtype=np.int64)]
            offsets = sorted({round(s * frac) for frac in (1 / 3, 2 / 3)})
            for d in offsets:
                if 0 < d < s:
                    arr = np.arange(d, n - s + 1, s, dtype=np.int64)
                    if arr.size:
                        starts.append(arr)
            yield s, starts
            s *= 2
    else:
        raise DomainError(f"unknown fidelity {fidelity!r}")


def iter_family(grid: Grid, fidelity: Fidelity,
                max_side: int | None = None) -> Iterator[Cube]:
    """Materialize the cube family (small grids / oracles only), in sweep order:
    sides ascending, start lists in order, lower corners row-major."""
    for s, start_lists in family_blocks(grid, fidelity, max_side):
        for starts in itertools.product(start_lists, repeat=grid.ndim):
            for lo in itertools.product(*starts):
                yield grid.aligned_cube(lo, s)


@dataclass(frozen=True)
class Supremum:
    """A supremum over a cube family, with the cube that attains it."""

    value: float
    cube: Cube | None

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True, eq=False)
class Suprema:
    """The suprema of a batch of items over one cube family: `values[i]`, and
    the attaining cube of item i as its lower corner `corners[i]` and side
    `sides[i]` (cells).  Item i as a `Supremum` is `self[i]`; a caller that
    needs only the values reads `values` and builds no cube."""

    grid: Grid
    values: np.ndarray
    corners: np.ndarray
    sides: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Supremum:
        return Supremum(float(self.values[i]),
                        self.grid.aligned_cube(self.corners[i], int(self.sides[i])))


def family_sup(grid: Grid, fidelity: Fidelity, window_values,
               origins: np.ndarray | None = None,
               max_side: int | None = None) -> Suprema:
    """Suprema over a cube family of per-window values for a batch of items,
    with the attaining cubes.

    `window_values(s)` returns the value of every s-sided window of each
    item's box, shape (batch,) + windows, indexed by the window's corner
    relative to the box; item i's box has lower corner `origins[i]` (default
    the root's).  The aligned family takes every window of the box; the others
    gather their corners (`family_blocks` over the root, so they need the box
    to be the root).  Per item, ties resolve in `iter_family` order: the first
    attaining cube wins (`ArgSup`), whatever else is in the batch.
    """
    sup = ArgSup()
    for s, start_lists in family_blocks(grid, fidelity, max_side):
        vals = window_values(s)
        if fidelity == "aligned":
            sup.offer(vals, (s, None))
            continue
        for starts in itertools.product(start_lists, repeat=grid.ndim):
            sup.offer(vals[(slice(None),) + np.ix_(*starts)], (s, starts))
    if not sup.keys:
        raise DomainError("empty cube family")
    value, block = sup.best()
    if np.any(block < 0):
        raise DomainError("empty cube family")
    # regenerate each winning side's windows to find the winners in them
    sides = np.empty(block.shape, dtype=np.int64)
    corners = np.empty(block.shape + (grid.ndim,), dtype=np.int64)
    won: dict[int, list[int]] = {}
    for b in sorted(set(block.tolist())):
        won.setdefault(sup.keys[b][0], []).append(b)
    for s, offers in won.items():
        vals = window_values(s)
        for b in offers:
            starts = sup.keys[b][1]
            sel = np.flatnonzero(block == b)
            blk = vals[sel] if starts is None else vals[sel][(slice(None),) + np.ix_(*starts)]
            index = np.unravel_index(first_max(blk), blk.shape[1:])
            for axis, i in enumerate(index):
                corners[sel, axis] = i if starts is None else starts[axis][i]
            sides[sel] = s
    if origins is not None:
        corners += origins
    return Suprema(grid, value, corners, sides)


class GridFunction:
    """Piecewise-constant real function on a grid (one value per cell).

    Values are stored read-only; arithmetic helpers return new instances.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != grid.shape:
            raise DomainError(f"value shape {arr.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("grid function values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("GridFunction is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, grid: Grid, value: float) -> GridFunction:
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def indicator(cls, cube: Cube) -> GridFunction:
        vals = np.zeros(cube.grid.shape)
        vals[cube.slices] = 1.0
        return cls(cube.grid, vals)

    @classmethod
    def point_mass(cls, grid: Grid, cell: Sequence[int], value: float = 1.0) -> GridFunction:
        vals = np.zeros(grid.shape)
        vals[tuple(int(c) for c in cell)] = float(value)
        return cls(grid, vals)

    # -- integration --------------------------------------------------------
    def integral(self, cube: Cube | None = None) -> float:
        if cube is None:
            return float(self.values.sum()) * self.grid.cell_volume
        return float(self.values[cube.slices].sum()) * self.grid.cell_volume

    def average(self, cube: Cube) -> float:
        return self.integral(cube) / cube.volume

    def zero_extension_average(self, cube: Cube) -> float:
        """Average over the *unclipped* cube of the zero-extended function."""
        return self.integral(cube) / cube.nominal_volume

    # -- pointwise algebra ---------------------------------------------------
    def __mul__(self, other) -> GridFunction:
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __add__(self, other) -> GridFunction:
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values + other.values)
        return GridFunction(self.grid, self.values + float(other))

    def __sub__(self, other) -> GridFunction:
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values - other.values)
        return GridFunction(self.grid, self.values - float(other))

    def __abs__(self) -> GridFunction:
        return GridFunction(self.grid, np.abs(self.values))

    def power(self, exponent: float) -> GridFunction:
        """Pointwise power; negative exponents require strictly positive values."""
        if exponent < 0 and np.any(self.values <= 0):
            raise DomainError("negative power of a function with nonpositive cells")
        return GridFunction(self.grid, self.values**exponent)

    def restrict(self, cube: Cube) -> GridFunction:
        vals = np.zeros(self.grid.shape)
        vals[cube.slices] = self.values[cube.slices]
        return GridFunction(self.grid, vals)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def integrate(f: GridFunction, cube: Cube) -> float:
    """Exact integral of a piecewise-constant function over a cube."""
    return f.integral(cube)


def average(f: GridFunction, cube: Cube) -> float:
    """Integral average over a cube (clipped volume in the denominator)."""
    return f.average(cube)


def require_weight(w: GridFunction) -> GridFunction:
    if np.any(w.values <= 0):
        raise DomainError("weight must be strictly positive on every cell")
    return w


# -- serialization ----------------------------------------------------------

def function_to_doc(f: GridFunction) -> str:
    """Serialize as a structured-text (JSON) document with row-major values."""
    doc = {
        "n": f.grid.ndim,
        "L": f.grid.depth,
        "values": f.values.reshape(-1).tolist(),
    }
    return json.dumps(doc)


def function_from_doc(text: str) -> GridFunction:
    doc = json.loads(text)
    grid = Grid(int(doc["n"]), int(doc["L"]))
    vals = np.asarray(doc["values"], dtype=np.float64).reshape(grid.shape)
    return GridFunction(grid, vals)


def center_coords(grid: Grid, center) -> tuple:
    """A centre as one coordinate per axis; a number is the same coordinate
    on every axis."""
    return center if isinstance(center, tuple) else (float(center),) * grid.ndim


def center_distance(grid: Grid, center) -> np.ndarray:
    """Euclidean distance of every cell centre from `center` (see center_coords)."""
    c = center_coords(grid, center)
    x = grid.cell_centers()
    if grid.ndim == 1:
        return np.abs(x[..., 0] - c[0])
    return np.hypot(x[..., 0] - c[0], x[..., 1] - c[1])


def parse_center(value):
    """A centre as read from JSON: a list (one coordinate per axis) becomes the
    tuple that the rasterizers and block builders take; a scalar is kept."""
    return tuple(value) if isinstance(value, list) else value


def function_from_spec(grid: Grid, spec: dict) -> GridFunction:
    """Rasterize a symbolic function declaration.

    Supported kinds: constant, values, indicator, piecewise, power (a power
    weight |x - center|^rho rasterized by the weights module).
    """
    kind = spec.get("kind")
    if kind == "constant":
        return GridFunction.constant(grid, spec["value"])
    if kind == "values":
        return GridFunction(grid, np.asarray(spec["values"], dtype=np.float64).reshape(grid.shape))
    if kind == "indicator":
        cube = grid.aligned_cube(spec["lo"], spec["side"])
        return GridFunction.indicator(cube) * spec.get("value", 1.0)
    if kind == "piecewise":
        vals = np.zeros(grid.shape)
        for piece in spec["pieces"]:
            cube = grid.aligned_cube(piece["lo"], piece["side"])
            vals[cube.slices] = piece["value"]
        return GridFunction(grid, vals)
    if kind == "power":
        from .weights import PowerWeightSpec

        center = parse_center(spec.get("center", 0.0))
        return PowerWeightSpec(rho=spec["rho"], center=center).rasterize(grid)
    raise DomainError(f"unknown function spec kind {kind!r}")
