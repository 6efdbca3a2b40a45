"""Muckenhoupt constants, power weights, and the measure-comparison inequality."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._windows import per_axis, sliding_extreme, window_kernels
from .grid import (
    Cube,
    DomainError,
    Fidelity,
    Grid,
    GridFunction,
    Supremum,
    center_coords,
    center_distance,
    family_sup,
    require_weight,
)


def _sup_product(grid: Grid, fidelity: Fidelity | None, parts) -> Supremum:
    """sup over family cubes of prod_k transform_k(window mean or min).

    `parts` is a list of (values, mode, transform) with mode in {"mean", "min"}.
    """
    n = grid.ndim
    prefix_sum, window_sums = window_kernels(n)
    prefixes = [prefix_sum(v) if mode == "mean" else v for v, mode, _ in parts]

    def window_values(s: int) -> np.ndarray:
        factors = []
        for (v, mode, tf), pre in zip(parts, prefixes):
            if mode == "mean":
                factors.append(tf(window_sums(pre, s) / s**n))
            else:
                factors.append(tf(per_axis(sliding_extreme, v, s, "min")))
        prod = factors[0]
        for fac in factors[1:]:
            prod = prod * fac
        return prod[None]

    return family_sup(grid, fidelity or grid.default_fidelity(), window_values)[0]


def ap_constant(w: GridFunction, p: float, fidelity: Fidelity | None = None) -> Supremum:
    """Muckenhoupt constant: sup_Q (avg_Q w)(avg_Q w^(1-p'))^(p-1) for p > 1,
    and sup_Q (avg_Q w) / (min over cells of Q of w) for p = 1.

    The grid essential infimum is the exact minimum over cells.
    """
    require_weight(w)
    if p < 1:
        raise DomainError(f"need p >= 1, got {p}")
    if p == 1:
        parts = [
            (w.values, "mean", lambda x: x),
            (w.values, "min", lambda x: 1.0 / x),
        ]
    else:
        pc = p / (p - 1.0)
        sigma = w.values ** (1.0 - pc)
        parts = [
            (w.values, "mean", lambda x: x),
            (sigma, "mean", lambda x: x ** (p - 1.0)),
        ]
    return _sup_product(w.grid, fidelity, parts)


def apq_constant(w: GridFunction, p: float, q: float,
                 fidelity: Fidelity | None = None) -> Supremum:
    """sup_Q (avg_Q w^q)^(1/q) (avg_Q w^(-p'))^(1/p')."""
    require_weight(w)
    if p <= 1 or q <= 0:
        raise DomainError(f"need p > 1 and q > 0, got p={p}, q={q}")
    pc = p / (p - 1.0)
    parts = [
        (w.values**q, "mean", lambda x: x ** (1.0 / q)),
        (w.values ** (-pc), "mean", lambda x: x ** (1.0 / pc)),
    ]
    return _sup_product(w.grid, fidelity, parts)


@dataclass(frozen=True)
class WeightConstants:
    """Constants of one weight, with attaining cubes, for reporting."""

    a1: Supremum
    ap: dict[float, Supremum] = field(default_factory=dict)
    apq: dict[tuple[float, float], Supremum] = field(default_factory=dict)


def weight_constants(w: GridFunction, p_values: tuple[float, ...] = (),
                     pq_values: tuple[tuple[float, float], ...] = (),
                     fidelity: Fidelity | None = None) -> WeightConstants:
    return WeightConstants(
        a1=ap_constant(w, 1.0, fidelity),
        ap={p: ap_constant(w, p, fidelity) for p in p_values},
        apq={(p, q): apq_constant(w, p, q, fidelity) for p, q in pq_values},
    )


@dataclass(frozen=True)
class MeasureComparison:
    lhs: float
    rhs: float
    ratio: float


def measure_comparison_check(w: GridFunction, p: float, cube: Cube,
                             subset_mask: np.ndarray,
                             ap: float | None = None) -> MeasureComparison:
    """Compare (|S|/|Q|)^p w(Q) against [w]_{A_p} w(S) for a measurable S inside Q.

    Returns both sides and their ratio; across a corpus the maximal ratio is
    the measured comparison constant.
    """
    require_weight(w)
    mask = np.asarray(subset_mask, dtype=bool)
    if mask.shape != w.grid.shape:
        raise DomainError("subset mask shape mismatch")
    outside = mask & ~cube.mask()
    if outside.any():
        raise DomainError("subset must be contained in the cube")
    s_cells = int(mask.sum())
    if s_cells == 0:
        raise DomainError("subset must be nonempty")
    cellvol = w.grid.cell_volume
    s_vol = s_cells * cellvol
    w_q = w.integral(cube)
    w_s = float(w.values[mask].sum()) * cellvol
    if ap is None:
        ap = ap_constant(w, p).value
    lhs = (s_vol / cube.volume) ** p * w_q
    rhs = ap * w_s
    return MeasureComparison(lhs, rhs, lhs / rhs)


@dataclass(frozen=True)
class PowerWeightSpec:
    """Power weight |x - center|^rho with rho > -n.

    Rasterization uses exact cell averages in 1D (closed-form antiderivative,
    so the cell at the singularity stays finite and refinement-convergent) and
    midpoint values in 2D, with the singular cell replaced by the midpoint of
    an inscribed/circumscribed radial-average bracket.
    """

    rho: float
    center: float | tuple[float, float] = 0.0

    def rasterize(self, grid: Grid) -> GridFunction:
        if self.rho <= -grid.ndim:
            raise DomainError(f"need rho > -n, got rho={self.rho}")
        h = grid.cell_side
        c = center_coords(grid, self.center)
        if grid.ndim == 1:
            edges = np.arange(grid.cells_per_side + 1) * h
            r = self.rho

            def anti(t: np.ndarray) -> np.ndarray:
                return np.abs(t) ** (r + 1.0) / (r + 1.0)

            a, b = edges[:-1] - c[0], edges[1:] - c[0]
            straddle = (a < 0) & (b > 0)
            vals = np.where(
                straddle,
                (anti(a) + anti(b)) / h,
                np.abs(anti(b) - anti(a)) / h,
            )
            return GridFunction(grid, vals)

        d = center_distance(grid, c)
        vals = np.where(d > 0, d, 1.0) ** self.rho
        # cells whose closure contains the center: bracket by radial averages
        # over inscribed/circumscribed discs, avg over disc r of |x|^rho =
        # 2 r^rho / (rho + 2), defined for rho > -2.
        singular = np.all(np.abs(grid.cell_centers() - c) <= h / 2 + 1e-12, axis=-1)
        if singular.any():
            r_in, r_out = h / 2.0, h * math.sqrt(2.0) / 2.0
            bracket = (2 * r_in**self.rho / (self.rho + 2)
                       + 2 * r_out**self.rho / (self.rho + 2)) / 2.0
            vals = np.where(singular, bracket, vals)
        return GridFunction(grid, vals)


def power_weight(grid: Grid, rho: float,
                 center: float | tuple[float, float] = 0.0) -> GridFunction:
    return PowerWeightSpec(rho=rho, center=center).rasterize(grid)
