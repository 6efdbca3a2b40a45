"""Stopping-time sparse families and verification of the domination chains.

Two builders share one engine: generation-k stopping cubes are the maximal
dyadic cubes (inside the base cube) whose stopping functional reaches
threshold_base * threshold_ratio^k, with the maximal-operator builder using
the scaled functional |Q|^(alpha/n) avg_{3Q} f and the integral builder the
plain avg_{3Q} f.  Ownership sets E_Q are the cube minus the next generation,
so they are pairwise disjoint and decompose the base cube.

Averages over dilates use nominal volumes; see the grid module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._windows import broadcast_level
from .grid import Cube, DomainError, Grid, GridFunction, dilate
from .operators import (
    _dilated_scaled_averages,
    local_dyadic_maximal,
    sparse_integral_form,
    sparse_maximal_form,
)

EXACT_SLACK = 1e-9


def stopping_ratio(ndim: int, alpha: float) -> float:
    """Geometric threshold ratio 9^n 2^(n+1-alpha); alpha = 0 for the integral scheme."""
    return 9.0**ndim * 2.0 ** (ndim + 1 - alpha)


@dataclass(eq=False)
class StoppingCube:
    cube: Cube
    generation: int
    value: float            # stopping functional at the cube
    dilated_average: float  # avg over 3Q (nominal volume)
    e_mask: np.ndarray

    @property
    def ownership_ratio(self) -> float:
        return float(self.e_mask.sum()) / self.cube.cell_count


@dataclass(eq=False)
class SparseFamily:
    base: Cube
    cubes: tuple[StoppingCube, ...]
    threshold_base: float
    threshold_ratio: float
    alpha: float
    kind: str  # "maximal" | "integral"
    eta: float = 0.5

    def generation(self, k: int) -> list[StoppingCube]:
        return [sc for sc in self.cubes if sc.generation == k]

    @property
    def generations(self) -> int:
        return 1 + max((sc.generation for sc in self.cubes), default=-1)


@dataclass(eq=False)
class SparseResult:
    family: SparseFamily
    tail: float
    tail_detail: dict = field(default_factory=dict)
    source: GridFunction | None = None


def _require_nonnegative(f: GridFunction) -> None:
    if np.any(f.values < 0):
        raise DomainError("sparse builders require f >= 0")


def _build_family(f: GridFunction, alpha: float, base: Cube,
                  alpha_weighting: bool, kind: str) -> SparseFamily:
    _require_nonnegative(f)
    if not base.is_dyadic:
        raise DomainError("base cube must be dyadic")
    grid = f.grid
    ratio = stopping_ratio(grid.ndim, alpha if alpha_weighting else 0.0)
    levels = _dilated_scaled_averages(f, alpha, base, alpha_weighting)
    base_val = float(np.asarray(levels[0][2]).reshape(-1)[0])
    if base_val == 0.0:
        return SparseFamily(base, (), 0.0, ratio, alpha, kind)

    max_val = max(float(np.max(v)) for _, _, v in levels)
    gen_cap = int(math.ceil(math.log(max_val / base_val, ratio))) + 1 if max_val > base_val else 1

    per_generation: list[list[tuple[int, tuple[int, ...], float]]] = []
    for k in range(gen_cap + 1):
        threshold = base_val * ratio**k
        found: list[tuple[int, tuple[int, ...], float]] = []
        blocked = None  # per-level mask of cells with a stopped ancestor
        for level, first, vals in levels:
            qualify = vals >= threshold
            if blocked is None:
                blocked = np.zeros_like(qualify, dtype=bool)
            stop_here = qualify & ~blocked
            for j in zip(*np.nonzero(stop_here)):
                coords = tuple(int(a + b) for a, b in zip(first, j))
                found.append((level, coords, float(vals[j])))
            blocked = blocked | stop_here
            if level < grid.depth:
                blocked = broadcast_level(blocked, 2)
        if not found:
            break
        per_generation.append(found)

    # ownership sets: cube minus the union of the next generation
    cubes: list[StoppingCube] = []
    union_next = np.zeros(grid.shape, dtype=bool)
    for k in range(len(per_generation) - 1, -1, -1):
        gen_masks = np.zeros(grid.shape, dtype=bool)
        for level, coords, val in per_generation[k]:
            cube = grid.dyadic_cube(level, coords)
            gen_masks |= cube.mask()
            e_mask = cube.mask() & ~union_next
            scale = cube.volume ** (alpha / grid.ndim) if alpha_weighting else 1.0
            cubes.append(StoppingCube(cube, k, val, val / scale, e_mask))
        union_next = gen_masks
    cubes.sort(key=lambda sc: (sc.generation, sc.cube.address()))
    return SparseFamily(base, tuple(cubes), base_val, ratio, alpha, kind)


def _outer_tail(f: GridFunction, alpha: float, base: Cube) -> tuple[float, dict]:
    """sup over dyadic cubes containing the base (root-truncated) of
    |Q|^(alpha/n) avg_Q f."""
    grid = f.grid
    best, witness = 0.0, None
    cube = base
    while True:
        v = cube.volume ** (alpha / grid.ndim) * f.average(cube)
        if v > best:
            best, witness = v, cube
        if cube.level == 0:
            break
        cube = cube.parent()
    return best, {"witness": witness}


def build_sparse_maximal(f: GridFunction, alpha: float, base: Cube) -> SparseResult:
    """Stopping-time family dominating the local dyadic fractional maximal
    operator, with the truncated outer tail."""
    grid = f.grid
    if not 0 <= alpha < grid.ndim:
        raise DomainError(f"need 0 <= alpha < n, got alpha={alpha}")
    family = _build_family(f, alpha, base, alpha_weighting=True, kind="maximal")
    tail, detail = _outer_tail(f, alpha, base)
    return SparseResult(family, tail, detail, f)


def build_sparse_integral(f: GridFunction, alpha: float, base: Cube,
                          kappa: float = 3.0) -> SparseResult:
    """Stopping-time family for the fractional integral, with the dilation tail
    sum over kappa^k dilates truncated once they cover the root."""
    grid = f.grid
    if not 0 < alpha < grid.ndim:
        raise DomainError(f"need 0 < alpha < n, got alpha={alpha}")
    if kappa <= 1:
        raise DomainError(f"need kappa > 1, got kappa={kappa}")
    family = _build_family(f, alpha, base, alpha_weighting=False, kind="integral")
    terms = []
    tail = 0.0
    side0 = base.side_length
    k = 0
    while True:
        factor = kappa**k
        cube = dilate(base, factor) if k > 0 else base
        nominal_side = factor * side0
        value = (nominal_side**alpha) * (f.integral(cube) / nominal_side**grid.ndim)
        terms.append(value)
        tail += value
        if nominal_side >= 1.0 or k > 200:
            break
        k += 1
    return SparseResult(family, tail, {"terms": terms, "kappa": kappa}, f)


@dataclass(frozen=True)
class SparseCheck:
    ok: bool
    min_ratio: float
    witness: Cube | None


def verify_sparse(family: SparseFamily, eta: float = 0.5) -> SparseCheck:
    """Disjointness of ownership sets and |E_Q| >= eta |Q| for every cube."""
    grid = family.base.grid
    count = np.zeros(grid.shape, dtype=np.int64)
    for sc in family.cubes:
        count += sc.e_mask
    if count.max(initial=0) > 1:
        return SparseCheck(False, 0.0, None)
    min_ratio, witness = math.inf, None
    for sc in family.cubes:
        r = sc.ownership_ratio
        if r < min_ratio:
            min_ratio, witness = r, sc.cube
    if not family.cubes:
        return SparseCheck(True, math.inf, None)
    return SparseCheck(min_ratio >= eta - 1e-12, min_ratio, witness)


def _check_recorded_values(f: GridFunction, family: SparseFamily) -> None:
    grid = f.grid
    for sc in family.cubes:
        avg = f.zero_extension_average(dilate(sc.cube, 3.0))
        scale = sc.cube.volume ** (family.alpha / grid.ndim) if family.kind == "maximal" else 1.0
        if abs(avg * scale - sc.value) > 1e-9 * max(1.0, abs(sc.value)):
            raise DomainError("function does not match the recorded sparse family")


@dataclass(frozen=True)
class MaximalDomination:
    local_ok: bool
    local_constant: float      # max of local maximal / sparse form (explicit bound = a)
    explicit_bound: float      # a = 9^n 2^(n+1-alpha), the threshold ratio


def verify_domination_maximal(f: GridFunction, alpha: float,
                              result: SparseResult) -> MaximalDomination:
    """Pointwise check on the base cube of the local dyadic fractional maximal
    function against the sparse form."""
    family = result.family
    base = family.base
    _check_recorded_values(f, family)
    grid = f.grid
    a = family.threshold_ratio if family.cubes else stopping_ratio(grid.ndim, alpha)
    local = local_dyadic_maximal(f, alpha, base).values[base.slices]
    sparse_vals = sparse_maximal_form(f, family, alpha).values[base.slices]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sparse_vals > 0, local / np.maximum(sparse_vals, 1e-300), np.where(local > 0, np.inf, 0.0))
    local_constant = float(ratios.max(initial=0.0))
    local_ok = local_constant <= a * (1 + EXACT_SLACK)
    return MaximalDomination(
        local_ok=local_ok,
        local_constant=local_constant,
        explicit_bound=a,
    )


@dataclass(frozen=True)
class IntegralDomination:
    explicit_ok: bool          # dyadic-sum form <= a * sparse form, bare paper factor
    explicit_constant: float   # measured max of dyadic form / sparse form
    explicit_bound: float      # a = 9^n 2^(n+1)
    provable_ok: bool          # same with the geometric chain factor restored
    provable_bound: float      # (a + 1) / (1 - 2^(-alpha))


def dyadic_sum_form(f: GridFunction, alpha: float, base: Cube) -> np.ndarray:
    """Sum over dyadic cubes of the base containing x of |Q|^(alpha/n) avg_{3Q} f
    (values on the base cells)."""
    grid = f.grid
    acc = np.zeros(base.extents)
    for level, _, vals in _dilated_scaled_averages(f, alpha, base, True):
        acc += broadcast_level(vals, grid.cells_per_side >> level)
    return acc


def verify_domination_integral(f: GridFunction, alpha: float,
                               result: SparseResult) -> IntegralDomination:
    """Pointwise check on the base cube of the dyadic-sum form against the
    sparse form.

    The bare factor a is checked as stated; the provable grid bound carries
    the extra geometric chain factor 1/(1 - 2^(-alpha)), and the measured
    constant makes the slack visible.  The step from I_alpha f to the dyadic
    sum plus the tail is not computed here.
    """
    family = result.family
    base = family.base
    _check_recorded_values(f, family)
    grid = f.grid
    a = stopping_ratio(grid.ndim, 0.0)
    dyadic_vals = dyadic_sum_form(f, alpha, base)
    sparse_vals = sparse_integral_form(f, family, alpha).values[base.slices]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sparse_vals > 0, dyadic_vals / np.maximum(sparse_vals, 1e-300),
                          np.where(dyadic_vals > 0, np.inf, 0.0))
    measured = float(ratios.max(initial=0.0))
    provable = (a + 1.0) / (1.0 - 2.0 ** (-alpha)) if alpha > 0 else math.inf
    return IntegralDomination(
        explicit_ok=measured <= a * (1 + EXACT_SLACK),
        explicit_constant=measured,
        explicit_bound=a,
        provable_ok=measured <= provable * (1 + EXACT_SLACK),
        provable_bound=provable,
    )


@dataclass(frozen=True)
class StoppingBoundsCheck:
    lower_ok: bool
    upper_ok: bool
    upper_factor: float
    worst_lower: float  # min over cubes of value / threshold(k)  (must be >= 1)
    worst_upper: float  # max over cubes of value / threshold(k)  (must be <= factor)


def check_stopping_bounds(result: SparseResult) -> StoppingBoundsCheck:
    """The two-sided bound at every stopping cube with the exact paper factors:
    threshold <= value <= factor * threshold, factor = 2^(n-alpha) for the
    maximal scheme and 2^n for the integral scheme."""
    family = result.family
    n = family.base.grid.ndim
    factor = 2.0 ** (n - family.alpha) if family.kind == "maximal" else 2.0**n
    worst_lo, worst_hi = math.inf, 0.0
    for sc in family.cubes:
        threshold = family.threshold_base * family.threshold_ratio**sc.generation
        rel = sc.value / threshold
        worst_lo = min(worst_lo, rel)
        worst_hi = max(worst_hi, rel)
    if not family.cubes:
        return StoppingBoundsCheck(True, True, factor, math.inf, 0.0)
    return StoppingBoundsCheck(
        lower_ok=worst_lo >= 1.0 - EXACT_SLACK,
        upper_ok=worst_hi <= factor * (1 + EXACT_SLACK),
        upper_factor=factor,
        worst_lower=worst_lo,
        worst_upper=worst_hi,
    )


@dataclass(frozen=True)
class AuditReport:
    stopping: StoppingBoundsCheck
    weighted_ownership_constant: float | None  # measured C in u(Q) <= C C2^q u(E_Q)
    generation_sum_constant: float | None      # measured C in the per-generation cube sum


def audit_proof_inequalities(f: GridFunction, w: GridFunction | None,
                             exponents, result: SparseResult,
                             c2: float | None = None) -> AuditReport:
    """Evaluate the intermediate inequalities used by the domination proofs on
    the constructed family and report the measured constants."""
    family = result.family
    grid = family.base.grid
    stopping = check_stopping_bounds(result)

    weighted_c = None
    if w is not None and exponents is not None and family.cubes:
        u = w.power(exponents.q)
        cellvol = grid.cell_volume
        worst = 0.0
        for sc in family.cubes:
            u_q = u.integral(sc.cube)
            u_e = float(u.values[sc.e_mask].sum()) * cellvol
            if u_e > 0:
                base_c2 = c2 if c2 is not None else 1.0
                worst = max(worst, u_q / (base_c2**exponents.q * u_e))
        weighted_c = worst

    gen_sum_c = None
    if family.kind == "integral" and family.cubes:
        levels = _dilated_scaled_averages(f, family.alpha, family.base, False)
        by_level = {lvl: (idx, vals) for lvl, idx, vals in levels}
        worst = 0.0
        for sc in family.cubes:
            lo_t = family.threshold_base * family.threshold_ratio**sc.generation
            hi_t = lo_t * family.threshold_ratio
            acc = np.zeros(sc.cube.extents)
            for level in range(sc.cube.level, grid.depth + 1):
                first, vals = by_level[level]
                s = grid.cells_per_side >> level
                v = vals[tuple(slice(a // s - o, b // s - o)
                               for a, b, o in zip(sc.cube.lo, sc.cube.hi, first))]
                band = (v >= lo_t) & (v < hi_t)
                acc += broadcast_level(band * (s * grid.cell_side) ** family.alpha, s)
            scale = sc.cube.volume ** (family.alpha / grid.ndim)
            worst = max(worst, float(acc.max()) / scale)
        gen_sum_c = worst

    return AuditReport(stopping, weighted_c, gen_sum_c)


# -- serialization -----------------------------------------------------------

def family_to_doc(family: SparseFamily) -> str:
    doc = {
        "n": family.base.grid.ndim,
        "L": family.base.grid.depth,
        "base": {"lo": list(family.base.lo), "side": family.base.side_cells},
        "threshold_base": family.threshold_base,
        "threshold_ratio": family.threshold_ratio,
        "alpha": family.alpha,
        "kind": family.kind,
        "cubes": [
            {
                "lo": list(sc.cube.lo),
                "side": sc.cube.side_cells,
                "generation": sc.generation,
                "value": sc.value,
                "dilated_average": sc.dilated_average,
                "e_cells": np.nonzero(sc.e_mask.reshape(-1))[0].tolist(),
            }
            for sc in family.cubes
        ],
    }
    return json.dumps(doc)


def family_from_doc(text: str) -> SparseFamily:
    doc = json.loads(text)
    grid = Grid(int(doc["n"]), int(doc["L"]))
    base = grid.aligned_cube(doc["base"]["lo"], doc["base"]["side"])
    cubes = []
    for item in doc["cubes"]:
        cube = grid.aligned_cube(item["lo"], item["side"])
        mask = np.zeros(grid.cell_count, dtype=bool)
        mask[np.asarray(item["e_cells"], dtype=np.int64)] = True
        cubes.append(StoppingCube(cube, int(item["generation"]), float(item["value"]),
                                  float(item["dilated_average"]), mask.reshape(grid.shape)))
    return SparseFamily(base, tuple(cubes), float(doc["threshold_base"]),
                        float(doc["threshold_ratio"]), float(doc["alpha"]), doc["kind"])
