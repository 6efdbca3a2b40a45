"""Hausdorff content, Choquet integrals, the block class, and block-space norms.

Content is computed over dyadic covers by an exact bottom-up tree dynamic
program; it differs from the unrestricted content by at most a dimensional
factor, and every returned value is labeled dyadic.  The Choquet integral
needs the content of every level set {phi > t}; it runs the same DP once for
all of them, carrying each node's content as a step function of how many of
its cells are in the set and merging children up the tree (O(N log N) time
and O(N) memory per level, N cells), with the same floats and the same
reduction order as a DP per level set.  The block-space norm has
two one-sided estimators: a candidate-set upper bound and a convex-duality
lower bound with certified primal feasibility at every iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._windows import level_sums
from .grid import Cube, DomainError, Fidelity, Grid, GridFunction, center_distance, dyadic_cubes
from .norms import lambda_to_p0, morrey_norm, morrey_norm_lambda

EXACT_SLACK = 1e-9


class ConvergenceError(RuntimeError):
    """Solver hit its iteration cap; carries the best certified value."""

    def __init__(self, message: str, best: "DualNormResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class ContentValue:
    value: float
    lam: float
    cover: tuple[Cube, ...]


def hausdorff_content(grid: Grid, mask: np.ndarray, lam: float) -> ContentValue:
    """Exact dyadic-cover content of a cell set, with an optimal cover.

    Bottom-up over the dyadic tree: a node covering part of the set costs
    min(side^lam, sum of children costs); empty nodes cost zero.  Ties prefer
    the single coarser cube, which keeps covers canonical.
    """
    if not 0 < lam <= grid.ndim:
        raise DomainError(f"need 0 < lam <= n, got lam={lam}")
    m = np.asarray(mask, dtype=bool)
    if m.shape != grid.shape:
        raise DomainError("mask shape mismatch")
    h = grid.cell_side
    costs = np.where(m, h**lam, 0.0)
    take = []  # per level (leaf .. root): True where the single cube is optimal
    take.append(np.ones(grid.shape, dtype=bool))
    for level in range(grid.depth - 1, -1, -1):
        own = ((grid.cells_per_side >> level) * h) ** lam
        child_sum = level_sums(costs, level, grid.ndim)
        take.append(own <= child_sum + 1e-15)
        # an empty node has child_sum == 0, so it costs min(own, 0) = 0
        costs = np.minimum(own, child_sum)
    take.reverse()  # take[level] indexed by dyadic coords at that level

    total = float(costs.reshape(-1)[0])

    cover: list[Cube] = []
    if bool(np.asarray(m).any()):
        stack = [(0, (0,) * grid.ndim)]
        while stack:
            level, coords = stack.pop()
            cube = grid.dyadic_cube(level, coords)
            sub = m[cube.slices]
            if not sub.any():
                continue
            if take[level][coords]:
                cover.append(cube)
                continue
            for child in cube.children():
                ccoords = tuple(c // child.side_cells for c in child.lo)
                stack.append((level + 1, ccoords))
        cover.sort(key=lambda c: c.address())
    return ContentValue(total, lam, tuple(cover))


def choquet_integral(phi: GridFunction, lam: float) -> float:
    """Layer-cake integral of phi >= 0 against the dyadic content; exact for steps.

    The integral is sum_k (t_{k+1} - t_k) * content({phi > t_k}) over the
    distinct values t_k (with t_0 = 0).  Every level set is a prefix of one
    order of the cells (by value, descending, ties by position), so a node's
    content over all level sets is a step function of how many of its cells
    are in the set: entry m is the content of its first m cells in that order.
    Leaves are [0, h^lam].  A parent's entry m takes each child's entry at the
    number of the parent's first m cells that lie in that child (a stable sort
    of the children's rank lists and a running count per child), adds them
    with `level_sums` and caps the sum at its own cost.  When the parent's
    count is that of a level set, each child's count is that child's count of
    the same level set, so every entry read is the `min(own, sum of children)`
    of `hausdorff_content`'s DP on the same floats, in the same reduction
    order: the result equals the DP run once per level set bit for bit, at
    O(N log N) time and O(N) memory per level (N cells).
    """
    vals = phi.values
    if np.any(vals < 0):
        raise DomainError("choquet integral requires a nonnegative function")
    levels = np.unique(vals)
    thresholds = np.concatenate([[0.0], levels[levels > 0]])
    if thresholds.size == 1:
        return 0.0
    grid = phi.grid
    n = grid.ndim
    h = grid.cell_side
    key = -vals.reshape(-1)
    by_value = np.argsort(key, kind="stable")
    ranks = np.empty_like(by_value)
    ranks[by_value] = np.arange(by_value.size)
    # per node (row-major at its level): its cells' ranks ascending, and
    # costs[m, node] = content of its first m cells
    ranks = ranks.reshape(-1, 1)
    costs = np.zeros((2, ranks.shape[0]))
    costs[1] = h**lam
    group = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)) + (2 * n,)
    spread = (2 * n,) + tuple(a for i in range(n) for a in (i, n + i))
    children = np.arange(2**n)[:, None]
    for level in range(grid.depth - 1, -1, -1):
        k = 1 << level
        c = ranks.shape[1]
        # each parent's children side by side, children in row-major order;
        # they are sorted runs, which the stable sort merges
        merged = ranks.reshape((k, 2) * n + (c,)).transpose(group).reshape(k**n, -1)
        order = np.argsort(merged, axis=1, kind="stable")
        ranks = np.sort(merged, axis=1, kind="stable")
        # counts[p, j, m]: how many of parent p's first m cells lie in child j
        counts = np.zeros((k**n, 2**n, ranks.shape[1] + 1), dtype=np.intp)
        np.cumsum(order[:, None, :] // c == children, axis=2, out=counts[:, :, 1:])
        counts = counts.reshape((k,) * n + (2,) * n + (-1,)).transpose(spread)
        counts = counts.reshape(counts.shape[0], -1)
        gathered = costs[counts, np.arange(counts.shape[1])]
        own = ((grid.cells_per_side >> level) * h) ** lam
        child_sum = level_sums(gathered.reshape((-1,) + (2 * k,) * n), level, n)
        costs = np.minimum(own, child_sum).reshape(gathered.shape[0], -1)
    above = np.searchsorted(key[by_value], -thresholds[:-1], side="left")
    contents = costs[above, 0]
    gaps = np.diff(thresholds)
    return float(np.sum(gaps * contents))


@dataclass(frozen=True)
class BlockCertificate:
    """A candidate block: weight with unit Choquet integral, constants recorded.

    Membership in the block class is certified by choquet <= 1 (+ slack).
    The A1 constant (in the cube family `fidelity`) is for reporting: it is
    computed on first read, because a full family sweep costs more than the
    block itself, and it is infinite for blocks that vanish somewhere
    (indicator blocks).
    """

    weight: GridFunction
    lam: float
    choquet: float
    label: str = ""
    fidelity: Fidelity | None = None

    @property
    def is_member(self) -> bool:
        return self.choquet <= 1.0 + EXACT_SLACK

    @cached_property
    def a1_constant(self) -> float:
        if np.any(self.weight.values <= 0):
            return math.inf
        from .weights import ap_constant

        return ap_constant(self.weight, 1.0, self.fidelity).value


def make_block(grid: Grid, lam: float, kind: str, *,
               cube: Cube | None = None,
               center: float | tuple[float, float] | None = None,
               exponent: float | None = None,
               eps: float | None = None,
               values: GridFunction | None = None,
               fidelity: Fidelity | None = None,
               label: str = "") -> BlockCertificate:
    """Construct a block of the given shape, rescaled to unit Choquet integral.

    Kinds: "indicator" (1_Q / side^lam), "power" (max(|x-center|, eps)^(-s)
    with s < n), "custom" (any nonnegative function).
    """
    if not 0 < lam < grid.ndim:
        raise DomainError(f"need 0 < lam < n, got lam={lam}")
    if kind == "indicator":
        if cube is None:
            raise DomainError("indicator block needs a cube")
        base = GridFunction.indicator(cube) * cube.side_length ** (-lam)
        label = label or f"ind[{cube.lo},{cube.side_cells}]"
    elif kind == "power":
        if exponent is None or center is None:
            raise DomainError("power block needs a center and exponent")
        if not 0 < exponent < grid.ndim:
            raise DomainError("power block exponent must lie in (0, n)")
        eps = grid.cell_side if eps is None else eps
        d = center_distance(grid, center)
        base = GridFunction(grid, np.maximum(d, eps) ** (-exponent))
        label = label or f"pow[{center},{exponent:.3g}]"
    elif kind == "custom":
        if values is None:
            raise DomainError("custom block needs values")
        base = values
        label = label or "custom"
    else:
        raise DomainError(f"unknown block kind {kind!r}")

    if np.any(base.values < 0):
        raise DomainError("blocks must be nonnegative")
    raw = choquet_integral(base, lam)
    if raw == 0:
        raise DomainError("block shape is identically zero")
    b = base * (1.0 / raw)
    cho = choquet_integral(b, lam)
    return BlockCertificate(weight=b, lam=lam, choquet=cho, label=label, fidelity=fidelity)


def default_blocks(grid: Grid, lam: float, *,
                   extra_centers: tuple = (),
                   power_exponents: tuple[float, ...] | None = None,
                   fidelity: Fidelity | None = None) -> list[BlockCertificate]:
    """Default candidate battery: every dyadic indicator block plus truncated
    powers at coarse lattice points (and any extra centers, e.g. a weight's
    singularity).
    """
    blocks = [make_block(grid, lam, "indicator", cube=c, fidelity=fidelity)
              for c in dyadic_cubes(grid)]
    if power_exponents is None:
        power_exponents = tuple(
            s for s in (lam / 2, lam, (grid.ndim + lam) / 2) if 0 < s < grid.ndim
        )
    coarse = [j / 4 for j in range(5)]
    if grid.ndim == 1:
        centers: list = sorted(set(coarse) | set(float(c) for c in extra_centers))
    else:
        base = [(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
        centers = sorted(set(base) | set(tuple(c) for c in extra_centers))
    for c in centers:
        for s in power_exponents:
            blocks.append(make_block(grid, lam, "power", center=c, exponent=s,
                                     fidelity=fidelity, label=f"pow[{c},{s:.3g}]"))
    return blocks


def _block_integral(g_abs_pow: np.ndarray, b: GridFunction, r: float, cellvol: float) -> float:
    """int |g|^r b^(1-r); infinite when b vanishes where g does not."""
    bv = b.values
    gp = g_abs_pow
    alive = gp > 0
    if np.any(alive & (bv == 0)):
        return math.inf
    with np.errstate(divide="ignore"):
        integrand = np.where(alive, gp * np.where(bv > 0, bv, 1.0) ** (1.0 - r), 0.0)
    return float(integrand.sum()) * cellvol


@dataclass(frozen=True)
class BlocksNormResult:
    value: float
    block: BlockCertificate | None
    norm_ratio: float | None = None  # value / Morrey norm, when computed


def morrey_norm_via_blocks(f: GridFunction, p: float, lam: float,
                           candidates: list[BlockCertificate],
                           fidelity: Fidelity | None = None) -> BlocksNormResult:
    """max over candidate blocks of (int |f|^p b)^(1/p): a lower bound for the
    supremum over the whole block class, which is comparable to the Morrey
    norm.  The ratio against the directly computed norm is reported.
    """
    if not candidates:
        raise DomainError("empty candidate list")
    cellvol = f.grid.cell_volume
    gp = np.abs(f.values) ** p
    best, best_b = -np.inf, None
    for cert in candidates:
        v = float((gp * cert.weight.values).sum()) * cellvol
        if v > best:
            best, best_b = v, cert
    value = best ** (1.0 / p)
    norm = morrey_norm_lambda(f, p, lam, fidelity).value
    return BlocksNormResult(value, best_b, value / norm if norm > 0 else None)


def block_norm_upper(g: GridFunction, exponent: float, lam: float,
                     candidates: list[BlockCertificate]) -> BlocksNormResult:
    """min over candidates of (int |g|^r b^(1-r))^(1/r): an UPPER bound on the
    block-space norm (the true infimum runs over the whole class).
    """
    if not candidates:
        raise DomainError("empty candidate list")
    cellvol = g.grid.cell_volume
    gp = np.abs(g.values) ** exponent
    best, best_b = math.inf, None
    for cert in candidates:
        v = _block_integral(gp, cert.weight, exponent, cellvol)
        if v < best:
            best, best_b = v, cert
    value = best ** (1.0 / exponent) if math.isfinite(best) else math.inf
    return BlocksNormResult(value, best_b)


@dataclass(frozen=True)
class DualNormResult:
    value: float
    maximizer: GridFunction
    active_cubes: tuple[Cube, ...]
    gap: float
    converged: bool

    def __float__(self) -> float:
        return self.value


def block_norm_dual(g: GridFunction, p: float, lam: float, tol: float = 1e-3,
                    fidelity: Fidelity | None = None,
                    max_iter: int = 10_000) -> DualNormResult:
    """Certified lower bound on sup { int f g : f >= 0, Morrey-(p, lam) norm <= 1 }.

    The feasible set is the intersection of one p-mean constraint per cube of
    the selected family.  We run coordinate ascent on the Lagrange multipliers
    of an active set grown by most-violated-constraint search (each multiplier
    set by bisection to make its constraint tight) and keep a feasible primal
    at every step by dividing out the exact Morrey norm of the iterate, so the
    returned value is always a true lower bound.  The dual functional provides
    the optimality gap.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    grid = g.grid
    fid: Fidelity = fidelity or grid.default_fidelity()
    gv = np.abs(g.values)
    if not gv.any():
        return DualNormResult(0.0, GridFunction.constant(grid, 0.0), (), 0.0, True)
    p0 = lambda_to_p0(p, lam, grid.ndim)
    pc = p / (p - 1.0)
    cellvol = grid.cell_volume

    def beta(c: Cube) -> float:
        return c.volume ** (lam / grid.ndim)

    def primal_value(fv: np.ndarray) -> float:
        return float((fv * gv).sum()) * cellvol

    def feasible_scale(fv: np.ndarray) -> float:
        nrm = morrey_norm(GridFunction(grid, fv), p, p0, fid).value
        return nrm if nrm > 0 else 1.0

    def dual_value(active: list[Cube], mults: np.ndarray) -> float:
        lam_field = np.zeros(grid.shape)
        for c, m in zip(active, mults):
            lam_field[c.slices] += m
        pos = lam_field > 0
        with np.errstate(divide="ignore"):
            term = np.where(pos, gv**pc * np.where(pos, lam_field, 1.0) ** (1.0 - pc), 0.0)
        if np.any(~pos & (gv > 0)):
            return math.inf
        c_p = (p - 1.0) * p ** (-pc)
        return float(np.dot(mults, [beta(c) for c in active])) + c_p * float(term.sum()) * cellvol

    def primal_from(active: list[Cube], mults: np.ndarray) -> np.ndarray:
        lam_field = np.zeros(grid.shape)
        for c, m in zip(active, mults):
            lam_field[c.slices] += m
        with np.errstate(divide="ignore", invalid="ignore"):
            fv = np.where(lam_field > 0, (gv / (p * np.maximum(lam_field, 1e-300))) ** (1.0 / (p - 1.0)), 0.0)
        return fv

    root = grid.root()

    def tighten(active: list[Cube], mults: np.ndarray, idx: int) -> None:
        """Bisect mults[idx] so the constraint of active[idx] is tight."""
        c = active[idx]
        target = beta(c)

        def violation(m: float) -> float:
            mults[idx] = m
            fv = primal_from(active, mults)
            return float((fv[c.slices] ** p).sum()) * cellvol - target

        lo_m, hi_m = 1e-12, 1.0
        while violation(hi_m) > 0 and hi_m < 1e12:
            hi_m *= 4.0
        while violation(lo_m) < 0 and lo_m > 1e-300:
            lo_m /= 4.0
        for _ in range(80):
            mid = math.sqrt(lo_m * hi_m)
            if violation(mid) > 0:
                lo_m = mid
            else:
                hi_m = mid
        mults[idx] = hi_m

    active: list[Cube] = [root]
    mults = np.array([1.0])
    tighten(active, mults, 0)

    best_val, best_f = -np.inf, None
    converged = False
    gap = math.inf
    for it in range(max_iter):
        fv = primal_from(active, mults)
        norm = feasible_scale(fv)
        feas = fv / norm
        val = primal_value(feas)
        if val > best_val:
            best_val, best_f = val, feas
        dv = dual_value(active, mults)
        gap = (dv - best_val) / dv if dv > 0 else math.inf
        if gap <= tol:
            converged = True
            break
        # most violated constraint of the raw iterate
        res = morrey_norm(GridFunction(grid, fv), p, p0, fid)
        worst = res.cube
        if all(worst.lo != c.lo or worst.hi != c.hi for c in active):
            active.append(worst)
            mults = np.append(mults, 0.0)
            tighten(active, mults, len(active) - 1)
        else:
            # cyclic refresh of existing multipliers
            for idx in range(len(active)):
                tighten(active, mults, idx)

    result = DualNormResult(best_val, GridFunction(grid, best_f), tuple(active), gap, converged)
    if not converged:
        raise ConvergenceError(
            f"dual solver reached {max_iter} iterations with gap {gap:.3e}", result
        )
    return result
