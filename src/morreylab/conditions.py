"""Computable weight conditions: balance products, doubling, power thresholds,
norm attainment, empirical operator norms, and the annular counterexample family.

Quantities that involve the block-space norm are reported as intervals whose
ends come from the two one-sided estimators; every value carries its estimator
provenance, and pass/fail decisions are only ever made from the certified side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._windows import prefix_sum_1d
from .content import (
    BlockCertificate,
    ConvergenceError,
    block_norm_dual,
    block_norm_upper,
    make_block,
)
from .grid import (
    Cube,
    DomainError,
    Fidelity,
    Grid,
    GridFunction,
    dilate,
    dilate_intervals,
    dyadic_cubes,
    require_weight,
)
from .norms import ExponentSet, IntervalNormTable, morrey_norm
from .operators import fractional_integral, fractional_maximal


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    provenance: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class BalanceResult:
    """Balance product |Q|^(alpha/n - 1) * ||w 1_Q|| * ||w^-1 1_Q||_block for one cube."""

    cube: Cube
    interval: Interval
    norm_part: float
    block_upper: float
    block_lower: float | None


def _restricted_norm(w: GridFunction, q: float, q0: float, cube: Cube,
                     fidelity: Fidelity | None) -> float:
    return morrey_norm(w, q, q0, fidelity, support=cube).value


def _indicator_block_upper(w_neg_pc_prefix, lam: float, pc: float, cube: Cube,
                           grid: Grid, cellvol: float) -> float:
    """Best dyadic-indicator block for w^-1 restricted to a dyadic cube: the
    cube's own block, in closed form."""
    if grid.ndim == 1:
        s = float(w_neg_pc_prefix[cube.hi[0]] - w_neg_pc_prefix[cube.lo[0]]) * cellvol
    else:
        p = w_neg_pc_prefix
        s = float(p[cube.hi[0], cube.hi[1]] - p[cube.lo[0], cube.hi[1]]
                  - p[cube.hi[0], cube.lo[1]] + p[cube.lo[0], cube.lo[1]]) * cellvol
    return (cube.side_length ** (lam * (pc - 1.0)) * s) ** (1.0 / pc)


def balance_product(w: GridFunction, exps: ExponentSet, cube: Cube,
                    power_blocks: list[BlockCertificate] | None = None,
                    with_dual: bool = False, dual_tol: float = 0.05,
                    dual_max_iter: int = 200,
                    fidelity: Fidelity | None = None) -> BalanceResult:
    """Balance product for one cube, as an interval.

    Upper end: candidate-block upper bound on the block-space factor (dyadic
    indicator blocks in closed form plus any supplied power blocks).  Lower
    end (optional, costs a dual solve): the duality lower estimator; it is
    certified only up to the equivalence constant of the dual representation
    and is labeled as such in the provenance.
    """
    require_weight(w)
    grid = w.grid
    pc = exps.p_conj
    cellvol = grid.cell_volume
    prefactor = cube.volume ** (exps.alpha / grid.ndim - 1.0)
    norm_part = _restricted_norm(w, exps.q, exps.q0, cube, fidelity)

    w_neg = w.power(-1.0)
    if grid.ndim == 1:
        pref = prefix_sum_1d(w_neg.values**pc)
    else:
        from ._windows import prefix_sum_2d

        pref = prefix_sum_2d(w_neg.values**pc)
    upper_block = _indicator_block_upper(pref, exps.lam, pc, cube, grid, cellvol)
    provenance = {"upper": "candidate blocks (dyadic indicators closed form)"}
    if power_blocks:
        g_q = w_neg.restrict(cube)
        alt = block_norm_upper(g_q, pc, exps.lam, power_blocks)
        if alt.value < upper_block:
            upper_block = alt.value
            provenance["upper"] = f"candidate blocks (power: {alt.block.label})"

    lower_block = None
    if with_dual:
        g_q = w_neg.restrict(cube)
        try:
            dual = block_norm_dual(g_q, exps.p, exps.lam, tol=dual_tol,
                                   fidelity=fidelity, max_iter=dual_max_iter)
        except ConvergenceError as err:
            dual = err.best
        lower_block = dual.value
        provenance["lower"] = "duality lower estimator (up to equivalence constant)"

    interval = Interval(
        lower=prefactor * norm_part * (lower_block if lower_block is not None else 0.0),
        upper=prefactor * norm_part * upper_block,
        provenance=provenance,
    )
    return BalanceResult(cube, interval, norm_part, upper_block, lower_block)


def balance_upper_supremum(w: GridFunction, exps: ExponentSet,
                           power_blocks: list[BlockCertificate] | None = None,
                           fidelity: Fidelity | None = None) -> BalanceResult:
    """sup over dyadic cubes of the balance product's certified upper end.

    1D uses the all-interval norm table and prefix sums so the sweep over all
    dyadic cubes is O(N^2); 2D falls back to per-cube evaluation.
    """
    require_weight(w)
    grid = w.grid
    pc = exps.p_conj
    cellvol = grid.cell_volume
    w_neg = w.power(-1.0)

    best: BalanceResult | None = None
    if grid.ndim == 1:
        table = IntervalNormTable(w, exps.q, exps.q0)
        pref = prefix_sum_1d(w_neg.values**pc)
        power_integrands = []
        for cert in power_blocks or []:
            bv = cert.weight.values
            with np.errstate(divide="ignore"):
                integrand = np.where(bv > 0, w_neg.values**pc * np.where(bv > 0, bv, 1.0) ** (1.0 - pc), np.inf)
            power_integrands.append((cert, prefix_sum_1d(np.where(np.isfinite(integrand), integrand, 0.0)),
                                     np.any(bv <= 0)))
        for cube in dyadic_cubes(grid):
            lo, hi = cube.lo[0], cube.hi[0]
            norm_part = table.value(lo, hi)
            s = float(pref[hi] - pref[lo]) * cellvol
            upper_block = (cube.side_length ** (exps.lam * (pc - 1.0)) * s) ** (1.0 / pc)
            prov = "indicator"
            for cert, ppref, has_zero in power_integrands:
                if has_zero:
                    continue
                v = (float(ppref[hi] - ppref[lo]) * cellvol) ** (1.0 / pc)
                if v < upper_block:
                    upper_block, prov = v, cert.label
            prefactor = cube.volume ** (exps.alpha / grid.ndim - 1.0)
            val = prefactor * norm_part * upper_block
            if best is None or val > best.interval.upper:
                best = BalanceResult(cube, Interval(0.0, val, {"upper": prov}),
                                     norm_part, upper_block, None)
    else:
        for cube in dyadic_cubes(grid):
            res = balance_product(w, exps, cube, power_blocks, fidelity=fidelity)
            if best is None or res.interval.upper > best.interval.upper:
                best = res
    assert best is not None
    return best


@dataclass(frozen=True)
class LocalBlockCondition:
    local_apq_value: float  # sup over Q inside the base of the scaled two-mean product
    a_s_value: float        # Muckenhoupt constant of w * b^(1/p)
    ok: bool
    bound: float


def local_block_condition(w: GridFunction, block: BlockCertificate,
                          exps: ExponentSet, base: Cube, s: float | None = None,
                          bound: float = math.inf,
                          fidelity: Fidelity | None = None) -> LocalBlockCondition:
    """Evaluate the localized two-condition check for a candidate block:
    the scaled local two-mean product over sub-cubes of the base, and the
    Muckenhoupt constant of the modified weight w b^(1/p)."""
    require_weight(w)
    if not block.is_member:
        raise DomainError("candidate block is not a verified class member")
    grid = w.grid
    if s is None:
        s = exps.p
    pc = exps.p_conj
    cellvol = grid.cell_volume
    wq = w.values**exps.q
    modified = w.values * np.maximum(block.weight.values, 0.0) ** (1.0 / exps.p)
    with np.errstate(divide="ignore"):
        mod_neg = np.where(modified > 0, modified, np.inf) ** (-pc)

    best = 0.0
    for cube in dyadic_cubes(grid, base):
        m1 = float(wq[cube.slices].sum()) * cellvol / cube.volume
        m2 = float(mod_neg[cube.slices].sum()) * cellvol / cube.volume
        if not math.isfinite(m2):
            best = math.inf
            break
        best = max(best, m1 ** (1.0 / exps.q) * m2 ** (1.0 / pc))
    local_value = best / base.side_length ** (exps.lam / exps.p)

    from .weights import ap_constant

    if np.any(modified <= 0):
        a_s = math.inf
    else:
        a_s = ap_constant(GridFunction(grid, modified), s, fidelity).value

    ok = local_value <= bound and a_s <= bound
    return LocalBlockCondition(local_value, a_s, ok, bound)


@dataclass(frozen=True)
class DoublingCheck:
    ok: bool
    worst_cube: Cube | None
    worst_ratio: float
    kappa: float
    admissible_cubes: int


def norm_doubling(w: GridFunction, q: float, q0: float, kappa: float,
                  fidelity: Fidelity | None = None,
                  table: IntervalNormTable | None = None) -> DoublingCheck:
    """Check 2 ||w 1_Q|| <= ||w 1_{kappa Q}|| over dyadic Q whose kappa-dilate
    stays inside the root (unclipped), in the (q, q0) Morrey scale.

    In 1D the norms come from w's IntervalNormTable in that scale; a caller
    that checks many kappa passes it as `table` so it is built once.  The
    witness is the first cube attaining the minimal ratio, in dyadic_cubes
    order.
    """
    require_weight(w)
    if kappa <= 1:
        raise DomainError(f"need kappa > 1, got {kappa}")
    grid = w.grid
    if grid.ndim == 1:
        return _norm_doubling_1d(table if table is not None else IntervalNormTable(w, q, q0),
                                 kappa)
    worst, worst_cube, count = math.inf, None, 0
    for cube in dyadic_cubes(grid):
        big = dilate(cube, kappa)
        if big.clipped:
            continue
        count += 1
        num = morrey_norm(w, q, q0, fidelity, support=big).value
        den = morrey_norm(w, q, q0, fidelity, support=cube).value
        ratio = num / den
        if ratio < worst:
            worst, worst_cube = ratio, cube
    if count == 0:
        raise DomainError(f"no admissible cube: kappa={kappa} too large for the grid")
    return DoublingCheck(worst >= 2.0 * (1 - 1e-12), worst_cube, worst, kappa, count)


def _norm_doubling_1d(table: IntervalNormTable, kappa: float) -> DoublingCheck:
    """norm_doubling on a 1D grid, one dyadic level at a time.

    A level's first arg-min replaces the level's cubes only on strict
    improvement, which is the tie order of a loop over dyadic_cubes.
    """
    grid = table.grid
    n = grid.cells_per_side
    worst, worst_cube, count = math.inf, None, 0
    for level in range(grid.depth + 1):
        side = n >> level
        lo = np.arange(0, n, side)
        big_lo, big_hi = dilate_intervals(lo, lo + side, kappa)
        inside = np.flatnonzero((big_lo >= 0) & (big_hi <= n))
        if inside.size == 0:
            continue
        count += inside.size
        ratio = (table.values(big_lo[inside], big_hi[inside])
                 / table.values(lo[inside], lo[inside] + side))
        k = int(np.argmin(ratio))
        if ratio[k] < worst:
            worst, worst_cube = float(ratio[k]), grid.dyadic_cube(level, (int(inside[k]),))
    if count == 0:
        raise DomainError(f"no admissible cube: kappa={kappa} too large for the grid")
    return DoublingCheck(worst >= 2.0 * (1 - 1e-12), worst_cube, worst, kappa, count)


def doubling_kappa_grid(grid: Grid) -> list[float]:
    """Geometric search grid 2^(j/4) up to the grid extent."""
    return [2.0 ** (j / 4.0) for j in range(1, 4 * grid.depth + 1)]


@dataclass(frozen=True)
class DoublingSearch:
    kappa: float | None
    checks: tuple[DoublingCheck, ...]


def doubling_search(w: GridFunction, q: float, q0: float,
                    kappa_grid: list[float] | None = None,
                    fidelity: Fidelity | None = None) -> DoublingSearch:
    """Smallest kappa on the geometric grid satisfying the doubling condition,
    or none if the grid is exhausted."""
    grid = w.grid
    kappas = kappa_grid if kappa_grid is not None else doubling_kappa_grid(grid)
    table = IntervalNormTable(w, q, q0) if grid.ndim == 1 else None
    checks = []
    for kappa in kappas:
        try:
            chk = norm_doubling(w, q, q0, kappa, fidelity, table)
        except DomainError:
            break
        checks.append(chk)
        if chk.ok:
            return DoublingSearch(kappa, tuple(checks))
    return DoublingSearch(None, tuple(checks))


@dataclass(frozen=True)
class PowerPredicate:
    admissible: bool
    at_lower_boundary: bool
    at_upper_boundary: bool


def power_admissible_maximal(rho: float, exps: ExponentSet,
                             tol: float = 1e-12) -> PowerPredicate:
    """Exact admissibility of |x|^rho for the maximal operator:
    -n + lam <= q rho and p rho < n (p - 1) + lam."""
    n = exps.n
    lower = exps.q * rho - (-n + exps.lam)
    upper = n * (exps.p - 1) + exps.lam - exps.p * rho
    return PowerPredicate(
        admissible=lower >= -tol and upper > tol,
        at_lower_boundary=abs(lower) <= tol,
        at_upper_boundary=abs(upper) <= tol,
    )


def power_admissible_integral(rho: float, exps: ExponentSet,
                              tol: float = 1e-12) -> PowerPredicate:
    """Same with the strict lower inequality: -n + lam < q rho."""
    base = power_admissible_maximal(rho, exps, tol)
    return PowerPredicate(
        admissible=base.admissible and not base.at_lower_boundary,
        at_lower_boundary=base.at_lower_boundary,
        at_upper_boundary=base.at_upper_boundary,
    )


def norm_attainment_ratio(w: GridFunction, exps: ExponentSet, cube: Cube,
                          fidelity: Fidelity | None = None) -> float:
    """Restricted norm of w over the cube divided by the full-cube value
    |Q|^(1/q0) (avg_Q w^q)^(1/q); always >= 1."""
    require_weight(w)
    grid = w.grid
    num = _restricted_norm(w, exps.q, exps.q0, cube, fidelity)
    mean = float((w.values[cube.slices] ** exps.q).sum()) * grid.cell_volume / cube.volume
    den = cube.volume ** (1.0 / exps.q0) * mean ** (1.0 / exps.q)
    return num / den


@dataclass(frozen=True)
class TestCorpus:
    """Named nonnegative bounded test functions, deterministic in the seed."""

    entries: tuple[tuple[str, GridFunction], ...]
    seed: int


def make_corpus(grid: Grid, seed: int,
                n_indicators: int = 3, n_point_masses: int = 2,
                n_power_bumps: int = 3, n_random_fields: int = 4) -> TestCorpus:
    rng = np.random.default_rng(seed)
    entries: list[tuple[str, GridFunction]] = []

    def random_dyadic_cube() -> Cube:
        level = int(rng.integers(1, max(grid.depth, 2)))
        coords = tuple(int(rng.integers(0, 1 << level)) for _ in range(grid.ndim))
        return grid.dyadic_cube(level, coords)

    for i in range(n_indicators):
        entries.append((f"indicator_{i}", GridFunction.indicator(random_dyadic_cube())))
    for i in range(n_point_masses):
        cell = tuple(int(rng.integers(0, grid.cells_per_side)) for _ in range(grid.ndim))
        entries.append((f"point_mass_{i}", GridFunction.point_mass(grid, cell)))
    for i in range(n_power_bumps):
        cube = random_dyadic_cube()
        s = float(rng.uniform(0.1, 0.9)) * grid.ndim
        centers = grid.cell_centers()
        c = cube.center
        if grid.ndim == 1:
            d = np.abs(centers[..., 0] - c[0])
        else:
            d = np.hypot(centers[..., 0] - c[0], centers[..., 1] - c[1])
        vals = np.where(cube.mask(), np.maximum(d, grid.cell_side) ** (-s), 0.0)
        entries.append((f"power_bump_{i}", GridFunction(grid, vals)))
    for i in range(n_random_fields):
        vals = np.exp(rng.uniform(-3.0, 3.0, size=grid.shape))
        entries.append((f"random_field_{i}", GridFunction(grid, vals)))
    return TestCorpus(tuple(entries), seed)


@dataclass(frozen=True)
class OperatorNormEstimate:
    """Empirical sup ratio over a corpus: a LOWER bound on the operator norm."""

    ratio: float
    maximizer: str
    per_function: tuple[tuple[str, float], ...]


def operator_images(op_tag: str, corpus: TestCorpus, alpha: float,
                    fidelity: Fidelity | None = None) -> tuple[GridFunction, ...]:
    """T f for every corpus entry.  It does not depend on the weight, so a
    sweep over weights computes it once per corpus."""
    if op_tag == "fractional_maximal":
        return tuple(fractional_maximal(f, alpha, fidelity).result for _, f in corpus.entries)
    if op_tag == "fractional_integral":
        return tuple(fractional_integral(f, alpha).result for _, f in corpus.entries)
    raise DomainError(f"unknown operator tag {op_tag!r}")


def corpus_norms(w: GridFunction, exps: ExponentSet, corpus: TestCorpus,
                 fidelity: Fidelity | None = None) -> tuple[float, ...]:
    """||f w||_{p, lam} for every corpus entry: the denominators of every
    operator's ratio."""
    return tuple(morrey_norm(f * w, exps.p, exps.p0, fidelity).value for _, f in corpus.entries)


def operator_norm_lower_bound(op_tag: str, w: GridFunction, exps: ExponentSet,
                              corpus: TestCorpus,
                              fidelity: Fidelity | None = None, *,
                              images: tuple[GridFunction, ...] | None = None,
                              dens: tuple[float, ...] | None = None) -> OperatorNormEstimate:
    """sup over the corpus of ||(T f) w||_{q, lam} / ||f w||_{p, lam}.

    A caller that sweeps weights or operators over one corpus may pass the
    images T f (`operator_images`) and the denominators (`corpus_norms`) it
    already holds; they are computed here otherwise.
    """
    require_weight(w)
    if not corpus.entries:
        raise DomainError("empty corpus")
    if images is None:
        images = operator_images(op_tag, corpus, exps.alpha, fidelity)
    if dens is None:
        dens = corpus_norms(w, exps, corpus, fidelity)
    best, best_name, rows = -math.inf, None, []
    for (name, _), tf, den in zip(corpus.entries, images, dens):
        num = morrey_norm(tf * w, exps.q, exps.q0, fidelity).value
        if den == 0 and num == 0:
            continue
        ratio = num / den if den > 0 else math.inf
        rows.append((name, ratio))
        if ratio > best:
            best, best_name = ratio, name
    if best_name is None:
        raise DomainError("corpus is entirely degenerate")
    return OperatorNormEstimate(best, best_name, tuple(rows))


def annular_bump(grid: Grid, m: int, cube: Cube, alpha: float) -> GridFunction:
    """Inverse-power bump 1_{mQ minus 2Q}(y) / |y - c(Q)|^alpha (m > 2)."""
    if m <= 2:
        raise DomainError(f"need m > 2, got m={m}")
    outer = dilate(cube, float(m))
    inner = dilate(cube, 2.0)
    mask = outer.mask() & ~inner.mask()
    if not mask.any():
        raise DomainError("annulus geometry infeasible on this grid")
    centers = grid.cell_centers()
    c = cube.center
    if grid.ndim == 1:
        d = np.abs(centers[..., 0] - c[0])
    else:
        d = np.hypot(centers[..., 0] - c[0], centers[..., 1] - c[1])
    vals = np.where(mask, np.where(d > 0, d, 1.0) ** (-alpha), 0.0)
    return GridFunction(grid, vals)


@dataclass(frozen=True)
class AnnularGrowth:
    m: int
    min_integral_over_logm: float
    lebesgue_norm_over_logm: float
    radial_oracle: float


def annular_bump_growth(grid: Grid, cube: Cube, alpha: float,
                        m_values: tuple[int, ...]) -> list[AnnularGrowth]:
    """Companion growth diagnostics for the annular family.

    Reports min over the core cube of the fractional integral divided by
    log m, the L^(n/alpha) norm scaled by (log m)^(alpha/n), and the exact
    radial value of the unscaled norm integral for cross-checking.
    """
    out = []
    n = grid.ndim
    for m in m_values:
        f = annular_bump(grid, m, cube, alpha)
        integral_vals = fractional_integral(f, alpha).values[cube.slices]
        logm = math.log(m)
        r = n / alpha
        norm_pow = float(np.sum(f.values**r) * grid.cell_volume)
        # exact radial integral of |y - c|^(-n) over the unclipped annulus
        oracle = (2.0 if n == 1 else 2.0 * math.pi) * math.log(m / 2.0)
        out.append(AnnularGrowth(
            m=m,
            min_integral_over_logm=float(integral_vals.min()) / logm,
            lebesgue_norm_over_logm=norm_pow ** (1.0 / r) / logm ** (alpha / n),
            radial_oracle=oracle,
        ))
    return out


@dataclass(frozen=True)
class TrendClass:
    label: str  # "stable" | "blowup" | "indeterminate"
    ratios: tuple[float, ...]


def classify_trend(values: list[float], stable_tol: float = 0.10,
                   blowup_tol: float = 0.50) -> TrendClass:
    """Refinement-stability classification of a sequence of values at
    increasing depths (spaced two levels apart): stable if the last step moves
    the value by less than stable_tol, blowup if two consecutive steps each grow
    it by more than blowup_tol."""
    if len(values) < 2:
        raise DomainError("need at least two refinement levels")
    ratios = tuple(b / a if a > 0 else math.inf for a, b in zip(values, values[1:]))
    label = "indeterminate"
    if abs(ratios[-1] - 1.0) < stable_tol:
        label = "stable"
    if len(ratios) >= 2 and ratios[-1] > 1.0 + blowup_tol and ratios[-2] > 1.0 + blowup_tol:
        label = "blowup"
    return TrendClass(label, ratios)


@dataclass(frozen=True)
class ConditionReport:
    """All computed conditions for one weight: values, witnesses, estimator
    provenance, and pass/fail against the configured bounds."""

    exponents: ExponentSet
    balance: BalanceResult          # supremum of the balance product (upper end certified)
    balance_class: str | None       # refinement classification, when levels were swept
    doubling: DoublingSearch
    attainment_worst: float
    attainment_witness: Cube | None
    bounds: dict
    passed: bool


def condition_report(w: GridFunction, exps: ExponentSet,
                     power_blocks: list[BlockCertificate] | None = None,
                     balance_bound: float = math.inf,
                     attainment_bound: float = math.inf,
                     fidelity: Fidelity | None = None) -> ConditionReport:
    """One-stop evaluation of the computable conditions for a weight on its
    own grid (no refinement sweep; the cli wires the multi-depth trend)."""
    balance = balance_upper_supremum(w, exps, power_blocks, fidelity)
    search = doubling_search(w, exps.q, exps.q0, fidelity=fidelity)
    worst, witness = 0.0, None
    for cube in dyadic_cubes(w.grid):
        r = norm_attainment_ratio(w, exps, cube, fidelity)
        if r > worst:
            worst, witness = r, cube
    passed = balance.interval.upper <= balance_bound and worst <= attainment_bound
    return ConditionReport(
        exponents=exps,
        balance=balance,
        balance_class=None,
        doubling=search,
        attainment_worst=worst,
        attainment_witness=witness,
        bounds={"balance": balance_bound, "attainment": attainment_bound},
        passed=passed,
    )


def sweep_power_blocks(grid: Grid, lam: float, singularity) -> list[BlockCertificate]:
    """Power-block ladder for balance sweeps: exponents lam * k/8 (k = 1..7)
    centered at the weight's singularity, which sharpens the upper estimator
    near the admissibility boundary."""
    blocks = []
    for k in range(1, 8):
        s = lam * k / 8.0
        if 0 < s < grid.ndim:
            blocks.append(make_block(grid, lam, "power", center=singularity, exponent=s))
    return blocks
