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

from ._windows import window_kernels
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
    center_distance,
    dilate,
    dilate_intervals,
    dyadic_cubes,
    require_weight,
)
from .norms import (
    ExponentSet,
    IntervalNormTable,
    SupportNormCache,
    dyadic_norm_table,
    morrey_norm,
    morrey_norms,
    restricted_norm_table,
)
from .operators import fractional_integral, fractional_maximal
from .weights import ap_constant


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


_INDICATOR_LABEL = "candidate blocks (dyadic indicators closed form)"


def _power_label(cert: BlockCertificate) -> str:
    return f"candidate blocks (power: {cert.label})"


def balance_product(w: GridFunction, exps: ExponentSet, cube: Cube,
                    power_blocks: list[BlockCertificate] | None = None,
                    with_dual: bool = False, dual_tol: float = 0.05,
                    dual_max_iter: int = 200,
                    fidelity: Fidelity | None = None) -> BalanceResult:
    """Balance product for one cube, as an interval.

    Upper end: candidate-block upper bound on the block-space factor (dyadic
    indicator blocks in closed form plus any supplied power blocks).  Lower
    end (optional, costs a dual solve over the `fidelity` family): the
    duality lower estimator; it is certified only up to the equivalence
    constant of the dual representation and is labeled as such in the
    provenance.
    """
    require_weight(w)
    grid = w.grid
    pc = exps.p_conj
    cellvol = grid.cell_volume
    prefactor = cube.volume ** (exps.alpha / grid.ndim - 1.0)
    norm_part = morrey_norm(w, exps.q, exps.q0, support=cube).value

    # the best dyadic-indicator block for w^-1 on the cube is the cube's own
    w_neg = w.power(-1.0)
    prefix_sum, window_sums = window_kernels(grid.ndim)
    corners = tuple(slice(a, b + 1) for a, b in zip(cube.lo, cube.hi))
    s = window_sums(prefix_sum(w_neg.values**pc)[corners], cube.side_cells).item() * cellvol
    upper_block = (cube.side_length ** (exps.lam * (pc - 1.0)) * s) ** (1.0 / pc)
    provenance = {"upper": _INDICATOR_LABEL}
    if power_blocks:
        g_q = w_neg.restrict(cube)
        alt = block_norm_upper(g_q, pc, exps.lam, power_blocks)
        if alt.value < upper_block:
            upper_block = alt.value
            provenance["upper"] = _power_label(alt.block)

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


def _scalar_powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent entry by entry with Python's scalar `**`."""
    return np.array([v**exponent for v in values.tolist()])


def balance_upper_supremum(w: GridFunction, exps: ExponentSet,
                           power_blocks: list[BlockCertificate] | None = None,
                           table: IntervalNormTable | SupportNormCache | None = None,
                           ) -> BalanceResult:
    """sup over dyadic cubes of the balance product's certified upper end.

    One dyadic level at a time, in any dimension.  The block integrals are
    box sums of one integral image of w^(-p') and one per power block: a
    level's cubes read theirs from the image's entries at multiples of the
    side, in `balance_product`'s term order.  A power block that vanishes
    somewhere is skipped, as its integrand is infinite there.  The restricted
    norms ||w 1_Q|| in the (q, q0) scale come from `table` when a caller that
    also runs a doubling search on w passes its `restricted_norm_table`, so
    it is built once; otherwise from w's `dyadic_norm_table`, which in 1D
    keeps only the dyadic entries of the interval table (O(N) floats, not
    N(N+1)/2) with the same values.  The powers stay Python's scalar `**` per
    cube (`np.power` can differ from it in the last bit).  A level's first
    maximum replaces the best only on strict improvement, so the winner is
    the first cube in dyadic_cubes order attaining the supremum, and only
    its `Cube` is built.
    """
    require_weight(w)
    grid = w.grid
    n = grid.ndim
    pc = exps.p_conj
    cellvol = grid.cell_volume
    if table is None:
        table = dyadic_norm_table(w, exps.q, exps.q0)
    prefix_sum, window_sums = window_kernels(n)
    g = w.power(-1.0).values**pc
    prefixes, labels = [prefix_sum(g)], [_INDICATOR_LABEL]
    for cert in power_blocks or []:
        bv = cert.weight.values
        if np.any(bv <= 0):
            continue  # its integrand is infinite where the block vanishes
        integrand = g * bv ** (1.0 - pc)
        prefixes.append(prefix_sum(np.where(np.isfinite(integrand), integrand, 0.0)))
        labels.append(_power_label(cert))

    cells = grid.cells_per_side
    best_val, best_at = None, None
    for level in range(grid.depth + 1):
        side = cells >> level
        side_length = side * grid.cell_side
        sums = [window_sums(pref[(slice(None, None, side),) * n], 1).reshape(-1) * cellvol
                for pref in prefixes]
        upper = _scalar_powers(side_length ** (exps.lam * (pc - 1.0)) * sums[0], 1.0 / pc)
        prov = np.zeros(upper.shape, dtype=int)
        for j, s in enumerate(sums[1:], 1):
            v = _scalar_powers(s, 1.0 / pc)
            better = v < upper
            upper[better] = v[better]
            prov[better] = j
        # the level's cube corners, row-major as in dyadic_cubes
        starts = np.arange(0, cells, side)
        lo = np.stack(np.meshgrid(*[starts] * n, indexing="ij"), axis=-1).reshape(-1, n)
        norm_part = table.values(lo, lo + side).reshape(-1)
        vals = (side_length**n) ** (exps.alpha / n - 1.0) * norm_part * upper
        k = int(np.argmax(vals))
        if best_val is None or vals[k] > best_val:
            best_val = float(vals[k])
            best_at = (level, lo[k] // side, float(norm_part[k]), float(upper[k]), int(prov[k]))
    level, coords, norm_val, upper_val, j = best_at
    return BalanceResult(grid.dyadic_cube(level, coords),
                         Interval(0.0, best_val, {"upper": labels[j]}), norm_val, upper_val, None)


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
                  table: IntervalNormTable | SupportNormCache | None = None) -> DoublingCheck:
    """Check 2 ||w 1_Q|| <= ||w 1_{kappa Q}|| over dyadic Q whose kappa-dilate
    stays inside the root (unclipped), in the (q, q0) Morrey scale.

    One dyadic level at a time: each axis's cell intervals are dilated with
    `dilate_intervals`, and a level's admissible cubes (every axis unclipped)
    read their norms from w's `restricted_norm_table` in that scale; a caller
    that checks many kappa passes it as `table`, so each norm is computed
    once.  Restricted norms sweep the aligned family.  A level's first
    arg-min replaces the best only on strict improvement, so the witness is
    the first cube attaining the minimal ratio in dyadic_cubes order.
    """
    require_weight(w)
    if kappa <= 1:
        raise DomainError(f"need kappa > 1, got {kappa}")
    grid = w.grid
    if table is None:
        table = restricted_norm_table(w, q, q0)
    n = grid.cells_per_side
    worst, worst_cube, count = math.inf, None, 0
    for level in range(grid.depth + 1):
        side = n >> level
        lo = np.arange(0, n, side)
        big_lo, big_hi = dilate_intervals(lo, lo + side, kappa)
        inside = np.flatnonzero((big_lo >= 0) & (big_hi <= n))
        if inside.size == 0:
            continue
        # the admissible cubes' coordinates, row-major as in dyadic_cubes
        coords = np.stack(np.meshgrid(*[inside] * grid.ndim, indexing="ij"),
                          axis=-1).reshape(-1, grid.ndim)
        count += len(coords)
        ratio = (table.values(big_lo[coords], big_hi[coords])
                 / table.values(lo[coords], lo[coords] + side)).reshape(-1)
        k = int(np.argmin(ratio))
        if ratio[k] < worst:
            worst, worst_cube = float(ratio[k]), grid.dyadic_cube(level, coords[k])
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
                    table: IntervalNormTable | SupportNormCache | None = None) -> DoublingSearch:
    """Smallest kappa on the geometric grid satisfying the doubling condition,
    or none if the grid is exhausted.  Every kappa reads one
    `restricted_norm_table` of w (`table` if given), so each support's norm is
    computed once per search."""
    kappas = kappa_grid if kappa_grid is not None else doubling_kappa_grid(w.grid)
    if table is None:
        table = restricted_norm_table(w, q, q0)
    checks = []
    for kappa in kappas:
        try:
            chk = norm_doubling(w, q, q0, kappa, table)
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


def norm_attainment_ratio(w: GridFunction, exps: ExponentSet, cube: Cube) -> float:
    """Restricted norm of w over the cube (aligned sub-cubes) divided by the
    full-cube value |Q|^(1/q0) (avg_Q w^q)^(1/q); always >= 1."""
    require_weight(w)
    num = morrey_norm(w, exps.q, exps.q0, support=cube).value
    return num / _whole_cube_value(w, exps, cube)


def _whole_cube_value(w: GridFunction, exps: ExponentSet, cube: Cube) -> float:
    """|Q|^(1/q0) (avg_Q w^q)^(1/q): the restricted norm's value at Q itself."""
    mean = float((w.values[cube.slices] ** exps.q).sum()) * w.grid.cell_volume / cube.volume
    return cube.volume ** (1.0 / exps.q0) * mean ** (1.0 / exps.q)


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
        d = center_distance(grid, cube.center)
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
    if not corpus.entries:
        return ()
    return tuple(morrey_norms([f * w for _, f in corpus.entries], exps.p, exps.p0,
                              fidelity).values.tolist())


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
    nums = morrey_norms([tf * w for tf in images], exps.q, exps.q0, fidelity).values
    best, best_name, rows = -math.inf, None, []
    for (name, _), num, den in zip(corpus.entries, nums.tolist(), dens):
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
    d = center_distance(grid, cube.center)
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
                     attainment_bound: float = math.inf) -> ConditionReport:
    """One-stop evaluation of the computable conditions for a weight on its
    own grid (no refinement sweep; the cli wires the multi-depth trend)."""
    table = restricted_norm_table(w, exps.q, exps.q0)
    balance = balance_upper_supremum(w, exps, power_blocks, table)
    search = doubling_search(w, exps.q, exps.q0, table=table)
    cubes = dyadic_cubes(w.grid)
    nums = morrey_norms([w] * len(cubes), exps.q, exps.q0, supports=cubes).values
    worst, witness = 0.0, None
    for cube, num in zip(cubes, nums.tolist()):
        r = num / _whole_cube_value(w, exps, cube)
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
