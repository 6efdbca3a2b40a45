"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2's integral half asserts the bare explicit factor exactly as
stated.  That bound is not a theorem on any grid: a plain indicator bump
builds a geometric chain of dyadic contributions above itself that the single
threshold ratio cannot absorb (the provable bound carries the extra factor
1/(1 - 2^-alpha)).  The check is kept faithful and is expected to fail; every
other criterion is expected to pass.
"""

import time

import numpy as np
import pytest

import morreylab as ml
from morreylab.cli import load_config, run_sweep_power, run_universal
from morreylab.conditions import (
    make_corpus,
    norm_attainment_ratio,
    sweep_power_blocks,
)
from morreylab.grid import Grid, GridFunction, dyadic_cubes
from morreylab.norms import ExponentSet, holder_morrey_check, morrey_norm
from morreylab.sparse import (
    build_sparse_integral,
    build_sparse_maximal,
    check_stopping_bounds,
    verify_domination_integral,
    verify_domination_maximal,
    verify_sparse,
)
from morreylab.weights import power_weight

from bruteforce import (
    brute_ap_constant,
    brute_balance_upper_supremum,
    brute_fractional_maximal,
    brute_hausdorff_content,
    brute_morrey_norm,
)

WORKED = ExponentSet.coupled(1, 2.0, 4.0, 0.125)
SLACK = 1e-9


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _fuzz_instances():
    """Shared fuzz corpus: 120 instances at (n=1, L=8) and 80 at (n=2, L=5)."""
    instances = []
    for i in range(120):
        grid = Grid(1, 8)
        seed = 5000 + i
        rng = np.random.default_rng(seed)
        corpus = make_corpus(grid, seed, n_indicators=2, n_point_masses=1,
                             n_power_bumps=1, n_random_fields=1)
        _, f = corpus.entries[int(rng.integers(0, len(corpus.entries)))]
        alpha = float(rng.choice([0.125, 0.25, 0.5, 0.75]))
        level = int(rng.integers(0, 2))
        base = grid.dyadic_cube(level, (int(rng.integers(0, 1 << level)),))
        instances.append((seed, f, alpha, base))
    for i in range(80):
        grid = Grid(2, 5)
        seed = 9000 + i
        rng = np.random.default_rng(seed)
        corpus = make_corpus(grid, seed, n_indicators=2, n_point_masses=1,
                             n_power_bumps=1, n_random_fields=1)
        _, f = corpus.entries[int(rng.integers(0, len(corpus.entries)))]
        alpha = float(rng.choice([0.25, 0.5, 1.0, 1.5]))
        level = int(rng.integers(0, 2))
        coords = tuple(int(rng.integers(0, 1 << level)) for _ in range(2))
        base = grid.dyadic_cube(level, coords)
        instances.append((seed, f, alpha, base))
    return instances


@pytest.fixture(scope="module")
def fuzz_results():
    started = time.perf_counter()
    results = []
    for seed, f, alpha, base in _fuzz_instances():
        res_m = build_sparse_maximal(f, alpha, base)
        alpha_i = alpha if alpha > 0 else 0.25 * f.grid.ndim
        res_i = build_sparse_integral(f, alpha_i, base, kappa=3.0)
        results.append((seed, f, alpha, alpha_i, base, res_m, res_i))
    return results, time.perf_counter() - started


def test_criterion_1_sparseness(fuzz_results):
    """Every stopping family is 1/2-sparse with the exact two-sided bounds."""
    results, build_time = fuzz_results
    started = time.perf_counter()
    violations = []
    for seed, f, alpha, alpha_i, base, res_m, res_i in results:
        for tag, res in (("maximal", res_m), ("integral", res_i)):
            chk = verify_sparse(res.family, 0.5)
            sb = check_stopping_bounds(res)
            if not (chk.ok and sb.lower_ok and sb.upper_ok):
                violations.append((seed, tag, chk.min_ratio, sb))
    elapsed = build_time + (time.perf_counter() - started)
    ok = not violations and elapsed < 60.0
    _report("1 sparseness", ok,
            f"{2 * len(results)} families, {len(violations)} violations, {elapsed:.1f}s")
    assert not violations, violations[:3]
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"


def test_criterion_2_explicit_domination_maximal(fuzz_results):
    """Local maximal domination with the bare factor 9^n 2^(n+1-alpha)."""
    results, _ = fuzz_results
    violations = []
    for seed, f, alpha, _, base, res_m, _ in results:
        dom = verify_domination_maximal(f, alpha, res_m)
        if not dom.local_ok:
            violations.append((seed, dom.local_constant, dom.explicit_bound))
    _report("2a maximal domination", not violations,
            f"{len(results)} instances, {len(violations)} violations")
    assert not violations, violations[:3]


def test_criterion_2_explicit_domination_integral(fuzz_results):
    """Integral-form domination with the bare factor 9^n 2^(n+1), as stated.

    Expected to fail: indicator bumps produce dyadic chains whose geometric
    sum exceeds the bare factor (the corrected factor 1/(1 - 2^-alpha) is
    verified separately in the sparse tests and in criterion 1's fuzz).
    """
    results, _ = fuzz_results
    violations = []
    worst = 0.0
    for seed, f, _, alpha_i, base, _, res_i in results:
        dom = verify_domination_integral(f, alpha_i, res_i)
        worst = max(worst, dom.explicit_constant / dom.explicit_bound)
        if not dom.explicit_ok:
            violations.append((seed, dom.explicit_constant, dom.explicit_bound))
        assert dom.provable_ok, (seed, dom.explicit_constant, dom.provable_bound)
    _report("2b integral domination (bare factor)", not violations,
            f"{len(results)} instances, {len(violations)} violations, "
            f"worst measured/bare = {worst:.3f}")
    assert not violations, (
        f"{len(violations)} instances exceed the bare factor "
        f"(worst ratio {worst:.3f}); the bound needs the geometric chain factor"
    )


def test_criterion_3_universal_estimates():
    """Weighted dyadic maximal bounds with constants p' and p'+1, plus the
    exact localization identity, over 50 random instances."""
    cfg = load_config({"experiment": "universal", "grid": {"n": 1, "L": 6},
                       "seed": 31415, "options": {"instances": 50}})
    _, rows, summary, failures = run_universal(cfg)
    _report("3 universal estimates", failures == 0,
            f"{summary['instances']} instances, {failures} failures")
    assert failures == 0


def test_criterion_4_power_threshold_recovery():
    """Sweep of |x - 1/2|^rho over step 1/16 in [-1/2, 1): balance-trend and
    doubling-search classifications agree with the analytic thresholds except
    at grid points adjacent to a boundary.

    The kappa search and operator columns run at depth <= 10; the balance
    trend adds one refinement step (depths 8, 10, 12 on the 1D fast path)
    because its certified upper estimator converges at rate h^(lam - sigma)
    near the admissibility boundary, too slowly for a depth-10 classification.
    """
    started = time.perf_counter()
    cfg = load_config({
        "experiment": "sweep-power", "grid": {"n": 1, "L": 10}, "seed": 2718,
        "exponents": {"p": 2.0, "p0": 4.0, "alpha": 0.125},
        "options": {"rho_min": -0.5, "rho_max": 1.0, "rho_step": 1 / 16,
                    "levels": [8, 10, 12], "op_levels": [8, 10]},
    })
    _, rows, summary, failures = run_sweep_power(cfg)
    elapsed = time.perf_counter() - started
    misses = [r["rho"] for r in rows if not (r["balance_agrees"] and r["kappa_agrees"])]
    ok = failures == 0 and elapsed < 600.0
    _report("4 power-threshold recovery", ok,
            f"{len(rows)} grid points, misses at {misses} (boundary-adjacent only), "
            f"{elapsed:.0f}s")
    assert failures == 0, [r for r in rows if not r["passed"]]
    assert elapsed < 600.0


# Every row of the 2D sweep below: rho, balance class, the balance values at
# depths 3, 5 and 7, j of the found kappa 2^(j/4) (None: none found), the
# maximal and integral operator-norm classes, and balance_agrees and
# allowed_miss.  Every row passes and its kappa agrees.
SWEEP_2D_ROWS = [
    (-0.75, "blowup", (3.97393977643, 8.00515661806, 16.0154655182), None,
     "stable", "indeterminate", True, False),
    (-0.5, "indeterminate", (2.13275755303, 3.0357295033, 4.29416643235), None,
     "indeterminate", "indeterminate", True, True),
    (-0.25, "stable", (1.19849018233, 1.20487228251, 1.2051157791), None,
     "stable", "stable", True, False),
    (0.0, "stable", (1.0, 1.0, 1.0), 16, "stable", "stable", True, True),
    (0.25, "stable", (1.07887825479,) * 3, 16, "stable", "stable", True, False),
    (0.5, "stable", (1.29874060678,) * 3, 15, "stable", "stable", True, False),
    (0.75, "stable", (1.71485934347,) * 3, 14, "stable", "stable", True, False),
    (1.0, "stable", (2.63361204534, 2.9828047351, 3.28087434913), 14,
     "stable", "stable", True, False),
    (1.25, "indeterminate", (4.34699534839, 6.45308462157, 8.45515431779), 13,
     "stable", "stable", False, True),
    (1.5, "indeterminate", (7.43217893944, 15.4097306771, 21.3468334132), 13,
     "stable", "stable", True, False),
]


def test_power_threshold_recovery_2d():
    """The criterion-4 sweep in 2D: |x - (1/2, 1/2)|^rho for rho in
    [-3/4, 3/2] at step 1/4, balance trend at depths 3, 5 and 7 and operator
    classes at 3 and 5.  Every row is pinned (values to relative 1e-9), and
    the depth-3 and depth-5 balance values are checked once against the
    per-cube oracle."""
    started = time.perf_counter()
    cfg = load_config({
        "experiment": "sweep-power", "grid": {"n": 2, "L": 5}, "seed": 2718,
        "exponents": {"p": 2.0, "p0": 4.0, "alpha": 0.25},
        "options": {"rho_min": -0.75, "rho_max": 1.75, "rho_step": 0.25,
                    "levels": [3, 5, 7], "op_levels": [3, 5]},
    })
    _, rows, summary, failures = run_sweep_power(cfg)
    elapsed = time.perf_counter() - started
    _report("2D power-threshold recovery", failures == 0,
            f"{len(rows)} grid points, {elapsed:.1f}s")
    assert summary["boundaries"] == [-0.25, 1.5]
    assert failures == 0 and len(rows) == len(SWEEP_2D_ROWS)
    for row, (rho, cls, values, j, op_max, op_int, agrees, allowed) in zip(rows, SWEEP_2D_ROWS):
        assert row["rho"] == rho
        assert (row["balance_class"], row["opnorm_maximal_class"],
                row["opnorm_integral_class"]) == (cls, op_max, op_int), rho
        assert row["kappa_found"] == ("none" if j is None else 2.0 ** (j / 4.0)), rho
        assert (row["balance_agrees"], row["kappa_agrees"], row["allowed_miss"],
                row["passed"]) == (agrees, True, allowed, True), rho
        got = [float(v) for v in row["balance_values"].split("|")]
        assert got == pytest.approx(list(values), rel=1e-9), rho
        assert (row["maximal_admissible"], row["integral_admissible"]) == \
            (-0.25 <= rho < 1.5, -0.25 < rho < 1.5), rho

    exps = cfg.exponents
    for k, L in enumerate((3, 5)):
        g = Grid(2, L)
        blocks = sweep_power_blocks(g, exps.lam, (0.5, 0.5))
        for row in rows:
            w = power_weight(g, row["rho"], center=(0.5, 0.5))
            oracle = brute_balance_upper_supremum(w, exps, blocks).interval.upper
            assert float(row["balance_values"].split("|")[k]) == \
                pytest.approx(oracle, rel=1e-11), (L, row["rho"])


def test_criterion_5_counterexample_growth():
    """Against a boundary weight (doubling fails), the integral-operator ratio
    grows with the documented exponent across m in {4, 16, 64, 256} while the
    maximal-operator ratio is refinement-stable.

    Calibration note: the exponent set (p, p0, alpha) = (1.1, 1.2, 3/4) keeps
    the kernel's self-cell term small and the boundary weight shallow, so the
    asymptotic regime is reached at depth 10; the fitted exponent was derived
    once from the closed-form analysis and frozen.
    """
    exps = ExponentSet.coupled(1, 1.1, 1.2, 0.75)
    rho = (-1 + exps.lam) / exps.q
    grid = Grid(1, 10)
    w = power_weight(grid, rho, center=0.5)
    assert ml.doubling_search(w, exps.q, exps.q0).kappa is None  # (c) fails

    half = grid.cells_per_side // 2
    core = grid.aligned_cube((half - 2,), 4)
    m_values = (4, 16, 64, 256)
    ratios = []
    for m in m_values:
        f = ml.annular_bump(grid, m, core, exps.alpha)
        den = morrey_norm(f * w, exps.p, exps.p0).value
        num = morrey_norm(ml.fractional_integral(f, exps.alpha).result * w,
                          exps.q, exps.q0).value
        ratios.append(num / den)
    x = np.log(np.log(np.array(m_values, dtype=float)))
    slope = float(np.polyfit(x, np.log(ratios), 1)[0])
    target = 1.0 - exps.alpha
    slope_ok = abs(slope - target) <= 0.15

    m_ratios = []
    for depth in (8, 10):
        g = Grid(1, depth)
        wl = power_weight(g, rho, center=0.5)
        cl = g.aligned_cube((g.cells_per_side // 2 - 2,), 4)
        f = ml.annular_bump(g, 16, cl, exps.alpha)
        mf = ml.fractional_maximal(f, exps.alpha).result
        m_ratios.append(morrey_norm(mf * wl, exps.q, exps.q0).value
                        / morrey_norm(f * wl, exps.p, exps.p0).value)
    stable = abs(m_ratios[1] / m_ratios[0] - 1) < 0.10

    ok = slope_ok and stable
    _report("5 counterexample growth", ok,
            f"slope {slope:.3f} vs target {target} +-0.15; maximal ratio "
            f"refinement change {abs(m_ratios[1] / m_ratios[0] - 1):.4f}")
    assert slope_ok, (slope, target)
    assert stable, m_ratios


def test_criterion_6_norm_attainment():
    """Attainment ratio <= 4 for the unit weight and admissible power weights
    (regression bound frozen after calibration); > 50% growth per depth step
    for an inadmissible weight under a steep exponent set."""
    worst = 0.0
    g = Grid(1, 8)
    for rho in (None, 0.0, 0.25, 0.5):
        w = GridFunction.constant(g, 1.0) if rho is None else power_weight(g, rho)
        worst = max(worst, max(norm_attainment_ratio(w, WORKED, c)
                               for c in dyadic_cubes(g)))
    bounded_ok = worst <= 4.0

    steep = ExponentSet.coupled(1, 1.1, 11.0, 0.01)
    vals = []
    for depth in range(6, 11):
        gd = Grid(1, depth)
        w = power_weight(gd, -0.9)
        vals.append(norm_attainment_ratio(w, steep, gd.dyadic_cube(2, (0,))))
    steps = [b / a for a, b in zip(vals, vals[1:])]
    growth_ok = all(s > 1.5 for s in steps)

    ok = bounded_ok and growth_ok
    _report("6 norm attainment", ok,
            f"admissible worst ratio {worst:.3f} <= 4; inadmissible per-step "
            f"growth {min(steps):.3f} > 1.5")
    assert bounded_ok, worst
    assert growth_ok, steps


def test_criterion_7_exact_inequality_suites():
    """500 random Hölder triples and 200 lattice-monotonicity instances, all
    exact with relative slack 1e-9."""
    g = Grid(1, 6)
    rng = np.random.default_rng(777)
    holder_bad = 0
    for i in range(500):
        p = float(rng.choice([1.5, 2.0, 4.0]))
        f = GridFunction(g, np.exp(rng.uniform(-3, 3, g.shape)))
        h = GridFunction(g, np.exp(rng.uniform(-3, 3, g.shape)))
        b = GridFunction(g, np.exp(rng.uniform(-3, 3, g.shape)))
        if not holder_morrey_check(f, h, b, p).ok:
            holder_bad += 1

    mono_bad = 0
    triples = [(3.0, 2.0, 4.0), (2.0, 1.5, 4.0), (2.5, 1.2, 3.0)]
    for i in range(200):
        f = GridFunction(g, np.exp(rng.uniform(-3, 3, g.shape)))
        p1, p2, p0 = triples[i % 3]
        hi = morrey_norm(f, p1, p0).value
        lo = morrey_norm(f, p2, p0).value
        if lo > hi * (1 + SLACK):
            mono_bad += 1

    ok = holder_bad == 0 and mono_bad == 0
    _report("7 exact inequality suites", ok,
            f"holder violations {holder_bad}/500, monotonicity violations {mono_bad}/200")
    assert holder_bad == 0 and mono_bad == 0


def test_criterion_8_oracle_equivalence():
    """Norms, Muckenhoupt constants, contents, and the maximal operator match
    exhaustive brute-force enumeration at n=1, L <= 4 to relative 1e-12."""
    failures = []
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        g = Grid(1, 4)
        f = GridFunction(g, np.exp(rng.uniform(-2, 2, g.shape)))
        w = GridFunction(g, np.exp(rng.uniform(-1.5, 1.5, g.shape)))
        for fidelity in ("dyadic", "aligned"):
            expect, _ = brute_morrey_norm(f, 2.0, 4.0, fidelity)
            got = morrey_norm(f, 2.0, 4.0, fidelity).value
            if abs(got - expect) > 1e-12 * expect:
                failures.append(("morrey", fidelity, seed))
            for p in (1.0, 2.0):
                expect = brute_ap_constant(w, p, fidelity)
                got = ml.ap_constant(w, p, fidelity).value
                if abs(got - expect) > 1e-12 * expect:
                    failures.append(("ap", p, fidelity, seed))
            expect_m = brute_fractional_maximal(f, 0.25, fidelity)
            got_m = ml.fractional_maximal(f, 0.25, fidelity).values
            if not np.allclose(got_m, expect_m, rtol=1e-12, atol=0):
                failures.append(("maximal", fidelity, seed))
        g3 = Grid(1, 3)
        mask = rng.random(g3.shape) < 0.4
        if mask.any():
            expect = brute_hausdorff_content(g3, mask, 0.6)
            got = ml.hausdorff_content(g3, mask, 0.6).value
            if abs(got - expect) > 1e-12 * expect:
                failures.append(("content", seed))
    _report("8 oracle equivalence", not failures, f"{len(failures)} mismatches")
    assert not failures, failures
