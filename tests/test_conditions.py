import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from morreylab import _windows, conditions, norms
from morreylab.conditions import (
    DoublingSearch,
    annular_bump,
    annular_bump_growth,
    balance_product,
    balance_upper_supremum,
    classify_trend,
    doubling_kappa_grid,
    doubling_search,
    local_block_condition,
    make_corpus,
    norm_attainment_ratio,
    norm_doubling,
    operator_norm_lower_bound,
    power_admissible_integral,
    power_admissible_maximal,
    sweep_power_blocks,
)
from morreylab.content import make_block
from morreylab.grid import DomainError, Grid, GridFunction, dilate, dyadic_cubes
from morreylab.norms import ExponentSet, IntervalNormTable
from morreylab.weights import power_weight

from bruteforce import (
    brute_balance_upper_supremum,
    brute_fractional_maximal,
    brute_morrey_norm,
    brute_norm_doubling,
    brute_norm_doubling_1d,
)
from conftest import random_function

WORKED = ExponentSet.coupled(1, 2.0, 4.0, 0.125)


class TestBalanceProduct:
    def test_unit_weight_closed_form(self):
        # for w = 1 the indicator-block upper end collapses, via the exponent
        # couplings, to the same value 1 on every dyadic cube
        g = Grid(1, 6)
        w = GridFunction.constant(g, 1.0)
        for cube in dyadic_cubes(g):
            res = balance_product(w, WORKED, cube)
            assert res.interval.upper == pytest.approx(1.0, abs=1e-9)

    def test_supremum_matches_per_cube(self, rng):
        g = Grid(1, 5)
        w = random_function(g, rng, -1.0, 1.0)
        best = max(balance_product(w, WORKED, c).interval.upper for c in dyadic_cubes(g))
        sup = balance_upper_supremum(w, WORKED).interval.upper
        assert sup == pytest.approx(best, rel=1e-12)

    def test_interval_orders(self, rng):
        g = Grid(1, 4)
        w = random_function(g, rng, -0.5, 0.5)
        cube = g.dyadic_cube(1, (0,))
        res = balance_product(w, WORKED, cube, with_dual=True, dual_tol=0.05)
        assert res.interval.lower <= res.interval.upper * 5  # equivalence constant logged
        assert "lower" in res.interval.provenance
        assert "upper" in res.interval.provenance

    def test_admissible_power_weight_stable(self):
        vals = []
        for L in (6, 8, 10):
            g = Grid(1, L)
            w = power_weight(g, 0.25, center=0.5)
            blocks = sweep_power_blocks(g, WORKED.lam, 0.5)
            vals.append(balance_upper_supremum(w, WORKED, blocks).interval.upper)
        assert classify_trend(vals, stable_tol=0.15).label == "stable"

    def test_inadmissible_power_weight_grows(self):
        vals = []
        for L in (6, 8, 10):
            g = Grid(1, L)
            w = power_weight(g, -0.5, center=0.5)
            blocks = sweep_power_blocks(g, WORKED.lam, 0.5)
            vals.append(balance_upper_supremum(w, WORKED, blocks).interval.upper)
        assert classify_trend(vals).label == "blowup"


def assert_same_balance(fast, slow):
    """Every BalanceResult field and the provenance label with ==."""
    assert (fast.cube, fast.norm_part, fast.block_upper, fast.block_lower) == \
        (slow.cube, slow.norm_part, slow.block_upper, slow.block_lower)
    assert fast.interval.upper == slow.interval.upper
    assert fast.interval.lower == slow.interval.lower
    assert fast.interval.provenance == slow.interval.provenance


def balance_block_sets(g, exps, center):
    """No power blocks, the sweep ladder, and the ladder behind an indicator
    block, which vanishes somewhere, so the sweep skips it."""
    block_sets = [None, sweep_power_blocks(g, exps.lam, center)]
    if g.depth >= 1:
        indicator = make_block(g, exps.lam, "indicator", cube=g.dyadic_cube(1, (1,) * g.ndim))
        block_sets.append([indicator] + block_sets[-1])
    return block_sets


class TestBalanceSweep1D:
    """The per-level balance sweep in 1D against the per-cube oracle."""

    # outside, on and between both boundaries (-1/8 and 3/4 for both sets)
    RHOS = (-0.5, -0.125, 0.3, 0.75, 1.0)
    # p' = 2 makes the block powers square roots, which np.power and scalar
    # ** round alike; p' = 3 tells them apart
    P_CONJ_3 = ExponentSet.coupled(1, 1.5, 4.0, 0.125)

    @pytest.mark.parametrize("exps", [WORKED, P_CONJ_3])
    def test_rhos_cross_both_boundaries(self, exps):
        admissible = [power_admissible_maximal(r, exps).admissible for r in self.RHOS]
        assert admissible[0] is False and admissible[-1] is False and any(admissible)

    @pytest.mark.parametrize("exps", [WORKED, P_CONJ_3])
    @pytest.mark.parametrize("depth", range(0, 11))
    def test_equals_per_cube_loop(self, depth, exps):
        g = Grid(1, depth)
        for center in (0.0, 0.3, 0.5):
            block_sets = balance_block_sets(g, exps, center)
            for rho in self.RHOS:
                w = power_weight(g, rho, center=center)
                for blocks in block_sets:
                    assert_same_balance(balance_upper_supremum(w, exps, blocks),
                                        brute_balance_upper_supremum(w, exps, blocks))

    def test_builds_only_the_winning_cube(self, monkeypatch):
        g = Grid(1, 8)
        w = power_weight(g, 0.3, center=0.3)
        blocks = sweep_power_blocks(g, WORKED.lam, 0.3)
        built = []
        real = conditions.Grid.dyadic_cube

        def counting(grid, level, coords):
            built.append((level, tuple(coords)))
            return real(grid, level, coords)

        monkeypatch.setattr(conditions.Grid, "dyadic_cube", counting)
        monkeypatch.setattr(conditions, "dyadic_cubes", None)
        res = balance_upper_supremum(w, WORKED, blocks)
        assert len(built) == 1 and res.cube == real(g, *built[0])

    @pytest.mark.parametrize("depth", range(8, 13))
    def test_without_table_equals_interval_table(self, depth):
        # the sweep's own power blocks and centre, as at the balance levels
        # of sweep-power
        g = Grid(1, depth)
        blocks = sweep_power_blocks(g, WORKED.lam, 0.5)
        for rho in self.RHOS:
            w = power_weight(g, rho, center=0.5)
            res = balance_upper_supremum(w, WORKED, blocks)
            table = IntervalNormTable(w, WORKED.q, WORKED.q0)
            assert_same_balance(res, balance_upper_supremum(w, WORKED, blocks, table=table))
            assert_same_balance(res, brute_balance_upper_supremum(w, WORKED, blocks))

    def test_without_table_holds_no_interval_table(self):
        # an L=12 interval table alone is N(N+1)/2 floats, about 67 MB
        g = Grid(1, 12)
        w = power_weight(g, -0.0625, center=0.5)
        blocks = sweep_power_blocks(g, WORKED.lam, 0.5)
        tracemalloc.start()
        try:
            balance_upper_supremum(w, WORKED, blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestBalanceSweep2D:
    """The same sweep in 2D: against the per-cube oracle, and without power
    blocks against a loop of per-cube `balance_product` calls, which is what
    a 2D condition report used to run."""

    E2 = ExponentSet.coupled(2, 2.0, 4.0, 0.25)
    E2_P_CONJ_3 = ExponentSet.coupled(2, 1.5, 4.0, 0.25)
    # outside, on and between both boundaries (-1/4 and 3/2 for both sets)
    RHOS = (-0.75, -0.25, 0.6, 1.5, 2.0)
    CENTERS = ((0.0, 0.0), (0.3, 0.7), (0.5, 0.5))

    @pytest.mark.parametrize("exps", [E2, E2_P_CONJ_3])
    def test_rhos_cross_both_boundaries(self, exps):
        admissible = [power_admissible_maximal(r, exps).admissible for r in self.RHOS]
        assert admissible[0] is False and admissible[-1] is False and any(admissible)
        assert power_admissible_maximal(self.RHOS[1], exps).at_lower_boundary
        assert power_admissible_maximal(self.RHOS[3], exps).at_upper_boundary

    @pytest.mark.parametrize("exps", [E2, E2_P_CONJ_3])
    @pytest.mark.parametrize("depth", range(0, 5))
    def test_equals_per_cube_loop(self, depth, exps):
        g = Grid(2, depth)
        for center in self.CENTERS:
            block_sets = balance_block_sets(g, exps, center)
            for rho in self.RHOS:
                w = power_weight(g, rho, center=center)
                for blocks in block_sets:
                    assert_same_balance(balance_upper_supremum(w, exps, blocks),
                                        brute_balance_upper_supremum(w, exps, blocks))

    @pytest.mark.parametrize("exps", [E2, E2_P_CONJ_3])
    @pytest.mark.parametrize("depth", range(0, 5))
    def test_equals_balance_product_loop(self, depth, exps, rng):
        g = Grid(2, depth)
        weights = [GridFunction.constant(g, 1.0), random_function(g, rng)]
        weights += [power_weight(g, rho, center=c) for c in self.CENTERS for rho in self.RHOS]
        for w in weights:
            best = None
            for cube in dyadic_cubes(g):
                res = balance_product(w, exps, cube)
                if best is None or res.interval.upper > best.interval.upper:
                    best = res
            assert_same_balance(balance_upper_supremum(w, exps), best)

    def test_sweeps_without_per_cube_calls(self, monkeypatch):
        # one integral image of w^(-p') and one per usable power block, read
        # at every level; no balance_product call and one Cube built
        g = Grid(2, 5)
        e2 = self.E2
        w = power_weight(g, 0.6, center=(0.3, 0.7))
        blocks = balance_block_sets(g, e2, (0.3, 0.7))[-1]
        usable = sum(not np.any(b.weight.values <= 0) for b in blocks)
        assert 0 < usable < len(blocks)
        table = norms.restricted_norm_table(w, e2.q, e2.q0)
        expected = balance_upper_supremum(w, e2, blocks, table=table)  # fills the table

        images, built = [], []
        real_prefix, real_cube = _windows.prefix_sum_2d, conditions.Grid.dyadic_cube

        def counting_prefix(values):
            images.append(values.shape)
            return real_prefix(values)

        def counting_cube(grid, level, coords):
            built.append((level, tuple(coords)))
            return real_cube(grid, level, coords)

        def no_call(*args, **kwargs):
            raise AssertionError("per-cube balance_product call")

        monkeypatch.setattr(_windows, "prefix_sum_2d", counting_prefix)
        monkeypatch.setattr(conditions.Grid, "dyadic_cube", counting_cube)
        monkeypatch.setattr(conditions, "balance_product", no_call)
        monkeypatch.setattr(conditions, "dyadic_cubes", None)
        res = balance_upper_supremum(w, e2, blocks, table=table)
        monkeypatch.undo()
        assert images == [g.shape] * (1 + usable)
        assert len(built) == 1 and res.cube == real_cube(g, *built[0])
        assert_same_balance(res, expected)


class TestLocalBlockCondition:
    def test_unit_weight_unit_block(self):
        g = Grid(1, 5)
        w = GridFunction.constant(g, 1.0)
        block = make_block(g, WORKED.lam, "custom", values=GridFunction.constant(g, 1.0))
        res = local_block_condition(w, block, WORKED, g.root(), bound=10.0)
        assert res.a_s_value == pytest.approx(1.0, rel=1e-12)
        # sup of the two-mean product over sub-cubes is 1; the scaling divides
        # by side^(lam/p) = 1 at the root
        assert res.local_apq_value == pytest.approx(1.0, rel=1e-9)
        assert res.ok

    def test_power_weight_with_matching_block(self):
        g = Grid(1, 6)
        w = power_weight(g, 0.25, center=0.5)
        block = make_block(g, WORKED.lam, "power", center=0.5, exponent=WORKED.lam / 2)
        res = local_block_condition(w, block, WORKED, g.root(), bound=math.inf)
        assert math.isfinite(res.local_apq_value)
        assert math.isfinite(res.a_s_value)


class TestDoubling:
    def test_unit_weight_threshold(self):
        # ratio for w = 1 is kappa^(n/q0): doubling needs kappa >= 2^q0 = 256
        g = Grid(1, 10)
        w = GridFunction.constant(g, 1.0)
        assert not norm_doubling(w, WORKED.q, WORKED.q0, 128.0).ok
        assert norm_doubling(w, WORKED.q, WORKED.q0, 256.0).ok
        found = doubling_search(w, WORKED.q, WORKED.q0)
        assert found.kappa == pytest.approx(256.0)

    def test_search_respects_grid_limit(self):
        g = Grid(1, 6)  # kappa grid stops at 64 < 256
        w = GridFunction.constant(g, 1.0)
        assert doubling_search(w, WORKED.q, WORKED.q0).kappa is None

    def test_no_admissible_cube_raises(self):
        g = Grid(1, 3)
        w = GridFunction.constant(g, 1.0)
        with pytest.raises(DomainError):
            norm_doubling(w, WORKED.q, WORKED.q0, 1000.0)

    @pytest.mark.parametrize("depth, rhos", [(5, (-0.375, 0.3)), (6, (-0.125, 0.5)),
                                             (7, (0.0, -0.25)), (8, (0.0625, 0.9)),
                                             (9, (-0.0625, 0.25))])
    def test_matches_per_cube_loop(self, depth, rhos, rng):
        # every DoublingCheck field, at every kappa of the search grid; the
        # constant and mirror-symmetric weights tie on many cubes
        g = Grid(1, depth)
        weights = [GridFunction.constant(g, 1.0), random_function(g, rng),
                   power_weight(g, rhos[0], center=0.5), power_weight(g, rhos[1], center=0.3)]
        kappas = doubling_kappa_grid(g)
        # within the snap tolerance of 3, 5 and 6: it decides the dilates' ends
        off_lattice = [3.0 + 1e-12, 5.0 + 1e-12, 6.0 - 1e-12]
        for w in weights:
            table = IntervalNormTable(w, WORKED.q, WORKED.q0)
            checks = {}
            for kappa in kappas + off_lattice:
                checks[kappa] = brute_norm_doubling_1d(table, kappa)
                if checks[kappa] is None:
                    with pytest.raises(DomainError):
                        norm_doubling(w, WORKED.q, WORKED.q0, kappa, table=table)
                else:
                    assert norm_doubling(w, WORKED.q, WORKED.q0, kappa, table=table) == checks[kappa]
            expected = []
            for kappa in kappas:
                if checks[kappa] is None:
                    break
                expected.append(checks[kappa])
                if checks[kappa].ok:
                    break
            found = expected[-1].kappa if expected[-1].ok else None
            assert doubling_search(w, WORKED.q, WORKED.q0) == DoublingSearch(found, tuple(expected))

    @staticmethod
    def _recorded_search(w, exps, monkeypatch):
        """doubling_search on w with every support handed to the batched
        `morrey_norms` recorded, as ((lo...), (hi...)) boxes."""
        boxes = []
        real = norms.morrey_norms

        def recording(fs, *args, supports=None, **kwargs):
            boxes.extend((tuple(lo), tuple(hi)) for lo, hi in supports)
            return real(fs, *args, supports=supports, **kwargs)

        monkeypatch.setattr(norms, "morrey_norms", recording)
        got = doubling_search(w, exps.q, exps.q0)
        monkeypatch.undo()
        return got, Counter(boxes)

    @staticmethod
    def _weights_2d(depth, rng):
        g = Grid(2, depth)
        return {"constant": GridFunction.constant(g, 1.0),
                "random": random_function(g, rng),
                "power": power_weight(g, 0.25, center=0.5)}

    @pytest.mark.parametrize("depth, names", [(3, ("constant", "random", "power")),
                                              (4, ("constant", "random", "power")),
                                              (5, ("power",))])
    def test_2d_search_computes_each_denominator_once(self, depth, names, rng, monkeypatch):
        # the whole search equals per-kappa per-cube checks, each restricted
        # norm from its own sweep; at L = 5 one weight only, as the per-cube
        # reference takes seconds per weight
        e2 = ExponentSet.coupled(2, 2.0, 4.0, 0.25)
        weights = self._weights_2d(depth, rng)
        for name in names:
            w = weights[name]
            g = w.grid
            expected = []
            for kappa in doubling_kappa_grid(g):
                chk = brute_norm_doubling(w, e2.q, e2.q0, kappa)
                if chk is None:
                    break
                expected.append(chk)
                if chk.ok:
                    break
            found = expected[-1].kappa if expected[-1].ok else None

            got, boxes = self._recorded_search(w, e2, monkeypatch)
            assert got == DoublingSearch(found, tuple(expected)), name
            # denominators are the dyadic cubes themselves, numerators dilates
            cubes = {(c.lo, c.hi) for c in dyadic_cubes(g)}
            dens = Counter({box: k for box, k in boxes.items() if box in cubes})
            assert dens and max(dens.values()) == 1, name
            assert len(dens) == expected[0].admissible_cubes, name

    @pytest.mark.parametrize("depth", [3, 4, 5])
    def test_2d_search_computes_each_numerator_once(self, depth, rng, monkeypatch):
        # the numerator supports are the unclipped dilates over every kappa
        # tried; dilates by different kappa often snap to the same box, and
        # each distinct box is evaluated once per search
        e2 = ExponentSet.coupled(2, 2.0, 4.0, 0.25)
        for name, w in self._weights_2d(depth, rng).items():
            g = w.grid
            got, boxes = self._recorded_search(w, e2, monkeypatch)
            dilates = [(big.lo, big.hi) for chk in got.checks for c in dyadic_cubes(g)
                       if not (big := dilate(c, chk.kappa)).clipped]
            cubes = {(c.lo, c.hi) for c in dyadic_cubes(g)}
            nums = Counter({box: k for box, k in boxes.items() if box not in cubes})
            assert set(nums) == set(dilates), name
            assert max(nums.values()) == 1, name
            assert len(dilates) > len(nums), name

    def test_boundary_power_weight_fails(self):
        g = Grid(1, 10)
        rho = (-1 + WORKED.lam) / WORKED.q  # q rho = -n + lam exactly
        w = power_weight(g, rho, center=0.5)
        assert doubling_search(w, WORKED.q, WORKED.q0).kappa is None

    def test_admissible_power_weight_found(self):
        g = Grid(1, 10)
        w = power_weight(g, 0.25, center=0.5)
        found = doubling_search(w, WORKED.q, WORKED.q0)
        assert found.kappa is not None and found.kappa <= 512.0


class TestPowerPredicates:
    def test_worked_example_range(self):
        # admissible maximal range for the worked exponents is [-1/8, 3/4)
        assert power_admissible_maximal(-0.125, WORKED).admissible
        assert power_admissible_maximal(-0.125, WORKED).at_lower_boundary
        assert not power_admissible_maximal(-0.126, WORKED).admissible
        assert power_admissible_maximal(0.7499, WORKED).admissible
        assert not power_admissible_maximal(0.75, WORKED).admissible
        assert power_admissible_maximal(0.75, WORKED).at_upper_boundary

    def test_zero_always_admissible(self):
        for alpha in (0.0, 0.125, 0.2):  # alpha < n/p0 keeps the couplings feasible
            e = ExponentSet.coupled(1, 2.0, 4.0, alpha)
            assert power_admissible_maximal(0.0, e).admissible
            assert power_admissible_integral(0.0, e).admissible

    def test_boundary_strictness(self):
        assert power_admissible_maximal(-0.125, WORKED).admissible
        assert not power_admissible_integral(-0.125, WORKED).admissible

    def test_integral_implies_maximal(self, rng):
        for _ in range(50):
            rho = float(rng.uniform(-0.9, 1.5))
            if power_admissible_integral(rho, WORKED).admissible:
                assert power_admissible_maximal(rho, WORKED).admissible


class TestNormAttainment:
    def test_unit_weight_ratio_one(self):
        g = Grid(1, 6)
        w = GridFunction.constant(g, 1.0)
        for cube in dyadic_cubes(g):
            assert norm_attainment_ratio(w, WORKED, cube) == pytest.approx(1.0, rel=1e-12)

    def test_ratio_at_least_one(self, rng):
        g = Grid(1, 5)
        w = random_function(g, rng, -1.0, 1.0)
        for cube in dyadic_cubes(g):
            assert norm_attainment_ratio(w, WORKED, cube) >= 1.0 - 1e-12

    def test_admissible_power_weight_bounded(self):
        g = Grid(1, 8)
        w = power_weight(g, 0.25, center=0.0)
        worst = max(norm_attainment_ratio(w, WORKED, c) for c in dyadic_cubes(g))
        assert worst <= 4.0

    def test_inadmissible_growth_with_steep_exponents(self):
        # the growth rate per refinement step is 2^(1/q - 1/q0); steep
        # exponent sets make it visible
        steep = ExponentSet.coupled(1, 1.1, 11.0, 0.01)
        rho = -0.9
        ratios = []
        for L in (6, 8, 10):
            g = Grid(1, L)
            w = power_weight(g, rho, center=0.0)
            q = g.dyadic_cube(2, (0,))
            ratios.append(norm_attainment_ratio(w, steep, q))
        assert ratios[1] / ratios[0] > 1.5**2
        assert ratios[2] / ratios[1] > 1.5**2


class TestOperatorNormEstimate:
    def test_unit_weight_maximal_stable(self):
        vals = []
        for L in (6, 8):
            g = Grid(1, L)
            w = GridFunction.constant(g, 1.0)
            corpus = make_corpus(g, 99, n_indicators=2, n_point_masses=0,
                                 n_power_bumps=0, n_random_fields=2)
            vals.append(operator_norm_lower_bound("fractional_maximal", w, WORKED, corpus).ratio)
        assert abs(vals[1] / vals[0] - 1) < 0.2

    def test_hand_computation_single_indicator(self):
        g = Grid(1, 3)
        w = GridFunction.constant(g, 1.0)
        f = GridFunction.indicator(g.aligned_cube((0,), 4))
        corpus_like = type("C", (), {"entries": ((("ind",), f),)})
        # direct: ratio of brute norms of M_0.125 f and f
        mf = GridFunction(g, brute_fractional_maximal(f, WORKED.alpha, "aligned"))
        num, _ = brute_morrey_norm(mf, WORKED.q, WORKED.q0, "aligned")
        den, _ = brute_morrey_norm(f, WORKED.p, WORKED.p0, "aligned")
        from morreylab.conditions import TestCorpus as Corpus

        est = operator_norm_lower_bound("fractional_maximal", w, WORKED,
                                        Corpus((("ind", f),), 0))
        assert est.ratio == pytest.approx(num / den, rel=1e-12)

    def test_degenerate_corpus_rejected(self):
        from morreylab.conditions import TestCorpus as Corpus

        g = Grid(1, 4)
        w = GridFunction.constant(g, 1.0)
        zero = GridFunction.constant(g, 0.0)
        with pytest.raises(DomainError):
            operator_norm_lower_bound("fractional_maximal", w, WORKED,
                                      Corpus((("z", zero),), 0))


class TestAnnularBump:
    def test_geometry_two_flanks(self):
        g = Grid(1, 8)
        core = g.aligned_cube((126,), 4)
        f = annular_bump(g, 4, core, 0.5)
        support = f.values > 0
        # two symmetric intervals flanking the doubled core
        inner = dilate(core, 2.0)
        assert not support[inner.slices].any()
        left = support[:inner.lo[0]]
        right = support[inner.hi[0]:]
        assert left.sum() == right.sum() > 0

    def test_m_bound(self):
        g = Grid(1, 6)
        core = g.aligned_cube((30,), 4)
        with pytest.raises(DomainError):
            annular_bump(g, 2, core, 0.5)

    def test_growth_ratios_within_factor_two(self):
        g = Grid(1, 10)
        core = g.aligned_cube((510,), 4)
        rows = annular_bump_growth(g, core, 0.75, (4, 16, 64))
        mins = [r.min_integral_over_logm for r in rows]
        norms = [r.lebesgue_norm_over_logm for r in rows]
        assert max(mins) / min(mins) <= 2.0
        assert max(norms) / min(norms) <= 2.0

    def test_norm_against_radial_oracle(self):
        # the r-th power of the Lebesgue norm is the annulus integral of
        # |y - c|^(-n), whose closed form is 2 log(m/2) in 1D
        g = Grid(1, 10)
        core = g.aligned_cube((510,), 4)
        alpha = 0.75
        r = 1 / alpha
        for m, row in zip((16, 64), annular_bump_growth(g, core, alpha, (16, 64))):
            f = annular_bump(g, m, core, alpha)
            cell_sum = float(np.sum(f.values**r)) * g.cell_volume
            assert cell_sum == pytest.approx(row.radial_oracle, rel=0.15)


class TestClassifier:
    def test_stable(self):
        assert classify_trend([1.0, 1.01, 1.02]).label == "stable"

    def test_blowup(self):
        assert classify_trend([1.0, 1.8, 3.5]).label == "blowup"

    def test_indeterminate(self):
        assert classify_trend([1.0, 1.3, 1.6]).label == "indeterminate"

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            classify_trend([1.0])


def test_balance_and_doubling_2d_smoke():
    # the balance sweep and the doubling search on a flat 2D weight, against
    # their closed forms
    e2 = ExponentSet.coupled(2, 2.0, 4.0, 0.25)
    g = Grid(2, 3)
    w = GridFunction.constant(g, 1.0)
    res = balance_upper_supremum(w, e2)
    assert res.interval.upper == pytest.approx(1.0, abs=1e-9)
    chk = norm_doubling(w, e2.q, e2.q0, 2.0)
    # ratio for the flat weight is kappa^(n/q0) = 2^(2/8) < 2
    assert not chk.ok
    assert chk.worst_ratio == pytest.approx(2.0 ** (2 / 8.0), rel=1e-9)


def test_condition_report_bundle():
    from morreylab.conditions import condition_report

    g = Grid(1, 9)
    w = GridFunction.constant(g, 1.0)
    rep = condition_report(w, WORKED, balance_bound=2.0, attainment_bound=4.0)
    assert rep.balance.interval.upper == pytest.approx(1.0, abs=1e-9)
    assert rep.attainment_worst == pytest.approx(1.0, rel=1e-12)
    assert rep.doubling.kappa == pytest.approx(256.0)
    assert rep.passed
    assert "upper" in rep.balance.interval.provenance


def test_corpus_is_deterministic_and_bounded():
    g = Grid(1, 6)
    c1 = make_corpus(g, 7)
    c2 = make_corpus(g, 7)
    assert [n for n, _ in c1.entries] == [n for n, _ in c2.entries]
    for (_, f1), (_, f2) in zip(c1.entries, c2.entries):
        assert np.array_equal(f1.values, f2.values)
        assert np.all(f1.values >= 0) and np.isfinite(f1.values).all()
