import itertools
import math
import tracemalloc

import numpy as np
import pytest

from morreylab import content, weights
from morreylab.content import (
    ConvergenceError,
    block_norm_dual,
    block_norm_upper,
    choquet_integral,
    default_blocks,
    hausdorff_content,
    make_block,
    morrey_norm_via_blocks,
)
from morreylab.conditions import sweep_power_blocks
from morreylab.grid import DomainError, Grid, GridFunction
from morreylab.norms import ExponentSet, morrey_norm_lambda

from bruteforce import (
    brute_choquet_riemann,
    brute_hausdorff_content,
    choquet_by_masks,
    choquet_threshold_masks,
    content_values_batched,
)
from conftest import random_function


class TestHausdorffContent:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_single_dyadic_cube(self, level):
        g = Grid(1, 3)
        q = g.dyadic_cube(level, (0,))
        res = hausdorff_content(g, q.mask(), 0.5)
        assert res.value == pytest.approx(2.0 ** (-level * 0.5), rel=1e-14)
        assert len(res.cover) == 1 and res.cover[0].side_cells == q.side_cells

    def test_root_has_unit_content(self):
        g = Grid(2, 2)
        assert hausdorff_content(g, np.ones(g.shape, bool), 1.0).value == 1.0

    def test_two_far_cells(self):
        g = Grid(1, 4)
        lam = 0.1
        mask = np.zeros(g.shape, bool)
        mask[0] = mask[-1] = True
        res = hausdorff_content(g, mask, lam)
        assert res.value == pytest.approx(min(1.0, 2 * 2.0 ** (-4 * lam)), rel=1e-12)

    def test_empty_set(self):
        g = Grid(1, 3)
        res = hausdorff_content(g, np.zeros(g.shape, bool), 0.5)
        assert res.value == 0.0 and res.cover == ()

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.9])
    def test_matches_exhaustive_enumeration(self, rng, lam):
        g = Grid(1, 3)
        for _ in range(10):
            mask = rng.random(g.shape) < 0.4
            expect = brute_hausdorff_content(g, mask, lam)
            got = hausdorff_content(g, mask, lam).value
            if not mask.any():
                assert got == 0.0
            else:
                assert got == pytest.approx(expect, rel=1e-12)

    def test_matches_exhaustive_enumeration_2d(self, rng):
        g = Grid(2, 2)
        for _ in range(5):
            mask = rng.random(g.shape) < 0.3
            if not mask.any():
                continue
            expect = brute_hausdorff_content(g, mask, 1.2)
            assert hausdorff_content(g, mask, 1.2).value == pytest.approx(expect, rel=1e-12)

    def test_cover_is_valid(self, rng):
        g = Grid(1, 4)
        mask = rng.random(g.shape) < 0.3
        res = hausdorff_content(g, mask, 0.6)
        covered = np.zeros(g.shape, bool)
        for cube in res.cover:
            covered |= cube.mask()
        assert np.all(covered[mask])
        assert sum(c.side_length**0.6 for c in res.cover) == pytest.approx(res.value, rel=1e-12)

    def test_monotone_and_subadditive(self, rng):
        g = Grid(1, 4)
        for _ in range(20):
            a = rng.random(g.shape) < 0.3
            b = rng.random(g.shape) < 0.3
            ha = hausdorff_content(g, a, 0.5).value
            hb = hausdorff_content(g, b, 0.5).value
            hab = hausdorff_content(g, a | b, 0.5).value
            assert hab <= ha + hb + 1e-12
            assert ha <= hab + 1e-12


class TestChoquet:
    def test_single_layer(self, rng):
        g = Grid(1, 4)
        mask = rng.random(g.shape) < 0.4
        c = 2.7
        phi = GridFunction(g, np.where(mask, c, 0.0))
        assert choquet_integral(phi, 0.5) == pytest.approx(
            c * hausdorff_content(g, mask, 0.5).value, rel=1e-12)

    def test_zero(self, grid1d):
        assert choquet_integral(GridFunction.constant(grid1d, 0.0), 0.5) == 0.0

    def test_three_levels_vs_riemann(self):
        g = Grid(1, 2)
        phi = GridFunction(g, np.array([0.0, 1.0, 3.0, 2.0]))
        exact = choquet_integral(phi, 0.5)
        approx = brute_choquet_riemann(phi, 0.5, steps=6000)
        assert exact == pytest.approx(approx, rel=2e-3)

    def test_homogeneous_and_monotone(self, rng):
        g = Grid(1, 4)
        phi = GridFunction(g, rng.uniform(0, 2, g.shape))
        assert choquet_integral(phi * 3.0, 0.5) == pytest.approx(
            3.0 * choquet_integral(phi, 0.5), rel=1e-12)
        bigger = phi + 0.5
        assert choquet_integral(bigger, 0.5) >= choquet_integral(phi, 0.5)

    def test_negative_rejected(self, grid1d):
        with pytest.raises(DomainError):
            choquet_integral(GridFunction.constant(grid1d, -1.0), 0.5)

    @pytest.mark.parametrize("n,depth,lam", [(1, 6, 0.3), (1, 8, 0.9), (2, 3, 0.6), (2, 4, 1.7)])
    def test_batched_dp_equals_hausdorff_content(self, rng, n, depth, lam):
        """The mask-by-mask DP oracle gives hausdorff_content's value bit for
        bit on every threshold mask of the layer cake."""
        g = Grid(n, depth)
        center = 0.3 if n == 1 else (0.3, 0.6)
        for phi in (np.round(rng.uniform(0.0, 3.0, g.shape), 1),
                    rng.uniform(0.0, 1.0, g.shape) * (rng.random(g.shape) < 0.5),
                    weights.power_weight(g, -0.4 * n, center=center).values):
            _, masks = choquet_threshold_masks(GridFunction(g, phi))
            values = content_values_batched(g, masks, lam)
            for mask, value in zip(masks, values):
                assert value == hausdorff_content(g, mask, lam).value


def _choquet_inputs(g: Grid, rng) -> list[np.ndarray]:
    """Ties (mirror-symmetric power blocks, integer values), all-distinct
    values, one nonzero value, zeros and a point mass."""
    n = g.ndim
    mid = 0.5 if n == 1 else (0.5, 0.5)
    off = 0.3 if n == 1 else (0.3, 0.6)
    point = np.zeros(g.shape)
    point.flat[rng.integers(point.size)] = 2.5
    return [
        weights.power_weight(g, -0.4 * n, center=mid).values,
        weights.power_weight(g, -0.7 * n, center=off).values,
        rng.integers(0, 5, g.shape).astype(float),
        rng.exponential(size=g.shape),
        np.where(rng.random(g.shape) < 0.3, 1.75, 0.0),
        np.zeros(g.shape),
        point,
    ]


class TestChoquetMerge:
    """choquet_integral (step functions merged up the dyadic tree) against
    the mask-by-mask DP it replaced, with ==."""

    @pytest.mark.parametrize("n,depths", [(1, range(0, 11)), (2, range(0, 6))])
    def test_equals_mask_dp(self, rng, n, depths):
        for depth in depths:
            g = Grid(n, depth)
            for lam in (0.3 * n, 0.5 * n, 0.9 * n):
                for phi in _choquet_inputs(g, rng):
                    f = GridFunction(g, phi)
                    assert choquet_integral(f, lam) == choquet_by_masks(f, lam), (depth, lam)

    @pytest.mark.parametrize("n,depth", [(1, 11), (1, 12), (2, 6)])
    def test_equals_mask_dp_deepest(self, rng, n, depth):
        # the oracle holds one grid-sized mask per distinct value, so the
        # deepest grids take one lambda and the inputs in turn
        g = Grid(n, depth)
        for lam, phi in zip(itertools.cycle((0.3 * n, 0.75 * n)), _choquet_inputs(g, rng)):
            f = GridFunction(g, phi)
            assert choquet_integral(f, lam) == choquet_by_masks(f, lam)

    @pytest.mark.parametrize("depth", [8, 10, 12])
    def test_sweep_power_blocks_equal_mask_dp(self, monkeypatch, depth):
        """make_block under the oracle builds the same blocks, weights and
        Choquet integrals bit for bit."""
        g = Grid(1, depth)
        lam = ExponentSet.coupled(1, 2.0, 4.0, 0.125).lam
        fast = sweep_power_blocks(g, lam, 0.5)
        monkeypatch.setattr(content, "choquet_integral", choquet_by_masks)
        slow = sweep_power_blocks(g, lam, 0.5)
        assert len(fast) == len(slow) == 7
        for a, b in zip(fast, slow):
            assert a.choquet == b.choquet
            assert np.array_equal(a.weight.values, b.weight.values)

    def test_memory_stays_linear(self):
        g = Grid(1, 12)
        f = GridFunction(g, np.random.default_rng(5).random(g.shape))
        tracemalloc.start()
        try:
            choquet_integral(f, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the mask stack peaked at about 272 MiB on this input
        assert peak < 4 * 2**20

    def test_depth_16_against_hausdorff_content(self, rng):
        # a mask stack would be 32k x 64k cells here; few distinct values
        # keep the per-threshold reference cheap
        g = Grid(1, 16)
        blocks = np.repeat(rng.integers(0, 4, 64), g.cells_per_side // 64)
        spikes = (rng.random(g.shape) < 1e-3) * rng.integers(1, 3, g.shape)
        f = GridFunction(g, (blocks + spikes).astype(float))
        lam = 0.6
        thresholds, masks = choquet_threshold_masks(f)
        contents = np.array([hausdorff_content(g, mask, lam).value for mask in masks])
        assert choquet_integral(f, lam) == float(np.sum(np.diff(thresholds) * contents))


class TestBlocks:
    def test_indicator_block(self):
        g = Grid(1, 4)
        q = g.dyadic_cube(2, (1,))
        cert = make_block(g, 0.5, "indicator", cube=q)
        assert cert.choquet == pytest.approx(1.0, abs=1e-12)
        assert cert.is_member
        # indicator blocks vanish off the cube, so the grid A1 constant is infinite
        assert math.isinf(cert.a1_constant)

    def test_constant_block(self):
        g = Grid(1, 4)
        cert = make_block(g, 0.5, "custom", values=GridFunction.constant(g, 5.0))
        assert np.allclose(cert.weight.values, 1.0)
        assert cert.choquet == pytest.approx(1.0, abs=1e-12)
        assert cert.a1_constant == pytest.approx(1.0, rel=1e-12)

    def test_power_block_normalized(self):
        g = Grid(1, 5)
        cert = make_block(g, 0.5, "power", center=0.0, exponent=0.5)
        assert cert.choquet == pytest.approx(1.0, abs=1e-9)
        assert cert.a1_constant >= 1.0

    @pytest.mark.parametrize("fidelity", [None, "dyadic", "shifted"])
    def test_a1_constant_computed_on_first_read(self, monkeypatch, fidelity):
        real = weights.ap_constant
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(weights, "ap_constant", counting)
        g = Grid(1, 6)
        cert = make_block(g, 0.5, "power", center=0.5, exponent=0.25, fidelity=fidelity)
        assert calls == []
        expected = real(cert.weight, 1.0, fidelity).value
        assert cert.a1_constant == expected
        assert cert.a1_constant == expected
        assert len(calls) == 1

    def test_zero_block_rejected(self, grid1d):
        with pytest.raises(DomainError):
            make_block(grid1d, 0.5, "custom", values=GridFunction.constant(grid1d, 0.0))

    def test_default_battery(self):
        g = Grid(1, 3)
        blocks = default_blocks(g, 0.5)
        assert len(blocks) >= 15
        assert all(b.is_member for b in blocks)


class TestBlocksNorm:
    def test_indicator_attains_morrey_value(self):
        g = Grid(1, 4)
        p, lam = 2.0, 0.5
        q = g.dyadic_cube(2, (2,))
        f = GridFunction.indicator(q)
        cert = make_block(g, lam, "indicator", cube=q)
        res = morrey_norm_via_blocks(f, p, lam, [cert])
        expect = (q.side_length ** (-lam) * q.volume) ** (1 / p)
        assert res.value == pytest.approx(expect, rel=1e-12)
        assert res.value == pytest.approx(morrey_norm_lambda(f, p, lam).value, rel=1e-12)

    def test_constant_function(self):
        g = Grid(1, 4)
        one = GridFunction.constant(g, 1.0)
        cert = make_block(g, 0.5, "custom", values=one)
        assert morrey_norm_via_blocks(one, 2.0, 0.5, [cert]).value == pytest.approx(1.0)

    def test_battery_brackets_norm(self, rng):
        g = Grid(1, 4)
        p, lam = 2.0, 0.5
        f = random_function(g, rng)
        blocks = default_blocks(g, lam)
        val = morrey_norm_via_blocks(f, p, lam, blocks).value
        norm = morrey_norm_lambda(f, p, lam).value
        dyadic = morrey_norm_lambda(f, p, lam, fidelity="dyadic").value
        assert val >= dyadic * (1 - 1e-12)  # indicator blocks attain each dyadic value
        assert val <= norm * 2.0 ** ((g.ndim + 1) / p)  # comparable, constant logged

    def test_empty_candidates_rejected(self, grid1d):
        with pytest.raises(DomainError):
            morrey_norm_via_blocks(GridFunction.constant(grid1d, 1.0), 2.0, 0.5, [])


class TestBlockNormUpper:
    def test_indicator_closed_form(self):
        g = Grid(1, 4)
        lam, pc = 0.5, 2.0
        q = g.dyadic_cube(2, (1,))
        cert = make_block(g, lam, "indicator", cube=q)
        val = block_norm_upper(GridFunction.indicator(q), pc, lam, [cert]).value
        ell = q.side_length
        expect = (ell ** (lam * (pc - 1)) * q.volume) ** (1 / pc)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_zero_function(self, grid1d):
        cert = make_block(grid1d, 0.5, "custom",
                          values=GridFunction.constant(grid1d, 1.0))
        assert block_norm_upper(GridFunction.constant(grid1d, 0.0), 2.0, 0.5, [cert]).value == 0.0

    def test_disjoint_support_is_infinite(self):
        g = Grid(1, 4)
        q1 = g.dyadic_cube(2, (0,))
        q2 = g.dyadic_cube(2, (3,))
        cert = make_block(g, 0.5, "indicator", cube=q1)
        val = block_norm_upper(GridFunction.indicator(q2), 2.0, 0.5, [cert]).value
        assert math.isinf(val)

    def test_upper_dominates_infimand(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        blocks = default_blocks(g, 0.5)
        best = block_norm_upper(f, 2.0, 0.5, blocks)
        # the reported value is the minimum over candidates, so it is bounded
        # by the infimand at every explicit candidate
        for cert in blocks[:10]:
            single = block_norm_upper(f, 2.0, 0.5, [cert]).value
            assert best.value <= single * (1 + 1e-12)


class TestBlockNormDual:
    def test_indicator_closed_form(self):
        # g = 1_Q: the optimal f concentrates on Q and the value is |Q|^(1-1/p0)
        g = Grid(1, 4)
        p, lam = 2.0, 0.5  # p0 = 4
        for level in (1, 2):
            q = g.dyadic_cube(level, (1,))
            res = block_norm_dual(GridFunction.indicator(q), p, lam, tol=1e-3)
            assert res.value == pytest.approx(q.volume ** (1 - 0.25), rel=2e-3)
            assert res.converged and res.gap <= 1e-3

    def test_zero(self, grid1d):
        res = block_norm_dual(GridFunction.constant(grid1d, 0.0), 2.0, 0.5)
        assert res.value == 0.0 and res.converged

    def test_dual_value_is_feasible(self, rng):
        g = Grid(1, 4)
        gf = random_function(g, rng)
        res = block_norm_dual(gf, 2.0, 0.5, tol=1e-3)
        from morreylab.norms import morrey_norm_lambda as mnl

        assert mnl(res.maximizer, 2.0, 0.5).value <= 1.0 + 1e-9
        inner = float((res.maximizer.values * gf.values).sum()) * g.cell_volume
        assert inner == pytest.approx(res.value, rel=1e-12)

    def test_dominates_explicit_feasible_points(self, rng):
        # certified direction: the solver value must beat any explicit feasible f
        g = Grid(1, 3)
        gf = random_function(g, rng)
        res = block_norm_dual(gf, 2.0, 0.5, tol=1e-3)
        from morreylab.norms import morrey_norm_lambda as mnl

        for _ in range(10):
            cand = GridFunction(g, rng.uniform(0, 1, g.shape))
            nrm = mnl(cand, 2.0, 0.5).value
            inner = float((cand.values * gf.values).sum()) * g.cell_volume / nrm
            assert res.value >= inner * (1 - 1e-3) - 1e-12

    def test_matches_lattice_search(self, rng):
        # exhaustive search over a coarse value lattice is a certified lower
        # bound; the solver must reach it up to the advertised tolerance
        g = Grid(1, 3)
        from morreylab.norms import lambda_to_p0, morrey_norms

        p0 = lambda_to_p0(2.0, 0.5, g.ndim)  # the scale of morrey_norm_lambda(f, 2, 0.5)
        for _ in range(3):
            gf = random_function(g, rng)
            res = block_norm_dual(gf, 2.0, 0.5, tol=1e-3)
            lattice = np.stack(np.meshgrid(*([np.arange(4.0)] * 8), indexing="ij"),
                               axis=-1).reshape(-1, 8)
            lattice = lattice[1:]  # drop the zero vector
            best = 0.0
            for start in range(0, len(lattice), 8192):
                chunk = lattice[start:start + 8192]
                nrms = morrey_norms([GridFunction(g, vals) for vals in chunk], 2.0, p0).values
                for vals, nrm in zip(chunk, nrms.tolist()):
                    best = max(best, float((vals * gf.values).sum()) * g.cell_volume / nrm)
            assert res.value >= best * (1 - 1e-3)
            assert res.value <= best * 1.05

    def test_nonconvergence_carries_best(self, rng):
        g = Grid(1, 4)
        gf = random_function(g, rng)
        with pytest.raises(ConvergenceError) as err:
            block_norm_dual(gf, 2.0, 0.5, tol=1e-12, max_iter=2)
        assert err.value.best.value > 0


class TestConsistency:
    def test_duality_sandwich(self, rng):
        # int f g <= C * morrey(f) * block_upper(g) with C recorded; the exact
        # Hölder ingredient is asserted separately per block
        g = Grid(1, 4)
        p, lam = 2.0, 0.5
        pc = 2.0
        blocks = default_blocks(g, lam)
        worst = 0.0
        for _ in range(20):
            f = random_function(g, rng)
            h = random_function(g, rng)
            lhs = float((f.values * h.values).sum()) * g.cell_volume
            bound = morrey_norm_lambda(f, p, lam).value * block_norm_upper(h, pc, lam, blocks).value
            worst = max(worst, lhs / bound)
        assert worst <= 2.0 ** ((g.ndim + 1) / p) * (1 + 1e-9)

    def test_dual_vs_upper_constant_logged(self, rng):
        g = Grid(1, 3)
        lam = 0.5
        blocks = default_blocks(g, lam)
        ratios = []
        for _ in range(5):
            h = random_function(g, rng)
            dual = block_norm_dual(h, 2.0, lam, tol=1e-3).value
            upper = block_norm_upper(h, 2.0, lam, blocks).value
            ratios.append(dual / upper)
        assert all(np.isfinite(ratios))
