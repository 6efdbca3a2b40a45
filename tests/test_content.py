import math

import numpy as np
import pytest

from morreylab import weights
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
from morreylab.grid import DomainError, Grid, GridFunction
from morreylab.norms import morrey_norm_lambda

from bruteforce import brute_choquet_riemann, brute_hausdorff_content
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
        from morreylab.norms import morrey_norm_lambda as mnl

        for _ in range(3):
            gf = random_function(g, rng)
            res = block_norm_dual(gf, 2.0, 0.5, tol=1e-3)
            lattice = np.stack(np.meshgrid(*([np.arange(4.0)] * 8), indexing="ij"),
                               axis=-1).reshape(-1, 8)
            lattice = lattice[1:]  # drop the zero vector
            best = 0.0
            for vals in lattice:
                f = GridFunction(g, vals)
                best = max(best, float((vals * gf.values).sum()) * g.cell_volume
                           / mnl(f, 2.0, 0.5).value)
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
