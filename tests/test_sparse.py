import numpy as np
import pytest

from morreylab.grid import DomainError, Grid, GridFunction, dilate
from morreylab.sparse import (
    SparseFamily,
    StoppingCube,
    audit_proof_inequalities,
    build_sparse_integral,
    build_sparse_maximal,
    check_stopping_bounds,
    dyadic_sum_form,
    family_from_doc,
    family_to_doc,
    stopping_ratio,
    verify_domination_integral,
    verify_domination_maximal,
    verify_sparse,
)
from morreylab.norms import ExponentSet

from conftest import random_function


def test_stopping_ratio_values():
    assert stopping_ratio(1, 0.0) == 36.0
    assert stopping_ratio(2, 0.0) == 81.0 * 8.0
    assert stopping_ratio(1, 0.5) == pytest.approx(9 * 2**1.5)


class TestBuilderBasics:
    def test_constant_function_single_generation(self):
        # thresholds grow by a > 2^(n - alpha), so nothing reaches level two
        g = Grid(1, 6)
        f = GridFunction.constant(g, 1.0)
        res = build_sparse_maximal(f, 0.5, g.root())
        assert res.family.generations == 1
        assert len(res.family.cubes) == 1
        sc = res.family.cubes[0]
        assert sc.cube.side_cells == g.cells_per_side
        assert np.all(sc.e_mask)

    def test_zero_near_base_gives_empty_family(self):
        g = Grid(1, 5)
        vals = np.zeros(g.shape)
        vals[-1] = 1.0  # far from the base and its 3-dilate
        f = GridFunction(g, vals)
        base = g.dyadic_cube(3, (0,))
        res = build_sparse_maximal(f, 0.25, base)
        assert res.family.cubes == ()
        assert res.tail > 0  # the outer tail still sees the far mass

    def test_zero_function(self):
        g = Grid(1, 5)
        res = build_sparse_maximal(GridFunction.constant(g, 0.0), 0.25, g.root())
        assert res.family.cubes == () and res.tail == 0.0

    def test_point_mass_two_generations(self):
        # a point mass at L = 8: tripled averages grow by 2 per level, so the
        # generation-1 threshold (ratio 36) is first reached at level 6, by the
        # cell's own level-6 cube and the two neighbors whose tripled dilate
        # still contains the cell
        g = Grid(1, 8)
        cell = 77
        f = GridFunction.point_mass(g, (cell,), 1.0)
        res = build_sparse_maximal(f, 0.0, g.root())
        fam = res.family
        assert fam.generations == 2
        gen0 = fam.generation(0)
        gen1 = fam.generation(1)
        assert len(gen0) == 1 and gen0[0].cube.side_cells == g.cells_per_side
        assert sorted(sc.cube.lo[0] for sc in gen1) == [72, 76, 80]
        assert all(sc.cube.level == 6 for sc in gen1)
        owned = sum(sc.e_mask.sum() for sc in gen1)
        assert owned == 12
        assert gen0[0].e_mask.sum() == g.cells_per_side - owned

    def test_builder_determinism(self, rng):
        g = Grid(1, 6)
        f = random_function(g, rng)
        doc1 = family_to_doc(build_sparse_maximal(f, 0.25, g.root()).family)
        doc2 = family_to_doc(build_sparse_maximal(f, 0.25, g.root()).family)
        assert doc1 == doc2

    def test_requires_nonnegative(self, rng):
        g = Grid(1, 4)
        f = GridFunction.constant(g, -1.0)
        with pytest.raises(DomainError):
            build_sparse_maximal(f, 0.0, g.root())

    def test_integral_tail_truncates_at_root(self):
        g = Grid(1, 6)
        f = GridFunction.constant(g, 1.0)
        res = build_sparse_integral(f, 0.5, g.root(), kappa=3.0)
        assert res.tail == pytest.approx(1.0)
        assert len(res.tail_detail["terms"]) == 1

    def test_integral_tail_sums_dilates(self):
        g = Grid(1, 6)
        f = GridFunction.constant(g, 1.0)
        base = g.dyadic_cube(3, (2,))
        res = build_sparse_integral(f, 0.5, base, kappa=2.0)
        terms = res.tail_detail["terms"]
        assert len(terms) == 4  # sides 1/8, 1/4, 1/2, 1 and then the root is covered
        assert res.tail == pytest.approx(sum(terms))

    def test_integral_matches_maximal_at_alpha_zero_thresholds(self):
        # the two schemes share their stopping sets for a point mass since the
        # integral thresholds are the alpha = 0 maximal thresholds
        g = Grid(1, 8)
        f = GridFunction.point_mass(g, (100,), 1.0)
        fam_m = build_sparse_maximal(f, 0.0, g.root()).family
        fam_i = build_sparse_integral(f, 0.5, g.root()).family
        addr_m = [(sc.generation, sc.cube.lo, sc.cube.hi) for sc in fam_m.cubes]
        addr_i = [(sc.generation, sc.cube.lo, sc.cube.hi) for sc in fam_i.cubes]
        assert addr_m == addr_i


class TestVerifySparse:
    def test_valid_family(self, rng):
        g = Grid(1, 7)
        f = random_function(g, rng)
        res = build_sparse_maximal(f, 0.25, g.root())
        chk = verify_sparse(res.family, 0.5)
        assert chk.ok and chk.min_ratio >= 0.5

    def test_artificial_violation(self):
        g = Grid(1, 4)
        q = g.dyadic_cube(1, (0,))
        small = np.zeros(g.shape, bool)
        small[0:2] = True  # |E| = |Q|/4
        fam = SparseFamily(g.root(), (StoppingCube(q, 0, 1.0, 1.0, small),),
                           1.0, 36.0, 0.0, "maximal")
        chk = verify_sparse(fam, 0.5)
        assert not chk.ok
        assert chk.min_ratio == pytest.approx(0.25)
        assert chk.witness.lo == q.lo

    def test_overlap_detected(self):
        g = Grid(1, 4)
        q = g.dyadic_cube(1, (0,))
        fam = SparseFamily(g.root(), (StoppingCube(q, 0, 1.0, 1.0, q.mask()),
                                      StoppingCube(q, 1, 1.0, 1.0, q.mask())),
                           1.0, 36.0, 0.0, "maximal")
        assert not verify_sparse(fam, 0.5).ok

    @pytest.mark.parametrize("kind", ["maximal", "integral"])
    def test_fuzz_always_half_sparse(self, kind):
        g = Grid(1, 7)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            choice = seed % 3
            if choice == 0:
                f = GridFunction(g, np.exp(rng.uniform(-3, 3, g.shape)))
            elif choice == 1:
                f = GridFunction.point_mass(g, (int(rng.integers(0, g.cells_per_side)),))
            else:
                lo = int(rng.integers(0, g.cells_per_side - 8))
                f = GridFunction.indicator(g.aligned_cube((lo,), int(rng.integers(1, 9))))
            alpha = float(rng.choice([0.125, 0.375, 0.75]))
            base = g.dyadic_cube(int(rng.integers(0, 2)), (0,))
            if kind == "maximal":
                res = build_sparse_maximal(f, alpha, base)
            else:
                res = build_sparse_integral(f, alpha, base)
            chk = verify_sparse(res.family, 0.5)
            assert chk.ok, f"seed {seed}: min ratio {chk.min_ratio}"
            sb = check_stopping_bounds(res)
            assert sb.lower_ok and sb.upper_ok, f"seed {seed}: {sb}"


class TestDomination:
    def test_constant_function_trivial(self):
        g = Grid(1, 5)
        f = GridFunction.constant(g, 1.0)
        res = build_sparse_maximal(f, 0.25, g.root())
        dom = verify_domination_maximal(f, 0.25, res)
        assert dom.local_ok

    def test_point_mass_explicit_constant(self):
        g = Grid(1, 8)
        f = GridFunction.point_mass(g, (100,), 1.0)
        res = build_sparse_maximal(f, 0.0, g.root())
        dom = verify_domination_maximal(f, 0.0, res)
        assert dom.local_ok
        assert dom.local_constant <= dom.explicit_bound

    def test_maximal_fuzz_exact_constant(self):
        g = Grid(1, 7)
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            f = GridFunction(g, np.exp(rng.uniform(-3, 3, g.shape)))
            alpha = float(rng.choice([0.0, 0.25, 0.5]))
            res = build_sparse_maximal(f, alpha, g.root())
            dom = verify_domination_maximal(f, alpha, res)
            assert dom.local_ok, f"seed {seed}: {dom.local_constant} > {dom.explicit_bound}"

    def test_mismatched_function_rejected(self, rng):
        g = Grid(1, 6)
        f = random_function(g, rng)
        res = build_sparse_maximal(f, 0.25, g.root())
        other = random_function(g, rng)
        with pytest.raises(DomainError):
            verify_domination_maximal(other, 0.25, res)

    def test_integral_provable_bound_fuzz(self):
        g = Grid(1, 7)
        for seed in range(30):
            rng = np.random.default_rng(2000 + seed)
            f = GridFunction(g, np.exp(rng.uniform(-3, 3, g.shape)))
            alpha = float(rng.choice([0.125, 0.5, 0.75]))
            res = build_sparse_integral(f, alpha, g.root())
            dom = verify_domination_integral(f, alpha, res)
            assert dom.provable_ok, f"seed {seed}: {dom.explicit_constant} > {dom.provable_bound}"

    def test_integral_bare_factor_fails_on_bump(self):
        # an indicator bump of width 1/8 inside an interior base breaks the
        # bare-factor bound: the chain of dyadic cubes above the bump
        # contributes a geometric sum the single threshold ratio cannot absorb
        g = Grid(1, 8)
        vals = np.zeros(g.shape)
        vals[48:80] = 1.0
        f = GridFunction(g, vals)
        base = g.dyadic_cube(1, (0,))
        res = build_sparse_integral(f, 0.125, base)
        dom = verify_domination_integral(f, 0.125, res)
        assert not dom.explicit_ok
        assert dom.explicit_constant > dom.explicit_bound
        assert dom.provable_ok  # the corrected factor covers it

    def test_dyadic_sum_form_matches_direct(self, rng):
        g = Grid(1, 5)
        f = random_function(g, rng)
        base = g.dyadic_cube(1, (1,))
        acc = dyadic_sum_form(f, 0.5, base)
        # direct evaluation at one cell
        cell = 20
        total = 0.0
        for level in range(1, g.depth + 1):
            side = g.cells_per_side >> level
            q = g.dyadic_cube(level, (cell // side,))
            total += q.volume**0.5 * f.integral(dilate(q, 3.0)) / dilate(q, 3.0).nominal_volume
        assert acc[cell - base.lo[0]] == pytest.approx(total, rel=1e-12)


class TestAudit:
    def test_stopping_bounds_fields(self, rng):
        g = Grid(1, 7)
        f = random_function(g, rng)
        res = build_sparse_maximal(f, 0.25, g.root())
        sb = check_stopping_bounds(res)
        assert sb.upper_factor == pytest.approx(2.0 ** (1 - 0.25))
        assert 1.0 - 1e-9 <= sb.worst_lower
        assert sb.worst_upper <= sb.upper_factor * (1 + 1e-9)

    def test_weighted_ownership_and_generation_sum(self, rng):
        g = Grid(1, 7)
        f = GridFunction.point_mass(g, (64,), 1.0)
        w = random_function(g, rng, -1.0, 1.0)
        exps = ExponentSet.coupled(1, 2.0, 4.0, 0.125)
        res = build_sparse_integral(f, exps.alpha, g.root())
        report = audit_proof_inequalities(f, w, exps, res, c2=1.0)
        assert report.stopping.lower_ok and report.stopping.upper_ok
        assert report.weighted_ownership_constant is not None
        assert report.weighted_ownership_constant > 0
        # the per-generation cube sum is controlled by the geometric series
        assert report.generation_sum_constant is not None
        assert report.generation_sum_constant <= 1.0 / (1 - 2.0**-exps.alpha) + 1e-9

    def test_constant_function_vacuous(self):
        g = Grid(1, 5)
        f = GridFunction.constant(g, 1.0)
        res = build_sparse_maximal(f, 0.5, g.root())
        report = audit_proof_inequalities(f, None, None, res)
        assert report.stopping.lower_ok and report.stopping.upper_ok
        assert report.weighted_ownership_constant is None


class TestSerialization:
    def test_roundtrip_and_replay(self, rng):
        g = Grid(1, 6)
        f = random_function(g, rng)
        res = build_sparse_maximal(f, 0.25, g.root())
        doc = family_to_doc(res.family)
        back = family_from_doc(doc)
        assert len(back.cubes) == len(res.family.cubes)
        assert verify_sparse(back, 0.5).ok
        for a, b in zip(res.family.cubes, back.cubes):
            assert a.cube.lo == b.cube.lo and a.generation == b.generation
            assert np.array_equal(a.e_mask, b.e_mask)
            assert a.value == pytest.approx(b.value, rel=1e-15)
