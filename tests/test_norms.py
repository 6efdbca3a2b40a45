import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morreylab import norms
from morreylab.grid import Cube, DomainError, Grid, GridFunction, dilate, dyadic_cubes
from morreylab.norms import (
    ExponentSet,
    IntervalNormTable,
    dyadic_weighted_morrey_norm,
    holder_morrey_check,
    lambda_to_p0,
    lp_norm,
    morrey_norm,
    morrey_norm_lambda,
    morrey_norms,
    restricted_norm_table,
    weighted_morrey_norm,
)
from morreylab.weights import power_weight

from bruteforce import brute_morrey_norm, sweep_morrey_norm
from conftest import random_function


class TestExponentSet:
    def test_worked_example(self):
        e = ExponentSet.coupled(1, 2.0, 4.0, 0.125)
        assert e.q == pytest.approx(4.0)
        assert e.q0 == pytest.approx(8.0)
        assert e.lam == pytest.approx(0.5)
        assert e.p_conj == pytest.approx(2.0)

    def test_bad_couplings_raise(self):
        with pytest.raises(DomainError):
            ExponentSet(1, 2.0, 4.0, 4.0, 7.9, 0.125, 0.5)
        with pytest.raises(DomainError):
            ExponentSet.coupled(1, 4.0, 2.0, 0.125)

    def test_relaxed_constructor(self):
        e = ExponentSet.for_norms(1, 2.0, 4.0)
        assert e.alpha == 0.0 and e.q == e.p and e.q0 == e.p0

    def test_lambda_conversion(self):
        assert lambda_to_p0(2.0, 0.5, 1) == pytest.approx(4.0)


class TestMorreyNorm:
    def test_constant_attains_at_root(self):
        g = Grid(1, 4)
        res = morrey_norm(GridFunction.constant(g, 1.0), 2.0, 4.0)
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.cube.side_cells == g.cells_per_side

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_indicator_closed_form(self, level):
        g = Grid(1, 4)
        q = g.dyadic_cube(level, (1,))
        res = morrey_norm(GridFunction.indicator(q), 2.0, 4.0)
        assert res.value == pytest.approx(2.0 ** (-level / 4.0), rel=1e-12)
        assert (res.cube.lo, res.cube.hi) == (q.lo, q.hi)

    @pytest.mark.parametrize("fidelity", ["dyadic", "aligned", "shifted"])
    def test_matches_bruteforce(self, rng, fidelity):
        g = Grid(1, 4)
        f = random_function(g, rng)
        expect, _ = brute_morrey_norm(f, 2.0, 4.0, fidelity)
        assert morrey_norm(f, 2.0, 4.0, fidelity).value == pytest.approx(expect, rel=1e-12)

    def test_matches_bruteforce_2d(self, rng):
        g = Grid(2, 2)
        f = random_function(g, rng)
        for fidelity in ("dyadic", "aligned", "shifted"):
            expect, _ = brute_morrey_norm(f, 1.5, 3.0, fidelity)
            assert morrey_norm(f, 1.5, 3.0, fidelity).value == pytest.approx(expect, rel=1e-12)

    def test_fidelity_ordering_with_constant(self, rng):
        # aligned >= dyadic and aligned <= 2^((n+1)/p) dyadic (two-cube cover bound)
        g = Grid(1, 4)
        p = 2.0
        for _ in range(5):
            f = random_function(g, rng)
            dy = morrey_norm(f, p, 4.0, "dyadic").value
            al = morrey_norm(f, p, 4.0, "aligned").value
            assert dy <= al * (1 + 1e-12)
            assert al <= 2.0 ** ((g.ndim + 1) / p) * dy * (1 + 1e-12)

    def test_support_restriction_equals_masked(self, rng):
        g = Grid(1, 5)
        f = random_function(g, rng)
        q = g.aligned_cube((7,), 9)
        masked = f.restrict(q)
        full = morrey_norm(masked, 2.0, 4.0).value
        fast = morrey_norm(f, 2.0, 4.0, support=q).value
        assert fast == pytest.approx(full, rel=1e-12)

    def test_lp_endpoint(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        res = morrey_norm(f, 3.0, 3.0)
        assert res.value == pytest.approx(lp_norm(f, 3.0), rel=1e-12)
        assert res.cube.side_cells == g.cells_per_side

    def test_homogeneity_and_monotonicity(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        big = f * 1.7
        assert morrey_norm(big, 2.0, 4.0).value == pytest.approx(
            1.7 * morrey_norm(f, 2.0, 4.0).value, rel=1e-12)
        smaller = GridFunction(g, f.values * np.linspace(0.1, 1.0, g.cells_per_side))
        assert morrey_norm(smaller, 2.0, 4.0).value <= morrey_norm(f, 2.0, 4.0).value + 1e-12

    def test_lattice_monotonicity(self, rng):
        # for p0 >= p1 >= p2 the norm decreases in the inner exponent
        g = Grid(1, 5)
        for _ in range(10):
            f = random_function(g, rng)
            v1 = morrey_norm(f, 3.0, 4.0).value
            v2 = morrey_norm(f, 2.0, 4.0).value
            v3 = morrey_norm(f, 1.5, 4.0).value
            assert v1 >= v2 * (1 - 1e-12) >= v3 * (1 - 2e-12)

    def test_lambda_form_agrees(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        assert morrey_norm_lambda(f, 2.0, 0.5).value == pytest.approx(
            morrey_norm(f, 2.0, 4.0).value, rel=1e-14)


class TestWeightedNorms:
    def test_unit_weight_reduces(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        w = GridFunction.constant(g, 1.0)
        assert weighted_morrey_norm(f, w, 2.0, 4.0).value == pytest.approx(
            morrey_norm(f, 2.0, 4.0).value, rel=1e-14)

    def test_reciprocal_cancellation(self, rng):
        g = Grid(1, 4)
        w = random_function(g, rng)
        q = g.dyadic_cube(2, (1,))
        f = w.power(-1.0).restrict(q)
        assert weighted_morrey_norm(f, w, 2.0, 4.0).value == pytest.approx(
            morrey_norm(GridFunction.indicator(q), 2.0, 4.0).value, rel=1e-12)

    def test_weighted_matches_bruteforce(self, rng):
        g = Grid(1, 3)
        f = random_function(g, rng)
        w = random_function(g, rng)
        expect, _ = brute_morrey_norm(f * w, 2.0, 4.0, "aligned")
        assert weighted_morrey_norm(f, w, 2.0, 4.0, "aligned").value == pytest.approx(
            expect, rel=1e-12)

    def test_positive_weight_required(self, grid1d):
        f = GridFunction.constant(grid1d, 1.0)
        w = GridFunction.constant(grid1d, 0.0)
        with pytest.raises(DomainError):
            weighted_morrey_norm(f, w, 2.0, 4.0)


class TestDyadicWeightedNorm:
    def test_unit_closed_form(self):
        g = Grid(1, 4)
        one = GridFunction.constant(g, 1.0)
        res = dyadic_weighted_morrey_norm(one, one, 2.0, 0.5)
        # per level the value is (2^-k)^((1-lam)/p); the root wins
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.cube.side_cells == g.cells_per_side

    def test_weight_homogeneity(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        w = random_function(g, rng)
        lam, p, c = 0.5, 2.0, 3.7
        v1 = dyadic_weighted_morrey_norm(f, w, p, lam).value
        v2 = dyadic_weighted_morrey_norm(f, w * c, p, lam).value
        assert v2 == pytest.approx(c ** ((1 - lam) / p) * v1, rel=1e-12)

    def test_matches_enumeration(self, rng):
        from morreylab.grid import dyadic_cubes

        g = Grid(1, 4)
        f = random_function(g, rng)
        w = random_function(g, rng)
        lam, p = 0.5, 2.0
        best = max(
            (w.integral(q) ** (-lam) * ((abs(f).values[q.slices] ** p
                                         * w.values[q.slices]).sum() * g.cell_volume)) ** (1 / p)
            for q in dyadic_cubes(g)
        )
        assert dyadic_weighted_morrey_norm(f, w, p, lam).value == pytest.approx(best, rel=1e-12)


class TestHolder:
    def test_equality_case(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        b = random_function(g, rng)
        p = 2.0
        gfun = GridFunction(g, f.values ** (p - 1) * b.values)
        chk = holder_morrey_check(f, gfun, b, p)
        assert chk.ok
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    def test_zero_case(self, grid1d, rng):
        z = GridFunction.constant(grid1d, 0.0)
        g = random_function(grid1d, rng)
        b = random_function(grid1d, rng)
        chk = holder_morrey_check(z, g, b, 2.0)
        assert chk.ok and chk.lhs == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_random_triples(self, rng, p):
        g = Grid(1, 4)
        for _ in range(100):
            f = random_function(g, rng)
            h = random_function(g, rng)
            b = random_function(g, rng)
            assert holder_morrey_check(f, h, b, p).ok


DEPTHS = [(1, depth) for depth in range(11)] + [(2, depth) for depth in range(6)]


def _batch(grid, rng) -> list[GridFunction]:
    """Functions with and without ties: a random field, a constant, zero,
    mirror-symmetric power weights and a point mass."""
    return [random_function(grid, rng), GridFunction.constant(grid, 1.0),
            GridFunction.constant(grid, 0.0), power_weight(grid, 0.5, center=0.5),
            power_weight(grid, -0.25, center=0.5),
            GridFunction.point_mass(grid, (grid.cells_per_side - 1,) * grid.ndim, 3.0)]


def _supports(grid, rng, count: int) -> list:
    """Dyadic cubes and their dilates, clipped (often not square) ones included,
    as Cubes and as (lo, hi) boxes, in a random order."""
    cubes = dyadic_cubes(grid)
    out = []
    for kappa in (None, 1.5, 2.0, 3.0):
        for c in cubes:
            out.append(c if kappa is None else dilate(c, kappa))
    picked = [out[i] for i in rng.permutation(len(out))[:count]]
    return [c if i % 2 else (c.lo, c.hi) for i, c in enumerate(picked)]


def _as_cube(grid, support):
    if isinstance(support, tuple):
        lo, hi = support
        return Cube(grid, lo, hi, clipped=len(set(np.subtract(hi, lo))) > 1)
    return support


class TestMorreyNorms:
    """The batched sweep against each item's own sweep: `==` on value and witness."""

    @pytest.mark.parametrize("ndim, depth", DEPTHS)
    @pytest.mark.parametrize("fidelity", ["dyadic", "aligned", "shifted"])
    def test_unrestricted_equal_own_sweeps(self, ndim, depth, fidelity, rng):
        g = Grid(ndim, depth)
        fs = _batch(g, rng)
        for p, p0 in [(2.0, 4.0), (1.5, 2.5)]:
            got = morrey_norms(fs, p, p0, fidelity)
            assert len(got) == len(fs)
            for i, f in enumerate(fs):
                want = sweep_morrey_norm(f, p, p0, fidelity)
                assert got[i] == want, (i, p)
                assert got.values[i] == want.value
            if g.cell_count <= 64:
                # the cube-by-cube oracle sums in another order: rounding only
                expect, _ = brute_morrey_norm(fs[0], p, p0, fidelity)
                assert got.values[0] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("ndim, depth", DEPTHS)
    def test_restricted_equal_own_sweeps(self, ndim, depth, rng):
        g = Grid(ndim, depth)
        for f in _batch(g, rng)[::2] + [power_weight(g, 0.25, center=0.5)]:
            supports = _supports(g, rng, 150)
            got = morrey_norms([f] * len(supports), 2.0, 4.0, supports=supports)
            for i, support in enumerate(supports):
                want = sweep_morrey_norm(f, 2.0, 4.0, support=_as_cube(g, support))
                assert got[i] == want, support

    def test_mixed_functions_and_supports(self, rng):
        g = Grid(2, 4)
        fs = _batch(g, rng)
        supports = _supports(g, rng, 3 * len(fs))
        items = [(fs[i % len(fs)], s) for i, s in enumerate(supports)]
        got = morrey_norms([f for f, _ in items], 1.5, 3.0, supports=supports)
        for i, (f, support) in enumerate(items):
            assert got[i] == sweep_morrey_norm(f, 1.5, 3.0, support=_as_cube(g, support))

    @pytest.mark.parametrize("ndim, depth", [(1, 6), (2, 3)])
    def test_batches_spanning_chunks(self, ndim, depth, rng, monkeypatch):
        g = Grid(ndim, depth)
        fs = _batch(g, rng) * 3
        supports = _supports(g, rng, 200)
        whole = morrey_norms(fs, 2.0, 4.0, "aligned")
        restricted = morrey_norms([fs[0]] * len(supports), 2.0, 4.0, supports=supports)
        monkeypatch.setattr(norms, "_BATCH_CELLS", 2 * g.cells_per_side)
        chunked = morrey_norms(fs, 2.0, 4.0, "aligned")
        for i, f in enumerate(fs):
            assert chunked[i] == whole[i] == sweep_morrey_norm(f, 2.0, 4.0, "aligned")
        chunked = morrey_norms([fs[0]] * len(supports), 2.0, 4.0, supports=supports)
        assert np.array_equal(chunked.values, restricted.values)
        assert np.array_equal(chunked.corners, restricted.corners)
        assert np.array_equal(chunked.sides, restricted.sides)

    def test_morrey_norm_is_a_batch_of_one(self, rng):
        g = Grid(2, 3)
        f = random_function(g, rng)
        q = g.dyadic_cube(1, (1, 0))
        assert morrey_norm(f, 2.0, 4.0) == morrey_norms([f], 2.0, 4.0)[0]
        assert morrey_norm(f, 2.0, 4.0, support=q) == morrey_norms([f], 2.0, 4.0, supports=[q])[0]

    def test_support_table_equals_restricted_norms(self, rng):
        g = Grid(2, 4)
        w = random_function(g, rng)
        table = restricted_norm_table(w, 2.0, 4.0)
        boxes = [_as_cube(g, s) for s in _supports(g, rng, 100)]
        lo = np.array([c.lo for c in boxes])
        hi = np.array([c.hi for c in boxes])
        first = table.values(lo, hi)
        again = table.values(lo[::-1], hi[::-1])
        for k, c in enumerate(boxes):
            assert first[k] == again[-1 - k] == morrey_norm(w, 2.0, 4.0, support=c).value

    def test_bad_batches_raise(self, rng):
        g = Grid(1, 3)
        f = random_function(g, rng)
        with pytest.raises(DomainError):
            morrey_norms([], 2.0, 4.0)
        with pytest.raises(DomainError):
            morrey_norms([f, random_function(Grid(1, 4), rng)], 2.0, 4.0)
        with pytest.raises(DomainError):
            morrey_norms([f, f], 2.0, 4.0, supports=[g.root()])
        with pytest.raises(DomainError):
            morrey_norms([f], 2.0, 4.0, supports=[((2,), (9,))])
        with pytest.raises(DomainError):
            morrey_norms([f], 4.0, 2.0)


def test_interval_table_matches_restricted(rng):
    g = Grid(1, 5)
    f = random_function(g, rng)
    table = IntervalNormTable(f, 2.0, 4.0)
    for lo, hi in [(0, 32), (3, 9), (17, 18), (8, 24)]:
        support = g.aligned_cube((lo,), hi - lo)
        expect = morrey_norm(f, 2.0, 4.0, "aligned", support=support).value
        assert table.value(lo, hi) == pytest.approx(expect, rel=1e-12)


def _row_sweep_inputs(g, rng):
    """Power weights below, at and above rho = 0, a random field, and a
    function with zeros and a point mass."""
    spiky = np.where(rng.uniform(size=g.shape) < 0.4, 0.0, rng.uniform(0.0, 2.0, g.shape))
    spiky[g.cells_per_side // 3] += 1e6
    return [power_weight(g, -0.3, center=0.3), power_weight(g, 0.0),
            power_weight(g, 0.7, center=0.5), random_function(g, rng),
            GridFunction(g, spiky)]


def _dyadic_intervals(g, level):
    side = g.cells_per_side >> level
    lo = np.arange(0, g.cells_per_side, side)
    return lo, lo + side


class TestIntervalTables:
    # (2, 4) takes the row's 1/p power through numpy's sqrt path
    @pytest.mark.parametrize("p, p0", [(2.0, 4.0), (4.0, 8.0)])
    @pytest.mark.parametrize("depth", range(0, 13))
    def test_dyadic_table_equals_interval_table(self, depth, p, p0, rng):
        g = Grid(1, depth)
        cubes = dyadic_cubes(g)
        lo_all = np.array([c.lo for c in cubes])
        hi_all = np.array([c.hi for c in cubes])
        for f in _row_sweep_inputs(g, rng):
            full = IntervalNormTable(f, p, p0)
            dyadic = norms.DyadicNormTable(f, p, p0)
            for level in range(depth + 1):
                lo, hi = _dyadic_intervals(g, level)
                assert np.array_equal(dyadic.values(lo, hi), full.values(lo, hi))
            # mixed widths, in box-corner shape (k, 1)
            assert np.array_equal(dyadic.values(lo_all, hi_all), full.values(lo_all, hi_all))
            assert dyadic.value(0, g.cells_per_side) == full.value(0, g.cells_per_side)

    def test_values_one_width_and_mixed_read_the_same_entries(self, rng):
        g = Grid(1, 6)
        table = IntervalNormTable(random_function(g, rng), 2.0, 4.0)
        lo = rng.integers(0, 40, size=50)
        hi = lo + rng.integers(1, 25, size=50)
        expect = np.array([table.value(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
        assert np.array_equal(table.values(lo, hi), expect)
        assert np.array_equal(table.values(lo[:, None], hi[:, None]), expect[:, None])
        assert np.array_equal(table.values(lo, lo + 7), [table.value(a, a + 7) for a in lo.tolist()])
        assert table.values(lo[:0], hi[:0]).shape == (0,)

    def test_dyadic_table_refuses_other_intervals(self, rng):
        g = Grid(1, 4)
        dyadic = norms.DyadicNormTable(random_function(g, rng), 2.0, 4.0)
        for lo, hi in [(0, 3), (2, 6), (1, 3), (4, 4)]:
            with pytest.raises(DomainError):
                dyadic.values(np.array([lo]), np.array([hi]))
        with pytest.raises(DomainError):
            norms.DyadicNormTable(random_function(Grid(2, 2), rng), 2.0, 4.0)
        with pytest.raises(DomainError):
            IntervalNormTable(random_function(Grid(2, 2), rng), 2.0, 4.0)

    def test_memory_guard(self, rng, monkeypatch):
        # the real limit admits depth 13 and refuses depth 14; checked by
        # arithmetic alone, so a broken guard allocates nothing large here
        assert 8192 * 8193 // 2 <= norms.MAX_TABLE_FLOATS < 16384 * 16385 // 2
        monkeypatch.setattr(norms, "MAX_TABLE_FLOATS", 32 * 33 // 2)
        IntervalNormTable(random_function(Grid(1, 5), rng), 2.0, 4.0)
        f6 = random_function(Grid(1, 6), rng)
        norms.DyadicNormTable(f6, 2.0, 4.0)  # keeps O(N) floats: no guard

        def no_rows(*args):
            raise AssertionError("the row sweep started")

        monkeypatch.setattr(norms, "_interval_norm_rows", no_rows)
        with pytest.raises(DomainError):
            IntervalNormTable(f6, 2.0, 4.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_morrey_deterministic_over_seeds(seed):
    g = Grid(1, 3)
    vals = np.random.default_rng(seed).uniform(0.1, 5.0, g.shape)
    f = GridFunction(g, vals)
    a = morrey_norm(f, 2.0, 4.0)
    b = morrey_norm(f, 2.0, 4.0)
    assert a.value == b.value and a.cube.lo == b.cube.lo
