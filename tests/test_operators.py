import itertools
import math

import numpy as np
import pytest

from morreylab import _windows
from morreylab._windows import covering_pair_max, covering_window_extreme, prefix_sum_1d
from morreylab.conditions import make_corpus
from morreylab.grid import DomainError, Grid, GridFunction, dilate
from morreylab.norms import weighted_lp_norm
from morreylab.operators import (
    aligned_maximal_per_width,
    centered_weighted_maximal,
    dyadic_weighted_maximal,
    fractional_integral,
    fractional_maximal,
    local_dyadic_maximal,
    sparse_integral_form,
    sparse_maximal_form,
)

from bruteforce import brute_fractional_maximal
from conftest import random_function


class TestFractionalMaximal:
    def test_constant_function(self):
        g = Grid(1, 4)
        f = GridFunction.constant(g, 2.5)
        out = fractional_maximal(f, 0.0).values
        assert np.allclose(out, 2.5)
        out_alpha = fractional_maximal(f, 0.5).values
        assert np.allclose(out_alpha, 2.5)  # the root attains |Q|^alpha avg = 2.5

    @pytest.mark.parametrize("fidelity", ["dyadic", "aligned", "shifted"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_matches_bruteforce(self, rng, fidelity, alpha):
        g = Grid(1, 4)
        f = random_function(g, rng)
        expect = brute_fractional_maximal(f, alpha, fidelity)
        got = fractional_maximal(f, alpha, fidelity).values
        assert np.allclose(got, expect, rtol=1e-12)

    def test_matches_bruteforce_2d(self, rng):
        g = Grid(2, 2)
        f = random_function(g, rng)
        for fidelity in ("dyadic", "aligned", "shifted"):
            expect = brute_fractional_maximal(f, 0.5, fidelity)
            got = fractional_maximal(f, 0.5, fidelity).values
            assert np.allclose(got, expect, rtol=1e-12)

    def test_half_indicator_profile(self):
        # M(1_[0,1/2))(x) for x > 1/2 equals sup over intervals [a, x'] and
        # decays like (1/2)/x; check against the brute force at L = 5
        g = Grid(1, 5)
        f = GridFunction.indicator(g.aligned_cube((0,), 16))
        got = fractional_maximal(f, 0.0, "aligned").values
        expect = brute_fractional_maximal(f, 0.0, "aligned")
        assert np.allclose(got, expect, rtol=1e-12)
        x = g.axis_centers()[24]
        # best interval for a right-half cell is [0, cell right edge]
        assert got[24] == pytest.approx(0.5 / (25 / 32), rel=1e-12)

    def test_single_cube_lower_bound(self, rng):
        g = Grid(1, 5)
        f = random_function(g, rng)
        out = fractional_maximal(f, 0.25, "aligned").values
        for _ in range(10):
            lo = int(rng.integers(0, 24))
            side = int(rng.integers(1, g.cells_per_side - lo))
            q = g.aligned_cube((lo,), side)
            bound = q.volume**0.25 * abs(f).average(q)
            assert np.all(out[q.slices] >= bound * (1 - 1e-12))

    def test_sublinear_and_homogeneous(self, rng):
        g = Grid(1, 4)
        f, h = random_function(g, rng), random_function(g, rng)
        mf = fractional_maximal(f, 0.2).values
        mh = fractional_maximal(h, 0.2).values
        msum = fractional_maximal(f + h, 0.2).values
        assert np.all(msum <= mf + mh + 1e-12)
        assert np.allclose(fractional_maximal(f * 3.0, 0.2).values, 3.0 * mf, rtol=1e-12)

    def test_monotone(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        bigger = f + 0.5
        assert np.all(fractional_maximal(f, 0.1).values
                      <= fractional_maximal(bigger, 0.1).values + 1e-12)

    def test_fidelity_ordering(self, rng):
        g = Grid(1, 5)
        f = random_function(g, rng)
        dy = fractional_maximal(f, 0.25, "dyadic").values
        sh = fractional_maximal(f, 0.25, "shifted").values
        al = fractional_maximal(f, 0.25, "aligned").values
        assert np.all(dy <= sh + 1e-12) and np.all(sh <= al + 1e-12)
        const = float((al / sh).max())
        assert const < 4.0  # measured shifted-family comparison constant


class TestAlignedPairKernel:
    """1D aligned M_alpha by window start/end pairs, against the per-width
    covering sweep it replaced (still the 2D path), compared with ==."""

    ALPHAS = (0.0, 0.125, 0.25, 0.5, 0.75)

    @staticmethod
    def inputs(g):
        n = g.cells_per_side
        rng = np.random.default_rng(g.depth)
        out = [GridFunction(g, np.zeros(n)), GridFunction.point_mass(g, (0,)),
               GridFunction.point_mass(g, (n - 1,)), GridFunction(g, rng.standard_normal(n)),
               GridFunction(g, rng.uniform(-1.0, 1.0, n) ** 5)]
        if g.depth >= 1:  # make_corpus draws cubes from level 1 on
            # one of each kind where the per-width oracle is slow
            counts = (1, 1, 1, 1) if g.depth >= 11 else (3, 2, 3, 4)
            out += [f for _, f in make_corpus(g, 40 + g.depth, *counts).entries]
        return out

    @pytest.mark.parametrize("depth", range(13))  # 32-start blocks: N < 32, = 32, > 32
    def test_equals_per_width_path(self, depth):
        g = Grid(1, depth)
        inputs = self.inputs(g)
        # the per-width oracle costs ~N^2 log N: every alpha on every input up
        # to L = 8, the alphas in turn across the inputs beyond
        if depth <= 8:
            cases = itertools.product(inputs, self.ALPHAS)
        else:
            cases = zip(inputs, itertools.cycle(self.ALPHAS))
        for f, alpha in cases:
            got = fractional_maximal(f, alpha, "aligned").values
            assert np.array_equal(got, aligned_maximal_per_width(f, alpha)), alpha

    @pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 70])
    def test_signed_prefix_matches_pair_loop(self, n, rng):
        # every window sum is negative, so a pair with j <= i, were it read,
        # would win with its zero coefficient; lengths that 32 does not
        # divide end in a partial block of starts
        prefix = np.concatenate([[0.0], np.cumsum(-rng.uniform(0.1, 1.0, n))])
        coef = np.concatenate([[0.0], rng.uniform(0.5, 2.0, n)])
        expect = np.full(n, -np.inf)
        for i in range(n):
            for j in range(i + 1, n + 1):
                np.maximum(expect[i:j], coef[j - i] * (prefix[j] - prefix[i]), out=expect[i:j])
        assert np.array_equal(covering_pair_max(prefix, coef), expect)

    def test_no_sliding_extreme_call_in_1d(self, monkeypatch):
        calls = []
        real = _windows.sliding_extreme

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(_windows, "sliding_extreme", counting)
        f = GridFunction(Grid(1, 6), np.arange(64.0))
        fractional_maximal(f, 0.25, "aligned")
        assert calls == []
        aligned_maximal_per_width(f, 0.25)  # the counter does see the per-width path
        assert len(calls) == 64

    def test_covering_window_extreme_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            covering_window_extreme(np.zeros(5), 3, 8)


class TestLocalDyadicMaximal:
    def test_requires_dyadic_base(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        with pytest.raises(DomainError):
            local_dyadic_maximal(f, 0.0, g.aligned_cube((1,), 3))

    def test_constant_function_ancestor_walk(self):
        # with zero extension, avg over 3Q is |3Q meet root| / |3Q|; the sup
        # over ancestors must match an explicit walk
        g = Grid(1, 4)
        f = GridFunction.constant(g, 1.0)
        base = g.dyadic_cube(1, (0,))
        out = local_dyadic_maximal(f, 0.25, base).values
        cell = 3
        best = 0.0
        for level in range(base.level, g.depth + 1):
            side = g.cells_per_side >> level
            q = g.dyadic_cube(level, (cell // side,))
            tq = dilate(q, 3.0)
            best = max(best, q.volume**0.25 * f.integral(tq) / tq.nominal_volume)
        assert out[cell] == pytest.approx(best, rel=1e-12)

    def test_single_cell_bump_hand_walk(self, rng):
        g = Grid(1, 3)
        f = GridFunction.point_mass(g, (5,), 2.0)
        base = g.root()
        out = local_dyadic_maximal(f, 0.0, base).values
        for cell in range(g.cells_per_side):
            best = 0.0
            for level in range(0, g.depth + 1):
                side = g.cells_per_side >> level
                q = g.dyadic_cube(level, (cell // side,))
                tq = dilate(q, 3.0)
                best = max(best, f.integral(tq) / tq.nominal_volume)
            assert out[cell] == pytest.approx(best, rel=1e-12)

    def test_dominated_by_global(self, rng):
        # the comparison constant between the global maximal operator and the
        # local dyadic one (plus the tail) is measured, not asserted
        from morreylab.sparse import build_sparse_maximal

        g = Grid(1, 5)
        f = random_function(g, rng)
        base = g.root()
        local = local_dyadic_maximal(f, 0.25, base).values
        full = fractional_maximal(f, 0.25).values
        tail = build_sparse_maximal(f, 0.25, base).tail
        const = float(((full - tail) / np.maximum(local, 1e-300)).max())
        assert math.isfinite(const)

    def test_integral_dominated_by_dyadic_sum(self):
        # the outer step of the integral chain, I_alpha f against the dyadic
        # sum form plus the dilation tail, is measured, not asserted
        from morreylab.sparse import build_sparse_integral, dyadic_sum_form

        g = Grid(1, 7)
        for seed in range(30):
            rng = np.random.default_rng(2000 + seed)
            f = GridFunction(g, np.exp(rng.uniform(-3, 3, g.shape)))
            alpha = float(rng.choice([0.125, 0.5, 0.75]))
            base = g.root()
            full = fractional_integral(f, alpha).values
            denom = dyadic_sum_form(f, alpha, base) + build_sparse_integral(f, alpha, base).tail
            const = float((full / np.maximum(denom, 1e-300)).max())
            assert math.isfinite(const)


class TestFractionalIntegral:
    def test_closed_form_midpoint(self):
        # I_{1/2} of the unit function at x = 1/2 is 2 sqrt(2) in the continuum
        target = 2.0 * math.sqrt(2.0)
        errs = []
        for depth in (6, 8, 10):
            g = Grid(1, depth)
            out = fractional_integral(GridFunction.constant(g, 1.0), 0.5).values
            errs.append(abs(out[g.cells_per_side // 2] - target))
        assert errs[-1] < 0.01
        assert errs[0] > errs[-1]  # refinement converges

    def test_linear(self, rng):
        g = Grid(1, 5)
        f, h = random_function(g, rng), random_function(g, rng)
        lhs = fractional_integral(f + h * 2.0, 0.3).values
        rhs = fractional_integral(f, 0.3).values + 2.0 * fractional_integral(h, 0.3).values
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_kernel_symmetry(self, rng):
        g = Grid(1, 5)
        f, h = random_function(g, rng), random_function(g, rng)
        inner1 = float(np.dot(fractional_integral(f, 0.4).values, h.values))
        inner2 = float(np.dot(f.values, fractional_integral(h, 0.4).values))
        assert inner1 == pytest.approx(inner2, rel=1e-12)

    def test_kernel_symmetry_2d(self, rng):
        g = Grid(2, 2)
        f, h = random_function(g, rng), random_function(g, rng)
        inner1 = float(np.sum(fractional_integral(f, 1.0).values * h.values))
        inner2 = float(np.sum(f.values * fractional_integral(h, 1.0).values))
        assert inner1 == pytest.approx(inner2, rel=1e-12)

    def test_dominates_maximal_pointwise(self, rng):
        g = Grid(1, 5)
        f = random_function(g, rng)
        mf = fractional_maximal(f, 0.4).values
        integ = fractional_integral(f, 0.4).values
        const = float((mf / integ).max())
        assert math.isfinite(const)
        assert np.all(mf <= const * integ * (1 + 1e-12))

    def test_alpha_range(self, grid1d):
        f = GridFunction.constant(grid1d, 1.0)
        with pytest.raises(DomainError):
            fractional_integral(f, 0.0)
        with pytest.raises(DomainError):
            fractional_integral(f, 1.0)


class TestCenteredWeightedMaximal:
    def test_constant_function(self, rng):
        g = Grid(1, 4)
        sigma = random_function(g, rng)
        out = centered_weighted_maximal(GridFunction.constant(g, 1.0), sigma).values
        assert np.allclose(out, 1.0, rtol=1e-12)

    def test_unit_measure_below_uncentered(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        sigma = GridFunction.constant(g, 1.0)
        centered = centered_weighted_maximal(f, sigma).values
        uncentered = fractional_maximal(f, 0.0, "aligned").values
        assert np.all(centered <= uncentered * (1 + 1e-12))
        assert np.all(centered >= np.abs(f.values) * (1 - 1e-12))

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_weighted_lp_bound(self, rng, p):
        # the displayed universal constant p/(p-1) is asserted as the bound
        g = Grid(1, 5)
        for _ in range(10):
            f = random_function(g, rng)
            sigma = random_function(g, rng)
            ratio = (weighted_lp_norm(centered_weighted_maximal(f, sigma).result, sigma, p)
                     / weighted_lp_norm(f, sigma, p))
            assert ratio <= p / (p - 1) * (1 + 1e-9)

    def test_2d_constant(self, rng):
        g = Grid(2, 2)
        sigma = random_function(g, rng)
        out = centered_weighted_maximal(GridFunction.constant(g, 3.0), sigma).values
        assert np.allclose(out, 3.0, rtol=1e-12)


class TestDyadicWeightedMaximal:
    def test_constant_function(self, rng):
        g = Grid(1, 4)
        w = random_function(g, rng)
        out = dyadic_weighted_maximal(GridFunction.constant(g, 4.2), w).values
        assert np.allclose(out, 4.2, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_universal_lp_bound(self, rng, p):
        g = Grid(1, 5)
        for _ in range(10):
            f = random_function(g, rng)
            w = random_function(g, rng)
            mf = dyadic_weighted_maximal(f, w).result
            ratio = weighted_lp_norm(mf, w, p) / weighted_lp_norm(f, w, p)
            assert ratio <= p / (p - 1) * (1 + 1e-9)

    def test_localization_identity(self, rng):
        # for f vanishing on a dyadic cube, the maximal function is constant
        # there and equals its own restriction-to-complement value
        g = Grid(1, 4)
        w = random_function(g, rng)
        f = random_function(g, rng)
        q = g.dyadic_cube(2, (1,))
        outside = f - f.restrict(q)
        m = dyadic_weighted_maximal(outside, w).values
        on_q = m[q.slices]
        assert np.allclose(on_q, on_q[0], rtol=1e-14)
        assert on_q[0] == pytest.approx(float(m[q.slices].min()), rel=1e-14)

    def test_exact_ancestor_walk(self, rng):
        g = Grid(1, 3)
        w = random_function(g, rng)
        f = random_function(g, rng)
        out = dyadic_weighted_maximal(f, w).values
        cellvol = g.cell_volume
        for cell in range(g.cells_per_side):
            best = 0.0
            for level in range(g.depth + 1):
                side = g.cells_per_side >> level
                q = g.dyadic_cube(level, (cell // side,))
                num = float((np.abs(f.values) * w.values)[q.slices].sum()) * cellvol
                den = w.integral(q)
                best = max(best, num / den)
            assert out[cell] == pytest.approx(best, rel=1e-12)


class TestSparseForms:
    def _family(self, g, cubes_with_masks):
        from morreylab.sparse import SparseFamily, StoppingCube

        scs = []
        for cube, mask in cubes_with_masks:
            scs.append(StoppingCube(cube, 0, 0.0, 0.0, mask))
        return SparseFamily(g.root(), tuple(scs), 1.0, 36.0, 0.0, "maximal")

    def test_single_cube(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        q = g.dyadic_cube(1, (1,))
        fam = self._family(g, [(q, q.mask())])
        out = sparse_maximal_form(f, fam, 0.25).values
        term = q.volume**0.25 * f.zero_extension_average(dilate(q, 3.0))
        assert np.allclose(out[q.slices], term)
        assert np.all(out[~q.mask()] == 0.0)
        out_i = sparse_integral_form(f, fam, 0.25).values
        assert np.allclose(out_i[q.slices], term)

    def test_empty_family(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        fam = self._family(g, [])
        assert np.all(sparse_maximal_form(f, fam, 0.25).values == 0.0)
        assert np.all(sparse_integral_form(f, fam, 0.25).values == 0.0)

    def test_matches_direct_sum(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        q1 = g.dyadic_cube(1, (0,))
        q2 = g.dyadic_cube(2, (2,))
        m1 = q1.mask() & ~q2.mask()
        fam = self._family(g, [(q1, m1), (q2, q2.mask())])
        out = sparse_maximal_form(f, fam, 0.3).values
        expect = np.zeros(g.shape)
        for cube, mask in [(q1, m1), (q2, q2.mask())]:
            expect[mask] += cube.volume**0.3 * f.zero_extension_average(dilate(cube, 3.0))
        assert np.allclose(out, expect, rtol=1e-12)

    def test_overlap_rejected(self, rng):
        g = Grid(1, 4)
        f = random_function(g, rng)
        q = g.dyadic_cube(1, (0,))
        fam = self._family(g, [(q, q.mask()), (q, q.mask())])
        with pytest.raises(DomainError):
            sparse_maximal_form(f, fam, 0.0)


@pytest.mark.parametrize("shape", [(1,), (2,), (4096,), (1, 1), (8, 8), (64, 64)])
def test_tripled_sums_matches_padded_sum(shape):
    # same 3^n terms in the same row-major offset order as an np.pad form,
    # so the sums agree bit for bit
    block = np.random.default_rng(len(shape) * 7 + shape[0]).uniform(0.0, 1.0, shape)
    padded = np.pad(block, 1)
    expect = np.zeros_like(block)
    for offset in itertools.product(range(3), repeat=block.ndim):
        expect += padded[tuple(slice(d, d + m) for d, m in zip(offset, block.shape))]
    assert np.array_equal(_windows.tripled_sums(block), expect)
