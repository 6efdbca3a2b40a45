"""Exact agreement of the cube-family sweeps with pinned outputs.

Every value below was produced by the per-dimension sweeps that the shared
engine replaced.  The engine must reproduce them bit for bit: floats compare
by `repr`, witness cubes by their corners, and output arrays by the sha1 of
their float64 bytes.  A change in the order of a sum (for example the
inclusion-exclusion terms of a box sum) or in the tie order of the arg-sup
reducer shows up here as a mismatch.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from morreylab.content import choquet_integral, hausdorff_content
from morreylab.grid import Grid, GridFunction, dilate
from morreylab.norms import dyadic_weighted_morrey_norm, morrey_norm
from morreylab.operators import (
    centered_weighted_maximal,
    dyadic_weighted_maximal,
    fractional_maximal,
    local_dyadic_maximal,
)
from morreylab.sparse import (
    build_sparse_integral,
    build_sparse_maximal,
    dyadic_sum_form,
    family_to_doc,
)
from morreylab.weights import ap_constant, apq_constant, power_weight

GRIDS = [(1, 3), (1, 6), (2, 3), (2, 4)]
FIDELITIES = ("dyadic", "aligned", "shifted")


def _digest(values: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _cube(cube) -> tuple:
    return None if cube is None else (cube.lo, cube.hi)


def _sup(res) -> tuple:
    return repr(res.value), _cube(res.cube)


def _cover(content) -> tuple:
    return repr(content.value), tuple(_cube(c) for c in content.cover)


def _inputs(n: int, depth: int) -> dict:
    grid = Grid(n, depth)
    rng = np.random.default_rng(1000 * n + depth)
    signs = np.where(rng.uniform(size=grid.shape) < 0.3, -1.0, 1.0)
    f = signs * np.exp(rng.uniform(-2.0, 2.0, grid.shape))
    f[rng.uniform(size=grid.shape) < 0.2] = 0.0
    w = np.exp(rng.uniform(-1.5, 1.5, grid.shape))
    base = grid.dyadic_cube(1, (1,) * n)
    inner = grid.dyadic_cube(2, (1,) * n)
    return {
        "grid": grid,
        "f": GridFunction(grid, f),
        "w": GridFunction(grid, w),
        "pw": power_weight(grid, -0.3 * n, center=0.5 if n == 1 else (0.5, 0.25)),
        "zero": GridFunction.constant(grid, 0.0),
        "one": GridFunction.constant(grid, 1.0),
        "base": base,
        "dyadic_support": inner,
        # a dilate that sticks out of the root: clipped, not square in 2D
        "clipped_support": dilate(grid.dyadic_cube(2, (0,) + (1,) * (n - 1)), 3.0),
        "mask": np.abs(f) > 1.0,
    }


def _quantities() -> dict:
    q = {}
    for fid in FIDELITIES:
        q[f"morrey_{fid}"] = lambda d, fid=fid: _sup(morrey_norm(d["f"], 2.0, 4.0, fid))
        q[f"morrey_zero_{fid}"] = lambda d, fid=fid: _sup(morrey_norm(d["zero"], 2.0, 4.0, fid))
        q[f"ap1_{fid}"] = lambda d, fid=fid: _sup(ap_constant(d["pw"], 1.0, fid))
        q[f"ap2_{fid}"] = lambda d, fid=fid: _sup(ap_constant(d["w"], 2.0, fid))
        q[f"ap1_constant_{fid}"] = lambda d, fid=fid: _sup(ap_constant(d["one"], 1.0, fid))
        q[f"apq_{fid}"] = lambda d, fid=fid: _sup(apq_constant(d["w"], 2.0, 3.0, fid))
        q[f"fractional_maximal_{fid}"] = (
            lambda d, fid=fid: _digest(fractional_maximal(d["f"], 0.25, fid).values))
    q["morrey_p_eq_p0"] = lambda d: _sup(morrey_norm(d["f"], 3.0, 3.0))
    q["morrey_dyadic_support"] = (
        lambda d: _sup(morrey_norm(d["f"], 1.5, 4.0, support=d["dyadic_support"])))
    q["morrey_clipped_support"] = (
        lambda d: _sup(morrey_norm(d["f"], 2.0, 4.0, support=d["clipped_support"])))
    q["morrey_zero_support"] = (
        lambda d: _sup(morrey_norm(d["zero"], 2.0, 4.0, support=d["clipped_support"])))
    q["dyadic_weighted_morrey"] = (
        lambda d: _sup(dyadic_weighted_morrey_norm(d["f"], d["w"], 2.0, 0.5 * d["grid"].ndim)))
    q["local_dyadic_maximal"] = (
        lambda d: _digest(local_dyadic_maximal(d["f"], 0.25, d["base"]).values))
    q["dyadic_weighted_maximal"] = lambda d: _digest(dyadic_weighted_maximal(d["f"], d["w"]).values)
    q["centered_weighted_maximal"] = (
        lambda d: _digest(centered_weighted_maximal(d["f"], d["w"]).values))
    q["hausdorff_content"] = (
        lambda d: _cover(hausdorff_content(d["grid"], d["mask"], 0.6 * d["grid"].ndim)))
    q["choquet_integral"] = lambda d: repr(choquet_integral(abs(d["f"]), 0.6 * d["grid"].ndim))
    q["dyadic_sum_form"] = lambda d: _digest(dyadic_sum_form(abs(d["f"]), 0.25, d["base"]))
    q["sparse_maximal_doc"] = lambda d: hashlib.sha1(family_to_doc(
        build_sparse_maximal(abs(d["f"]), 0.25, d["base"]).family).encode()).hexdigest()
    q["sparse_integral_doc"] = lambda d: hashlib.sha1(family_to_doc(
        build_sparse_integral(abs(d["f"]), 0.25, d["base"]).family).encode()).hexdigest()
    return q


QUANTITIES = _quantities()

PINNED = {(1, 3): {'ap1_aligned': ('1.5120149444379236', ((0,), (5,))),
                   'ap1_constant_aligned': ('1.0', ((0,), (1,))),
                   'ap1_constant_dyadic': ('1.0', ((0,), (1,))),
                   'ap1_constant_shifted': ('1.0', ((0,), (1,))),
                   'ap1_dyadic': ('1.370642351003292', ((0,), (4,))),
                   'ap1_shifted': ('1.4806262210887715', ((1,), (5,))),
                   'ap2_aligned': ('3.003850913449175', ((3,), (5,))),
                   'ap2_dyadic': ('2.833441799451702', ((4,), (6,))),
                   'ap2_shifted': ('3.003850913449175', ((3,), (5,))),
                   'apq_aligned': ('5.5944923641024715', ((3,), (5,))),
                   'apq_dyadic': ('5.21010315456191', ((4,), (6,))),
                   'apq_shifted': ('5.5944923641024715', ((3,), (5,))),
                   'centered_weighted_maximal': '80499b928ee32f13a34f6c624cfcf6e41c5fc491',
                   'choquet_integral': '3.832055535175696',
                   'dyadic_sum_form': 'baebb56238cb9be78627f7bc3dbbf10250ac0ca9',
                   'dyadic_weighted_maximal': 'c9c3c7a045ffdb5a7705da7cb2056405049e0b6e',
                   'dyadic_weighted_morrey': ('3.840132280164882', ((0,), (1,))),
                   'fractional_maximal_aligned': '082d15b7bbbeb3d559e7ffd46557f9166a8d0ecb',
                   'fractional_maximal_dyadic': 'df2064611ddfee4644a66f01319c67e0883060f4',
                   'fractional_maximal_shifted': 'df2064611ddfee4644a66f01319c67e0883060f4',
                   'hausdorff_content': ('0.8705505632961241', (((0,), (2,)), ((4,), (6,)))),
                   'local_dyadic_maximal': '229deef966722fc65ba8d23530853bf678c6c71c',
                   'morrey_aligned': ('3.905743119318368', ((0,), (1,))),
                   'morrey_clipped_support': ('3.905743119318368', ((0,), (1,))),
                   'morrey_dyadic': ('3.905743119318368', ((0,), (1,))),
                   'morrey_dyadic_support': ('0.1917195899369411', ((2,), (3,))),
                   'morrey_p_eq_p0': ('3.6382398040048067', ((0,), (8,))),
                   'morrey_shifted': ('3.905743119318368', ((0,), (1,))),
                   'morrey_zero_aligned': ('0.0', ((0,), (1,))),
                   'morrey_zero_dyadic': ('0.0', ((0,), (1,))),
                   'morrey_zero_shifted': ('0.0', ((0,), (1,))),
                   'morrey_zero_support': ('0.0', ((0,), (1,))),
                   'sparse_integral_doc': '588f55bbac47666c1012395a9d2bec8d40dee886',
                   'sparse_maximal_doc': '0a3086cc238f0e5b6a78fd4bb240dd1dad0f362f'},
          (1, 6): {'ap1_aligned': ('1.5692341732974615', ((25,), (64,))),
                   'ap1_constant_aligned': ('1.0', ((0,), (1,))),
                   'ap1_constant_dyadic': ('1.0', ((0,), (1,))),
                   'ap1_constant_shifted': ('1.0', ((0,), (1,))),
                   'ap1_dyadic': ('1.4218147640221512', ((0,), (32,))),
                   'ap1_shifted': ('1.5260281431552642', ((21,), (37,))),
                   'ap2_aligned': ('4.835392128064865', ((13,), (15,))),
                   'ap2_dyadic': ('4.762811937062617', ((0,), (2,))),
                   'ap2_shifted': ('4.835392128064865', ((13,), (15,))),
                   'apq_aligned': ('9.717004109438705', ((13,), (15,))),
                   'apq_dyadic': ('9.553809764996672', ((0,), (2,))),
                   'apq_shifted': ('9.717004109438705', ((13,), (15,))),
                   'centered_weighted_maximal': 'bdeb75887056756306ef9d2803220d6ef39e59c5',
                   'choquet_integral': '3.8401787032122217',
                   'dyadic_sum_form': 'e1fe7425124abc59b5ce303a7f03666e0fe6ef7a',
                   'dyadic_weighted_maximal': 'd225586b2de9b34df8f64830a85b423c3b80eb3f',
                   'dyadic_weighted_morrey': ('3.3507475110969462', ((56,), (57,))),
                   'fractional_maximal_aligned': '5d028cae109b230b4a18f8bcfe6ac0caa753ab39',
                   'fractional_maximal_dyadic': 'a95d16eb7be6f638ccae93f154293d9f3411ae11',
                   'fractional_maximal_shifted': '50dcad15bc107e4245ec69ccd4dedd44690c1106',
                   'hausdorff_content': ('1.0', (((0,), (64,)),)),
                   'local_dyadic_maximal': '20ec6b988678f5e94f07faae5eab2486740e8abb',
                   'morrey_aligned': ('2.6082098693176046', ((34,), (35,))),
                   'morrey_clipped_support': ('1.8515094715147815', ((31,), (32,))),
                   'morrey_dyadic': ('2.6082098693176046', ((34,), (35,))),
                   'morrey_dyadic_support': ('1.8515094715147813', ((31,), (32,))),
                   'morrey_p_eq_p0': ('2.6384388518625563', ((0,), (64,))),
                   'morrey_shifted': ('2.6082098693176046', ((34,), (35,))),
                   'morrey_zero_aligned': ('0.0', ((0,), (1,))),
                   'morrey_zero_dyadic': ('0.0', ((0,), (1,))),
                   'morrey_zero_shifted': ('0.0', ((0,), (1,))),
                   'morrey_zero_support': ('0.0', ((0,), (1,))),
                   'sparse_integral_doc': 'a520d0068d8e40b08dade1b307744277ca1af014',
                   'sparse_maximal_doc': '3af4386ac1b53b0e02ab0d806dca33487ef8e8df'},
          (2, 3): {'ap1_aligned': ('2.04355579778673', ((1, 1), (5, 5))),
                   'ap1_constant_aligned': ('1.0', ((0, 0), (1, 1))),
                   'ap1_constant_dyadic': ('1.0', ((0, 0), (1, 1))),
                   'ap1_constant_shifted': ('1.0', ((0, 0), (1, 1))),
                   'ap1_dyadic': ('1.8152040321529623', ((0, 0), (8, 8))),
                   'ap1_shifted': ('2.04355579778673', ((1, 1), (5, 5))),
                   'ap2_aligned': ('3.006666946967785', ((0, 6), (2, 8))),
                   'ap2_dyadic': ('3.006666946967785', ((0, 6), (2, 8))),
                   'ap2_shifted': ('3.006666946967785', ((0, 6), (2, 8))),
                   'apq_aligned': ('6.337903914201566', ((1, 0), (3, 2))),
                   'apq_dyadic': ('5.734959836180779', ((0, 6), (2, 8))),
                   'apq_shifted': ('6.337903914201566', ((1, 0), (3, 2))),
                   'centered_weighted_maximal': '8d4891eeca59c9d8ff3c8d356092f32f06a0f8b7',
                   'choquet_integral': '4.701495240886278',
                   'dyadic_sum_form': '093545d053d7be0edda7a3eadd03fe5daecc705f',
                   'dyadic_weighted_maximal': '1e48cf5c1c19d9c634ba0a144252a171e08bb93a',
                   'dyadic_weighted_morrey': ('2.8335330413145874', ((4, 0), (5, 1))),
                   'fractional_maximal_aligned': 'cc86e56c9cb3237a7eb43046a18ae9c04899d0cb',
                   'fractional_maximal_dyadic': '20a208a996244f417b0276cea0c9aa1c9550dfa0',
                   'fractional_maximal_shifted': '6e289cf15ea9479219ffed6f828245330bdc20fe',
                   'hausdorff_content': ('1.0', (((0, 0), (8, 8)),)),
                   'local_dyadic_maximal': '319a0a64683701e263d006fd6485a9e42af52e5d',
                   'morrey_aligned': ('2.6109513371666897', ((4, 0), (5, 1))),
                   'morrey_clipped_support': ('1.4450206088645456', ((1, 0), (2, 1))),
                   'morrey_dyadic': ('2.6109513371666897', ((4, 0), (5, 1))),
                   'morrey_dyadic_support': ('1.3296469916995592', ((3, 2), (4, 3))),
                   'morrey_p_eq_p0': ('3.0472522554304824', ((0, 0), (8, 8))),
                   'morrey_shifted': ('2.6109513371666897', ((4, 0), (5, 1))),
                   'morrey_zero_aligned': ('0.0', ((0, 0), (1, 1))),
                   'morrey_zero_dyadic': ('0.0', ((0, 0), (1, 1))),
                   'morrey_zero_shifted': ('0.0', ((0, 0), (1, 1))),
                   'morrey_zero_support': ('0.0', ((0, 0), (1, 1))),
                   'sparse_integral_doc': '4e992b598c1d075f740129baa8e1752e9cc414ab',
                   'sparse_maximal_doc': '3505e230c0775d33dee6a1bbc003de88469fc5d3'},
          (2, 4): {'ap1_aligned': ('2.0435557977867296', ((5, 1), (9, 5))),
                   'ap1_constant_aligned': ('1.0', ((0, 0), (1, 1))),
                   'ap1_constant_dyadic': ('1.0', ((0, 0), (1, 1))),
                   'ap1_constant_shifted': ('1.0', ((0, 0), (1, 1))),
                   'ap1_dyadic': ('1.7952454379988263', ((0, 0), (16, 16))),
                   'ap1_shifted': ('2.0435557977867296', ((5, 1), (9, 5))),
                   'ap2_aligned': ('3.653916043360094', ((14, 3), (16, 5))),
                   'ap2_dyadic': ('3.3827794621925875', ((14, 4), (16, 6))),
                   'ap2_shifted': ('3.653916043360094', ((14, 3), (16, 5))),
                   'apq_aligned': ('8.928765750661277', ((14, 3), (16, 5))),
                   'apq_dyadic': ('7.027780309837383', ((14, 4), (16, 6))),
                   'apq_shifted': ('8.928765750661277', ((14, 3), (16, 5))),
                   'centered_weighted_maximal': 'facaee47ed2699ea0e2aa1f2480cda36711ed980',
                   'choquet_integral': '5.262760925259244',
                   'dyadic_sum_form': '9c4c442a76e14025fd8d766963a175a6680f2e9a',
                   'dyadic_weighted_maximal': '92ad1f748b5628ce352e32702e4b1b4560ac80d5',
                   'dyadic_weighted_morrey': ('2.1478907570828167', ((0, 0), (16, 16))),
                   'fractional_maximal_aligned': '47ebb2518d72ee6a7f403271c292d6df057d64b3',
                   'fractional_maximal_dyadic': '75845ce298e6a95c6250d2a22db286fbe610363e',
                   'fractional_maximal_shifted': 'd53ef4ae81f22643f5f02ed4e7fe484fd2da6573',
                   'hausdorff_content': ('1.0', (((0, 0), (16, 16)),)),
                   'local_dyadic_maximal': 'a54dd0a380c0b75d9c00c68c7c4a8b211a84fe12',
                   'morrey_aligned': ('2.093629024077793', ((0, 0), (16, 16))),
                   'morrey_clipped_support': ('1.6390733480121829', ((4, 2), (5, 3))),
                   'morrey_dyadic': ('2.093629024077793', ((0, 0), (16, 16))),
                   'morrey_dyadic_support': ('1.3105714395880825', ((5, 5), (6, 6))),
                   'morrey_p_eq_p0': ('2.754774239212117', ((0, 0), (16, 16))),
                   'morrey_shifted': ('2.093629024077793', ((0, 0), (16, 16))),
                   'morrey_zero_aligned': ('0.0', ((0, 0), (1, 1))),
                   'morrey_zero_dyadic': ('0.0', ((0, 0), (1, 1))),
                   'morrey_zero_shifted': ('0.0', ((0, 0), (1, 1))),
                   'morrey_zero_support': ('0.0', ((0, 0), (1, 1))),
                   'sparse_integral_doc': '9062441aec06ef28d97ddf0239178c15204436cf',
                   'sparse_maximal_doc': '315bfdc9b2eee4ac83fbf27e76695a316b6e6f42'}}


@pytest.mark.parametrize("name", sorted(QUANTITIES))
@pytest.mark.parametrize("n,depth", GRIDS)
def test_matches_pinned(n, depth, name):
    assert QUANTITIES[name](_inputs(n, depth)) == PINNED[(n, depth)][name]
