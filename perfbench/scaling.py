"""Depth-scaling table: single layer calls timed across grid depths.

Run as a child process:

    python3 perfbench/scaling.py SEED OUT_JSON

For each layer function and each grid (1D L in {8, 10, 12}, 2D L in {4, 5, 6})
it makes one untimed warm-up call, then times calls until MIN_REPS calls and
MIN_TIME seconds are reached (at most MAX_REPS), and records the median as
`scaling.<module>.<function>.<n>d.L<k>_s`.  After the warm-up the Riesz kernel
is cached, except in `fractional_integral_cold`, which uses a new alpha for
every call.  The content DP (`hausdorff_content`, `choquet_integral`)
is reached by no CLI workload, so this table is where it is measured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from morreylab import (
    Grid,
    GridFunction,
    ap_constant,
    choquet_integral,
    fractional_integral,
    fractional_maximal,
    hausdorff_content,
    morrey_norm,
    power_weight,
)

GRIDS = [(1, 8), (1, 10), (1, 12), (2, 4), (2, 5), (2, 6)]
MIN_REPS, MAX_REPS, MIN_TIME = 3, 25, 0.1


def _cases(grid: Grid, rng: np.random.Generator):
    n = grid.ndim
    f = GridFunction(grid, np.exp(rng.uniform(-2.0, 2.0, grid.shape)))
    w = power_weight(grid, -0.25 * n, center=0.5 if n == 1 else (0.5, 0.5))
    level_set = w.values > np.median(w.values)
    alpha, lam = 0.25 * n, 0.5 * n
    yield "norms.morrey_norm", lambda: morrey_norm(f, 2.0, 4.0, "aligned")
    yield "weights.ap_constant", lambda: ap_constant(w, 1.0, "aligned")
    for fid in ("dyadic", "aligned", "shifted"):
        yield (f"operators.fractional_maximal_{fid}",
               lambda fid=fid: fractional_maximal(f, alpha, fid))
    yield "operators.fractional_integral", lambda: fractional_integral(f, alpha)
    # a fresh alpha per call misses the kernel cache, so this times the cold
    # dense kernel build that every CLI run pays once per alpha
    fresh = iter(range(1, 1000))
    yield ("operators.fractional_integral_cold",
           lambda: fractional_integral(f, alpha * (1.0 + 1e-9 * next(fresh))))
    yield "content.choquet_integral", lambda: choquet_integral(w, lam)
    yield "content.hausdorff_content", lambda: hausdorff_content(grid, level_set, lam)


def _median_time(call) -> float:
    call()
    times: list[float] = []
    while len(times) < MAX_REPS and (len(times) < MIN_REPS or sum(times) < MIN_TIME):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv: list[str]) -> int:
    seed, out = int(argv[0]), argv[1]
    rng = np.random.default_rng(seed)
    table = {}
    for n, depth in GRIDS:
        for name, call in _cases(Grid(n, depth), rng):
            table[f"scaling.{name}.{n}d.L{depth}_s"] = _median_time(call)
    with open(out, "w") as fh:
        json.dump(table, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
