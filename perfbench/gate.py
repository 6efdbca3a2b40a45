"""Output gate: compare one run's CSV/JSON reports with the stored reference.

Cells of the float columns below must agree to REL_TOL (relative, with an
absolute floor of ABS_TOL for values near zero); every other cell (classes,
kappa, witness cubes, pass flags, counts) must match exactly.  The `value`
column of the norms report also holds the doubling kappa, which comes from the
fixed grid 2^(j/4): neighbouring grid points differ by 19 %, so within REL_TOL
a kappa can only match exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12

FLOAT_COLUMNS = {
    "sweep-power": {"balance_values"},
    "sparse-fuzz": {"min_ratio", "stopping_lower", "stopping_upper", "upper_factor",
                    "domination_constant", "explicit_bound", "integral_explicit_constant"},
    "norms": {"value"},
}


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _cells_agree(got: str, want: str, is_float: bool) -> bool:
    if got == want:
        return True
    if not is_float:
        return False
    got_parts, want_parts = got.split("|"), want.split("|")
    if len(got_parts) != len(want_parts):
        return False
    try:
        return all(_close(float(g), float(w)) for g, w in zip(got_parts, want_parts))
    except ValueError:
        return False


def compare_csv(experiment: str, got: str, want: str, skip: frozenset | None) -> list[str]:
    """Mismatches between two CSV reports, ignoring the columns in `skip`."""
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if not got_rows or got_rows[0] != want_rows[0]:
        return ["CSV header differs from the reference"]
    if len(got_rows) != len(want_rows):
        return [f"CSV has {len(got_rows) - 1} rows, reference {len(want_rows) - 1}"]
    header = want_rows[0]
    floats = FLOAT_COLUMNS.get(experiment, set())
    problems = []
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        for col, g, w in zip(header, g_row, w_row):
            if col in (skip or ()):
                continue
            if not _cells_agree(g, w, col in floats):
                problems.append(f"row {r} column {col}: {g!r} != reference {w!r}")
    return problems


def _compare_json(got, want, path: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ from the reference"]
        return [p for k in want for p in _compare_json(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list differs from the reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _compare_json(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) in (int, float):
        return [] if _close(float(got), want) else [f"{path}: {got!r} != reference {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


def compare_summary(got: str, want: str, skip: frozenset | None) -> list[str]:
    """Mismatches between two JSON summaries, ignoring the top-level keys in `skip`."""
    g, w = json.loads(got), json.loads(want)
    for key in skip or ():
        g.pop(key, None)
        w.pop(key, None)
    return _compare_json(g, w, "$")
