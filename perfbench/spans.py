"""Span tracing of one morreylab CLI run, from outside the program.

Run as a child process:

    python3 perfbench/spans.py CONFIG TRACE_OUT

It wraps each layer's public functions at every module that binds them (a
`from .norms import morrey_norm` binds the name again in `conditions`,
`content` and `cli`), runs `morreylab run --config CONFIG` in-process and
writes the spans (name, parent, start, end) and counters to TRACE_OUT.  The
harness turns a trace into per-layer metrics with `aggregate`.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

SPAN, COUNT = "span", "count"


def _sparse_build_counts(result, counters) -> None:
    counters["sparse.stopping_cubes"] += len(result.family.cubes)
    counters["sparse.generations"] += result.family.generations


def _doubling_counts(result, counters) -> None:
    counters["conditions.doubling_searches"] += 1
    counters["conditions.kappas_tried"] += len(result.checks)
    counters["conditions.kappas_found"] += result.kappa is not None


def _trend_counts(result, counters) -> None:
    counters[f"conditions.trend.{result.label}"] += 1


# (module, attribute, traced name, kind, result hook).  Names drop the leading
# underscore of `_windows`, since metric names start with a letter.
TARGETS = [
    ("cli", "run", "cli.run", SPAN, None),
    ("cli", "write_reports", "cli.write_reports", SPAN, None),
    ("grid", "Cube.__post_init__", "grid.cube_constructions", COUNT, None),
    ("grid", "dilate", "grid.dilate.calls", COUNT, None),
    ("grid", "dyadic_cubes", "grid.dyadic_cubes", SPAN, None),
    ("_windows", "sliding_extreme", "windows.sliding_extreme", SPAN, None),
    ("_windows", "prefix_sum_1d", "windows.prefix_sum.calls", COUNT, None),
    ("_windows", "prefix_sum_2d", "windows.prefix_sum.calls", COUNT, None),
    ("norms", "morrey_norm", "norms.morrey_norm", SPAN, None),
    ("norms", "IntervalNormTable.__init__", "norms.IntervalNormTable", SPAN, None),
    ("content", "make_block", "content.make_block", SPAN, None),
    ("content", "choquet_integral", "content.choquet_integral", SPAN, None),
    ("content", "block_norm_upper", "content.block_norm_upper", SPAN, None),
    ("weights", "ap_constant", "weights.ap_constant", SPAN, None),
    ("operators", "fractional_integral", "operators.fractional_integral", SPAN, None),
    ("operators", "fractional_maximal", "operators.fractional_maximal", SPAN, None),
    ("operators", "local_dyadic_maximal", "operators.local_dyadic_maximal", SPAN, None),
    ("operators", "sparse_maximal_form", "operators.sparse_form", SPAN, None),
    ("operators", "sparse_integral_form", "operators.sparse_form", SPAN, None),
    ("sparse", "build_sparse_maximal", "sparse.build", SPAN, _sparse_build_counts),
    ("sparse", "build_sparse_integral", "sparse.build", SPAN, _sparse_build_counts),
    ("sparse", "verify_sparse", "sparse.verify_sparse", SPAN, None),
    ("sparse", "verify_domination_maximal", "sparse.verify_domination", SPAN, None),
    ("sparse", "verify_domination_integral", "sparse.verify_domination", SPAN, None),
    ("conditions", "doubling_search", "conditions.doubling_search", SPAN, _doubling_counts),
    ("conditions", "sweep_power_blocks", "conditions.sweep_power_blocks", SPAN, None),
    ("conditions", "balance_upper_supremum", "conditions.balance_upper_supremum", SPAN, None),
    ("conditions", "operator_norm_lower_bound", "conditions.operator_norm_lower_bound", SPAN, None),
    ("conditions", "classify_trend", "conditions.classify_trend.calls", COUNT, _trend_counts),
]


# counters that only the result hooks above increment
HOOK_COUNTERS = [
    "sparse.stopping_cubes", "sparse.generations", "conditions.doubling_searches",
    "conditions.kappas_tried", "conditions.kappas_found", "conditions.trend.stable",
    "conditions.trend.blowup", "conditions.trend.indeterminate",
]
COUNTER_NAMES = HOOK_COUNTERS + [name for _, _, name, kind, _ in TARGETS if kind == COUNT]


class Tracer:
    """Spans kept in memory as parallel lists; a span's parent is the span open
    when it started (-1 at the top).  Single-threaded by construction: the
    program starts no threads."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack = [-1]

    def span(self, fn, name: str, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack, counters = self._stack, self.counters
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if on_result is not None:
                on_result(result, counters)
            return result
        return wrapper

    def count(self, fn, name: str, on_result=None):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, counters)
            return result
        return wrapper

    def to_doc(self) -> dict:
        return {"names": self.names, "span_name": self.span_name,
                "span_parent": self.span_parent, "span_start": self.span_start,
                "span_end": self.span_end, "counters": dict(self.counters)}


def install(tracer: Tracer) -> None:
    """Replace every binding of each target in the morreylab modules by its wrapper."""
    import morreylab  # noqa: F401  (imports every layer module)
    import morreylab.cli  # noqa: F401

    modules = [m for k, m in sys.modules.items() if k == "morreylab" or k.startswith("morreylab.")]
    for module_name, attr, name, kind, hook in TARGETS:
        owner = sys.modules[f"morreylab.{module_name}"]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        make = tracer.span if kind == SPAN else tracer.count
        wrapper = make(original, name, hook)
        if cls_path:
            setattr(owner, fn_name, wrapper)
            continue
        bound = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
        if not bound:
            raise RuntimeError(f"morreylab.{module_name}.{attr} is bound nowhere")
        for m, k in bound:
            setattr(m, k, wrapper)


def aggregate(doc: dict) -> tuple[dict, dict]:
    """Per-name span statistics and the trace's checks.

    `calls` counts every span; `total_s` is inclusive time summed over spans
    with no ancestor of the same name (so recursion is not counted twice);
    `self_s` is each span's duration minus that of its direct children.
    """
    names, parents = doc["span_name"], doc["span_parent"]
    starts, ends = doc["span_start"], doc["span_end"]
    dur = [e - s for s, e in zip(starts, ends)]
    children = [0.0] * len(dur)
    nested_ok = True
    for i, p in enumerate(parents):
        if p >= 0:
            children[p] += dur[i]
            nested_ok &= starts[p] <= starts[i] and ends[i] <= ends[p]
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in doc["names"]}
    for i, nid in enumerate(names):
        st = stats[doc["names"][nid]]
        st["calls"] += 1
        st["self_s"] += dur[i] - children[i]
        p = parents[i]
        while p >= 0 and names[p] != nid:
            p = parents[p]
        if p < 0:
            st["total_s"] += dur[i]
    roots = [i for i, p in enumerate(parents) if p < 0]
    root_total = sum(dur[i] for i in roots)
    self_sum = sum(st["self_s"] for st in stats.values())
    checks = {
        "nested": nested_ok,
        "single_root": [doc["names"][names[i]] for i in roots] == ["cli.run"],
        "self_sum_error": abs(self_sum - root_total) / root_total if root_total > 0 else 1.0,
    }
    return stats, checks


def main(argv: list[str]) -> int:
    config, trace_out = argv
    tracer = Tracer()
    install(tracer)
    import morreylab.cli as cli

    code = cli.main(["run", "--config", config])
    with open(trace_out, "w") as fh:
        json.dump(tracer.to_doc(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
