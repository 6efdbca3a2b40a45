"""The benchmark workloads: one morreylab experiment config each.

Each workload is a pure function of the harness seed, which goes into the
config's `seed` field; the program receives nothing but the config.  Why each
workload exists, and which layers it stresses, is recorded in README.md.
`sparse_fuzz_2d` is defined for runs by hand; BENCHMARK.json leaves it out
because its time is not steady enough on a shared machine (README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    # builds the config document for a seed (the harness adds `out`)
    config: Callable[[int], dict]
    # work items in one run, from the config and the run's summary
    items: Callable[[dict, dict], int]
    # CSV columns / summary keys whose content depends on the seed; None means
    # every column does, so the stored reference applies at its own seed only
    seed_columns: frozenset | None
    seed_summary_keys: frozenset | None


def _sweep_power_1d(seed: int) -> dict:
    # A slice of acceptance criterion 4 straddling the doubling threshold:
    # kappa is found at rho=0, exhausted at rho<0, and rho=-0.0625 is an
    # allowed miss.  `allowed_miss` depends on rho_step, so a widened slice
    # keeps the step and the levels and adds consecutive rho only.
    return {
        "experiment": "sweep-power",
        "grid": {"n": 1, "L": 10},
        "seed": seed,
        "exponents": {"p": 2.0, "p0": 4.0, "alpha": 0.125},
        "options": {"rho_min": -0.125, "rho_max": 0.0625, "rho_step": 0.0625,
                    "levels": [8, 10, 12], "op_levels": [8, 10]},
    }


def _sparse_fuzz(n: int, depth: int) -> Callable[[int], dict]:
    def config(seed: int) -> dict:
        return {"experiment": "sparse-fuzz", "grid": {"n": n, "L": depth},
                "seed": seed, "options": {"instances": 50}}
    return config


def _conditions_2d(seed: int) -> dict:
    # The norms experiment does not read the seed; it is recorded all the same.
    # `center` is a scalar: a list-valued center raises TypeError (README).
    return {
        "experiment": "norms",
        "grid": {"n": 2, "L": 5},
        "seed": seed,
        "exponents": {"p": 2.0, "p0": 4.0, "alpha": 0.25},
        "options": {
            "with_conditions": True,
            "functions": [{"kind": "power", "rho": -0.3, "center": 0.5}],
            "weights": [{"kind": "power", "rho": 0.25, "center": 0.5}],
        },
    }


def _dyadic_cube_count(cfg: dict, summary: dict) -> int:
    n, depth = cfg["grid"]["n"], cfg["grid"]["L"]
    return ((1 << n * (depth + 1)) - 1) // ((1 << n) - 1)


WORKLOADS = {w.name: w for w in (
    Workload("sweep_power_1d", 2718, _sweep_power_1d,
             items=lambda cfg, summary: summary["rhos"],
             seed_columns=frozenset({"opnorm_maximal_class", "opnorm_integral_class"}),
             seed_summary_keys=frozenset({"seed"})),
    Workload("sparse_fuzz_2d", 11, _sparse_fuzz(2, 6),
             items=lambda cfg, summary: summary["instances"],
             seed_columns=None, seed_summary_keys=None),
    Workload("conditions_2d", 11, _conditions_2d,
             items=_dyadic_cube_count,
             seed_columns=frozenset(), seed_summary_keys=frozenset()),
    Workload("sparse_fuzz_1d", 11, _sparse_fuzz(1, 12),
             items=lambda cfg, summary: summary["instances"],
             seed_columns=None, seed_summary_keys=None),
)}
