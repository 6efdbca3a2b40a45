"""Regenerate the stored reference reports, one run per workload at its default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Writes `perfbench/reference/<workload>/` with the experiment's CSV and JSON
summary.  Only run this when the program's intended output changes, and say
why in the change that commits the new references.
"""

from __future__ import annotations

import shutil
import sys

from run import BENCH_DIR, DEADLINE_S, WORK, Harness, spawn
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    WORK.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        h = Harness(workload, workload.default_seed, deadline=float("inf"))
        path, out, doc = h.prepare(f"reference_{name}")
        proc = spawn(["-m", "morreylab.cli", "run", "--config", str(path)],
                     out / "log.txt", DEADLINE_S)
        if proc.exit_code != 0:
            print(f"{name}: exit code {proc.exit_code}", file=sys.stderr)
            return 1
        dest = BENCH_DIR / "reference" / name
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(out / "reports", dest)
        print(f"{name}: {proc.wall_s:.2f} s -> {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
