"""morreylab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/morreylab` and
`BENCHMARK.json`).  Every repetition is a fresh `morreylab run --config ...`
process (`python3 -m morreylab.cli`), one at a time: a closed loop with one
client.  CLI users pay lazy set-up, such as the 2D Riesz kernel cache, on every
run, so nothing is warmed in-process.  Children run with BLAS_THREADS BLAS
threads and import morreylab from the checkout's `src`.

--trace 0 measures the end-to-end metrics: repetitions continue until
--seconds have passed (at least MIN_REPS of them, so the byte-identity gate
always has a pair), and set-up is sampled SETUP_PROBES times.  --trace 1 makes
one untraced and one traced repetition plus the depth-scaling table, and
reports the per-layer metrics.  Every repetition passes the output gate or
counts as failed.  The last line of standard output is the JSON result;
everything the harness writes stays under `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10
MIN_REPS = 2
DEADLINE_S = 170.0  # the harness must exit within 180 s
ACCOUNTING_TOL = 1e-6  # relative: per-layer self times must sum to cli.run.total_s
LIMITS = [
    "shared sandbox: other tenants' load is neither controlled nor recorded",
    "no page-cache drop: the source tree and reports may be in the page cache",
    "no cgroup control: CPU and memory are not pinned or reserved",
    "no hardware counters: times are wall clock, memory is peak RSS from wait4",
]


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK)
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], log: Path, timeout: float) -> Proc:
    """Run one child to its exit; wall time is from spawn to reaped exit."""
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=WORK, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        fired = threading.Event()

        def kill() -> None:
            fired.set()
            proc.kill()

        killer = threading.Timer(max(timeout, 0.0), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, fired.is_set())


class Harness:
    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.first_reports: tuple[bytes, bytes] | None = None
        self.reference = BENCH_DIR / "reference" / workload.name

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def prepare(self, tag: str) -> tuple[Path, Path, dict]:
        out = WORK / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        doc = dict(self.workload.config(self.seed), out=str(out / "reports"))
        path = out / "config.json"
        path.write_text(json.dumps(doc, indent=1))
        return path, out, doc

    def probe_setup(self, tag: str) -> float:
        path, out, _ = self.prepare(tag)
        proc = spawn([str(BENCH_DIR / "probe.py"), str(path)],
                     out / "log.txt", self.remaining())
        where = (out / "log.txt").read_text().strip()
        if proc.exit_code != 0:
            raise HarnessError(f"set-up probe failed (exit {proc.exit_code}):\n{where}")
        if not Path(where).resolve().is_relative_to(ROOT / "src"):
            raise HarnessError(f"morreylab imported from {where}, not from {ROOT / 'src'}")
        return proc.wall_s

    def experiment(self, tag: str, traced: bool) -> tuple[Proc, dict | None, Path]:
        """One repetition through the output gate; returns the process, its
        summary (None if it failed) and its directory."""
        path, out, doc = self.prepare(tag)
        if traced:
            args = [str(BENCH_DIR / "spans.py"), str(path), str(out / "trace.json")]
        else:
            args = ["-m", "morreylab.cli", "run", "--config", str(path)]
        proc = spawn(args, out / "log.txt", self.remaining())
        self.attempted += 1
        problems, summary = self.check(proc, doc, out)
        if problems:
            self.failed += 1
            print(f"{tag}: FAILED", *problems[:20], sep="\n  ", file=sys.stderr)
            return proc, None, out
        return proc, summary, out

    def check(self, proc: Proc, doc: dict, out: Path) -> tuple[list[str], dict | None]:
        if proc.timed_out:
            return ["timed out"], None
        if proc.exit_code != 0:
            log = (out / "log.txt").read_text(errors="replace")[-2000:]
            return [f"exit code {proc.exit_code}", log], None
        experiment = doc["experiment"]
        try:
            csv_bytes = (out / "reports" / f"{experiment}.csv").read_bytes()
            json_bytes = (out / "reports" / f"{experiment}_summary.json").read_bytes()
        except OSError as err:
            return [f"missing report: {err}"], None
        summary = json.loads(json_bytes)
        problems = []
        if summary.get("failures") != 0:
            problems.append(f"summary reports failures={summary.get('failures')}")
        if self.first_reports is None:
            self.first_reports = (csv_bytes, json_bytes)
        elif self.first_reports != (csv_bytes, json_bytes):
            problems.append("report bytes differ from the first repetition")
        problems += self.compare_reference(experiment, csv_bytes, json_bytes)
        return problems, summary

    def compare_reference(self, experiment: str, csv_bytes: bytes,
                          json_bytes: bytes) -> list[str]:
        w = self.workload
        if self.seed == w.default_seed:
            skip_cols, skip_keys = frozenset(), frozenset()
        elif w.seed_columns is None:
            return []
        else:
            skip_cols, skip_keys = w.seed_columns, w.seed_summary_keys
        ref_csv = (self.reference / f"{experiment}.csv").read_text()
        ref_json = (self.reference / f"{experiment}_summary.json").read_text()
        return (gate.compare_csv(experiment, csv_bytes.decode(), ref_csv, skip_cols)
                + gate.compare_summary(json_bytes.decode(), ref_json, skip_keys))


def machine_record() -> dict:
    import numpy as np

    def first_line(path: str, key: str) -> str:
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    llc = "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(int((c / "level").read_text()), (c / "size").read_text().strip())
              for c in caches if (c / "level").exists() and (c / "size").exists()]
    if levels:
        llc = max(levels)[1]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "last_level_cache": llc,
        "memory_total": first_line("/proc/meminfo", "MemTotal"),
        "cgroup_cpu_max": cpu_max.read_text().strip() if cpu_max.exists() else "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_children": BLAS_THREADS,
        "blas_thread_env": list(BLAS_ENV),
        "limits": LIMITS,
    }


def measure_end_to_end(h: Harness, seconds: float) -> dict:
    h.probe_setup("warmup")  # compiles the bytecode cache; not counted
    setup = [h.probe_setup(f"setup{i}") for i in range(SETUP_PROBES)]
    walls, rss, summaries = [], [], []
    start = time.perf_counter()
    while True:
        proc, summary, _ = h.experiment(f"rep{len(walls)}", traced=False)
        walls.append(proc.wall_s)
        rss.append(proc.peak_rss_mb)
        if summary is not None:
            summaries.append(summary)
        est = statistics.median(walls)
        if len(walls) >= MIN_REPS and time.perf_counter() - start + est > seconds:
            break
        if h.remaining() < 1.5 * est:
            break
    wall_s, setup_s = statistics.median(walls), statistics.median(setup)
    print(f"walls_s={[round(w, 4) for w in walls]} setup_s={[round(s, 4) for s in setup]}")
    items = h.workload.items(h.workload.config(h.seed), summaries[0]) if summaries else 0
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "items_per_s": items / (wall_s - setup_s) if items else 0.0,
        "peak_rss_mb": statistics.median(rss),
    }


def measure_layers(h: Harness) -> tuple[dict, bool]:
    h.probe_setup("warmup")
    plain, _, _ = h.experiment("untraced", traced=False)
    traced, summary, out = h.experiment("traced", traced=True)
    if summary is None:
        return {}, False
    doc = json.loads((out / "trace.json").read_text())
    stats, checks = spans.aggregate(doc)
    ok = (checks["nested"] and checks["single_root"]
          and checks["self_sum_error"] <= ACCOUNTING_TOL)
    print(f"span accounting: {checks} (tolerance {ACCOUNTING_TOL})")
    layer = {name: 0 for name in spans.COUNTER_NAMES}
    layer.update(doc["counters"])
    for name, st in stats.items():
        for stat, value in st.items():
            layer[f"{name}.{stat}"] = value
    layer["norms.IntervalNormTable.builds"] = stats["norms.IntervalNormTable"]["calls"]
    searches = layer["conditions.doubling_searches"]
    layer["conditions.kappa_found_ratio"] = (layer["conditions.kappas_found"] / searches
                                            if searches else 0.0)
    layer["cli.report_bytes"] = sum(p.stat().st_size for p in (out / "reports").iterdir())
    layer["bench.trace_overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0

    run_total = stats["cli.run"]["total_s"]
    print("self time share of cli.run.total_s:")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        if st["calls"]:
            print(f"  {name:40s} {st['self_s'] / run_total:7.1%}  total {st['total_s']:.3f} s"
                  f"  calls {st['calls']}")

    scaling_out = WORK / "scaling.json"
    proc = spawn([str(BENCH_DIR / "scaling.py"), str(h.seed), str(scaling_out)],
                 WORK / "scaling_log.txt", h.remaining())
    if proc.exit_code != 0:
        print((WORK / "scaling_log.txt").read_text()[-2000:], file=sys.stderr)
        return layer, False
    layer.update(json.loads(scaling_out.read_text()))
    return layer, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    try:
        if not (ROOT / "src" / "morreylab" / "__init__.py").is_file():
            raise HarnessError(f"no morreylab source tree at {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        print(json.dumps({"machine": machine_record()}))
        h = Harness(WORKLOADS[args.workload], args.seed, deadline)
        if args.trace:
            values, ok = measure_layers(h)
            wanted = spec["per_layer"]
        else:
            values, ok = measure_end_to_end(h, args.seconds), True
            wanted = spec["end_to_end"]
    except HarnessError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(f"run_fail_ratio={h.failed / h.attempted} ({h.failed} of {h.attempted} runs failed)")
    correct = ok and h.failed == 0
    result = {
        "correct": correct,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
