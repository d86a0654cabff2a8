"""Measure the benchmark's baseline and write bench/baseline.json.

    python3 bench/baseline.py

For every workload: two sets of untraced runs, one per seed 1-10, each
lasting BENCHMARK.json's run_seconds, then one traced run. Records the
machine, versions, each workload's input sizes (from its ``describe()``)
and the layers it loads or bypasses (from the measured self-time shares),
the map from metric to layer to workload, the bounds from BENCHMARK.json,
each set's medians and quartile spreads, and the failure breakdown. Runs
are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src")]

import workloads  # noqa: E402

SEEDS = list(range(1, 11))
SETS = 2

# per-layer metric -> (layer, workload it should move, end-to-end metric it should move)
METRIC_MAP = {
    "economy.demand.calls/self_s": ("economy", "fiber_many_agents",
                                    "tasks_per_s, task_ms_p50; small on fiber_small_scaled, "
                                    "none on cli_pipeline"),
    "equilibrium.excess_demand.calls/self_s/agent_evals": (
        "equilibrium", "fiber_many_agents, fiber_small_scaled",
        "tasks_per_s; a batched kernel keeps agent_evals and removes economy.demand.calls"),
    "equilibrium.solve_tatonnement.calls/self_s/iterations/converged_ratio/z_evals_per_solve": (
        "equilibrium", "fiber_small_scaled, fiber_many_agents",
        "task_ms_tail and failed on fiber_small_scaled; task_ms_p50 on fiber_many_agents"),
    "equilibrium.solve_grid_oracle.calls/self_s/z_evals_per_call/found": (
        "equilibrium", "fiber_small_scaled", "tasks_per_s and failed"),
    "equilibrium.equilibrium_index.calls/self_s/refused": (
        "equilibrium", "fiber_many_agents, fiber_small_scaled", "minor share"),
    "transition.run_path.calls/self_s/steps, scenarios.veblen_demand_curve.self_s": (
        "transition, scenarios", "cli_pipeline", "task_ms_p50"),
    "scenarios.estimate_critical_mass.calls/self_s/run_sugar_per_call, "
    "scenarios.run_sugar.calls/self_s": ("scenarios", "cli_pipeline", "task_ms_tail"),
    "topology.verify_topology_axioms.self_s/checked, topology.projection_continuous.self_s": (
        "topology", "cli_pipeline", "task_ms_tail"),
    "cli.import_s, cli.main.self_s, config.parse_and_validate.self_s, "
    "output.csv_text.self_s/bytes, output.write_manifest.self_s": (
        "cli, config, output", "cli_pipeline", "task_ms_p50"),
    "failures.<reason>, failed_frac": ("all", "each workload", "breaks down `failed`"),
    "trace.overhead_frac": ("tracer", "each workload", "traced against untraced task time"),
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def machine() -> dict:
    cpu = re.search(r"model name\s*:\s*(.*)", Path("/proc/cpuinfo").read_text())
    mem = re.search(r"MemTotal:\s*(\d+) kB", Path("/proc/meminfo").read_text())
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu.group(1) if cpu else platform.processor(),
            "ram_gib": round(int(mem.group(1)) / 2**20, 1) if mem else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": "pinned to 1 (OMP/OPENBLAS/MKL/BLIS/NUMEXPR_NUM_THREADS)"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"machine": machine(), "run_seconds": seconds, "seeds": SEEDS,
              "bounds": bounds, "metric_map": {k: {"layer": v[0], "workload": v[1], "moves": v[2]}
                                               for k, v in METRIC_MAP.items()},
              "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        built = workloads.WORKLOADS[name](SEEDS[0])
        entry = {"why": w["why"], "inputs": built.describe(), "sets": []}
        built.close()
        failures: dict[str, int] = {}
        attempted = failed = 0
        for set_no in range(SETS):
            values: dict[str, list[float]] = {}
            for seed in SEEDS:
                started = time.time()
                result, lines = run_once(name, seed, seconds, 0)
                for m in (re.match(r"failures\.(\w+) (\d+)$", ln) for ln in lines):
                    if m:
                        failures[m.group(1)] = failures.get(m.group(1), 0) + int(m.group(2))
                print(f"{name} set {set_no} seed {seed}: {time.time() - started:.1f} s "
                      f"correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']}", flush=True)
                for k, v in result["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                attempted += result["attempted"]
                failed += result["failed"]
                if not result["correct"]:
                    entry.setdefault("incorrect_runs", []).append(seed)
            entry["sets"].append({k: {"median": statistics.median(v), "spread": spread(v)}
                                  for k, v in values.items()})
        entry["failed_frac"] = failed / attempted
        entry["failures"] = {"attempted": attempted, "failed": failed, "by_reason": failures}
        first, second = entry["sets"]
        entry["second_median_vs_first"] = {
            k: second[k]["median"] / first[k]["median"] - 1.0 for k in first}

        result, lines = run_once(name, SEEDS[0], seconds, 1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        entry["traced_run"] = {
            "seed": SEEDS[0],
            "failed_frac": metrics["failed_frac"],
            "trace_overhead_frac": metrics["trace.overhead_frac"],
            "cli_import_s": metrics["cli.import_s"],
            "self_time_share": {m.group(1): float(m.group(2)) for m in
                                (re.match(r"self-time share (\S+) (\S+)$", ln) for ln in lines)
                                if m},
            "calls_per_task": {k[:-len(".calls")]: v for k, v in metrics.items()
                               if k.endswith(".calls")},
        }
        shares = entry["traced_run"]["self_time_share"]
        calls = entry["traced_run"]["calls_per_task"]
        entry["loads"] = sorted(k for k, s in shares.items() if k != "other" and s >= 0.01)
        entry["minor"] = sorted(k for k, c in calls.items() if c > 0 and shares.get(k, 0) < 0.01)
        entry["bypasses"] = sorted(k for k, c in calls.items() if c == 0)
        report["workloads"][name] = entry

    out = BENCH_DIR / "baseline.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
