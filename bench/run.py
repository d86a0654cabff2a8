"""The dutybound benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fiber_many_agents, fiber_small_scaled, cli_pipeline (see
workloads.py). The loop is closed: one caller sends each task after the
previous one finished, with at most one child process at a time, and BLAS
threads pinned to 1. Every task's output is checked against the independent
references in references.py.

``--trace 0`` prints the end-to-end metrics: setup_s (median over 21 child
processes that each import dutybound and build the workload's inputs; they
run between rounds, spread over the run, so the median sees the same load
as the tasks), tasks_per_s, task_ms_p50, task_ms_tail (the 11th-largest latency, the
highest percentile with ten samples beyond it) and peak_rss_mb.

``--trace 1`` runs each round of tasks untraced, then again with the
outside-in tracer installed, and prints the per-layer metrics (see
tracer.py) with the tracing overhead. Spans are written to bench/_work/.

Human-readable lines go first; the last line of standard output is the JSON
result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# pinned before numpy can be imported, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_PROBES = 21
IMPORT_PROBES = 3
TAIL_BEYOND = 10

WORKLOAD_NAMES = ("fiber_many_agents", "fiber_small_scaled", "cli_pipeline")
FAILURE_REASONS = ("not_converged", "oracle_miss", "reference_mismatch", "index_sum",
                   "exit_code", "exception")

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    from tracer import SPAN_NAMES
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "1/task"
        units[f"{name}.self_s"] = "s/task"
        units[f"{name}.total_s"] = "s/task"
    units.update({
        "equilibrium.excess_demand.agent_evals": "1/task",
        "equilibrium.solve_tatonnement.iterations": "1/solve",
        "equilibrium.solve_tatonnement.converged_ratio": "ratio",
        "equilibrium.solve_tatonnement.z_evals_per_solve": "1/solve",
        "equilibrium.solve_grid_oracle.z_evals_per_call": "1/call",
        "equilibrium.solve_grid_oracle.found": "1/call",
        "equilibrium.equilibrium_index.refused": "1/task",
        "transition.run_path.steps": "1/call",
        "scenarios.estimate_critical_mass.run_sugar_per_call": "1/call",
        "topology.verify_topology_axioms.checked": "1/call",
        "output.csv_text.bytes": "B/task",
        "cli.import_s": "s",
        "failed_frac": "fraction",
    })
    for reason in FAILURE_REASONS:
        units[f"failures.{reason}"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    return units


@dataclass
class Tally:
    """Outcomes of a sequence of tasks."""

    latencies: list[float] = field(default_factory=list)
    rounds: list[float] = field(default_factory=list)  # task time of each round
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def merge(self, other: "Tally") -> "Tally":
        return Tally(self.latencies + other.latencies, self.rounds + other.rounds,
                     self.failed + other.failed, self.reasons + other.reasons,
                     self.wrong + other.wrong)


def run_tasks(workload, seconds: float | None = None, tasks: int | None = None,
              first: int = 0, tracer=None, between_rounds=None) -> Tally:
    """Run whole rounds of tasks from task ``first`` on: exactly ``tasks``
    of them, or until the round boundary nearest to ``seconds`` of task
    time. Latency covers the library calls only; the correctness check runs
    outside it. ``between_rounds(tally)`` is called after each round."""
    tally = Tally()
    i = first
    while True:
        busy = 0.0
        for _ in range(workload.round_size):
            if tracer is not None:
                tracer.task_id = i
            started = time.perf_counter()
            try:
                output = workload.run(i)
            except Exception:  # a task that raises is a counted failure, not a crash
                elapsed = time.perf_counter() - started
                traceback.print_exc(file=sys.stderr)
                tally.latencies.append(elapsed)
                tally.failed += 1
                tally.reasons["exception"] += 1
            else:
                elapsed = time.perf_counter() - started
                tally.latencies.append(elapsed)
                try:
                    verdict = workload.check(i, output)
                except Exception as exc:  # output without what the check reads
                    traceback.print_exc(file=sys.stderr)
                    from workloads import Verdict
                    verdict = Verdict()
                    verdict.fail("exception", f"check raised {exc!r}")
                tally.failed += bool(verdict.reasons)
                tally.reasons.update(verdict.reasons)
                tally.wrong.extend(f"task {i}: {w}" for w in verdict.wrong)
            busy += elapsed
            i += 1
        tally.rounds.append(busy)
        if between_rounds is not None:
            between_rounds(tally)
        if tasks is not None:
            if i - first >= tasks:
                return tally
        elif sum(tally.rounds) * (1.0 + 0.5 / len(tally.rounds)) >= seconds:
            return tally


def end_to_end(latencies: list[float], setup_s: float,
               peak_rss_kb: int) -> tuple[dict, list[str]]:
    lat = sorted(latencies)
    n = len(lat)
    # with too few samples for a tail, report the largest
    tail_rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    metrics = {
        "setup_s": setup_s,
        "tasks_per_s": n / sum(lat),
        "task_ms_p50": statistics.median(lat) * 1e3,
        "task_ms_tail": lat[tail_rank] * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    notes = [f"latency samples {n}; tail is p{100.0 * (tail_rank + 1) / n:.1f} "
             f"({n - tail_rank - 1} samples beyond it)"]
    return metrics, notes


def failure_lines(tally: Tally) -> list[str]:
    lines = [f"failed_frac {tally.failed / tally.attempted:.6f} fraction "
             f"({tally.failed} of {tally.attempted} tasks)"]
    lines += [f"failures.{r} {tally.reasons[r]}" for r in FAILURE_REASONS if tally.reasons[r]]
    lines += [f"wrong answer: {w}" for w in tally.wrong[:20]]
    return lines


def child_probe(code: str) -> float:
    """Run a child interpreter that prints one float, and return it."""
    from workloads import child_env
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                         capture_output=True, text=True, timeout=120, cwd=str(BENCH_DIR))
    return float(out.stdout.strip().splitlines()[-1])


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a child process takes to import dutybound and build the inputs."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC_DIR)!r}]; "
            "import workloads; "
            f"w = workloads.WORKLOADS[{workload!r}]({seed}); "
            "t = time.perf_counter() - t0; w.close(); print(t)")
    return child_probe(code)


def import_seconds() -> float:
    code = ("import time; t0 = time.perf_counter(); import dutybound; "
            "print(time.perf_counter() - t0)")
    return statistics.median(child_probe(code) for _ in range(IMPORT_PROBES))


def measure(workload, seconds: float, seed: int) -> tuple[dict, Tally, list[str]]:
    """The untraced run: end-to-end metrics."""
    setups: list[float] = []

    def probe_setup(tally: Tally) -> None:
        # keep the probes level with the share of the run's task time so far
        while len(setups) < min(SETUP_PROBES, SETUP_PROBES * sum(tally.rounds) / seconds):
            setups.append(setup_probe(workload.name, seed))

    tally = run_tasks(workload, seconds=seconds, between_rounds=probe_setup)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name, seed))
    child_kb = getattr(workload, "peak_child_rss_kb", 0)
    rss_kb = child_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, notes = end_to_end(tally.latencies, statistics.median(setups), rss_kb)
    return metrics, tally, notes


def measure_traced(workload, seconds: float, spans_path: Path | None):
    """The traced run: per-layer metrics, and layer shares of self time.

    Rounds alternate: each round runs untraced, then the same tasks again
    traced, while another pair still fits in ``seconds``. Pairing the rounds
    keeps drift and first-call costs out of the overhead figure.
    """
    from tracer import Tracer
    tracer = Tracer()
    untraced, traced = Tally(), Tally()
    first = 0
    while not untraced.rounds or (sum(untraced.rounds) + sum(traced.rounds)) * (
            1.0 + 1.0 / len(untraced.rounds)) <= seconds:
        untraced = untraced.merge(run_tasks(workload, tasks=workload.round_size, first=first))
        tracer.install()
        try:
            traced = traced.merge(run_tasks(workload, tasks=workload.round_size, first=first,
                                            tracer=tracer))
        finally:
            tracer.uninstall()
        first += workload.round_size
    if spans_path is not None:
        tracer.write(spans_path)
    metrics = tracer.summary(traced.attempted)
    metrics["cli.import_s"] = import_seconds()
    metrics["failed_frac"] = untraced.failed / untraced.attempted
    for reason in FAILURE_REASONS:
        metrics[f"failures.{reason}"] = untraced.reasons[reason] / untraced.attempted
    metrics["trace.overhead_frac"] = sum(traced.latencies) / sum(untraced.latencies) - 1.0
    shares = tracer.self_time_shares(sum(traced.latencies))
    return metrics, untraced.merge(traced), shares


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC_DIR / "dutybound" / "__init__.py").is_file():
        print(f"error: no dutybound source tree at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR)]

    import workloads
    kwargs = {"in_process": True} if args.trace and args.workload == "cli_pipeline" else {}
    workload = workloads.WORKLOADS[args.workload](args.seed, **kwargs)
    try:
        if args.trace:
            spans = BENCH_DIR / "_work" / f"spans-{args.workload}-{args.seed}.csv"
            metrics, tally, shares = measure_traced(workload, args.seconds, spans)
            units = per_layer_units()
            lines = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
            lines += [f"self-time share {name} {share:.4f}"
                      for name, share in sorted(shares.items(), key=lambda kv: -kv[1])
                      if share >= 0.0005]
            lines.append(f"spans written to {spans.relative_to(BENCH_DIR.parent)}")
        else:
            metrics, tally, lines = measure(workload, args.seconds, args.seed)
            units = END_TO_END_UNITS
            lines = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in units.items()] + lines
    finally:
        workload.close()
    lines += failure_lines(tally)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
