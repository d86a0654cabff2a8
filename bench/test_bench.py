"""Tests of the benchmark itself: the tracer, the seeded generators, the
metric report and the counting of failures.

    python -m pytest bench

Each workload runs here at a tiny size, so the suite takes well under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import references  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "fiber_many_agents": partial(workloads.FiberManyAgents, agents=(4, 8), pool=8),
    "fiber_small_scaled": partial(workloads.FiberSmallScaled, resolutions=(20, 12),
                                  max_iter=300, pool=2),
    "cli_pipeline": partial(workloads.CliPipeline, population=5000, regimes=3),
}

SPANS_BY_WORKLOAD = {
    "fiber_many_agents": {"economy.demand", "equilibrium.excess_demand",
                          "equilibrium.solve_tatonnement", "equilibrium.equilibrium_index"},
    "fiber_small_scaled": {"economy.demand", "equilibrium.excess_demand",
                           "equilibrium.solve_tatonnement", "equilibrium.solve_grid_oracle",
                           "equilibrium.equilibrium_index"},
    "cli_pipeline": {"cli.main", "config.parse_and_validate", "output.csv_text",
                     "output.write_manifest", "transition.run_path", "scenarios.run_sugar",
                     "scenarios.estimate_critical_mass", "scenarios.veblen_demand_curve",
                     "topology.verify_topology_axioms", "topology.projection_continuous",
                     "economy.demand", "equilibrium.solve_tatonnement"},
}

# every module attribute that must be rebound for its span to be seen
REQUIRED_BINDINGS = {
    "dutybound.economy.demand", "dutybound.scenarios.demand", "dutybound.demand",
    "dutybound.equilibrium.solve_tatonnement", "dutybound.transition.solve_tatonnement",
    "dutybound.transition.run_path", "dutybound.scenarios.run_path",
    "dutybound.equilibrium.excess_demand",
}


def make(name: str, seed: int = 0, **kwargs):
    if name == "cli_pipeline":
        kwargs.setdefault("in_process", True)
    return TINY[name](seed, **kwargs)


def inputs(workload):
    """Everything a workload generated from its seed."""
    return getattr(workload, "pool", None) or getattr(workload, "economies", None) \
        or workload.configs


def no_wrapper_left() -> bool:
    """No dutybound module still holds a tracing wrapper (functools.wraps
    marks each one with ``__wrapped__``; the package itself uses none)."""
    return not any(hasattr(value, "__wrapped__")
                   for name, module in list(sys.modules.items())
                   if name == "dutybound" or name.startswith("dutybound.")
                   for value in vars(module).values())


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(TINY))
def test_tracer_records_each_layer_and_restores_originals(name):
    import dutybound
    from dutybound import economy, equilibrium, scenarios, transition
    before = {
        "economy.demand": economy.demand, "scenarios.demand": scenarios.demand,
        "dutybound.demand": dutybound.demand,
        "equilibrium.solve_tatonnement": equilibrium.solve_tatonnement,
        "transition.solve_tatonnement": transition.solve_tatonnement,
        "transition.run_path": transition.run_path, "scenarios.run_path": scenarios.run_path,
        "equilibrium.excess_demand": equilibrium.excess_demand,
    }
    workload = make(name)
    t = tracer.Tracer()
    rebound = t.install()
    try:
        tally = run.run_tasks(workload, tasks=workload.round_size, tracer=t)
    finally:
        t.uninstall()
        workload.close()
    assert REQUIRED_BINDINGS <= set(rebound)
    assert tally.attempted == workload.round_size and not tally.wrong
    seen = {tracer.SPAN_NAMES[n] for n in t.names}
    assert SPANS_BY_WORKLOAD[name] <= seen
    assert set(t.tasks) == set(range(workload.round_size))

    assert no_wrapper_left()
    after = {
        "economy.demand": economy.demand, "scenarios.demand": scenarios.demand,
        "dutybound.demand": dutybound.demand,
        "equilibrium.solve_tatonnement": equilibrium.solve_tatonnement,
        "transition.solve_tatonnement": transition.solve_tatonnement,
        "transition.run_path": transition.run_path, "scenarios.run_path": scenarios.run_path,
        "equilibrium.excess_demand": equilibrium.excess_demand,
    }
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_through_secondary_bindings():
    """Demand reached as scenarios.demand, and the solver reached as
    transition.solve_tatonnement, are children of their callers' spans."""
    workload = make("cli_pipeline")
    t = tracer.Tracer()
    t.install()
    try:
        run.run_tasks(workload, tasks=workload.round_size, tracer=t)
    finally:
        t.uninstall()
        workload.close()
    names = [tracer.SPAN_NAMES[n] for n in t.names]
    pairs = {(names[i], names[p]) for i, p in enumerate(t.parents) if p >= 0}
    assert ("economy.demand", "scenarios.veblen_demand_curve") in pairs
    assert ("equilibrium.solve_tatonnement", "transition.run_path") in pairs
    assert ("scenarios.run_sugar", "scenarios.estimate_critical_mass") in pairs
    _, _, duration, self_time = t.arrays()
    assert (self_time <= duration + 1e-12).all() and (self_time > -1e-6).all()


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    a, b, c = make(name, 7), make(name, 7), make(name, 8)
    try:
        assert inputs(a) == inputs(b)
        assert inputs(a) != inputs(c)
    finally:
        for w in (a, b, c):
            w.close()


def test_generated_configs_stay_in_the_benchmark_directory():
    workload = make("cli_pipeline", 3)
    try:
        written = [p for p in workload.workdir.rglob("*") if p.is_file()]
        assert written
        assert all(p.resolve().is_relative_to(BENCH_DIR) for p in written)
        run.run_tasks(workload, tasks=workload.round_size)
        outputs = [p for p in workload.workdir.rglob("*") if p.is_file()]
        assert all(p.resolve().is_relative_to(BENCH_DIR) for p in outputs)
    finally:
        workload.close()
    assert not workload.workdir.exists()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, float)
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_forced_non_convergence_is_counted():
    """max_iter = 1 reaches the solver through the generated input only."""
    workload = make("fiber_small_scaled", 2, max_iter=1)
    tally = run.run_tasks(workload, tasks=workload.round_size)
    assert tally.reasons["not_converged"] == workload.round_size
    assert tally.failed == tally.attempted == workload.round_size
    assert not tally.wrong  # a solve that reports non-convergence is not a wrong answer
    assert run.failure_lines(tally)[0].startswith("failed_frac 1.000000 ")


def solved(name: str, i: int):
    """Task i of a tiny workload, run untraced: (workload, output)."""
    workload = make(name, 4)
    return workload, workload.run(i)


def test_walras_check_needs_every_iterate_and_a_balanced_answer():
    workload, (result, index) = solved("fiber_many_agents", 1)  # PRIOR_CLAIM
    assert not workload.check(1, (result, index)).reasons
    result.diagnostics.pop()
    verdict = workload.check(1, (result, index))
    assert verdict.reasons == ["reference_mismatch"] and "iterate records" in verdict.wrong[0]
    result.diagnostics.clear()
    assert workload.check(1, (result, index)).wrong

    workload, (result, index) = solved("fiber_many_agents", 3)  # FORBID g3
    first = workload.pool[3].agents[0].id
    result.allocations[first].x[0] *= 1.0 + 1e-6  # one agent overspends
    verdict = workload.check(3, (result, index))
    assert any("at the solver's answer" in w for w in verdict.wrong)


def test_walras_reference_counts_prior_claims_and_forbidden_endowments():
    import numpy as np
    p = np.array([1.0, 2.0, 4.0, 0.5])  # three goods, one duty
    endowments = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 3.0]])
    tradable = np.array([True, True, False])
    # incomes 3 - 0.25 and 2 - 0.25, spent in full
    goods = np.array([[1.0, 0.5, 0.0], [0.75, 0.0, 0.0]])
    duties = np.array([[1.5], [2.0]])
    assert references.walras_gap(p, goods, duties, endowments, tradable, 0.25) == 0.0
    gap = references.walras_gap(p, goods, duties + 0.1, endowments, tradable, 0.25)
    assert abs(gap - 0.1 / 5.5) < 1e-15


def test_converged_prices_off_the_reference_are_a_wrong_answer():
    workload, (found, indices, result) = solved("fiber_small_scaled", 3)  # scale 1
    assert result.converged and not workload.check(3, (found, indices, result)).wrong
    result.prices.values[1] *= 1.0 + 1e-5
    verdict = workload.check(3, (found, indices, result))
    assert any("prices off" in w for w in verdict.wrong)


def test_a_check_that_raises_is_a_counted_wrong_answer():
    workload = make("fiber_many_agents", 5)
    workload.run = lambda i: (None, None)
    tally = run.run_tasks(workload, tasks=workload.round_size)
    assert tally.failed == tally.attempted == workload.round_size
    assert tally.reasons["exception"] == workload.round_size and len(tally.wrong) == 4


def test_critical_mass_reference_matches_the_bisection():
    from dutybound import scenarios
    for seed in range(3):
        config = scenarios.SugarMarketConfig(population=20_000, seed=seed)
        exact = references.exact_critical_mass(
            config.population, config.seed, config.w_max, config.price_ethical,
            config.price_conventional, config.price_conventional_after,
            config.shock_period, config.horizon, config.viability_threshold,
            config.exit_consecutive)
        estimate = scenarios.estimate_critical_mass(config, bisect_tol=0.001)
        assert abs(estimate.phi_star - exact) <= 0.001


def test_cobb_douglas_reference_matches_two_good_closed_form():
    alpha = [[0.3, 0.7], [0.6, 0.4]]
    endowments = [[1.0, 0.5], [0.2, 1.5]]
    import numpy as np
    p = references.cobb_douglas_prices(np.array(alpha), np.array(endowments))
    # p2 = sum_k a_k2 w_k1 / sum_k a_k1 w_k2 for two goods, eps aside
    p2 = (0.7 * 1.0 + 0.4 * 0.2) / (0.3 * 0.5 + 0.6 * 1.5)
    assert abs(p[1] / p2 - 1.0) < 1e-8


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "fiber_many_agents",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
