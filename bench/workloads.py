"""The three seeded workloads of the benchmark.

Each workload builds all of its inputs from the seed in its constructor (the
part of set-up that follows ``import dutybound``), then runs task ``i`` with
``run(i)`` and checks the output with ``check(i, output)``. Tasks come in
rounds of ``round_size`` that together cover the workload's whole mix once;
the runner stops only at round boundaries, so every run measures the same
mix.

Library functions are always reached through their module attributes at
call time, so the tracer's rebinding of those attributes is seen.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dutybound import equilibrium
from dutybound.duty import compile_constraints, load_registry
from dutybound.economy import Agent, Fiber, FiberEconomy, UtilityFamily, UtilitySpec
from dutybound.errors import SingularJacobian

import references as ref

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / "_work"

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def low_discrepancy(u0: float, k: int) -> float:
    """k-th point of a golden-ratio sequence in [0, 1): any window of
    consecutive points spreads evenly, so short runs see the whole range."""
    return (u0 + k * GOLDEN) % 1.0


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package from this checkout's
    source tree. The BLAS thread counts that run.py pins in this process's
    environment are inherited."""
    return {**os.environ, "PYTHONPATH": str(SRC_DIR)}


@dataclass
class Verdict:
    """Failure reasons of one task, and the checks that found a wrong answer
    (as opposed to a solve that honestly reports it did not converge)."""

    reasons: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def fail(self, reason: str, wrong: str | None = None) -> None:
        if reason not in self.reasons:
            self.reasons.append(reason)
        if wrong:
            self.wrong.append(wrong)


def check_walras(verdict: Verdict, economy: FiberEconomy, result, forbidden=frozenset(),
                 prior_claim: float = 0.0) -> None:
    """Walras' law at the solver's answer, recomputed from its prices and
    allocations, and on each iterate the solver records: one record per
    iterate, 0 to ``iterations``. ``forbidden`` and ``prior_claim`` are the
    regime's terms, taken from the generated registry."""
    gaps = result.walras_gaps()
    if len(gaps) != result.iterations + 1:
        verdict.fail("reference_mismatch",
                     f"{len(gaps)} iterate records for {result.iterations} iterations")
    elif max(gaps) > ref.WALRAS_GAP_MAX:
        verdict.fail("reference_mismatch", f"Walras gap {max(gaps):.3g} on an iterate")
    goods = economy.fiber.goods
    bundles = [result.allocations[a.id] for a in economy.agents]
    gap = ref.walras_gap(result.prices.values, np.array([b.x for b in bundles]),
                         np.array([b.e for b in bundles]),
                         np.array([[a.endowment.get(g, 0.0) for g in goods]
                                   for a in economy.agents]),
                         np.array([g not in forbidden for g in goods]), prior_claim)
    if gap > ref.WALRAS_GAP_MAX:
        verdict.fail("reference_mismatch", f"Walras gap {gap:.3g} at the solver's answer")


# ------------------------------------------------------------ fiber economies

MANY_AGENTS_REGISTRY = {
    "goods": ["g1", "g2", "g3"],
    "imperfect_duties": ["d1"],
    "maxims": {
        "d1": {"class": "imperfect"},
        "claim": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 0.1},
        "floor": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "d1", "level": 0.05},
        "ban": {"class": "perfect", "kind": "FORBID", "target": "g3"},
    },
    "bundles": {
        "free": {"label": "no perfect duty", "active": []},
        "prior_claim": {"label": "debt owed off the top", "active": ["claim"]},
        "require_min": {"label": "duty floor", "active": ["floor"]},
        "forbid_g3": {"label": "g3 prohibited", "active": ["ban"]},
    },
}
REGIMES = ("free", "prior_claim", "require_min", "forbid_g3")
DUTY_PRICE = 1.2


def regime_terms(registry: dict, bundle: str) -> tuple[frozenset[str], float]:
    """Forbidden goods and total prior claim of one bundle, read off the
    registry as generated."""
    maxims = [registry["maxims"][m] for m in registry["bundles"][bundle]["active"]]
    return (frozenset(m["target"] for m in maxims if m.get("kind") == "FORBID"),
            sum(m["amount"] for m in maxims if m.get("kind") == "PRIOR_CLAIM"))


class FiberManyAgents:
    """One tatonnement solve plus its equilibrium index per task, on fibers
    with 3 goods, 1 duty and many agents, so the per-agent demand loop is
    the cost. About one agent in ten has the price-dependent (Veblen)
    utility with its duty priced off the reference, which takes demand's
    bisection path; the regime rotates over free, PRIOR_CLAIM, REQUIRE_MIN
    and FORBID g3, one of each per round."""

    name = "fiber_many_agents"
    round_size = len(REGIMES)

    def __init__(self, seed: int, agents: tuple[int, int] = (24, 128), pool: int = 48):
        rng = np.random.default_rng([seed, 1])
        registry = load_registry(MANY_AGENTS_REGISTRY)
        fibers = {y: Fiber(y_id=y, goods=("g1", "g2", "g3"), duties=("d1",),
                           constraints=compile_constraints(registry.bundles[y], registry))
                  for y in REGIMES}
        self.agent_range = agents
        lo, hi = agents
        u0 = float(rng.uniform())
        self.pool = []
        for k in range(pool):
            # agent counts log-uniform over [lo, hi]
            n = int(round(lo * (hi / lo) ** low_discrepancy(u0, k)))
            self.pool.append(self._economy(rng, fibers[REGIMES[k % len(REGIMES)]], n))

    @staticmethod
    def _economy(rng, fiber: Fiber, n: int) -> FiberEconomy:
        n_veblen = max(1, round(n / 10))
        agents = []
        for k in range(n):
            veblen = k < n_veblen
            family = (UtilityFamily.VEBLEN_PRICE_DEPENDENT if veblen
                      else UtilityFamily.COBB_DOUGLAS_EXTENDED)
            spec = UtilitySpec(family=family,
                               alpha=dict(zip(fiber.goods, rng.dirichlet([2.0] * 3).tolist())),
                               beta={"d1": float(rng.uniform(0.2, 1.0))},
                               reference_premium={"d1": 1.0})
            agents.append(Agent(
                id=f"a{k}", utility=spec,
                endowment=dict(zip(fiber.goods, rng.uniform(0.5, 2.0, 3).tolist())),
                lam=float(rng.uniform(0.2, 1.0)),
                theta=float(rng.uniform(0.5, 2.0)) if veblen else 0.0))
        # the duty price sits off the reference premium, so the status tilt
        # is nonzero and Veblen demand bisects
        return FiberEconomy(fiber=fiber, agents=tuple(agents), duty_prices={"d1": DUTY_PRICE})

    def describe(self) -> dict:
        """The input sizes, as built."""
        counts = [len(e.agents) for e in self.pool]
        return {
            "task": "solve_tatonnement, then equilibrium_index when converged",
            "agents": f"{min(counts)}-{max(counts)} per fiber, log-uniform over "
                      f"{self.agent_range[0]}-{self.agent_range[1]} (golden-ratio sequence)",
            "fibers": len(self.pool),
            "goods_duties": f"3 goods (g1 numeraire), 1 duty priced {DUTY_PRICE}",
            "veblen_agents": "round(n/10), at least 1; reference premium 1.0, so demand bisects",
            "regimes": ", ".join(REGIMES) + "; one of each per round",
            "round": self.round_size,
        }

    def run(self, i: int):
        economy = self.pool[i % len(self.pool)]
        result = equilibrium.solve_tatonnement(economy)
        index = None
        if result.converged:
            try:
                index = equilibrium.equilibrium_index(economy, result.prices)
            except SingularJacobian:
                index = "refused"
        return result, index

    def check(self, i: int, output) -> Verdict:
        economy = self.pool[i % len(self.pool)]
        result, _ = output
        verdict = Verdict()
        forbidden, claim = regime_terms(MANY_AGENTS_REGISTRY, economy.fiber.y_id)
        check_walras(verdict, economy, result, forbidden, claim)
        if not result.converged:
            verdict.fail("not_converged")
        # nobody holding any of a forbidden good means nobody bought any:
        # zero traded volume
        for g in forbidden:
            j = economy.fiber.goods.index(g)
            held = max(result.allocations[a.id].x[j] for a in economy.agents)
            if held != 0.0:
                verdict.fail("reference_mismatch", f"forbidden {g} held: {held:.3g}")
        return verdict

    def close(self) -> None:
        pass


SCALES = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4)


def goods_only_economy(alpha: np.ndarray, endowments: np.ndarray) -> FiberEconomy:
    goods = tuple(f"g{i + 1}" for i in range(alpha.shape[1]))
    fiber = Fiber(y_id="y", goods=goods, duties=())
    agents = tuple(
        Agent(id=f"a{k}", endowment=dict(zip(goods, endowments[k].tolist())),
              utility=UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                                  alpha=dict(zip(goods, alpha[k].tolist()))))
        for k in range(alpha.shape[0]))
    return FiberEconomy(fiber=fiber, agents=agents)


# Base economies of fiber_small_scaled, one row per agent. Seeds perturb them.
SMALL_BASES = {
    2: (np.array([[0.7, 0.3], [0.3, 0.7], [0.5, 0.5]]),
        np.array([[1.5, 0.5], [0.5, 1.5], [1.0, 1.0]])),
    3: (np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),
        np.array([[1.5, 0.5, 1.0], [1.0, 1.5, 0.5], [0.5, 1.0, 1.5]])),
}
SMALL_JITTER = 0.15


class FiberSmallScaled:
    """The excess-demand layer with the axes swapped: 3 agents, but about
    10^4 price vectors per task. Each task runs the grid oracle on a goods-only
    Cobb-Douglas economy at scale 1 (2 goods at resolution 200, 3 goods at
    60), sums the equilibrium index over what it finds, then solves the same
    economy by tatonnement with every endowment scaled by s. Prices do not
    depend on s and have a closed form, so every s has a reference. A round
    covers all eight scales, four times with 2 goods and four with 3.

    The economies are seeded perturbations (each weight and endowment times
    exp(U(-0.15, 0.15))) of one 2-good and one 3-good base economy. Across
    arbitrary random economies the solver's iteration count at a given scale
    swings by an order of magnitude, which would make a run's time depend on
    the seed; this workload varies the scale, not the economy.

    The scaled solve gets 2000 iterations. At the two smallest scales
    tatonnement does not converge in 10k or 20k iterations either, so a
    larger budget only makes each failure cost more: at 10k the failures
    took half of every round and left a run too few tasks for steady
    percentiles.
    """

    name = "fiber_small_scaled"
    round_size = len(SCALES)

    def __init__(self, seed: int, resolutions: tuple[int, int] = (200, 60),
                 max_iter: int = 2000, pool: int = 8):
        rng = np.random.default_rng([seed, 2])
        self.resolutions = resolutions
        self.max_iter = max_iter
        self.params: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.economies: dict[int, list[FiberEconomy]] = {}
        self.scaled: dict[int, list[list[FiberEconomy]]] = {}
        for goods, (alpha, w) in SMALL_BASES.items():
            params = [(alpha * np.exp(rng.uniform(-SMALL_JITTER, SMALL_JITTER, alpha.shape)),
                       w * np.exp(rng.uniform(-SMALL_JITTER, SMALL_JITTER, w.shape)))
                      for _ in range(pool)]
            self.params[goods] = params
            self.economies[goods] = [goods_only_economy(a, w) for a, w in params]
            self.scaled[goods] = [[goods_only_economy(a, w * s) for s in SCALES]
                                  for a, w in params]
        self._reference: dict[tuple[int, int, int], np.ndarray] = {}

    def describe(self) -> dict:
        """The input sizes, as built."""
        return {
            "task": "solve_grid_oracle at scale 1, index sum over its equilibria, "
                    "solve_tatonnement at scale s",
            "agents": {goods: alpha.shape[0] for goods, (alpha, _) in SMALL_BASES.items()},
            "oracle_resolution": {goods: self.resolutions[goods - 2] for goods in SMALL_BASES},
            "economies": {goods: len(pool) for goods, pool in self.economies.items()},
            "perturbation": f"each base weight and endowment times "
                            f"exp(U(-{SMALL_JITTER}, {SMALL_JITTER}))",
            "scales": list(SCALES),
            "max_iter": self.max_iter,
            "round": self.round_size,
        }

    def case(self, i: int) -> tuple[int, int, int]:
        """(goods, economy, scale index) of task i."""
        j = i % len(SCALES)
        goods = 2 + (j + i // len(SCALES)) % 2
        return goods, (i // 2) % len(self.economies[goods]), j

    def run(self, i: int):
        goods, k, j = self.case(i)
        economy = self.economies[goods][k]
        found = equilibrium.solve_grid_oracle(economy, resolution=self.resolutions[goods - 2])
        indices = []
        for prices in found:
            try:
                indices.append(equilibrium.equilibrium_index(economy, prices))
            except SingularJacobian:
                indices.append("refused")
            except ValueError:  # the oracle reported a point that does not clear
                indices.append("not clearing")
        result = equilibrium.solve_tatonnement(self.scaled[goods][k][j], max_iter=self.max_iter)
        return found, indices, result

    def reference(self, goods: int, k: int, j: int) -> np.ndarray:
        key = (goods, k, j)
        if key not in self._reference:
            alpha, w = self.params[goods][k]
            self._reference[key] = ref.cobb_douglas_prices(alpha, w * SCALES[j])
        return self._reference[key]

    def check(self, i: int, output) -> Verdict:
        goods, k, j = self.case(i)
        found, indices, result = output
        verdict = Verdict()
        if not found:
            verdict.fail("oracle_miss")
        elif "not clearing" in indices:
            verdict.fail("index_sum", "the oracle reported a point that does not clear")
        elif "refused" in indices:
            verdict.fail("index_sum")
        elif sum(indices) != 1:
            verdict.fail("index_sum", f"indices {indices} over the oracle's equilibria")
        check_walras(verdict, self.scaled[goods][k][j], result)
        if not result.converged:
            verdict.fail("not_converged")
        else:
            err = ref.price_error(result.prices.values, self.reference(goods, k, j))
            if err > ref.PRICE_RTOL:
                verdict.fail("reference_mismatch",
                             f"converged prices off by {err:.3g} at scale {SCALES[j]:g}")
        return verdict

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- CLI pipeline

@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    csvs: tuple[str, ...]


class CliPipeline:
    """One ``python -m dutybound.cli`` process per task over a fixed mix of
    commands: solve, trace, scenario veblen, sweep (twice), scenario sugar
    with critical mass, and check-topology, in that order each round. The
    configs are generated from the seed into the benchmark's work directory.
    In-process mode calls ``cli.main(argv)`` directly; the traced run uses
    it."""

    name = "cli_pipeline"

    def __init__(self, seed: int, population: int = 1_000_000, regimes: int = 10,
                 in_process: bool = False):
        rng = np.random.default_rng([seed, 3])
        self.cli = importlib.import_module("dutybound.cli") if in_process else None
        self.regimes = regimes
        WORK_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=WORK_DIR))
        config_dir = self.workdir / "configs"
        config_dir.mkdir()
        self.configs = {
            "solve": _exchange_config(rng, seed),
            "trace": _slavery_config(rng, seed),
            "veblen": _veblen_config(rng, seed),
            "sweep": _sweep_config(rng, seed),
            "sugar": _sugar_config(rng, seed, population),
            "topology": _topology_config(seed, regimes),
        }
        self.config_paths = {}
        for name, tree in self.configs.items():
            path = config_dir / f"{name}.json"
            path.write_text(json.dumps(tree, indent=1, sort_keys=True) + "\n")
            self.config_paths[name] = path

        def command(name, head, csvs, *tail):
            out = self.workdir / "out" / name
            return Command(name, (*head, "--config", str(self.config_paths[name]),
                                  *tail, "--out", str(out)), csvs)

        self.commands = (
            command("solve", ("solve",), ("solve_y1.csv",)),
            command("trace", ("trace",), ("trace.csv", "trace_summary.csv")),
            command("veblen", ("scenario", "veblen"), ("veblen_demand.csv",
                                                      "veblen_segments.csv")),
            # twice per round: with an odd round the median task falls inside
            # one command's latency cluster instead of between two
            command("sweep", ("sweep",), ("sugar_sweep.csv",)),
            command("sweep", ("sweep",), ("sugar_sweep.csv",)),
            command("sugar", ("scenario", "sugar"), ("sugar_shares.csv", "sugar_summary.csv"),
                    "--estimate-critical-mass"),
            command("topology", ("check-topology",), ("topology_report.csv",)),
        )
        self.round_size = len(self.commands)
        self.first_csv: dict[str, dict[str, bytes]] = {}
        self._phi_star: float | None = None
        self.peak_child_rss_kb = 0

    def describe(self) -> dict:
        """The input sizes, as built."""
        sweep = self.configs["sweep"]["scenarios"]
        return {
            "task": "one `python -m dutybound.cli` child process",
            "commands": [" ".join(a for a in c.argv if a not in ("--config", "--out")
                                  and not a.startswith(str(self.workdir)))
                         for c in self.commands],
            "solve_agents": len(self.configs["solve"]["agents"]),
            "trace_path": len(self.configs["trace"]["path"]),
            "veblen_points": self.configs["veblen"]["scenarios"]["veblen"]["sweep"]["count"],
            "sweep_lattice": [len(sweep["sweep"]["phis"]), len(sweep["sweep"]["premiums"])],
            "sweep_population": sweep["sugar"]["population"],
            "sugar_population": self.configs["sugar"]["scenarios"]["sugar"]["population"],
            "topology_regimes": self.regimes,
            "round": self.round_size,
        }

    def run(self, i: int):
        """Exit code of the command; a child's peak resident set is kept in
        ``peak_child_rss_kb``."""
        argv = list(self.commands[i % self.round_size].argv)
        if self.cli is not None:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return self.cli.main(argv)
        proc = subprocess.Popen([sys.executable, "-m", "dutybound.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                env=child_env(), cwd=str(self.workdir))
        stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            sys.stderr.write(stderr.decode(errors="replace"))
        return proc.returncode

    def check(self, i: int, output) -> Verdict:
        cmd = self.commands[i % self.round_size]
        verdict = Verdict()
        if output != 0:
            verdict.fail("exit_code")
            return verdict
        outdir = self.workdir / "out" / cmd.name
        texts = {name: (outdir / name).read_bytes() for name in cmd.csvs}
        first = self.first_csv.setdefault(cmd.name, texts)
        if texts != first:
            verdict.fail("reference_mismatch", f"{cmd.name}: CSV bytes differ between "
                                               "identical invocations")
        rows = {name: ref.read_csv(text.decode()) for name, text in texts.items()}
        getattr(self, f"_check_{cmd.name}")(verdict, rows)
        return verdict

    def _check_solve(self, verdict: Verdict, rows) -> None:
        tree = self.configs["solve"]
        goods = tree["registry"]["goods"]
        alpha = np.array([[a["utility"]["alpha"][g] for g in goods] for a in tree["agents"]])
        w = np.array([[a["endowment"][g] for g in goods] for a in tree["agents"]])
        table = rows["solve_y1.csv"][1:]
        prices = {r[2]: float(r[3]) for r in table if r[0] == "price"}
        converged = [r[3] for r in table if r[0] == "converged"]
        if converged != ["true"]:
            verdict.fail("not_converged")
            return
        err = ref.price_error([prices[g] for g in goods], ref.cobb_douglas_prices(alpha, w))
        if err > ref.PRICE_RTOL:
            verdict.fail("reference_mismatch", f"solve: prices off by {err:.3g}")

    def _check_trace(self, verdict: Verdict, rows) -> None:
        banned = [float(r[4]) for r in rows["trace.csv"][1:]
                  if r[1] == "y3" and r[3] == "slave_sugar"]
        if not banned or any(q != 0.0 for q in banned):
            verdict.fail("reference_mismatch", f"trace: forbidden good held {banned}")
        if any(r[3] != "true" for r in rows["trace_summary.csv"][1:]):
            verdict.fail("not_converged")

    def _check_veblen(self, verdict: Verdict, rows) -> None:
        sweep = self.configs["veblen"]["scenarios"]["veblen"]["sweep"]
        if len(rows["veblen_demand.csv"]) != sweep["count"] + 1:
            verdict.fail("reference_mismatch", "veblen: wrong number of sweep points")

    def _check_sweep(self, verdict: Verdict, rows) -> None:
        lattice = self.configs["sweep"]["scenarios"]["sweep"]
        if len(rows["sugar_sweep.csv"]) != len(lattice["phis"]) * len(lattice["premiums"]) + 1:
            verdict.fail("reference_mismatch", "sweep: wrong lattice size")

    def _check_sugar(self, verdict: Verdict, rows) -> None:
        header, values = rows["sugar_summary.csv"]
        got = values[header.index("phi_star")]
        if self._phi_star is None:
            s = self.configs["sugar"]["scenarios"]["sugar"]
            self._phi_star = ref.exact_critical_mass(
                s["population"], self.configs["sugar"]["seed"], s["w_max"],
                s["price_ethical"], s["price_conventional"], s["price_conventional_after"],
                s["shock_period"], s["horizon"], s["viability_threshold"],
                s["exit_consecutive"])
        want = self._phi_star
        # the library's default bisection tolerance
        if (got == "") != (want is None) or (
                want is not None and abs(float(got) - want) > 0.005):
            verdict.fail("reference_mismatch", f"sugar: phi* {got!r}, exact {want}")

    def _check_topology(self, verdict: Verdict, rows) -> None:
        table = {r[0]: r for r in rows["topology_report.csv"][1:]}
        sets, checks = ref.discrete_topology_checks(self.regimes)
        got = (int(table["open-set-count"][2]), int(table["topology-axioms"][2]))
        if got != (sets, checks) or table["topology-axioms"][1] != "true":
            verdict.fail("reference_mismatch", f"topology: counts {got}, want {(sets, checks)}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _exchange_config(rng, seed: int) -> dict:
    goods = ["ale", "bread"]
    agents = []
    for k in range(3):
        share = float(rng.uniform(0.2, 0.8))
        agents.append({
            "id": f"A{k}",
            "endowment": dict(zip(goods, rng.uniform(0.1, 2.0, 2).tolist())),
            "utility": {"family": "COBB_DOUGLAS_EXTENDED",
                        "alpha": {"ale": share, "bread": 1.0 - share}}})
    return {
        "seed": seed,
        "registry": {"goods": goods, "imperfect_duties": [], "maxims": {},
                     "bundles": {"y1": {"label": "plain exchange", "active": []}}},
        "base_space": ["y1"],
        "fibers": {"y1": {"goods": goods, "duties": []}},
        "agents": agents,
        "solver": {"step": 0.5, "tol": 1e-10, "max_iter": 10000},
    }


def _slavery_config(rng, seed: int) -> dict:
    fiber = {"goods": ["grain", "slave_sugar"], "duties": ["labor_rights"],
             "duty_prices": {"labor_rights": 1.0}}
    agents = []
    for name, grain, sugar in (("planter", 1.0, 4.0), ("merchant", 5.0, 0.5)):
        share = float(rng.uniform(0.4, 0.6))
        agents.append({
            "id": name,
            "endowment": {"grain": grain * float(rng.uniform(0.7, 1.3)),
                          "slave_sugar": sugar * float(rng.uniform(0.7, 1.3))},
            "utility": {"family": "COBB_DOUGLAS_EXTENDED",
                        "alpha": {"grain": share, "slave_sugar": 1.0 - share},
                        "beta": {"labor_rights": float(rng.uniform(0.8, 1.2))}}})
    return {
        "seed": seed,
        "registry": {
            "goods": ["grain", "slave_sugar"],
            "imperfect_duties": ["labor_rights"],
            "maxims": {
                "support_labor_rights": {"class": "perfect", "kind": "REQUIRE_MIN",
                                         "target": "labor_rights", "level": 0.05},
                "abolish_slave_goods": {"class": "perfect", "kind": "FORBID",
                                        "target": "slave_sugar"},
                "labor_rights": {"class": "imperfect", "normalization_cap": 2.0},
            },
            "bundles": {
                "y1": {"label": "coerced labor accepted", "active": []},
                "y2": {"label": "abolition gaining ground", "active": ["support_labor_rights"]},
                "y3": {"label": "post-abolition", "active": ["abolish_slave_goods"]},
            },
        },
        "base_space": ["y1", "y2", "y3"],
        "fibers": {y: fiber for y in ("y1", "y2", "y3")},
        "agents": agents,
        "solver": {"step": 0.1, "tol": 1e-8, "max_iter": 10000},
        "path": [[0, "y1"], [1, "y2"], [2, "y3"]],
        "profile": {"lambda_max": float(rng.uniform(1.0, 1.4)),
                    "scarcity": [0.9166666666666666, 0.5, 0.0]},
    }


def _veblen_config(rng, seed: int) -> dict:
    return {
        "seed": seed,
        "registry": {"goods": ["staple"], "imperfect_duties": ["eco_label"],
                     "maxims": {"eco_label": {"class": "imperfect"}},
                     "bundles": {"y1": {"label": "status-driven market", "active": []}}},
        "base_space": ["y1"],
        "fibers": {"y1": {"goods": ["staple"], "duties": ["eco_label"],
                          "duty_prices": {"eco_label": 1.0}}},
        "agents": [{
            "id": "status_buyer",
            "endowment": {"staple": float(rng.uniform(5.0, 15.0))},
            "utility": {"family": "VEBLEN_PRICE_DEPENDENT", "alpha": {"staple": 1.0},
                        "beta": {"eco_label": float(rng.uniform(0.5, 1.5))},
                        "p_bar": {"eco_label": 1.0}},
            "lambda": 1.0,
            "theta": float(rng.uniform(1.5, 2.5))}],
        "scenarios": {"veblen": {"agent": "status_buyer", "fiber": "y1", "duty": "eco_label",
                                 "sweep": {"lo": 0.5, "hi": 3.0, "count": 26}}},
    }


def _sugar_section(rng, population: int) -> dict:
    return {
        "population": population,
        "phi": float(rng.uniform(0.5, 0.9)),
        "w_max": 1.0,
        "price_ethical": float(rng.uniform(1.1, 1.3)),
        "price_conventional": 1.0,
        "shock_period": 20,
        "price_conventional_after": float(rng.uniform(0.5, 0.7)),
        "viability_threshold": float(rng.uniform(0.02, 0.05)),
        "exit_consecutive": 3,
        "horizon": 40,
    }


def _sweep_config(rng, seed: int) -> dict:
    return {"seed": seed,
            "scenarios": {"sugar": _sugar_section(rng, 20_000),
                          "sweep": {"phis": np.linspace(0.05, 0.95, 10).tolist(),
                                    "premiums": np.linspace(0.0, 0.9, 10).tolist()}}}


def _sugar_config(rng, seed: int, population: int) -> dict:
    return {"seed": seed, "scenarios": {"sugar": _sugar_section(rng, population)}}


def _topology_config(seed: int, regimes: int) -> dict:
    points = [f"r{seed}_{k}" for k in range(regimes)]
    return {
        "seed": seed,
        "registry": {"goods": ["g1"], "imperfect_duties": [], "maxims": {},
                     "bundles": {y: {"label": f"regime {y}", "active": []} for y in points}},
        "base_space": points,
        "fibers": {y: {"goods": ["g1"], "duties": []} for y in points},
    }


WORKLOADS = {cls.name: cls for cls in (FiberManyAgents, FiberSmallScaled, CliPipeline)}
