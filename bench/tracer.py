"""Outside-in tracer: spans around the public functions of each layer.

The library is not edited. For the traced run only, ``Tracer.install``
rebinds each wrapped function on every ``dutybound`` module that holds a
reference to it (``economy.demand`` is also bound as ``scenarios.demand`` and
``dutybound.demand``; ``solve_tatonnement`` as ``transition.solve_tatonnement``;
``excess_demand`` is reached through ``equilibrium._z``, which looks it up
as a module global), and ``uninstall`` puts the originals back.

A span is (name, start, end, parent, task id). Spans stay in memory and are
written out with ``write`` when the run ends. A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from dutybound.errors import SingularJacobian

# (module, function): the public entry points of each layer
TARGETS = (
    ("economy", "demand"),
    ("equilibrium", "excess_demand"),
    ("equilibrium", "solve_tatonnement"),
    ("equilibrium", "solve_grid_oracle"),
    ("equilibrium", "equilibrium_index"),
    ("transition", "run_path"),
    ("scenarios", "run_sugar"),
    ("scenarios", "estimate_critical_mass"),
    ("scenarios", "veblen_demand_curve"),
    ("topology", "verify_topology_axioms"),
    ("topology", "projection_continuous"),
    ("config", "parse_and_validate"),
    ("output", "csv_text"),
    ("output", "write_manifest"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)


def _count_result(name: str, args, result, counts: Counter) -> None:
    """Work counts taken at the layer boundary from arguments and results."""
    if name == "equilibrium.excess_demand":
        counts["equilibrium.excess_demand.agent_evals"] += len(args[0].agents)
    elif name == "equilibrium.solve_tatonnement":
        counts["equilibrium.solve_tatonnement.iterations"] += result.iterations
        counts["equilibrium.solve_tatonnement.converged"] += bool(result.converged)
    elif name == "equilibrium.solve_grid_oracle":
        counts["equilibrium.solve_grid_oracle.found"] += len(result)
    elif name == "transition.run_path":
        counts["transition.run_path.steps"] += len(result)
    elif name == "topology.verify_topology_axioms":
        counts["topology.verify_topology_axioms.checked"] += result.checked
    elif name == "output.csv_text":
        counts["output.csv_text.bytes"] += len(result.encode())


class Tracer:
    """Spans and work counts of one traced run."""

    def __init__(self):
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[int] = []
        self.counts: Counter = Counter()
        self.task_id = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        name = SPAN_NAMES[name_id]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.tasks.append(self.task_id)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except SingularJacobian:
                self.counts[f"{name}.refused"] += 1
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            _count_result(name, args, result, self.counts)
            return result

        return traced

    def install(self) -> list[str]:
        """Rebind every reference to each target inside the package; returns
        the rebound ``module.attribute`` names."""
        originals = {}
        for module_name, fn_name in TARGETS:
            module = importlib.import_module(f"dutybound.{module_name}")
            originals[id(getattr(module, fn_name))] = SPAN_NAMES.index(f"{module_name}.{fn_name}")
        wrappers = {}
        rebound = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "dutybound" and not mod_name.startswith("dutybound."):
                continue
            for attr, value in list(vars(module).items()):
                name_id = originals.get(id(value))
                if name_id is None:
                    continue
                if name_id not in wrappers:
                    wrappers[name_id] = self._wrap(name_id, value)
                setattr(module, attr, wrappers[name_id])
                self._bindings.append((module, attr, value))
                rebound.append(f"{mod_name}.{attr}")
        return rebound

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def arrays(self):
        names = np.asarray(self.names, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested],
                                 minlength=len(names))
        return names, parents, duration, duration - child_time

    def summary(self, tasks: int) -> dict[str, float]:
        """Per-layer metrics over ``tasks`` traced tasks: calls, self and
        total time per task, work counts per task, and ratios."""
        names, parents, duration, self_time = self.arrays()
        out: dict[str, float] = {}
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        for k, name in enumerate(SPAN_NAMES):
            mine = names == k
            out[f"{name}.calls"] = calls[k] / tasks
            out[f"{name}.self_s"] = float(self_time[mine].sum()) / tasks
            out[f"{name}.total_s"] = float(duration[mine].sum()) / tasks
        parent_name = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)

        def children(child: str, parent: str) -> int:
            return int(np.count_nonzero((names == SPAN_NAMES.index(child))
                                        & (parent_name == SPAN_NAMES.index(parent))))

        def per_call(value: float, name: str) -> float:
            n = calls[SPAN_NAMES.index(name)]
            return value / n if n else 0.0

        c = self.counts
        out["equilibrium.excess_demand.agent_evals"] = \
            c["equilibrium.excess_demand.agent_evals"] / tasks
        out["equilibrium.solve_tatonnement.iterations"] = per_call(
            c["equilibrium.solve_tatonnement.iterations"], "equilibrium.solve_tatonnement")
        out["equilibrium.solve_tatonnement.converged_ratio"] = per_call(
            c["equilibrium.solve_tatonnement.converged"], "equilibrium.solve_tatonnement")
        out["equilibrium.solve_tatonnement.z_evals_per_solve"] = per_call(
            children("equilibrium.excess_demand", "equilibrium.solve_tatonnement"),
            "equilibrium.solve_tatonnement")
        out["equilibrium.solve_grid_oracle.z_evals_per_call"] = per_call(
            children("equilibrium.excess_demand", "equilibrium.solve_grid_oracle"),
            "equilibrium.solve_grid_oracle")
        out["equilibrium.solve_grid_oracle.found"] = per_call(
            c["equilibrium.solve_grid_oracle.found"], "equilibrium.solve_grid_oracle")
        out["equilibrium.equilibrium_index.refused"] = \
            c["equilibrium.equilibrium_index.refused"] / tasks
        out["transition.run_path.steps"] = per_call(c["transition.run_path.steps"],
                                                    "transition.run_path")
        out["scenarios.estimate_critical_mass.run_sugar_per_call"] = per_call(
            children("scenarios.run_sugar", "scenarios.estimate_critical_mass"),
            "scenarios.estimate_critical_mass")
        out["topology.verify_topology_axioms.checked"] = per_call(
            c["topology.verify_topology_axioms.checked"], "topology.verify_topology_axioms")
        out["output.csv_text.bytes"] = c["output.csv_text.bytes"] / tasks
        return out

    def self_time_shares(self, task_seconds: float) -> dict[str, float]:
        """Each layer's self time as a share of the traced tasks' wall time;
        ``other`` is task time outside every span (the benchmark's own calls
        into dataclasses, the interpreter and numpy outside the layers)."""
        names, _, _, self_time = self.arrays()
        shares = {name: float(self_time[names == k].sum()) / task_seconds
                  for k, name in enumerate(SPAN_NAMES)}
        shares["other"] = 1.0 - sum(shares.values())
        return shares

    def write(self, path: Path) -> None:
        """Spans as CSV: name, start, end, parent, task."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("span,name,start,end,parent,task\n")
            for i, (n, s, e, p, t) in enumerate(zip(self.names, self.starts, self.ends,
                                                    self.parents, self.tasks)):
                f.write(f"{i},{SPAN_NAMES[n]},{s:.9f},{e:.9f},{p},{t}\n")

