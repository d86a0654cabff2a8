"""Time-parameterized paths through the base space.

A path visits one regime per step. Each step takes that regime's compiled
fiber, applies the generation's duty weight to every agent, solves the fiber
equilibrium, and carries the resulting goods allocation forward as the next
step's endowment (matched by good id; goods the next fiber lacks are reported
as stranded, duty levels are flows and reset to zero). The trace of records,
projected back to the base space, reproduces the input path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .duty import MaximRegistry, compile_constraints
from .economy import Agent, ExtendedBundle, Fiber, FiberEconomy
from .equilibrium import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EquilibriumResult,
    duty_expenditure_share,
    solve_tatonnement,
    trade_volumes,
)
from .errors import DutyModelError, NonMonotoneTime, UnknownBasePoint, ValidationErrors
from .topology import BaseSpace, projection


@dataclass(frozen=True)
class BasePath:
    """Ordered (time, regime) steps with strictly increasing times."""

    steps: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a path needs at least one step")
        for i in range(1, len(self.steps)):
            if self.steps[i][0] <= self.steps[i - 1][0]:
                raise NonMonotoneTime(i)

    def y_sequence(self) -> list[str]:
        return [y for _, y in self.steps]


@dataclass(frozen=True)
class GenerationProfile:
    """Per-step duty weight, optionally derived from a scarcity index.

    Following the scarcity hypothesis, secure generations weight duties more:
    lambda_t = lambda_max * (1 - s_t) with s_t in [0, 1].
    """

    lambdas: tuple[float, ...]
    scarcity: tuple[float, ...] | None = None

    def __post_init__(self):
        for lam in self.lambdas:
            if not np.isfinite(lam) or lam < 0:
                raise ValueError(f"lambda values must be finite and non-negative, got {lam}")
        if self.scarcity is not None:
            for s in self.scarcity:
                if not 0 <= s <= 1:
                    raise ValueError(f"scarcity index must lie in [0, 1], got {s}")

    @classmethod
    def from_scarcity(cls, lam_max: float, scarcity: Sequence[float]) -> "GenerationProfile":
        lambdas = tuple(lam_max * (1.0 - s) for s in scarcity)
        return cls(lambdas=lambdas, scarcity=tuple(scarcity))


@dataclass(frozen=True)
class FiberSpec:
    """Declared shape of one fiber: its dimensions and exogenous duty prices."""

    goods: tuple[str, ...]
    duties: tuple[str, ...] = ()
    duty_prices: dict[str, float] = field(default_factory=dict)


@dataclass
class EconomyTemplate:
    """Everything needed to instantiate the economy at any base point. Each
    base point's fiber is compiled once, on construction."""

    registry: MaximRegistry
    base: BaseSpace
    fiber_specs: dict[str, FiberSpec]
    agents: tuple[Agent, ...]
    solver_tol: float = DEFAULT_TOL
    solver_max_iter: int = DEFAULT_MAX_ITER
    fibers: dict[str, Fiber] = field(init=False, repr=False)

    def __post_init__(self):
        self.fibers, errors = {}, []
        for y_id in self.base.points:
            spec, bundle = self.fiber_specs.get(y_id), self.registry.bundles.get(y_id)
            if spec is None or bundle is None:
                continue  # no economy here: fiber_at raises UnknownBasePoint
            try:
                fiber = Fiber(y_id=y_id, goods=tuple(spec.goods), duties=tuple(spec.duties),
                              constraints=compile_constraints(bundle, self.registry))
                if not fiber.tradable_goods():  # no economy here could have a numeraire
                    raise ValueError(f"regime {y_id!r} forbids every good of its fiber")
                self.fibers[y_id] = fiber
            except (DutyModelError, ValueError) as exc:
                errors.append(f"fibers.{y_id}: {exc}")
        if errors:
            raise ValidationErrors(errors)

    def fiber_at(self, y_id: str) -> Fiber:
        if y_id not in self.fibers:
            raise UnknownBasePoint(y_id)
        return self.fibers[y_id]

    def economy_at(self, y_id: str, agents: Sequence[Agent]) -> FiberEconomy:
        return FiberEconomy(fiber=self.fiber_at(y_id), agents=tuple(agents),
                            duty_prices=dict(self.fiber_specs[y_id].duty_prices))


@dataclass
class TraceRecord:
    """One solved step of a path run."""

    t: int
    y_id: str
    result: EquilibriumResult
    duty_share: float
    volumes: dict[str, float]
    stranded_in: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class CarryResult:
    endowments: dict[str, dict[str, float]]
    stranded: dict[str, dict[str, float]]


def build_path(config: Sequence[Sequence], base: BaseSpace) -> BasePath:
    """Validate a [(t, y_id), ...] config section against the base space."""
    steps = []
    for i, entry in enumerate(config):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2 or type(entry[0]) is not int:
            raise ValueError(f"step {i}: expected an [integer time, regime] pair, got {entry!r}")
        t, y_id = entry[0], str(entry[1])
        if y_id not in base.points:
            raise UnknownBasePoint(y_id)
        steps.append((t, y_id))
    return BasePath(steps=tuple(steps))


def carry_endowment(prev_alloc: Mapping[str, ExtendedBundle], prev_fiber: Fiber,
                    next_fiber: Fiber) -> CarryResult:
    """Transport allocations into the next fiber's endowments.

    Goods carry by id; goods the next fiber lacks are reported stranded, not
    silently lost; duty levels are flows and reset to zero. Lossy transport
    is reported, never raised.
    """
    endowments: dict[str, dict[str, float]] = {}
    stranded: dict[str, dict[str, float]] = {}
    next_goods = set(next_fiber.goods)
    for agent_id, bundle in prev_alloc.items():
        carried: dict[str, float] = {g: 0.0 for g in next_fiber.goods}
        lost: dict[str, float] = {}
        for g, qty in zip(prev_fiber.goods, bundle.x):
            if g in next_goods:
                carried[g] = float(qty)
            elif qty > 0:
                lost[g] = float(qty)
        endowments[agent_id] = carried
        if lost:
            stranded[agent_id] = lost
    return CarryResult(endowments=endowments, stranded=stranded)


def run_path(template: EconomyTemplate, path: BasePath,
             profile: GenerationProfile) -> list[TraceRecord]:
    """Solve the economy along a path, carrying endowments between fibers.

    Deterministic for a given template/path/profile; solver failures are
    re-raised annotated with the step where they occurred.
    """
    if len(profile.lambdas) != len(path.steps):
        raise ValueError(f"profile has {len(profile.lambdas)} lambda values for "
                         f"{len(path.steps)} path steps")

    records: list[TraceRecord] = []
    endowments = {a.id: dict(a.endowment) for a in template.agents}
    stranded_in: dict[str, dict[str, float]] = {}

    for step_index, ((t, y_id), lam) in enumerate(zip(path.steps, profile.lambdas)):
        agents = [replace(a, lam=lam, endowment=endowments[a.id]) for a in template.agents]
        try:
            economy = template.economy_at(y_id, agents)
            result = solve_tatonnement(economy, tol=template.solver_tol,
                                       max_iter=template.solver_max_iter)
        except Exception as exc:
            exc.args = (f"[path step {step_index}: t={t}, y={y_id}] "
                        + "; ".join(str(a) for a in exc.args),)
            raise

        records.append(TraceRecord(
            t=t, y_id=y_id, result=result, stranded_in=stranded_in,
            duty_share=duty_expenditure_share(economy, result.prices, result.allocations),
            volumes=trade_volumes(economy, result.allocations)))

        if step_index + 1 < len(path.steps):
            carry = carry_endowment(result.allocations, economy.fiber,
                                    template.fiber_at(path.steps[step_index + 1][1]))
            endowments, stranded_in = carry.endowments, carry.stranded

    return records


def project_trace(trace: Sequence[TraceRecord]) -> list[str]:
    """Apply the projection to every record; equals the path's y sequence."""
    return [projection((rec.y_id, rec.result.allocations)) for rec in trace]
