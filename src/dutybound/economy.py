"""Fibers, agents, duty-feasible budgets, and individual demand.

A fiber is the economy attached to one ethical regime: its good dimensions,
its imperfect-duty dimensions, and the compiled perfect-duty constraints of
that regime. Constraints act on every agent in the fiber.

Modeling conventions that the numbers below depend on:

* Imperfect duties are priced: fulfilling one unit of duty j costs its
  configured price (a donation costs its amount, time costs a wage), paid
  out of the same budget as goods.
* A prior claim is paid off the top of income before anything else; claims
  exceeding income make the feasible set empty, which is reported rather
  than clipped.
* A good forbidden by the regime is demonetized: nobody may consume it, so
  it carries no market value and endowments of it contribute no income.
* Agents hold endowments of goods only; duty fulfillment starts at zero.

Demand maximizes the chosen utility family over the duty-feasible budget
set. Both families are concave in the bundle, so the exact optimum follows
from the first-order conditions: every coordinate is a known decreasing
function of the income multiplier, clipped at its lower bound, and the
multiplier itself follows in closed form (the free weight over the budget
without a status tilt, the larger root of a quadratic with one tilted
coordinate) or, with two or more tilted coordinates, by a safeguarded Newton
iteration on the budget identity. FORBID coordinates are exactly zero and
REQUIRE_MIN bounds are met exactly.

One kernel, ``demand_rows``, solves every agent of a fiber at once over the
arrays of ``AgentRows``; ``demand`` is its one-agent view, and
``demand_jacobian`` differentiates its answer in the goods prices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .duty import ConstraintSet, DutyKind
from .errors import (
    DimensionMismatch,
    DutyModelError,
    InfeasibleDutySet,
    NegativeInput,
    NoConvergence,
    NonPositivePrice,
    UnknownReference,
)
from .preferences import EPSILON, axiom1_utility


class UtilityFamily(enum.Enum):
    COBB_DOUGLAS_EXTENDED = "COBB_DOUGLAS_EXTENDED"
    VEBLEN_PRICE_DEPENDENT = "VEBLEN_PRICE_DEPENDENT"


@dataclass(frozen=True)
class UtilitySpec:
    """Utility family plus weights, keyed by dimension id.

    VEBLEN adds a status term to the extended Cobb-Douglas: paying more than
    the reference price for a duty is itself valued (moral capital), which is
    what lets demand slope upward in its own price.
    """

    family: UtilityFamily
    alpha: dict[str, float]
    beta: dict[str, float] = field(default_factory=dict)
    reference_premium: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        weights = list(self.alpha.values()) + list(self.beta.values())
        if not all(0 <= w < math.inf for w in weights):
            raise NegativeInput("utility weights must be finite and non-negative")
        if not all(math.isfinite(v) for v in self.reference_premium.values()):
            raise ValueError("reference premiums must be finite")
        if not sum(self.alpha.values()) > 0:
            raise ValueError("alpha weights must sum to a positive value")

    def alpha_for(self, goods: Sequence[str]) -> np.ndarray:
        return np.array([self.alpha.get(g, 0.0) for g in goods])

    def beta_for(self, duties: Sequence[str]) -> np.ndarray:
        return np.array([self.beta.get(d, 0.0) for d in duties])

    def p_bar_for(self, duties: Sequence[str]) -> np.ndarray:
        return np.array([self.reference_premium.get(d, 1.0) for d in duties])


@dataclass(frozen=True)
class ExtendedBundle:
    """A point (x, e) of the extended space: goods quantities plus duty levels.

    The constructor converts and checks outside input. Bundles built from the
    demand kernel's rows (``_of_rows``) are float views into one array that
    was checked once, by the same rule, as a whole.
    """

    x: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        e = np.atleast_1d(np.asarray(self.e, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "e", e)
        if not ((x >= 0).all() and (e >= 0).all()):  # NaN fails too
            raise NegativeInput("bundle coordinates")

    @classmethod
    def _of_rows(cls, coords: np.ndarray, n: int) -> list[ExtendedBundle]:
        """One bundle per row of a float ``(agents, d)`` kernel answer, goods
        in its first ``n`` columns. The array is checked once, as a whole;
        each bundle's ``x`` and ``e`` are views into it, not copies."""
        if not (coords >= 0).all():  # NaN fails too
            raise NegativeInput("bundle coordinates")
        new, assign = object.__new__, object.__setattr__
        bundles = []
        for row in coords:
            bundle = new(cls)
            assign(bundle, "x", row[:n])
            assign(bundle, "e", row[n:])
            bundles.append(bundle)
        return bundles

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([self.x, self.e])

    @property
    def dims(self) -> int:
        return self.x.size + self.e.size


@dataclass(frozen=True)
class Fiber:
    """The economy attached to one base point.

    Fibers at different base points may differ in both their goods and their
    duty dimensions; each carries its own compiled constraint set.
    """

    y_id: str
    goods: tuple[str, ...]
    duties: tuple[str, ...]
    constraints: ConstraintSet = field(default_factory=ConstraintSet)

    def __post_init__(self):
        if len(self.goods) < 1:
            raise ValueError("a fiber needs at least one good")
        dims = set(self.goods) | set(self.duties)
        if len(dims) != len(self.goods) + len(self.duties):
            raise ValueError("good and duty ids must be distinct")
        for c in self.constraints.constraints:
            if c.target not in dims:
                raise UnknownReference(c.target, f"fiber {self.y_id!r}")
            if c.kind is DutyKind.FORBID and c.target not in self.goods:
                raise UnknownReference(c.target, f"fiber {self.y_id!r} (FORBID targets goods)")

    @property
    def n(self) -> int:
        return len(self.goods)

    @property
    def l(self) -> int:
        return len(self.duties)

    @property
    def dims(self) -> tuple[str, ...]:
        return self.goods + self.duties

    def forbidden_goods(self) -> frozenset[str]:
        return self.constraints.forbidden()

    def tradable_goods(self) -> tuple[str, ...]:
        forbidden = self.forbidden_goods()
        return tuple(g for g in self.goods if g not in forbidden)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, str | None]:
        """Per-dimension arrays for the demand kernel, built once: lower
        bounds (zero where forbidden), the forbidden mask, the log offsets,
        and the first dimension both forbidden and required (or None)."""
        forbidden_ids = self.forbidden_goods()
        bounds = self.constraints.lower_bounds()
        forbidden = np.array([d in forbidden_ids for d in self.dims])
        lb = np.array([bounds.get(d, 0.0) for d in self.dims])
        conflict = forbidden & (lb > 0)
        return (np.where(forbidden, 0.0, lb), forbidden,
                np.concatenate([np.full(self.n, EPSILON), np.ones(self.l)]),
                self.dims[int(np.argmax(conflict))] if conflict.any() else None)

    def values_of(self, bundle: ExtendedBundle) -> dict[str, float]:
        if bundle.x.size != self.n or bundle.e.size != self.l:
            raise DimensionMismatch(self.n + self.l, bundle.dims)
        return dict(zip(self.dims, bundle.coords))


@dataclass(frozen=True)
class Agent:
    """One consumer: endowment over goods, a utility spec, and the two
    ethical intensity parameters (generational duty weight, status weight)."""

    id: str
    endowment: dict[str, float]
    utility: UtilitySpec
    lam: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for g, q in self.endowment.items():
            if not math.isfinite(q) or q < 0:
                raise NegativeInput(f"endowment of {g!r} for agent {self.id!r}")
        if not (0 <= self.lam < math.inf and 0 <= self.theta < math.inf):
            raise NegativeInput(f"lambda/theta for agent {self.id!r} must be finite and "
                                "non-negative")

    def endowment_for(self, goods: Sequence[str]) -> np.ndarray:
        return np.array([self.endowment.get(g, 0.0) for g in goods])


def _is_price(p):
    """The one test of a price, elementwise: 0 < p < inf, which NaN fails."""
    return (0 < p) & (p < np.inf)


def _check_prices(p: np.ndarray, dims: Sequence[str]) -> np.ndarray:
    """``p``, one price vector over ``dims`` or an ``(m, d)`` batch of them,
    if every price passes ``_is_price``; else NonPositivePrice names the
    first that does not, in row order."""
    bad = np.flatnonzero(~_is_price(p))
    if bad.size:
        raise NonPositivePrice(dims[bad[0] % len(dims)], float(p.flat[bad[0]]))
    return p


def _as_price_array(prices, fiber: Fiber, batch: bool = False) -> np.ndarray:
    """One price vector over the fiber's dimensions, checked by
    ``_check_prices``; with ``batch``, also an ``(m, d)`` array of them,
    unchecked: ``demand_rows`` checks a batch in a loop's order."""
    p = np.asarray(prices, dtype=float)
    dims = fiber.n + fiber.l
    if p.shape != (dims,) and not (batch and p.ndim == 2 and p.shape[1] == dims):
        raise DimensionMismatch(dims, p.shape[-1] if p.ndim == 2 else p.size, "price vector")
    return p if batch else _check_prices(p, fiber.dims)


def _spend(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Cost p . q of each row of ``q`` at prices that broadcast against the
    rows, summed in the same order whatever the number of rows."""
    return np.einsum("...j,...j->...", q, p)


def _income(fiber: Fiber, endowment: np.ndarray, p: np.ndarray):
    """Income from tradable endowments and what is left of it after the
    regime's prior claims, per row of the ``(agents, n)`` ``endowment``:
    ``(agents,)`` at one price vector, ``(agents, m)`` at an ``(m, d)`` batch
    (forbidden goods are demonetized). The goods are contiguous in both
    operands, so each agent's income rounds the same at every batch length.
    A negative remainder means the claims cannot be met; ``_unmet_claims``
    says so."""
    _, forbidden, _, _ = fiber.columns
    goods = np.where(forbidden[: fiber.n], 0.0, p[..., : fiber.n])
    income = np.einsum("aj,...j->a...", endowment, goods)
    return income, income - fiber.constraints.prior_claim_total


def _unmet_claims(fiber: Fiber, income: float) -> str:
    return f"prior claims {fiber.constraints.prior_claim_total:g} exceed income {income:g}"


def disposable_income(agent: Agent, prices, fiber: Fiber) -> float:
    """Income from tradable endowments net of the regime's prior claims.

    Negative disposable income means the claims cannot be met: the feasible
    set is empty and this is surfaced, never clipped.

    Part of the model's public API (with ``feasible`` and ``agent_utility``):
    the solver never calls it, but it is how a caller asks what a regime's
    prior claims leave an agent to spend. Acceptance criterion 7 calls it
    through the package root.
    """
    p = _as_price_array(prices, fiber)
    income, w = (float(v[0]) for v in _income(fiber, agent.endowment_for(fiber.goods)[None], p))
    if w < 0:
        raise InfeasibleDutySet(agent.id, _unmet_claims(fiber, income))
    return w


def feasible(agent: Agent, prices, fiber: Fiber, candidate: ExtendedBundle) -> bool:
    """Duty-feasibility: inside the post-claim budget and every predicate holds.

    Part of the model's public API: the solver never calls it, but it is how
    a caller tests a candidate bundle against a regime's perfect duties.
    """
    p = _as_price_array(prices, fiber)
    values = fiber.values_of(candidate)
    if not fiber.constraints.feasible(values):
        return False
    w = disposable_income(agent, p, fiber)
    cost = float(p @ candidate.coords)
    return cost <= w + 1e-12 * (1.0 + abs(w))


def utility_value(spec: UtilitySpec, x, e, prices, fiber: Fiber,
                  lam: float = 1.0, theta: float = 0.0) -> float:
    """Evaluate a utility spec at a bundle (prices matter only for VEBLEN,
    but are checked for every family)."""
    p = _as_price_array(prices, fiber)
    alpha = spec.alpha_for(fiber.goods)
    beta = spec.beta_for(fiber.duties)
    value = axiom1_utility(x, e, alpha, beta, lam)
    if spec.family is UtilityFamily.VEBLEN_PRICE_DEPENDENT and fiber.l:
        p_duty = p[fiber.n:]
        p_bar = spec.p_bar_for(fiber.duties)
        value += theta * float(np.dot(np.asarray(e, dtype=float), p_duty - p_bar))
    return value


def agent_utility(agent: Agent, bundle: ExtendedBundle, prices, fiber: Fiber) -> float:
    """An agent's utility at a bundle, with its own duty and status weights.

    Part of the model's public API: the solver never calls it, but it is how
    a caller compares welfare across regimes. Acceptance criterion 7 calls it
    through the package root.
    """
    return utility_value(agent.utility, bundle.x, bundle.e, prices, fiber,
                         lam=agent.lam, theta=agent.theta)


@dataclass(frozen=True)
class AgentRows:
    """A fiber's agents packed as arrays, one row per agent, for ``demand_rows``:
    goods endowments ``(agents, n)``, the log weights ``(agents, d)`` (alpha
    on goods, then lam * beta on duties), the status weight ``(agents,)``
    (zero unless VEBLEN) and the reference duty prices ``(agents, l)``, and
    ``tilted``, the indices of the rows that can carry a status tilt (a
    positive status weight, in a fiber with a duty), in ascending order and
    empty when no row can. The kernel solves the tilted rows' quadratic on
    those rows only. Its arrays are ``(agents, d, m)``, the m price vectors
    last, against which the weights broadcast as ``(agents, d, 1)``. The
    per-dimension arrays live on the fiber (``Fiber.columns``).

    The pack holds no prices: what the kernel needs of the tilted rows at
    given duty prices is a ``_TiltPlan``, which ``demand_rows`` builds on
    every call and a ``FiberEconomy`` once, at its own duty prices.
    ``free_weight`` is the kernel's first-round free weight, a constant of
    the pack.
    """

    fiber: Fiber
    ids: tuple[str, ...]
    endowment: np.ndarray
    weight: np.ndarray
    theta: np.ndarray
    p_bar: np.ndarray
    tilted: np.ndarray

    @classmethod
    def pack(cls, fiber: Fiber, agents: Sequence[Agent]) -> "AgentRows":
        goods, duties, count = fiber.goods, fiber.duties, len(agents)
        theta = np.array([a.theta if a.utility.family is UtilityFamily.VEBLEN_PRICE_DEPENDENT
                          else 0.0 for a in agents])
        return cls(
            fiber=fiber,
            ids=tuple(a.id for a in agents),
            endowment=np.array([[a.endowment.get(g, 0.0) for g in goods] for a in agents],
                               dtype=float).reshape(count, fiber.n),
            weight=np.array([[a.utility.alpha.get(g, 0.0) for g in goods]
                             + [a.lam * a.utility.beta.get(d, 0.0) for d in duties]
                             for a in agents], dtype=float).reshape(count, fiber.n + fiber.l),
            theta=theta,
            p_bar=np.array([[a.utility.reference_premium.get(d, 1.0) for d in duties]
                            for a in agents], dtype=float).reshape(count, fiber.l),
            tilted=np.nonzero((theta > 0) & (fiber.l > 0))[0],
        )

    @cached_property
    def free_weight(self) -> np.ndarray:
        """Each row's weight on the dimensions the fiber does not forbid, an
        ``(agents, 1)`` column, read-only: the free weight of the kernel's
        first round, before any coordinate has clipped, summed in the order
        of a later round's (``_dim_sum``)."""
        _, forbidden, _, _ = self.fiber.columns
        free = _dim_sum(np.where(forbidden[:, None], 0.0, self.weight[..., None]))
        free.flags.writeable = False
        return free


class _TiltPlan(NamedTuple):
    """The rows of a pack that can tilt, at a ``(d, m)`` block of prices,
    from its duty prices alone (``_tilt_plan``); every array is read-only.
    A row is an (agent, vector) pair: index pairs hold the agent indices
    first and the vector indices second, in agent order, and the arrays
    hold one row per pair, its dimensions contiguous.

    The rows the closed form of ``_active_set_rows`` solves: their index
    pairs ``at``, the mask ``hot`` of each one's tilted coordinate c and its
    index ``c``, p_d, B = p_d weight_d, the tilt t, the weight row, and the
    untilted weight A of the first round.
    The rows left to ``_multiplier_rows``: their index pairs ``left_at``,
    their weight rows, and their tilt over every dimension.
    """

    at: tuple[np.ndarray, np.ndarray]
    hot: np.ndarray
    c: np.ndarray
    price: np.ndarray
    b_weight: np.ndarray
    t: np.ndarray
    weight_at: np.ndarray
    a_weight: np.ndarray
    left_at: tuple[np.ndarray, np.ndarray]
    left_weight: np.ndarray
    left_tilt: np.ndarray


def _tilt_plan(rows: AgentRows, p) -> _TiltPlan | None:
    """The ``_TiltPlan`` of a pack at the ``(d, m)`` prices ``p``, of which
    it reads only the duty prices, or None for a pack in which no row can
    tilt. It is the one builder of a plan, and nothing remembers what it
    built: ``demand_rows`` calls it once per call, and a ``FiberEconomy``
    once, at its own duty prices (``FiberEconomy.tilt_plan``).

    The plan indexes (agent, vector) pairs, so it fits one batch length.
    Its rows could index agents alone for a batch that shares its duty
    prices, but that would be a second form: a ``demand_rows`` batch may
    vary the duty prices from one vector to the next (the Veblen sweep
    does), and a ``FiberEconomy`` makes its batch calls only from the grid
    oracle, one per oracle, so building a plan for each costs nothing that
    shows. Its work arrays are ``(tilted agents, m, d)``, one contiguous row
    per pair, so the first-round A sums each row as the closed form does
    when it sums A again on the gathered rows."""
    fiber, tilted, weight = rows.fiber, rows.tilted, rows.weight
    if not tilted.size:
        return None
    _, forbidden, _, _ = fiber.columns
    n = fiber.n
    # the status-premium tilt on the duty prices, (len(tilted), m, l)
    tilt = rows.theta[tilted, None, None] * (p[n:].T - rows.p_bar[tilted, None])
    weight_t = weight[tilted, None]
    on = np.zeros(tilt.shape[:-1] + forbidden.shape, dtype=bool)  # the tilted coordinates
    on[..., n:] = tilt != 0
    count = on.sum(axis=-1)
    # the weight on free untilted coordinates, A of the first round
    a_weight = np.where(on | forbidden, 0.0, weight_t).sum(axis=-1)
    # the closed form solves the rows with one tilted coordinate c, some
    # untilted weight and no pure-status coordinate
    closed = ((count == 1) & (a_weight > 0)
              & ~((tilt > 0) & (weight_t[..., n:] == 0)).any(axis=-1))
    sel = np.nonzero(closed)
    at = (tilted[sel[0]], sel[1])
    hot = on[sel]
    c = hot.argmax(axis=-1)
    price = p[c, sel[1]]
    left = np.nonzero((count > 0) & ~closed)
    left_at = (tilted[left[0]], left[1])
    left_tilt = np.zeros((left[0].size, n + fiber.l))
    left_tilt[:, n:] = tilt[left]
    plan = _TiltPlan(at, hot, c, price, price * weight[at[0], c], tilt[(*sel, c - n)],
                     weight[at[0]], a_weight[sel], left_at, weight[left_at[0]], left_tilt)
    for value in plan:
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
    return plan


def demand(agent: Agent, prices, fiber: Fiber) -> ExtendedBundle:
    """Utility-maximizing bundle on the agent's duty-feasible budget set:
    one row of ``demand_rows``."""
    return ExtendedBundle._of_rows(demand_rows(AgentRows.pack(fiber, (agent,)), prices),
                                   fiber.n)[0]


def demand_rows(rows: AgentRows, prices) -> np.ndarray:
    """Demand of every packed agent, one row per agent: ``(agents, d)`` at one
    price vector of length d, ``(m, agents, d)`` at an ``(m, d)`` batch of them.
    A single vector is a batch of one, so each row of a batch equals the
    one-vector call at its prices bit for bit. A batch's answer is a view of
    the kernel's ``(agents, d, m)`` array (``_demand_pass``), not a copy.

    First-order conditions per coordinate, given the income multiplier mu:

        goods:   x_i = alpha_i / (mu p_i) - eps
        duties:  e_j = lam beta_j / (mu p_j - theta (p_j - pbar_j)) - 1

    each clipped below at its REQUIRE_MIN bound (zero by default) and pinned
    to zero when forbidden. Rows with at most one status-tilted coordinate
    take the active-set closed form, which is exact (``_active_set_rows``
    says why, and flags the rows it leaves); the rest pin mu by Newton's
    method on the budget identity inside a bracket per row (total spending
    is non-increasing in mu, ``_multiplier_rows``). Both utility families
    spend the whole disposable budget, to rounding, whenever some free
    dimension has positive weight. Flat problems (all free weights zero)
    settle on the lexicographically smallest vector, i.e. every coordinate
    at its bound.

    The error raised is the one a loop over the vectors would raise first.
    What the kernel needs of the rows that can tilt (``_tilt_plan``) is
    built on every call, once the prices have passed their checks, and
    nothing is remembered between calls: each vector of a batch may carry
    its own duty prices.
    """
    coords = _demand_pass(rows, prices)[0]
    return coords if coords.ndim == 2 else coords.transpose(2, 0, 1)


def _demand_pass(rows: AgentRows, prices,
                 plan: _TiltPlan | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The kernel behind ``demand_rows``: the coordinates, ``(agents, d)`` at
    one price vector and ``(agents, d, m)`` at an ``(m, d)`` batch, and the
    disposable budgets computed on the way, ``(agents, m)`` (m = 1 for one
    vector). ``plan`` is the pack's ``_tilt_plan`` at the duty prices of
    ``prices``, as a batch of their length; when it is not given (or None,
    as for a pack in which no row can tilt) the pass builds it, once the
    prices have passed their checks.

    Below the checks the prices take one shape, ``(d, m)``, and every
    array of the kernel puts the vector axis last: one vector is a batch of
    one, and a long batch runs numpy's loops over its vectors rather than
    over the d dimensions. The rows it gathers for ``_larger_root``,
    ``_settle_budget`` and ``_multiplier_rows`` are C-contiguous ``(k, d)``
    arrays, one per (agent, vector) pair, as they are at any batch length."""
    fiber = rows.fiber
    lb, _, _, conflict = fiber.columns
    prices = _as_price_array(prices, fiber, batch=True)
    batch = prices.reshape(-1, lb.size)

    # a loop over the vectors stops at the first with a price failing
    # ``_is_price``, so budgets go up to it; all pass if the smallest and the
    # largest do (NaN passes neither), two reductions cheaper than the mask,
    # with a valid price as their initial value, for an empty batch
    priced = _is_price(prices.min(initial=1.0)) and _is_price(prices.max(initial=1.0))
    ok = batch if priced else batch[: np.argmin(_is_price(batch).all(axis=-1))]
    income, w = _income(fiber, rows.endowment, ok)
    fixed_cost = ok @ lb
    empty = (w < 0) | (fixed_cost > w * (1 + 1e-12) + 1e-12)
    if not priced or conflict is not None or empty.any():
        raise _first_error(rows, batch, income, w, fixed_cost, empty | (conflict is not None))

    # The closed form runs on every row and is kept for all but the rows
    # only the multiplier solve handles (the plan's ``left_at``). Rows with
    # no weight left divide zero by zero in the closed form (and are set to
    # their bounds); the multiplier solve's outer probes at mu = 1e300 and
    # 1e-300 overflow on purpose.
    p = np.ascontiguousarray(batch.T)
    if plan is None:
        plan = _tilt_plan(rows, p)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        coords = _active_set_rows(rows, p, w, plan)
        if plan is not None and plan.left_at[0].size:
            agent, vector = plan.left_at
            coords[agent, :, vector] = _multiplier_rows(fiber, batch[vector], w[agent, vector],
                                                        plan.left_weight, plan.left_tilt)
    return (coords[..., 0] if prices.ndim == 1 else coords), w


def _first_error(rows: AgentRows, batch, income, w, fixed_cost, empty) -> DutyModelError:
    """What a loop over the ``(m, d)`` price vectors of ``batch`` would
    raise first, from the ``(agents, m)`` budgets up to the first vector
    with a price that fails ``_is_price`` (all of them if none does): the
    first agent in row order whose feasible set is empty at the first vector
    where one is, or else that bad price, the first of its vector."""
    fiber, count = rows.fiber, len(rows.ids)
    _, _, _, conflict = fiber.columns
    if not empty.any():
        v = batch[w.shape[1]]
        bad = int(np.argmin(_is_price(v)))
        return NonPositivePrice(fiber.dims[bad], float(v[bad]))
    # the vector-major order of a loop: the flat index into the transpose
    vector, agent = divmod(int(np.argmax(empty.T)), count)
    if w[agent, vector] < 0:
        reason = _unmet_claims(fiber, income[agent, vector])
    elif conflict is not None:
        reason = f"{conflict!r} is both forbidden and required"
    else:
        reason = (f"required minima cost {fixed_cost[vector]:g} but disposable income "
                  f"is {w[agent, vector]:g}")
    return InfeasibleDutySet(rows.ids[agent], reason)


def _dim_sum(x: np.ndarray) -> np.ndarray:
    """The sum of a kernel array over its dimension axis, the second to last
    of ``(d, m)`` or ``(agents, d, m)``, adding the dimensions in order at
    every batch length m. numpy adds them in order when the vector axis is
    its inner loop (m > 1), but pairwise when 8 or more of them are
    contiguous, as they are at m = 1; below 8 the two orders are one."""
    if x.shape[-2] < 8:
        return x.sum(axis=-2)
    total = x[..., 0, :].copy()
    for j in range(1, x.shape[-2]):
        total += x[..., j, :]
    return total


def _agent_sum(x: np.ndarray) -> np.ndarray:
    """The sum of an ``(agents, ..., m)`` kernel array over its agents,
    adding them in order at every batch length m. einsum does so while
    another axis has more than one element, for its inner loop runs there;
    over the agents alone (one good at one vector, or one vector's duty
    spending) it would add them in SIMD lanes, and a cumulative sum adds
    them in order."""
    if x[0].size > 1:
        return np.einsum("a...->...", x)
    return np.cumsum(x, axis=0)[-1]


def _active_set_rows(rows: AgentRows, p, w, plan: _TiltPlan | None):
    """Exact KKT solution per row with at most one status-tilted coordinate,
    at the ``(d, m)`` prices ``p`` with the ``(agents, m)`` budgets ``w``, as
    an ``(agents, d, m)`` array; ``plan`` (``_tilt_plan``, None for a pack in
    which no row can tilt) names the rows that can tilt and says which of
    them it covers.

    With spending s_k = p_k (q_k + offset_k) the interior condition is
    s_k = p_k weight_k / (mu p_k - tilt_k), so mu has a closed form on any
    candidate active set. Without a free tilted coordinate it is the free
    weight A over the pool P of budget left to the free coordinates. With
    one, d, and B = p_d weight_d, t = tilt_d, the budget identity
    A / mu + B / (mu p_d - t) = P is the quadratic

        P p_d mu^2 - (P t + A p_d + B) mu + A t = 0,

    whose larger root is the one with mu p_d > t: for t > 0 the value t / p_d
    lies between the roots, and for t < 0 only one root is positive. Each
    round clips every free coordinate that wants less than its bound.

    The answer needs no further check. Spending falls in mu, and a
    coordinate wants less than its bound exactly when its spending at the
    current mu is below p_k (lb_k + offset_k), so taking it out of the pool
    leaves the other coordinates spending more than the budget left to them,
    and the next mu is larger. As mu only rises, a coordinate clipped in one
    round wants still less in every later one, and every row settles after
    at most one round per dimension with each clipped coordinate held at a
    bound it does not want to leave. A pool that drops to zero or below
    (possible only when the bounds cost the budget to within the feasibility
    check's rounding, since every offset is positive) gives a mu of infinity
    or below zero, so the next round clips every coordinate: the row sits at
    its bounds, which then spend the whole budget.

    Cost. Each round computes mu = A / P, the denominators and the wanted
    coordinates for every row, with the vector axis last, so each numpy loop
    runs over the m vectors of a batch. The clipped mask starts as the
    fiber's forbidden mask, ``(d, 1)``, and broadcasts: the first round takes
    its free weight from the pack (``AgentRows.free_weight``) and sums the
    pool once per price vector, and a mask of the full ``(agents, d, m)``
    appears only once some coordinate clips. Everything about the tilted
    rows that the duty prices fix (the tilt, which rows the closed form
    takes, and each one's tilted coordinate, p_d, B, t and first-round A)
    comes from the plan: a ``FiberEconomy`` builds it once, at its own duty
    prices, for all its single-vector passes, and ``demand_rows`` once per
    call. Rows whose tilt is zero at these prices, and rows left to
    ``_multiplier_rows``, are not among the rows it solves. The quadratic is
    solved on the rows whose tilted coordinate is free in the first round,
    and again only in a round after one of the rows still solved clipped a
    coordinate (a row whose tilted coordinate clipped leaves, and its pool
    and A are the only ones that moved); otherwise its roots stand, and a
    round writes them into mu and the tilted coordinate's denominator.

    A row whose tilted coordinate stays free puts its last rounding into its
    steepest coordinate (``_settle_budget``), as ``_multiplier_rows`` does;
    one whose tilted coordinate is clipped has solved the untilted form.
    Three kinds of tilted row are left to ``_multiplier_rows`` and hold a
    meaningless answer here: two or more tilted coordinates, a pure-status
    coordinate (zero log weight, positive tilt, whose spending jumps where
    its premium starts to pay), and no positive untilted weight (which may
    leave budget unspent).
    """
    lb, forbidden, offset, _ = rows.fiber.columns
    # the per-dimension columns as (d, 1), the weights as (agents, d, 1)
    lb_d, offset_d, weight = lb[:, None], offset[:, None], rows.weight[..., None]
    # what a clipped coordinate takes out of the pool, and a free one adds
    bound_cost, offset_cost = -p * lb_d, p * offset_d
    at = None
    if plan is not None and plan.at[0].size:
        at, hot, c, price, b_weight, t, weight_at, a_weight = plan[:8]
    clipped, total_weight, solve = forbidden[:, None], rows.free_weight, True
    while True:
        pool = w + _dim_sum(np.where(clipped, bound_cost, offset_cost))
        mu = total_weight / pool
        if at is not None:
            if solve:
                root, net = _larger_root(a_weight, pool[at], price, b_weight, t)
            mu[at] = root
        denom = mu[:, None] * p
        if at is not None:
            denom[at[0], c, at[1]] = net
        # in place where the round allows: a fresh array of a long batch
        # costs more to map than to fill
        wanted = weight / denom
        wanted -= offset_d
        violating = wanted < lb_d
        violating &= ~clipped
        if not violating.any():
            break
        clipped = clipped | violating
        total_weight = _dim_sum(np.where(clipped, 0.0, weight))
        solve = False
        if at is not None:
            moved = violating[at[0], :, at[1]].any(axis=-1)
            if moved.any():
                # a row whose tilted coordinate clipped has the untilted form
                free = ~clipped[at[0], c, at[1]]
                if not free.all():
                    at = tuple(i[free] for i in at) if free.any() else None
                    hot, c, price, b_weight, t, weight_at, root, net, moved = (
                        v[free] for v in (hot, c, price, b_weight, t, weight_at, root, net,
                                          moved))
                solve = at is not None and moved.any()
                if solve:
                    a_weight = np.where(clipped[at[0], :, at[1]] | hot, 0.0,
                                        weight_at).sum(axis=-1)
    # rows with no weight left sit at their bounds
    at_bound = clipped | (total_weight <= 0.0)[:, None]
    coords = wanted
    np.copyto(coords, lb_d, where=at_bound)
    if at is not None:
        pair = (at[0], slice(None), at[1])
        # ``at_bound`` has the vector axis once some coordinate has clipped
        bound_at = at_bound[at[0], :, at[1] if at_bound.shape[-1] > 1 else 0]
        p_at, denom_at = p.T[at[1]], denom[pair]
        rate = np.where(bound_at, 0.0, weight_at / denom_at / denom_at * p_at * p_at)
        coords[pair] = _settle_budget(coords[pair], p_at, w[at], rate, lb)
    return coords


def _larger_root(a_weight, pool, price, b_weight, t):
    """The larger root mu of P p_d mu^2 - (P t + A p_d + B) mu + A t = 0
    (``_active_set_rows``), with A = ``a_weight``, P = ``pool``,
    p_d = ``price``, B = ``b_weight`` and t the tilt, and the tilted
    coordinate's net price z = mu p_d - t there.

    z is the larger root of P z^2 - (A p_d + B - P t) z - B t = 0, whose
    discriminant is the same. Both follow free of cancellation: the
    discriminant is a sum of non-negative terms in both signs of t, and each
    root is q / a or c / q with q = (s + sign(s) sqrt(disc)) / 2. Taking z
    from its own quadratic matters where a large budget puts mu p_d within
    rounding of t. The terms are first divided by the power of two that
    brings the largest below one, so squaring them cannot overflow at any
    budget, and rounds exactly as it would unscaled.
    """
    u, v = pool * t, a_weight * price
    _, e = np.frexp(np.maximum(np.abs(u), v + b_weight))
    down = -e
    u, v, b = np.ldexp(u, down), np.ldexp(v, down), np.ldexp(b_weight, down)
    uv = u + v
    s, s_net = uv + b, v + b - u
    root = np.sqrt(np.where(u > 0, (u - v) ** 2 + b * (b + 2.0 * uv), s ** 2 - 4.0 * u * v))
    q, q_net = (np.ldexp(0.5 * (x + np.copysign(root, x)), e) for x in (s, s_net))
    return (np.where(s >= 0, q / (pool * price), a_weight * t / q),
            np.where(s_net >= 0, q_net / pool, -b_weight * t / q_net))


def _settle_budget(q, p, w, rate, lb) -> np.ndarray:
    """Rows ``q`` at their own price vectors ``p``, one per row in a batch of
    one as in any other, with what is left of each budget ``w`` put into the
    coordinate whose spending falls fastest in mu (``rate``).

    What is left is rounding, which a duty near its pole magnifies by
    mu p / (mu p - tilt). The steepest coordinate is the one whose
    first-order condition it moves least (by residual / rate in mu), so the
    row meets its budget to rounding at any scale (a coordinate barely above
    its bound stays on it). A row with no positive rate is left as it is.
    """
    steep = rate.argmax(axis=1)
    k = np.flatnonzero(rate[np.arange(len(w)), steep] > 0)
    at = (k, steep[k])
    q[at] = np.maximum(q[at] + (w - _spend(q, p))[k] / p[at], lb[at[1]])
    return q


_ULPS = 4 * np.finfo(float).eps  # a few units in the last place, relative


def _multiplier_rows(fiber: Fiber, p, w, weight, tilt) -> np.ndarray:
    """Rows the closed form of ``_active_set_rows`` does not cover, each at
    its own price vector (a row of ``p``, as in a batch of one), by
    safeguarded Newton on the income multiplier mu.

    A coordinate above its bound spends p_k (weight_k / (mu p_k - tilt_k) -
    offset_k), so mu times the excess spending is linear in mu where there
    is no tilt, convex where a positive tilt adds a pole, and has a single
    root in any bracket that straddles the budget. Newton's method on it
    keeps one such bracket per row: a Newton point that is not finite or
    leaves the bracket is replaced by the bracket's geometric midpoint. A
    row stops once its step is within a few ulps of mu, or its spending
    meets the budget to a few ulps: where a floor takes most of the budget,
    spending is a large constant plus a small part that moves with mu, so
    rounding alone moves the Newton point by more than a few ulps and the
    step test alone could cycle between two values of mu.
    """
    lb, forbidden, offset, _ = fiber.columns
    big = (w[:, None] + 1.0) / p + lb  # any value above this overshoots the budget
    unweighted = weight == 0
    # below this denominator a coordinate buys everything (``big``); a
    # zero-weight free coordinate sits at its bound for any positive one,
    # unless the status tilt alone makes it worth buying
    floor = np.where(unweighted, 0.0, 1e-300)
    allowed = ~forbidden

    def coords_at(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The coordinates at mu, and the rate at which the spending on each
        falls as mu rises (zero at a bound)."""
        denom = mu[:, None] * p - tilt
        share = weight / np.maximum(denom, 1e-300)
        interior = denom > floor
        raw = np.where(interior, share - offset, big)
        above = interior & (raw > lb) & allowed
        rate = np.where(above, share / denom * p * p, 0.0)
        return np.where(forbidden, 0.0, np.maximum(raw, lb)), rate

    # the bounds exhaust the budget exactly: nothing left to allocate
    out = coords_at(np.full(len(w), 1e300))[0]
    rest = w - _spend(p, lb) > 0
    # nothing worth buying beyond the bounds: lexicographically smallest point
    lazy = coords_at(np.full(len(w), 1e-300))[0]
    idle = rest & (_spend(lazy, p) <= w * (1 + 1e-12) + 1e-12)
    out[idle] = lazy[idle]
    rest &= ~idle
    if not rest.any():
        return out
    p, w, weight, tilt, big, floor, unweighted = \
        p[rest], w[rest], weight[rest], tilt[rest], big[rest], floor[rest], unweighted[rest]

    # probe by factors of 8 from mu = 1 until every row's budget is
    # bracketed (a bracketed row steps back and forth across its bracket);
    # spending falls in mu and exceeds the budget at 1e-300, so the lower
    # end stops above zero
    mu = np.ones(len(w))
    mu_lo, mu_hi = np.zeros(len(w)), np.full(len(w), np.inf)
    for _ in range(400):
        over = _spend(coords_at(mu)[0], p) >= w
        mu_lo, mu_hi = np.where(over, mu, mu_lo), np.where(over, mu_hi, mu)
        if (mu_lo > 0).all() and (mu_hi < np.inf).all():
            break
        mu = np.where(over, mu * 8.0, mu / 8.0)
    else:
        raise NoConvergence(400)

    # Newton from the bracket's geometric midpoint; a stopped row keeps its mu
    mu, done = np.sqrt(mu_lo * mu_hi), np.zeros(len(w), dtype=bool)
    for _ in range(400):
        coords, rate = coords_at(mu)
        excess = _spend(coords, p) - w
        over = excess >= 0
        mu_lo, mu_hi = np.where(over, mu, mu_lo), np.where(over, mu_hi, mu)
        newton = mu - excess / (excess / mu - rate.sum(axis=1))
        inside = (mu_lo <= newton) & (newton <= mu_hi)
        step = np.where(inside, newton, np.sqrt(mu_lo * mu_hi))
        done |= (np.abs(step - mu) <= _ULPS * mu) | (np.abs(excess) <= _ULPS * w)
        if done.all():
            break
        mu = np.where(done, mu, step)
    else:
        raise NoConvergence(400)

    # A pure-status coordinate (zero log weight, positive premium value) has
    # constant marginal utility, so spending jumps down where its
    # denominator turns positive. Newton cannot land on the jump: a row that
    # stopped on a midpoint straddles it and takes the bracket end within
    # budget, and the optimum puts the leftover budget into the best such
    # coordinate. That coordinate takes the row's rounding too: it moves no
    # first-order condition, where the steepest one would move a good's.
    final, rate = coords_at(np.where(inside, step, mu_hi))
    residual = w - _spend(final, p)
    ratio = np.where(unweighted & (tilt > 0) & allowed, tilt / p, -np.inf)
    best = np.argmax(ratio, axis=1)
    k = np.flatnonzero((residual > 1e-9 * (1 + w))
                       & (ratio[np.arange(len(w)), best] > 0))
    final[k, best[k]] += residual[k] / p[k, best[k]]
    rate[k] = 0.0
    out[rest] = _settle_budget(final, p, w, rate, lb)
    return out


def demand_jacobian(rows: AgentRows, p: np.ndarray, coords: np.ndarray, free) -> np.ndarray:
    """Sum over the agents of dq[free] / dp[free] at one price vector ``p``,
    from the kernel's answer there, ``coords = demand_rows(rows, p)``. The
    free prices are goods prices (tradable, so they add to income, and the
    status tilt does not move with them); the result is ``(k, k)``.

    Let I be a row's weighted coordinates above their bounds. On I,
    s_j = q_j + offset_j = weight_j / (mu p_j - tilt_j), so with
    c = s^2 / weight the spending on I falls in mu at the rate
    A = sum_I c p^2. Differentiating the budget identity in a goods price
    p_k gives

        dmu/dp_k = ([k in I] (-offset_k) + [k not in I] lb_k - omega_k) / A
        dq_j/dp_k = -c_j p_j dmu/dp_k - [j = k in I] s_j / p_j

    for untilted and tilted rows alike, so the sum over agents is one
    ``(k, agents) @ (agents, k)`` product plus a diagonal, with no per-agent
    block. A row with nothing in I sits at its bounds and does not move.

    At a kink this is the one-sided derivative of the rule the kernel
    applied. A coordinate on its bound stays there (it is not in I). A row
    that put its leftover budget into a pure-status coordinate (zero log
    weight, positive tilt) keeps mu pinned at that coordinate's tilt / p,
    which goods prices do not move: each good moves only with its own
    price, and the pure-status coordinate absorbs the change in budget.
    """
    lb, forbidden, offset, _ = rows.fiber.columns
    free = np.asarray(free, dtype=int)
    above = ~forbidden & (coords > lb)
    inside = above & (rows.weight > 0)
    s = np.where(inside, coords + offset, 0.0)
    c = np.divide(s * s, rows.weight, out=np.zeros_like(s), where=inside)
    slope = (c * p * p).sum(axis=1)
    moves = ~(above & (rows.weight == 0)).any(axis=1) & (slope > 0)
    pull = np.where(inside[:, free], -offset[free], lb[free]) - rows.endowment[:, free]
    dmu = np.divide(pull, slope[:, None], out=np.zeros(pull.shape), where=moves[:, None])
    return (-c[:, free] * p[free]).T @ dmu - np.diag(s[:, free].sum(axis=0) / p[free])


@dataclass
class FiberEconomy:
    """A fiber plus its agents and the configured duty prices.

    Provides every operation the equilibrium solvers call (``equilibrium``
    lists them). Duty prices are exogenous (perfectly elastic supply): they
    are the economy's own, fixed at construction, and it evaluates only at
    them. A solver moves goods prices alone, so the kernel's plan for the
    rows that can tilt is built once (``tilt_plan``), and a price vector
    with another duty price raises ValueError. Forbidden goods carry no
    market, and the numeraire is the first tradable good.
    """

    fiber: Fiber
    agents: tuple[Agent, ...]
    duty_prices: Mapping[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list, compare=False)
    # (price bytes, read-only coordinates, total disposable income) of the
    # last ``demand_at`` call
    _last_demand: tuple[bytes, np.ndarray, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.agents = tuple(self.agents)
        if not self.agents:
            raise ValueError("an economy needs at least one agent")
        # allocations are keyed by id: a repeated id would drop an agent
        seen: set[str] = set()
        for a in self.agents:
            if a.id in seen:
                raise ValueError(f"duplicate agent id {a.id!r}")
            seen.add(a.id)
        for d in self.duty_prices:
            if d not in self.fiber.duties:
                raise UnknownReference(d, f"duty prices of fiber {self.fiber.y_id!r}")
        _check_prices(self.initial_prices(), self.dims)
        if not self.fiber.tradable_goods():
            raise ValueError(f"fiber {self.fiber.y_id!r} has no tradable good to serve "
                             "as numeraire")
        for g in self.fiber.tradable_goods():
            if not any(a.endowment.get(g, 0.0) > 0 for a in self.agents):
                self.warnings.append(f"no agent holds a positive endowment of {g!r}")
            # with no free disposal, no positive price clears the market of a
            # good that agents hold and nobody wants
            if not any(a.utility.alpha.get(g, 0.0) > 0 for a in self.agents):
                self.warnings.append(f"no agent values {g!r}: every alpha on it is zero")

    @property
    def dims(self) -> tuple[str, ...]:
        return self.fiber.dims

    @cached_property
    def numeraire_index(self) -> int:
        return self.fiber.goods.index(self.fiber.tradable_goods()[0])

    def free_indices(self) -> list[int]:
        """Indices whose prices the solver adjusts: tradable non-numeraire goods."""
        forbidden = self.fiber.forbidden_goods()
        return [i for i, g in enumerate(self.fiber.goods)
                if g not in forbidden and i != self.numeraire_index]

    def initial_prices(self) -> np.ndarray:
        p = np.ones(len(self.dims))
        for j, d in enumerate(self.fiber.duties):
            p[self.fiber.n + j] = self.duty_prices.get(d, 1.0)
        return p

    def demands(self, prices) -> dict[str, ExtendedBundle]:
        """Every agent's bundle at one price vector, by agent id: the rows of
        the kernel pass at ``prices`` (``demand_at``), copied once and checked
        once as a whole. Each bundle's ``x`` and ``e`` are views into that
        copy, so the bundles are writable and share nothing with the
        remembered answer. After a converged solve that pass is the one at
        the returned prices, and no further pass is made. Each row equals the
        one-agent ``demand`` bit for bit."""
        coords = self.demand_at(_as_price_array(prices, self.fiber)).copy()
        return dict(zip(self.rows.ids, ExtendedBundle._of_rows(coords, self.fiber.n)))

    @cached_property
    def rows(self) -> AgentRows:
        """The agents packed for ``demand_rows``, built on first use."""
        return AgentRows.pack(self.fiber, self.agents)

    @cached_property
    def tilt_plan(self) -> _TiltPlan | None:
        """The kernel's plan for the rows that can tilt (``_tilt_plan``) at
        the economy's own duty prices, as a batch of one, or None when no
        row can tilt: built once, on first use, for every single-vector
        pass."""
        return _tilt_plan(self.rows, self.initial_prices()[:, None])

    @cached_property
    def _duty_block(self) -> np.ndarray:
        """The economy's own duty prices, in the fiber's duty order."""
        return self.initial_prices()[self.fiber.n:]

    def _own_duty_prices(self, prices) -> np.ndarray:
        """``prices``, one vector or an ``(m, d)`` batch, as an array, if every
        vector carries the economy's own duty prices. A price that fails
        ``_is_price`` raises NonPositivePrice first; then the first duty
        priced otherwise raises ValueError."""
        p = _as_price_array(prices, self.fiber, batch=True)
        duty = p[..., self.fiber.n:]
        foreign = np.flatnonzero(duty != self._duty_block)
        if foreign.size:
            _check_prices(p, self.dims)
            k = foreign[0] % self.fiber.l
            raise ValueError(
                f"duty {self.fiber.duties[k]!r} priced at {duty.flat[foreign[0]]:g}: "
                f"this economy evaluates only at its own duty price {self._duty_block[k]:g}")
        return p

    def demand_at(self, p: np.ndarray) -> np.ndarray:
        """``demand_rows`` of the agents at one price vector, read-only, from
        the economy's one ``tilt_plan``; a vector with another duty price
        raises ValueError (``_own_duty_prices``).

        The answer for the last vector asked for is remembered, keyed on the
        vector's bytes, so excess demand and its Jacobian at one point share
        one kernel pass, and so do the total income there (``total_income``)
        and the allocations (``demands``). ``equilibrium_index(economy,
        result.prices)`` and ``demands(p)`` are public calls apart from the
        solve, and both reuse the pass of its last iterate through this
        memo. Without it, a solver holding the evaluation of its current
        point gave bit-identical answers, but the index made one more kernel
        pass per solve: 11-16% fewer ``fiber_many_agents`` tasks per second
        in 4 of 4 pairs of runs (2 vCPUs, Python 3.11.7, numpy 2.4.6)."""
        key = p.tobytes()
        if self._last_demand is None or self._last_demand[0] != key:
            coords, w = _demand_pass(self.rows, self._own_duty_prices(p), self.tilt_plan)
            coords.flags.writeable = False
            self._last_demand = (key, coords, float(w.sum()))
        return self._last_demand[1]

    @cached_property
    def total_endowment(self) -> np.ndarray:
        return self.rows.endowment.sum(axis=0)

    @cached_property
    def units(self) -> np.ndarray:
        """The unit each coordinate's excess demand is measured in: the total
        endowment W_i of each good, and 1 for duties and for a good nobody
        holds."""
        held = self.total_endowment
        return np.concatenate([np.where(held > 0, held, 1.0), np.ones(self.fiber.l)])

    def excess_demand(self, p: np.ndarray) -> np.ndarray:
        """Aggregate excess demand, sink included: a length-d vector at one
        price vector, an ``(m, d)`` array at an ``(m, d)`` batch, one row per
        vector. A single vector is a batch of one, so each row of a batch
        equals the one-vector call at its prices bit for bit. A batch's
        answer is an ``(m, d)`` view of a ``(d, m)`` array.

        Per good: total demand minus total endowment. Duty coordinates are
        zero by construction (elastic supply), demonetized goods have no
        market, and the sink's numeraire absorption closes the accounts so
        that p.z = 0 holds identically whenever every agent exhausts its
        budget. At one price vector the kernel's answer is the remembered one
        (``demand_at``), which ``jacobian`` reads at the same point; a batch
        is one kernel pass (``_demand_pass``), which builds its own tilt
        plan. Every vector must carry the economy's own duty prices
        (``_own_duty_prices``).
        """
        n = self.fiber.n
        _, forbidden, _, _ = self.fiber.columns
        if p.ndim == 1:
            coords, prices = self.demand_at(p)[..., None], p[:, None]
        else:
            coords, prices = _demand_pass(self.rows, self._own_duty_prices(p))[0], p.T

        z = np.zeros(prices.shape)
        z[:n] = np.where(forbidden[:n, None], 0.0,
                         _agent_sum(coords[:, :n]) - self.total_endowment[:, None])
        duty_spend = 0.0  # a fiber without duties spends nothing on them
        if self.fiber.l:
            # each agent's spending on its duties, then the agents'
            duty_spend = _agent_sum(_dim_sum(coords[:, n:] * prices[n:]))
        sink = self.fiber.constraints.prior_claim_total * len(self.agents) + duty_spend
        num = self.numeraire_index
        z[num] += sink / prices[num]
        return z[:, 0] if p.ndim == 1 else z.T

    def jacobian(self, p: np.ndarray, free: Sequence[int]) -> np.ndarray:
        """Jacobian of excess demand in the free prices (rows and columns
        ``free``) at one price vector, exact: the sum of the agents' demand
        derivatives (``demand_jacobian``, which states its rule at kinks) at
        the kernel's coordinates at ``p``, which an excess-demand call at
        ``p`` has already computed."""
        return demand_jacobian(self.rows, p, self.demand_at(p), free)

    def total_income(self, p: np.ndarray) -> float:
        """Total disposable income at ``p``: the value of every agent's
        tradable endowment less the regime's prior claims. At the last
        vector ``demand_at`` solved it is the sum of the budgets of that
        kernel pass, which the solver's Walras gap reads at each iterate."""
        if self._last_demand is not None and self._last_demand[0] == p.tobytes():
            return self._last_demand[2]
        return float(_income(self.fiber, self.rows.endowment, p)[1].sum())
