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
from typing import Mapping, Sequence

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
        if any(w < 0 for w in weights):
            raise NegativeInput("utility weights")
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
    """A point (x, e) of the extended space: goods quantities plus duty levels."""

    x: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        e = np.atleast_1d(np.asarray(self.e, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "e", e)
        if np.any(x < 0) or np.any(e < 0):
            raise NegativeInput("bundle coordinates")

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
        if self.lam < 0 or self.theta < 0:
            raise NegativeInput(f"lambda/theta for agent {self.id!r}")

    def endowment_for(self, goods: Sequence[str]) -> np.ndarray:
        return np.array([self.endowment.get(g, 0.0) for g in goods])


def _as_price_array(prices, dims: int, batch: bool = False) -> np.ndarray:
    """One price vector of length ``dims``; with ``batch``, also an
    ``(m, dims)`` array of them."""
    p = np.asarray(prices, dtype=float)
    if p.shape != (dims,) and not (batch and p.ndim == 2 and p.shape[1] == dims):
        raise DimensionMismatch(dims, p.shape[-1] if p.ndim == 2 else p.size, "price vector")
    return p


def _spend(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Cost p . q of each row of ``q``, at one price vector or at prices that
    broadcast against the rows."""
    return q @ p if p.ndim == 1 else np.einsum("...j,...j->...", q, p)


def _income(fiber: Fiber, endowment: np.ndarray, p: np.ndarray):
    """Income from tradable endowments and what is left of it after the
    regime's prior claims, per endowment row (forbidden goods are
    demonetized). A negative remainder means the claims cannot be met;
    ``_unmet_claims`` says so."""
    _, forbidden, _, _ = fiber.columns
    income = _spend(endowment, np.where(forbidden[: fiber.n], 0.0, p[..., : fiber.n]))
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
    p = _as_price_array(prices, fiber.n + fiber.l)
    income, w = _income(fiber, agent.endowment_for(fiber.goods), p)
    if w < 0:
        raise InfeasibleDutySet(agent.id, _unmet_claims(fiber, income))
    return float(w)


def feasible(agent: Agent, prices, fiber: Fiber, candidate: ExtendedBundle) -> bool:
    """Duty-feasibility: inside the post-claim budget and every predicate holds.

    Part of the model's public API: the solver never calls it, but it is how
    a caller tests a candidate bundle against a regime's perfect duties.
    """
    p = _as_price_array(prices, fiber.n + fiber.l)
    values = fiber.values_of(candidate)
    if not fiber.constraints.feasible(values):
        return False
    w = disposable_income(agent, p, fiber)
    cost = float(p @ candidate.coords)
    return cost <= w + 1e-12 * (1.0 + abs(w))


def utility_value(spec: UtilitySpec, x, e, prices, fiber: Fiber,
                  lam: float = 1.0, theta: float = 0.0) -> float:
    """Evaluate a utility spec at a bundle (prices matter only for VEBLEN)."""
    alpha = spec.alpha_for(fiber.goods)
    beta = spec.beta_for(fiber.duties)
    value = axiom1_utility(x, e, alpha, beta, lam)
    if spec.family is UtilityFamily.VEBLEN_PRICE_DEPENDENT and fiber.l:
        p = _as_price_array(prices, fiber.n + fiber.l)
        p_duty = p[fiber.n:]
        for d, pe in zip(fiber.duties, p_duty):
            if pe <= 0:
                raise NonPositivePrice(d, float(pe))
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
    goods endowments, the log weights (alpha on goods, then lam * beta on
    duties), the status weight (zero unless VEBLEN) and the reference duty
    prices. The per-dimension arrays live on the fiber (``Fiber.columns``).
    """

    fiber: Fiber
    ids: tuple[str, ...]
    endowment: np.ndarray
    weight: np.ndarray
    theta: np.ndarray
    p_bar: np.ndarray

    @classmethod
    def pack(cls, fiber: Fiber, agents: Sequence[Agent]) -> "AgentRows":
        goods, duties, count = fiber.goods, fiber.duties, len(agents)
        weight = [np.concatenate([a.utility.alpha_for(goods), a.lam * a.utility.beta_for(duties)])
                  for a in agents]
        theta = [a.theta if a.utility.family is UtilityFamily.VEBLEN_PRICE_DEPENDENT else 0.0
                 for a in agents]
        return cls(
            fiber=fiber,
            ids=tuple(a.id for a in agents),
            endowment=np.array([a.endowment_for(goods) for a in agents]).reshape(count, fiber.n),
            weight=np.array(weight),
            theta=np.array(theta),
            p_bar=np.array([a.utility.p_bar_for(duties) for a in agents]).reshape(count, fiber.l),
        )


def demand(agent: Agent, prices, fiber: Fiber) -> ExtendedBundle:
    """Utility-maximizing bundle on the agent's duty-feasible budget set:
    one row of ``demand_rows``."""
    coords = demand_rows(AgentRows.pack(fiber, (agent,)), prices)[0]
    return ExtendedBundle(x=coords[: fiber.n], e=coords[fiber.n:])


def demand_rows(rows: AgentRows, prices) -> np.ndarray:
    """Demand of every packed agent, one row per agent: ``(agents, d)`` at one
    price vector of length d, ``(m, agents, d)`` at an ``(m, d)`` batch of them.

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

    In a batch the agents' arrays broadcast against each price vector, and
    the error raised is the one a loop over the vectors would raise first.
    """
    fiber = rows.fiber
    n = fiber.n
    lb, _, _, conflict = fiber.columns
    p = _as_price_array(prices, n + fiber.l, batch=True)
    if p.ndim == 2:
        p = p[:, None, :]  # broadcasts over the agents

    income, w = _income(fiber, rows.endowment, p)
    fixed_cost = p @ lb
    empty = (w < 0) | (fixed_cost > w * (1 + 1e-12) + 1e-12) | (conflict is not None)
    if np.any(p <= 0) or empty.any():
        raise _first_error(rows, p, income, w, fixed_cost, empty)

    # status-premium tilt on duty prices; zero for goods and for theta = 0
    tilt = np.zeros(w.shape + lb.shape)
    tilt[..., n:] = rows.theta[:, None] * (p[..., n:] - rows.p_bar)
    # The closed form runs on every row and is kept for all but the rows
    # only the multiplier solve handles (``_active_set_rows`` flags them).
    # Rows with no weight left divide zero by zero in the closed form (and
    # are set to their bounds); the multiplier solve's outer probes at
    # mu = 1e300 and 1e-300 overflow on purpose.
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        coords, todo = _active_set_rows(fiber, p, w, rows.weight, tilt)
        if todo.any():
            at = np.nonzero(todo)  # the rows' (vector and) agent indices
            coords[todo] = _multiplier_rows(fiber, p if p.ndim == 1 else p[at[0], 0], w[todo],
                                            rows.weight[at[-1]], tilt[todo])
    return coords


def _first_error(rows: AgentRows, p, income, w, fixed_cost, empty) -> DutyModelError:
    """What a loop over the price vectors would raise first. At the first
    vector that has a non-positive price or an agent whose feasible set is
    empty, that is the bad price, or else the first such agent in row order."""
    fiber, count = rows.fiber, len(rows.ids)
    _, _, _, conflict = fiber.columns
    vectors = p.reshape(-1, p.shape[-1])
    k = int(np.argmax(empty)) if empty.any() else empty.size
    bad_vectors = np.flatnonzero((vectors[: k // count + 1] <= 0).any(axis=1))
    if bad_vectors.size:
        v = vectors[bad_vectors[0]]
        bad = int(np.argmin(v))
        return NonPositivePrice(fiber.dims[bad], float(v[bad]))
    if w.flat[k] < 0:
        reason = _unmet_claims(fiber, income.flat[k])
    elif conflict is not None:
        reason = f"{conflict!r} is both forbidden and required"
    else:
        cost = np.broadcast_to(fixed_cost, w.shape).flat[k]
        reason = f"required minima cost {cost:g} but disposable income is {w.flat[k]:g}"
    return InfeasibleDutySet(rows.ids[k % count], reason)


def _active_set_rows(fiber: Fiber, p, w, weight, tilt) -> tuple[np.ndarray, np.ndarray]:
    """Exact KKT solution per row with at most one status-tilted coordinate,
    and the mask of rows the closed form does not cover.

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

    Every round computes mu = A / P for every row, and the quadratic for the
    rows whose tilted coordinate is still free, gathered, so a batch without
    a tilt costs what the untilted form alone costs. A row whose tilted
    coordinate stays free puts its last rounding into its steepest
    coordinate (``_settle_budget``), as ``_multiplier_rows`` does; one whose
    tilted coordinate is clipped has solved the untilted form.
    Three kinds of tilted row are left to ``_multiplier_rows``, and flagged
    in the mask with a meaningless answer: two or more tilted coordinates,
    a pure-status coordinate (zero log weight, positive tilt, whose spending
    jumps where its premium starts to pay), and no positive untilted weight
    (which may leave budget unspent).
    """
    lb, forbidden, offset, _ = fiber.columns
    shape = w.shape + lb.shape
    # the rows with a tilted coordinate, less those left to Newton, and
    # their prices, weights and tilts
    unsolved = np.zeros(w.shape, dtype=bool)
    rows = tilt.any(axis=-1)
    p_r = weight_r = tilt_r = np.zeros((0,) + lb.shape)
    if rows.any():
        p_r, weight_r, tilt_r = (np.broadcast_to(v, shape)[rows] for v in (p, weight, tilt))
        tilted = tilt_r != 0
        left = ((tilted.sum(axis=-1) > 1)
                | ((tilt_r > 0) & (weight_r == 0)).any(axis=-1)
                | ~(~forbidden & ~tilted & (weight_r > 0)).any(axis=-1))
        unsolved[rows] = left
        rows[rows] = ~left
        p_r, weight_r, tilt_r = p_r[~left], weight_r[~left], tilt_r[~left]
    tilted = tilt_r != 0
    clipped = np.zeros(shape, dtype=bool) | forbidden
    while True:
        total_weight = np.where(clipped, 0.0, weight).sum(axis=-1)
        pool = w + np.where(clipped, -p * lb, p * offset).sum(axis=-1)
        mu = total_weight / pool
        denom = mu[..., None] * p
        # where the tilted coordinate is free: A over the other free
        # coordinates, and p_d, B and t of the tilted one
        clipped_r = clipped[rows]
        status = tilted & ~clipped_r
        if status.any():
            a_weight = np.where(clipped_r | status, 0.0, weight_r).sum(axis=-1)
            price, b_weight, t = (np.where(status, v, 0.0).sum(axis=-1)
                                  for v in (p_r, p_r * weight_r, tilt_r))
            root, net = _larger_root(a_weight, pool[rows], price, b_weight, t)
            mu[rows] = mu_r = np.where(status.any(axis=-1), root, mu[rows])
            denom[rows] = np.where(status, net[:, None], mu_r[:, None] * p_r)
        wanted = weight / denom - offset
        violating = ~clipped & (wanted < lb)
        if not violating.any():
            break
        clipped |= violating
    # rows with no weight left sit at their bounds
    at_bound = clipped | (total_weight <= 0.0)[..., None]
    coords = np.where(at_bound, lb, wanted)
    # rows whose tilted coordinate was clipped solved the untilted form
    if status.any():
        settle = rows.copy()
        settle[rows] = status.any(axis=-1)
        rate = np.where(at_bound, 0.0, weight / denom / denom * p * p)
        prices = np.broadcast_to(p, shape)
        coords[settle] = _settle_budget(coords[settle], prices[settle], w[settle],
                                        rate[settle], lb)
    return coords, unsolved


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
    u, v, b = (np.ldexp(x, -e) for x in (u, v, b_weight))
    root = np.sqrt(np.where(u > 0, (u - v) ** 2 + b * (b + 2.0 * (u + v)),
                            (u + v + b) ** 2 - 4.0 * u * v))
    s, s_net = u + v + b, v + b - u
    q, q_net = (np.ldexp(0.5 * (x + np.copysign(root, x)), e) for x in (s, s_net))
    return (np.where(s >= 0, q / (pool * price), a_weight * t / q),
            np.where(s_net >= 0, q_net / pool, -b_weight * t / q_net))


def _settle_budget(q, p, w, rate, lb) -> np.ndarray:
    """Rows ``q`` with what is left of each budget ``w`` put into the
    coordinate whose spending falls fastest in mu (``rate``).

    What is left is rounding, which a duty near its pole magnifies by
    mu p / (mu p - tilt). The steepest coordinate is the one whose
    first-order condition it moves least (by residual / rate in mu), so the
    row meets its budget to rounding at any scale (a coordinate barely above
    its bound stays on it). A row with no positive rate is left as it is.
    """
    prices = np.broadcast_to(p, q.shape)
    steep = np.argmax(rate, axis=1)
    k = np.flatnonzero(rate[np.arange(len(w)), steep] > 0)
    q[k, steep[k]] = np.maximum(
        q[k, steep[k]] + (w - _spend(q, p))[k] / prices[k, steep[k]], lb[steep[k]])
    return q


_ULPS = 4 * np.finfo(float).eps  # a few units in the last place, relative


def _multiplier_rows(fiber: Fiber, p, w, weight, tilt) -> np.ndarray:
    """Rows the closed form of ``_active_set_rows`` does not cover, at one
    price vector ``p`` or at one per row, by safeguarded Newton on the
    income multiplier mu.

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
    rest = w - p @ lb > 0
    # nothing worth buying beyond the bounds: lexicographically smallest point
    lazy = coords_at(np.full(len(w), 1e-300))[0]
    idle = rest & (_spend(lazy, p) <= w * (1 + 1e-12) + 1e-12)
    out[idle] = lazy[idle]
    rest &= ~idle
    if not rest.any():
        return out
    p = p if p.ndim == 1 else p[rest]  # one price vector, or one per row
    w, weight, tilt, big, floor, unweighted = \
        w[rest], weight[rest], tilt[rest], big[rest], floor[rest], unweighted[rest]

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
    prices = np.broadcast_to(p, final.shape)
    residual = w - _spend(final, p)
    ratio = np.where(unweighted & (tilt > 0) & allowed, tilt / p, -np.inf)
    best = np.argmax(ratio, axis=1)
    k = np.flatnonzero((residual > 1e-9 * (1 + w))
                       & (ratio[np.arange(len(w)), best] > 0))
    final[k, best[k]] += residual[k] / prices[k, best[k]]
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
    lists them). Duty prices are exogenous (perfectly elastic supply),
    forbidden goods carry no market, and the numeraire is the first
    tradable good.
    """

    fiber: Fiber
    agents: tuple[Agent, ...]
    duty_prices: Mapping[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list, compare=False)
    # (price bytes, read-only coordinates) of the last ``demand_at`` call
    _last_demand: tuple[bytes, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.agents = tuple(self.agents)
        if not self.agents:
            raise ValueError("an economy needs at least one agent")
        for d in self.fiber.duties:
            if self.duty_prices.get(d, 1.0) <= 0:
                raise NonPositivePrice(d, self.duty_prices.get(d, 1.0))
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
        return {a.id: demand(a, prices, self.fiber) for a in self.agents}

    @cached_property
    def rows(self) -> AgentRows:
        """The agents packed for ``demand_rows``, built on first use."""
        return AgentRows.pack(self.fiber, self.agents)

    def demand_at(self, p: np.ndarray) -> np.ndarray:
        """``demand_rows`` of the agents at one price vector, read-only. The
        answer for the last vector asked for is remembered, so excess demand
        and its Jacobian at one point share one kernel pass."""
        key = p.tobytes()
        if self._last_demand is None or self._last_demand[0] != key:
            coords = demand_rows(self.rows, p)
            coords.flags.writeable = False
            self._last_demand = (key, coords)
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
        vector.

        Per good: total demand minus total endowment. Duty coordinates are
        zero by construction (elastic supply), demonetized goods have no
        market, and the sink's numeraire absorption closes the accounts so
        that p.z = 0 holds identically whenever every agent exhausts its
        budget. At one price vector the kernel's answer is the remembered one
        (``demand_at``), which ``jacobian`` reads at the same point.
        """
        rows = self.rows
        n = self.fiber.n
        _, forbidden, _, _ = self.fiber.columns
        coords = self.demand_at(p) if p.ndim == 1 else demand_rows(rows, p)

        z = np.zeros(p.shape)
        z[..., :n] = np.where(forbidden[:n], 0.0,
                              coords[..., :n].sum(axis=-2) - self.total_endowment)
        duty_spend = (coords[:, n:] @ p[n:]).sum() if p.ndim == 1 else \
            np.einsum("kaj,kj->k", coords[..., n:], p[:, n:])
        sink = self.fiber.constraints.prior_claim_total * len(rows.ids) + duty_spend
        num = self.numeraire_index
        # .T[num] is the numeraire entry of one vector and column of a batch
        z.T[num] += sink / p.T[num]
        return z

    def jacobian(self, p: np.ndarray, free: Sequence[int]) -> np.ndarray:
        """Jacobian of excess demand in the free prices (rows and columns
        ``free``) at one price vector, exact: the sum of the agents' demand
        derivatives (``demand_jacobian``, which states its rule at kinks) at
        the kernel's coordinates at ``p``, which an excess-demand call at
        ``p`` has already computed."""
        return demand_jacobian(self.rows, p, self.demand_at(p), free)

    def total_income(self, p: np.ndarray) -> float:
        """Total disposable income at ``p``: the value of every agent's
        tradable endowment less the regime's prior claims."""
        return float(_income(self.fiber, self.rows.endowment, p)[1].sum())
