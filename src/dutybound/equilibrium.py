"""Walrasian equilibria of one fiber economy.

Price system: one coordinate per good and duty dimension. The first tradable
good is the numeraire (price pinned at one); duty prices are exogenous
(perfectly elastic supply of fulfillment opportunities at the configured
price); demonetized goods (forbidden regime-wide) have no market.

Value accounting closes through an outside sink: prior-claim payments and
duty expenditure are collected by creditors and duty counterparties, who
absorb numeraire. The sink therefore appears as extra demand on the
numeraire market, which makes Walras' law an exact identity at every price
vector and lets economies with active duties actually clear.

The solver takes damped Newton steps with tatonnement as its fallback, and
measures excess demand relative to total endowment, so its answer does not
depend on the unit endowments are in. Besides it there is an exhaustive
price-grid oracle for low-dimensional fibers (the independent check used
throughout the tests) and the equilibrium index, the sign of det(-J) of
truncated excess demand - the desk-scale handle on multiplicity: indices
over all equilibria of a regular economy sum to +1.

The solvers work on price arrays and call only these operations of the
economy, all provided by ``FiberEconomy``: ``dims``, ``numeraire_index``,
``free_indices()`` (the prices that move), ``initial_prices()`` (with the
numeraire at 1, and the economy's own duty prices, which never move),
``units`` (W_i per good, 1 for duties and for goods nobody holds),
``excess_demand(p)`` (one vector or an ``(m, d)`` batch, sink included,
reached through this module's ``excess_demand``), ``jacobian(p, free)``
(exact; the one Jacobian of all three solvers), ``total_income(p)`` and
``demands(p)`` (each agent's bundle, copied from the kernel pass at ``p``;
after a converged solve that is the pass of its last iterate, so building
the allocations solves no agent again). A ``FiberEconomy`` evaluates
excess demand, its Jacobian and the allocations only at its own duty
prices, and raises ValueError at others. A ``PriceVector`` reads as its
array, so the public functions take either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .economy import ExtendedBundle, FiberEconomy, _check_prices
from .errors import DimensionTooLarge, InfeasibleDutySet, SingularJacobian

FALLBACK_STEP = 0.1  # first step of the tatonnement fallback
MIN_STEP = 1e-14  # the fallback step's floor
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
PRICE_FLOOR = 1e-9
POLISH_TOL = 1e-12
POLISH_ITERS = 60
GRID_LO, GRID_HI = 0.05, 20.0  # the grid oracle's range of each free price
INDEX_RESIDUAL_TOL = 1e-6
SINGULAR_RTOL = 1e-8


@dataclass(frozen=True)
class PriceVector:
    """Positive, finite prices over a fiber's dimensions, numeraire pinned at 1."""

    values: np.ndarray
    dims: tuple[str, ...]
    numeraire_index: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.dims),):
            raise ValueError("price vector does not match its dimension list")
        _check_prices(values, self.dims)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


@dataclass
class IterateRecord:
    iteration: int
    residual: float
    walras_gap: float
    step: float


@dataclass
class EquilibriumResult:
    prices: PriceVector
    allocations: dict[str, ExtendedBundle]
    residual: float
    iterations: int
    converged: bool
    index: int | None = None
    diagnostics: list[IterateRecord] = field(default_factory=list)

    def walras_gaps(self) -> list[float]:
        return [rec.walras_gap for rec in self.diagnostics]


def excess_demand(economy: FiberEconomy, prices) -> np.ndarray:
    """``FiberEconomy.excess_demand`` at one price vector or an ``(m, d)``
    batch; every solver evaluates excess demand through this function."""
    return economy.excess_demand(np.asarray(prices, dtype=float))


def walras_gap(prices: np.ndarray, z: np.ndarray, income: float) -> float:
    """Violation of Walras' law at one price vector, |p.z| / income with
    ``income`` the economy's ``total_income``: relative to the value traded,
    so it reads the same in any unit endowments are measured in. With no
    positive income (nothing of value held) there is no value to compare
    with, and the gap is |p.z| itself."""
    p = np.asarray(prices, dtype=float)
    gap = abs(float(p @ z))
    return gap / income if income > 0 else gap


def relative_residual(z: np.ndarray, units: np.ndarray) -> float:
    """max_i |z_i| / W_i: excess demand relative to total endowment, so the
    same tolerance means the same thing whatever unit endowments are in."""
    return float(np.max(np.abs(z) / units))


def _clamped(p: np.ndarray, free: Sequence[int], target: np.ndarray) -> np.ndarray:
    """``p`` with its free prices moved toward ``target`` but kept inside the
    band [p/2, 2p], positivity plus a trust region, and above the floor."""
    q = p.copy()
    q[free] = np.maximum(np.clip(target, 0.5 * p[free], 2.0 * p[free]), PRICE_FLOOR)
    return q


def _newton_step(p: np.ndarray, z: np.ndarray, J: np.ndarray, free: Sequence[int]):
    """The clamped Newton point from ``p``: J dp = -z over the free prices,
    with J = ``economy.jacobian`` at ``p``. None when J is singular."""
    try:
        delta = np.linalg.solve(J, -z[free])
    except np.linalg.LinAlgError:
        return None
    return _clamped(p, free, p[free] + delta)


def solve_tatonnement(economy, p0=None, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> EquilibriumResult:
    """Find market-clearing prices by damped Newton steps, with tatonnement
    as the fallback.

    Only tradable non-numeraire good prices move (duty and demonetized
    coordinates have zero excess demand; the numeraire market is implied by
    Walras' law). Excess demand is measured relative to total endowment,
    z_i / W_i, so the run stops once the residual max_i |z_i| / W_i is at
    most ``tol`` (``relative_residual``, W the economy's ``units``) and
    neither the steps nor the tolerance depend on the unit the endowments
    are in.

    The run starts from ``p0``, or from ``initial_prices()`` when it is
    None. Only the prices it moves and the numeraire are taken relative to
    the numeraire's, which is 1 from then on: every other price stays as
    given, and a ``FiberEconomy`` evaluates only at its own duty prices, so
    a ``p0`` with other duty prices raises ValueError.

    Each iteration first tries a Newton step: it solves J dp = -z on the free
    prices, J the exact Jacobian (``economy.jacobian``), and clamps the
    update to the band [p/2, 2p], positivity plus a trust region. The step is
    taken if it lowers the residual. A trial point at which some agent's duty
    set is empty (its prior claims or required minima cost more than its
    income there) counts as one that does not. Otherwise, or when J is
    singular, the iteration takes the tatonnement step p <- p + step * z / W,
    clamped the same way.
    The fallback is the only move at a singular Jacobian. Its step starts at
    ``FALLBACK_STEP``, halves whenever the residual fails to improve and
    creeps back toward ``FALLBACK_STEP`` while improving. A fallback point
    at which some agent's duty set is empty is not taken either: the step
    halves and is retried from the same p, and if the point is still
    infeasible at the step's floor ``MIN_STEP`` the run stops there. The run
    also stops, stalled, at an iterate that fails to improve the residual
    while the step sits at ``MIN_STEP``: each further iterate would move p
    by about ``MIN_STEP`` z / W. The best iterate is kept, so a
    non-converged run still returns full diagnostics with
    ``converged=False``; there is one diagnostics record per iterate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = (economy.initial_prices() if p0 is None
         else _check_prices(np.array(p0, dtype=float), economy.dims))
    num = economy.numeraire_index
    free = economy.free_indices()
    # the numeraire is 1 from here on (``_clamped`` moves the free prices
    # only); the prices the solver does not move keep their value
    traded = [num, *free]
    p[traded] = p[traded] / p[num]
    units = economy.units
    step = FALLBACK_STEP

    diagnostics: list[IterateRecord] = []
    best_p, best_r = p.copy(), math.inf
    prev_r = math.inf
    iterations = 0
    converged = False
    z = excess_demand(economy, p)
    # the residual at p, taken once per evaluated point and carried with p and z
    r = relative_residual(z, units)

    for it in range(max_iter + 1):
        diagnostics.append(IterateRecord(it, r, walras_gap(p, z, economy.total_income(p)),
                                         step))
        iterations = it
        if r < best_r:
            best_r, best_p = r, p.copy()
        if r <= tol:
            converged = True
            break
        if it == max_iter:
            break
        # halve on non-improvement (an exact oscillation never strictly
        # increases the residual, so >= is what breaks limit cycles), with
        # gentle recovery toward the first step on progress; a step already
        # at its floor that does not improve has stalled
        if r >= prev_r * (1.0 - 1e-12):
            if step <= MIN_STEP:
                break
            step = max(step * 0.5, MIN_STEP)
        else:
            step = min(step * 1.02, FALLBACK_STEP)
        prev_r = r
        if free:
            trial = _newton_step(p, z, economy.jacobian(p, free), free)
            try:
                z_trial = None if trial is None else excess_demand(economy, trial)
            except InfeasibleDutySet:  # an emptied duty set does not improve
                z_trial = None
            r_trial = math.inf if z_trial is None else relative_residual(z_trial, units)
            if r_trial < r:
                p, z, r = trial, z_trial, r_trial
                continue
            moved = _fallback_step(economy, p, z, free, units, step)
            if moved is None:
                break
            p, z, step = moved
            r = relative_residual(z, units)

    prices = PriceVector(best_p, economy.dims, num)
    allocations = economy.demands(best_p)
    return EquilibriumResult(prices=prices, allocations=allocations, residual=best_r,
                             iterations=iterations, converged=converged,
                             diagnostics=diagnostics)


def _fallback_step(economy, p: np.ndarray, z: np.ndarray, free: Sequence[int],
                   units: np.ndarray, step: float):
    """The tatonnement point from ``p``, its excess demand and the step
    that reached it, halving the step while the point empties some agent's
    duty set; None if it still does at ``MIN_STEP``."""
    while True:
        q = _clamped(p, free, p[free] + step * z[free] / units[free])
        try:
            return q, excess_demand(economy, q), step
        except InfeasibleDutySet:
            if step <= MIN_STEP:
                return None
            step = max(step * 0.5, MIN_STEP)


def solve_grid_oracle(economy, resolution: int = 200) -> list[PriceVector]:
    """Exhaustive scan of normalized price grids for fibers with at most
    three priced dimensions; the independent verification route.

    Evaluates a geometric grid over the free prices, from ``GRID_LO`` to
    ``GRID_HI``, in one batched call and takes each point's relative residual
    max_i |z_i| / W_i. Every point no worse than its 3^k neighbours is the
    bottom of a basin; each one is Newton-polished, and only the points that
    polish to a clearing price vector (relative residual at most
    ``POLISH_TOL``) are kept, so a tangential root is found and a basin
    without a root yields nothing, whatever the number of free prices. With
    no free price the initial prices are returned if they clear to
    ``POLISH_TOL``.
    """
    if resolution < 10:
        raise ValueError("resolution must be at least 10 points per dimension")
    free = list(economy.free_indices())
    priced = len(free) + 1
    if priced > 3:
        raise DimensionTooLarge(priced, 3)

    num = economy.numeraire_index
    base = economy.initial_prices()
    units = economy.units
    if not free:
        return [PriceVector(base, economy.dims, num)] \
            if relative_residual(excess_demand(economy, base), units) <= POLISH_TOL else []

    k = len(free)
    grid = np.geomspace(GRID_LO, GRID_HI, resolution)
    # the whole grid in one batch, row-major over the free prices
    points = np.tile(base, (resolution ** k, 1))
    points[:, free] = np.stack(np.meshgrid(*[grid] * k, indexing="ij"), axis=-1).reshape(-1, k)
    # each point's relative residual, a max over the coordinates of the
    # (d, m) transpose, whose long vector axis numpy's loops run along. A
    # ``FiberEconomy`` answers a batch with a view of that very array, so the
    # transpose copies nothing; an economy answering with a C-contiguous
    # (m, d) array pays one copy
    z = np.ascontiguousarray(excess_demand(economy, points).T)
    rs = np.max(np.abs(z) / units[:, None], axis=0).reshape((resolution,) * k)
    # the best residual over each point's 3^k neighbourhood; on a coarse grid
    # even the best cell of a basin can sit far from clearing, so every basin
    # is polished and only roots are kept. The window axes are moved to the
    # front because numpy reduces over leading axes several times faster.
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(rs, 1, constant_values=np.inf), (3,) * k)
    window = np.moveaxis(windows, range(k, 2 * k), range(k)).min(axis=tuple(range(k)))
    found = [root for cell in np.flatnonzero(rs <= window)
             if (root := _newton_polish(economy, points[cell], free, units)) is not None]

    # dedupe: points within two grid steps (geometric) are the same equilibrium
    step_ratio = (GRID_HI / GRID_LO) ** (1.0 / (resolution - 1))
    unique: list[np.ndarray] = []
    for cand in found:
        if any(np.all(np.abs(np.log(cand / u)) < 2.001 * math.log(step_ratio))
               for u in unique):
            continue
        unique.append(cand)

    return [PriceVector(u, economy.dims, num) for u in sorted(unique, key=tuple)]


def _newton_polish(economy, p: np.ndarray, free: Sequence[int],
                   units: np.ndarray) -> np.ndarray | None:
    """Clamped Newton steps from ``p``: the price vector they reach once it
    clears to ``POLISH_TOL``, or None if it does not within ``POLISH_ITERS``
    steps."""
    for _ in range(POLISH_ITERS):
        z = excess_demand(economy, p)
        if relative_residual(z, units) <= POLISH_TOL:
            return p
        p = _newton_step(p, z, economy.jacobian(p, free), free)
        if p is None:
            return None
    return None


def equilibrium_index(economy, p_star) -> int:
    """Sign of det(-J) at an equilibrium, J the solver's exact Jacobian
    (``economy.jacobian``) of truncated excess demand (numeraire row and column
    removed).

    The point must clear: its ``relative_residual``, the solver's, is at most
    ``INDEX_RESIDUAL_TOL``.

    +1 marks a regular equilibrium oriented like a unique one; the indices of
    all equilibria of a regular economy sum to +1. Singularity is judged on
    the unit-free Jacobian -diag(1/W) J diag(p), the elasticity of z_i / W_i
    in log p_j, whose determinant has the sign of det(-J): it is refused when
    |det| falls below ``SINGULAR_RTOL`` times its Hadamard row bound, floored
    at one.
    """
    p = np.asarray(p_star, dtype=float)
    units = economy.units
    if relative_residual(excess_demand(economy, p), units) > INDEX_RESIDUAL_TOL:
        raise ValueError("equilibrium_index needs a market-clearing price vector")
    free = list(economy.free_indices())
    if not free:
        return +1

    elasticity = -economy.jacobian(p, free) * p[free] / units[free][:, None]
    det = float(np.linalg.det(elasticity))
    # Hadamard row bound, floored at one so a vanishing Jacobian still counts
    # as singular
    scale = max(float(np.prod(np.linalg.norm(elasticity, axis=1))), 1.0)
    threshold = SINGULAR_RTOL * scale
    if abs(det) < threshold:
        raise SingularJacobian(det, threshold)
    return +1 if det > 0 else -1


def trade_volumes(economy: FiberEconomy, allocations: dict[str, ExtendedBundle]) -> dict[str, float]:
    """Units of each good changing hands: the gross purchases across agents."""
    x = np.array([allocations[a.id].x for a in economy.agents])
    bought = np.maximum(x - economy.rows.endowment, 0.0)
    # cumsum adds the agents in order, as a loop would; sum may add pairwise
    return dict(zip(economy.fiber.goods, np.cumsum(bought, axis=0)[-1]))


def duty_expenditure_share(economy: FiberEconomy, prices,
                           allocations: dict[str, ExtendedBundle]) -> float:
    """Fraction of aggregate disposable income spent on imperfect duties."""
    p = np.asarray(prices, dtype=float)
    n = economy.fiber.n
    e = np.array([allocations[a.id].e for a in economy.agents])
    # one vector-vector product per agent, rounded as ``p @ e`` rounds it,
    # added in agent order
    spend = float(np.cumsum((e[:, None, :] @ p[n:])[:, 0])[-1])
    income = economy.total_income(p)
    return spend / income if income > 0 else 0.0
