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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .economy import ExtendedBundle, FiberEconomy, _income, demand_rows
from .errors import DimensionTooLarge, SingularJacobian

DEFAULT_STEP = 0.1
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
PRICE_FLOOR = 1e-9
NEWTON_H = 1e-6  # Jacobian bump, relative to each price
POLISH_TOL = 1e-12
POLISH_ITERS = 60
GRID_LO, GRID_HI = 0.05, 20.0  # the grid oracle's range of each free price
INDEX_RESIDUAL_TOL = 1e-6
SINGULAR_RTOL = 1e-8
WALRAS_RTOL = 1e-10


@dataclass(frozen=True)
class PriceVector:
    """Strictly positive prices over a fiber's dimensions, numeraire pinned at 1."""

    values: np.ndarray
    dims: tuple[str, ...]
    numeraire_index: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.dims),):
            raise ValueError("price vector does not match its dimension list")
        if np.any(values <= 0):
            raise ValueError("prices must be strictly positive")

    @classmethod
    def normalized(cls, values, dims, numeraire_index=0) -> "PriceVector":
        values = np.asarray(values, dtype=float)
        return cls(values=values / values[numeraire_index], dims=tuple(dims),
                   numeraire_index=numeraire_index)

    def of(self, dim: str) -> float:
        return float(self.values[self.dims.index(dim)])


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


def _z(economy, prices: np.ndarray) -> np.ndarray:
    """Excess demand at one price vector, or at each row of an ``(m, d)``
    batch. A custom economy may supply its own excess-demand map of one
    vector; a batch maps it over the rows."""
    custom = getattr(economy, "excess_demand", None)
    if custom is None:
        return excess_demand(economy, prices)
    if np.ndim(prices) == 2:
        return np.array([custom(p) for p in prices], dtype=float)
    return np.asarray(custom(prices), dtype=float)


def excess_demand(economy: FiberEconomy, prices) -> np.ndarray:
    """Aggregate excess demand, sink included: a length-d vector at one price
    vector, an ``(m, d)`` array at an ``(m, d)`` batch, one row per vector.

    Per good: total demand minus total endowment. Duty coordinates are zero
    by construction (elastic supply), demonetized goods have no market, and
    the sink's numeraire absorption closes the accounts so that p.z = 0 holds
    identically whenever every agent exhausts its budget.
    """
    p = np.asarray(getattr(prices, "values", prices), dtype=float)
    rows = economy.rows
    n = rows.fiber.n
    _, forbidden, _, _ = rows.fiber.columns
    coords = demand_rows(rows, p)

    z = np.zeros(p.shape)
    z[..., :n] = np.where(forbidden[:n], 0.0,
                          coords[..., :n].sum(axis=-2) - economy.total_endowment)
    duty_spend = (coords[:, n:] @ p[n:]).sum() if p.ndim == 1 else \
        np.einsum("kaj,kj->k", coords[..., n:], p[:, n:])
    sink = rows.fiber.constraints.prior_claim_total * len(rows.ids) + duty_spend
    num = economy.numeraire_index
    # .T[num] is the numeraire entry of one vector and column of a batch
    z.T[num] += sink / p.T[num]
    return z


def walras_gap(prices: np.ndarray, z: np.ndarray) -> float:
    """Relative violation of Walras' law at one price vector."""
    p = np.asarray(getattr(prices, "values", prices), dtype=float)
    return abs(float(p @ z)) / (1.0 + float(np.abs(p) @ np.abs(z)))


def _units(economy, d: int) -> np.ndarray:
    """The unit each of the d coordinates' excess demand is measured in: the
    total endowment W_i of each good, and 1 for duty coordinates, for a good
    nobody holds, and throughout for a custom economy without
    ``total_endowment``."""
    units = np.ones(d)
    held = getattr(economy, "total_endowment", None)
    if held is not None:
        units[: len(held)] = np.where(held > 0, held, 1.0)
    return units


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


def _newton_step(economy, p: np.ndarray, z: np.ndarray, free: Sequence[int]):
    """The clamped Newton point from ``p``: J dp = -z over the free prices, J
    the central-difference Jacobian with bumps relative to each price. None
    when J is singular."""
    J = _jacobian(economy, p, free, NEWTON_H * p[free])
    try:
        delta = np.linalg.solve(J, -z[free])
    except np.linalg.LinAlgError:
        return None
    return _clamped(p, free, p[free] + delta)


def solve_tatonnement(economy, p0=None, step: float = DEFAULT_STEP,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> EquilibriumResult:
    """Find market-clearing prices by damped Newton steps, with tatonnement
    as the fallback.

    Only tradable non-numeraire good prices move (duty and demonetized
    coordinates have zero excess demand; the numeraire market is implied by
    Walras' law). Excess demand is measured relative to total endowment,
    z_i / W_i, so the run stops once the residual max_i |z_i| / W_i is at
    most ``tol`` (``relative_residual``; W = 1 for a custom economy without
    ``total_endowment``) and neither the steps nor the tolerance depend on
    the unit the endowments are in.

    Each iteration first tries a Newton step: it solves J dp = -z on the free
    prices, J the central-difference Jacobian, and clamps the update to the
    band [p/2, 2p], positivity plus a trust region. The step is taken if it
    lowers the residual. Otherwise, or when J is singular, the iteration
    takes the tatonnement step p <- p + step * z / W, clamped the same way;
    its step size halves whenever the residual fails to improve and creeps
    back toward ``step`` while improving. The best iterate is kept, so a
    non-converged run still returns full diagnostics with
    ``converged=False``; there is one diagnostics record per iterate.
    """
    if step <= 0 or tol <= 0:
        raise ValueError("step and tol must be positive")
    p = economy.initial_prices() if p0 is None else np.asarray(
        getattr(p0, "values", p0), dtype=float).copy()
    num = economy.numeraire_index
    p = p / p[num]
    free = economy.free_indices()
    units = _units(economy, len(p))
    step_cap = step

    diagnostics: list[IterateRecord] = []
    best_p, best_r = p.copy(), math.inf
    prev_r = math.inf
    iterations = 0
    converged = False
    z = _z(economy, p)

    for it in range(max_iter + 1):
        r = relative_residual(z, units)
        diagnostics.append(IterateRecord(it, r, walras_gap(p, z), step))
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
        # gentle recovery toward the configured step on progress
        if r >= prev_r * (1.0 - 1e-12):
            step = max(step * 0.5, 1e-14)
        else:
            step = min(step * 1.02, step_cap)
        prev_r = r
        if free:
            trial = _newton_step(economy, p, z, free)
            if trial is not None:
                z_trial = _z(economy, trial)
                if relative_residual(z_trial, units) < r:
                    p, z = trial, z_trial
                    continue
            p = _clamped(p, free, p[free] + step * z[free] / units[free])
            z = _z(economy, p)

    final_p = best_p
    prices = PriceVector.normalized(final_p, economy.dims, num)
    allocations = economy.demands(final_p) if hasattr(economy, "demands") else {}
    return EquilibriumResult(prices=prices, allocations=allocations, residual=best_r,
                             iterations=iterations, converged=converged,
                             diagnostics=diagnostics)


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
    base = economy.initial_prices().astype(float)
    base = base / base[num]
    units = _units(economy, len(base))
    if not free:
        return [PriceVector(base, economy.dims, num)] \
            if relative_residual(_z(economy, base), units) <= POLISH_TOL else []

    k = len(free)
    grid = np.geomspace(GRID_LO, GRID_HI, resolution)
    # the whole grid in one batch, row-major over the free prices
    points = np.tile(base, (resolution ** k, 1))
    points[:, free] = np.stack(np.meshgrid(*[grid] * k, indexing="ij"), axis=-1).reshape(-1, k)
    rs = np.max(np.abs(_z(economy, points)) / units, axis=1).reshape((resolution,) * k)
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

    return [PriceVector.normalized(u, economy.dims, num) for u in sorted(unique, key=tuple)]


def _jacobian(economy, p: np.ndarray, free: Sequence[int], h) -> np.ndarray:
    """Central-difference Jacobian of excess demand in the free prices (rows
    and columns ``free``): the 2k bumped price vectors in one batched call.
    ``h`` is one bump for every price or one per free price."""
    k = len(free)
    bumped = np.tile(p, (2 * k, 1))
    bumped[np.arange(k), free] += h
    bumped[np.arange(k, 2 * k), free] -= h
    zf = _z(economy, bumped)[:, free]
    return (zf[:k] - zf[k:]).T / (2 * h)


def _newton_polish(economy, p: np.ndarray, free: Sequence[int],
                   units: np.ndarray) -> np.ndarray | None:
    """Clamped Newton steps from ``p``: the price vector they reach once it
    clears to ``POLISH_TOL``, or None if it does not within ``POLISH_ITERS``
    steps."""
    for _ in range(POLISH_ITERS):
        z = _z(economy, p)
        if relative_residual(z, units) <= POLISH_TOL:
            return p
        p = _newton_step(economy, p, z, free)
        if p is None:
            return None
    return None


def equilibrium_index(economy, p_star) -> int:
    """Sign of det(-J) at an equilibrium, J the central-difference Jacobian of
    truncated excess demand (numeraire row and column removed), with bumps
    relative to each price as in the solver.

    The point must clear: its ``relative_residual``, the solver's, is at most
    ``INDEX_RESIDUAL_TOL``.

    +1 marks a regular equilibrium oriented like a unique one; the indices of
    all equilibria of a regular economy sum to +1. Singularity is judged on
    the unit-free Jacobian -diag(1/W) J diag(p), the elasticity of z_i / W_i
    in log p_j, whose determinant has the sign of det(-J): it is refused when
    |det| falls below ``SINGULAR_RTOL`` times its Hadamard row bound, floored
    at one.
    """
    p = np.asarray(getattr(p_star, "values", p_star), dtype=float)
    units = _units(economy, len(p))
    if relative_residual(_z(economy, p), units) > INDEX_RESIDUAL_TOL:
        raise ValueError("equilibrium_index needs a market-clearing price vector")
    free = list(economy.free_indices())
    if not free:
        return +1

    elasticity = -_jacobian(economy, p, free, NEWTON_H * p[free]) \
        * p[free] / units[free][:, None]
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
    volumes: dict[str, float] = {}
    for i, g in enumerate(economy.fiber.goods):
        bought = 0.0
        for a in economy.agents:
            bought += max(allocations[a.id].x[i] - a.endowment.get(g, 0.0), 0.0)
        volumes[g] = bought
    return volumes


def duty_expenditure_share(economy: FiberEconomy, prices,
                           allocations: dict[str, ExtendedBundle]) -> float:
    """Fraction of aggregate disposable income spent on imperfect duties."""
    p = np.asarray(getattr(prices, "values", prices), dtype=float)
    rows = economy.rows
    n = rows.fiber.n
    spend = sum(float(p[n:] @ allocations[a].e) for a in rows.ids)
    _, disposable = _income(rows.fiber, rows.endowment, p)
    income = float(disposable.sum())
    return spend / income if income > 0 else 0.0
