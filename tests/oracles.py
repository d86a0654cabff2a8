"""Independent oracles the tests check the library against.

Everything here is deliberately brute force or closed form, written without
reference to the library's own algorithms: exhaustive pair/triple loops for
relation axioms, all-pairs closure checks for set families, the textbook
aggregate-expenditure-share equilibrium for two-good Cobb-Douglas exchange,
grid search over the budget face for demand, and a first-order-condition
check of demand in any number of dimensions. The sugar critical mass is
found by running the simulator at every ethical count, and retired library
paths stay here as references for the code that replaced them: the
pair-by-pair topology check, the scan-plus-bisection critical mass, the
period-by-period sugar simulation, the sweep that runs the simulator once
per cell, the Walras gap relative to |p||z|, demand by bisection on the
income multiplier, the demand kernel's closed form with its tilted rows
gathered by mask every round, the central-difference Jacobian of excess
demand, and the agent-by-agent loops behind trade volumes and duty spending.
"""

from __future__ import annotations

import itertools

import numpy as np

from dataclasses import replace

from dutybound import economy
from dutybound.economy import ExtendedBundle, UtilityFamily, utility_value
from dutybound.preferences import EPSILON
from dutybound.reporting import CheckReport
from dutybound.scenarios import run_sugar


# ---------------------------------------------------------------- relations

def oracle_reflexive(holds) -> bool:
    n = len(holds)
    return all(holds[i][i] for i in range(n))


def oracle_complete(holds) -> bool:
    n = len(holds)
    for a in range(n):
        for b in range(n):
            if not (holds[a][b] or holds[b][a]):
                return False
    return True


def oracle_transitive(holds) -> bool:
    n = len(holds)
    for a, b, c in itertools.product(range(n), repeat=3):
        if holds[a][b] and holds[b][c] and not holds[a][c]:
            return False
    return True


def oracle_monotone(coords, holds) -> bool:
    n = len(holds)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if all(coords[a][k] >= coords[b][k] for k in range(len(coords[a]))) \
                    and any(coords[a][k] > coords[b][k] for k in range(len(coords[a]))):
                if not holds[a][b]:
                    return False
    return True


# ------------------------------------------------------------- set families

def oracle_family_closed(masks: set[int], full_mask: int):
    """All-pairs closure check. Returns (closed, reason)."""
    if 0 not in masks:
        return False, "missing empty set"
    if full_mask not in masks:
        return False, "missing total set"
    for a in masks:
        for b in masks:
            if (a | b) not in masks:
                return False, f"union {a}|{b} missing"
            if (a & b) not in masks:
                return False, f"intersection {a}&{b} missing"
    return True, ""


def pairwise_topology_check(family, base) -> CheckReport:
    """The topology-axiom check one pair at a time, in itertools.combinations
    order, a pair's union before its intersection: the reference for the
    verdict, witness and count of ``topology.verify_topology_axioms``."""
    checked = 0

    checked += 1
    if 0 not in family.masks:
        return CheckReport("topology-axioms", False, witness={"missing": frozenset()},
                           detail="empty set is not a member", checked=checked)
    checked += 1
    if base.full_mask not in family.masks:
        return CheckReport("topology-axioms", False, witness={"missing": base.ids_of(base.full_mask)},
                           detail="total set is not a member", checked=checked)

    ordered = sorted(family.masks)
    for a, b in itertools.combinations(ordered, 2):
        checked += 1
        union = a | b
        if union not in family.masks:
            return CheckReport(
                "topology-axioms", False,
                witness={"op": "union", "a": base.ids_of(a), "b": base.ids_of(b),
                         "missing": base.ids_of(union)},
                detail=f"union of {set(base.ids_of(a))} and {set(base.ids_of(b))} missing",
                checked=checked)
        checked += 1
        inter = a & b
        if inter not in family.masks:
            return CheckReport(
                "topology-axioms", False,
                witness={"op": "intersection", "a": base.ids_of(a), "b": base.ids_of(b),
                         "missing": base.ids_of(inter)},
                detail=f"intersection of {set(base.ids_of(a))} and {set(base.ids_of(b))} missing",
                checked=checked)

    return CheckReport("topology-axioms", True, checked=checked,
                       detail=f"{len(family)} sets closed under union and intersection")


# ---------------------------------------------------------------- sugar market

def brute_force_critical_mass(config) -> float | None:
    """Smallest surviving share from ``run_sugar`` at every ethical count
    n = 0..N: 0.0 when n = 0 survives, (n - 1/2) / N for the first surviving
    n otherwise (the rounding boundary of round(phi * N)), None if none does.
    Meant for populations of a few hundred."""
    n_total = config.population
    for n in range(n_total + 1):
        if run_sugar(replace(config, phi=n / n_total)).survived:
            return 0.0 if n == 0 else (n - 0.5) / n_total
    return None


def bisection_critical_mass(config, bisect_tol: float, scan_points: int = 21) -> float | None:
    """The critical mass by a coarse scan over phi, then float bisection to
    ``bisect_tol`` inside the first surviving cell (the library's method
    before the exact search)."""
    phis = list(np.linspace(0.0, 1.0, scan_points))
    flags = [run_sugar(replace(config, phi=phi)).survived for phi in phis]
    assert flags == sorted(flags), "survival is not monotone over the scan"
    if not any(flags):
        return None
    first = flags.index(True)
    if first == 0:
        return 0.0
    lo, hi = phis[first - 1], phis[first]
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if run_sugar(replace(config, phi=mid)).survived:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def run_sugar_by_periods(config) -> tuple[list[float], int | None]:
    """The shares and the collapse period of the sugar market, counted and
    checked against the exit rule one period at a time (the library's
    simulation before the two shares and the closed-form exit)."""
    wtp = np.random.default_rng(config.seed).uniform(0.0, config.w_max, size=config.population)
    n_ethical = int(round(config.phi * config.population))
    shares: list[float] = []
    streak = 0
    collapse = None
    for t in range(config.horizon):
        if collapse is not None:
            shares.append(0.0)
            continue
        p_c = config.price_conventional if t < config.shock_period \
            else config.price_conventional_after
        share = int(np.count_nonzero(wtp[:n_ethical] >= config.price_ethical - p_c)) \
            / config.population
        shares.append(share)
        streak = streak + 1 if share < config.viability_threshold else 0
        if streak >= config.exit_consecutive:
            collapse = t
    return shares, collapse


def sweep_by_run_sugar(config, phis, premiums) -> list[tuple[float, float, float, bool]]:
    """The phi x premium sweep as one ``run_sugar`` per cell, each drawing
    the willingness-to-pay vector again (the CLI's loop before
    ``sugar_sweep``)."""
    cells = []
    for phi in phis:
        for premium in premiums:
            report = run_sugar(replace(config, phi=phi,
                                       price_ethical=config.price_conventional + premium))
            cells.append((phi, premium, report.shares[0], report.survived))
    return cells


# ------------------------------------------------------------- equilibrium

def absolute_walras_gap(prices, z) -> float:
    """|p.z| / (1 + |p|.|z|): near a root the denominator is about 1, so this
    measures absolute rounding error and grows with the endowments' unit
    (the library's Walras gap before it was taken relative to income)."""
    p = np.asarray(getattr(prices, "values", prices), dtype=float)
    return abs(float(p @ z)) / (1.0 + float(np.abs(p) @ np.abs(z)))


def trade_volumes_by_loop(economy, allocations) -> dict[str, float]:
    """Gross purchases of each good, one agent at a time (the library's
    ``trade_volumes`` before it was an array expression)."""
    volumes = {}
    for i, g in enumerate(economy.fiber.goods):
        bought = 0.0
        for a in economy.agents:
            bought += max(allocations[a.id].x[i] - a.endowment.get(g, 0.0), 0.0)
        volumes[g] = bought
    return volumes


def duty_spend_by_loop(economy, prices, allocations) -> float:
    """Total spending on duties, one agent at a time (the numerator of the
    library's ``duty_expenditure_share`` before it was an array expression)."""
    p = np.asarray(prices, dtype=float)
    n = economy.fiber.n
    return sum(float(p[n:] @ allocations[a.id].e) for a in economy.agents)


def central_difference_jacobian(z, prices, free, h=1e-6):
    """dz[free] / dp[free] at ``prices`` by central differences, each free
    price bumped by ``h`` relative to itself; ``z`` maps one price vector to
    a vector (the library's Jacobian before it was taken from the demand
    kernel). Its truncation error is of order h^2 relative, where no bump
    crosses a kink."""
    p = np.asarray(prices, dtype=float)
    columns = []
    for j in free:
        up, down = p.copy(), p.copy()
        up[j] += h * p[j]
        down[j] -= h * p[j]
        columns.append((np.asarray(z(up))[free] - np.asarray(z(down))[free]) / (up[j] - down[j]))
    return np.column_stack(columns)


def cd_equilibrium_2good(alpha1, endowments):
    """Closed-form two-good Cobb-Douglas exchange equilibrium.

    ``alpha1[i]`` is agent i's weight on good 1; ``endowments[i] = (w1, w2)``.
    Good 1 is the numeraire. Aggregate expenditure shares clear market 1:

        p2* = sum_i (1 - a_i) w_i1 / sum_i a_i w_i2

    Returns (p2, allocations) with allocations[i] = (x1, x2).
    """
    num = sum((1 - a) * w[0] for a, w in zip(alpha1, endowments))
    den = sum(a * w[1] for a, w in zip(alpha1, endowments))
    p2 = num / den
    allocations = []
    for a, w in zip(alpha1, endowments):
        wealth = w[0] + p2 * w[1]
        allocations.append((a * wealth, (1 - a) * wealth / p2))
    return p2, allocations


def cd_equilibrium_prices(alpha, endowments):
    """Equilibrium prices of a goods-only Cobb-Douglas exchange economy with
    the utility's interior offset, sum_i alpha_i log(x_i + EPSILON).

    ``alpha[k]`` and ``endowments[k]`` are agent k's weights and holdings.
    Agent k spends the share s_ki = alpha_ki / sum_i alpha_ki of p.(w_k + EPSILON)
    on p_i (x_ki + EPSILON), so good i clears when

        sum_k s_ki p.(w_k + EPSILON) = p_i (sum_k w_ki + K EPSILON).

    That is a homogeneous linear system in p. Walras' law makes one equation
    redundant, so the numeraire's row is dropped, p_1 = 1 is fixed and the
    rest is one linear solve.
    """
    alpha = np.asarray(alpha, dtype=float)
    w = np.asarray(endowments, dtype=float)
    shares = alpha / alpha.sum(axis=1, keepdims=True)
    system = shares.T @ (w + EPSILON) - np.diag(w.sum(axis=0) + len(w) * EPSILON)
    rest = np.linalg.solve(system[1:, 1:], -system[1:, 0])
    return np.concatenate([[1.0], rest])


# ------------------------------------------------------------------ demand

def grid_search_demand(agent, prices, fiber, resolution=1e-3):
    """Exhaustive search over the budget face of the duty-feasible set.

    Both utility families are nonsatiated whenever some weight is positive,
    so the optimum spends the whole disposable budget: enumerate all but one
    free coordinate on a grid and let the last one absorb the remainder.
    Supports fibers with at most three dimensions.
    """
    p = np.asarray(prices, dtype=float)
    dims = fiber.n + fiber.l
    if dims > 3:
        raise ValueError("oracle supports at most 3 dimensions")

    forbidden = [d in fiber.forbidden_goods() for d in fiber.dims]
    bounds = fiber.constraints.lower_bounds()
    lb = np.array([0.0 if forbidden[k] else bounds.get(d, 0.0)
                   for k, d in enumerate(fiber.dims)])
    tradable = set(fiber.tradable_goods())
    income = sum(p[i] * agent.endowment.get(g, 0.0)
                 for i, g in enumerate(fiber.goods) if g in tradable)
    w = income - fiber.constraints.prior_claim_total

    free = [k for k in range(dims) if not forbidden[k]]
    last = free[-1]
    scan = free[:-1]

    def evaluate(coords):
        bundle = ExtendedBundle(x=coords[: fiber.n], e=coords[fiber.n:])
        return utility_value(agent.utility, bundle.x, bundle.e, p, fiber,
                             lam=agent.lam, theta=agent.theta)

    best, best_coords = -np.inf, None
    slack = w - float(p @ lb)
    grids = []
    for k in scan:
        hi = lb[k] + slack / p[k]
        count = max(int(round((hi - lb[k]) / resolution)) + 1, 2)
        grids.append(np.linspace(lb[k], hi, count))

    for combo in itertools.product(*grids) if scan else [()]:
        coords = lb.copy()
        for k, v in zip(scan, combo):
            coords[k] = v
        spent = float(p @ coords) - p[last] * lb[last]
        remainder = (w - spent) / p[last]
        if remainder < lb[last] - 1e-12:
            continue
        coords[last] = max(remainder, lb[last])
        value = evaluate(coords)
        if value > best:
            best, best_coords = value, coords.copy()

    return ExtendedBundle(x=best_coords[: fiber.n], e=best_coords[fiber.n:]), best


def bisection_demand_rows(rows, prices) -> np.ndarray:
    """Demand of every packed agent at one feasible price vector, each row
    by geometric bisection on the income multiplier mu (the library's
    multiplier solve before its Newton iteration; it applies to untilted
    rows as well). Every coordinate is

        max(weight_k / (mu p_k - tilt_k) - offset_k, lb_k),

    zero where forbidden, so spending falls in mu; 90 halvings of a
    bracket per row close on the budget. The coordinates are taken at the
    bracket's upper end, which is within budget. The library took the
    midpoint, which put a pure-status row (zero log weight, positive
    premium value) on the overspending side of its jump about half the
    time and then spent 1 more than the budget.
    """
    fiber = rows.fiber
    n = fiber.n
    lb, forbidden, offset, _ = fiber.columns
    p = np.asarray(prices, dtype=float)
    w = rows.endowment @ np.where(forbidden[:n], 0.0, p[:n]) \
        - fiber.constraints.prior_claim_total
    weight = rows.weight
    tilt = np.zeros(weight.shape)
    tilt[:, n:] = rows.theta[:, None] * (p[n:] - rows.p_bar)
    big = (w[:, None] + 1.0) / p + lb  # any value above this overshoots the budget
    unweighted = weight == 0
    # below this denominator a coordinate buys everything (``big``); a
    # zero-weight free coordinate sits at its bound for any positive one,
    # unless the status tilt alone makes it worth buying
    floor = np.where(unweighted, 0.0, 1e-300)

    def coords_at(mu):
        denom = mu[:, None] * p - tilt
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            raw = np.where(denom > floor, weight / np.maximum(denom, 1e-300) - offset, big)
        return np.where(forbidden, 0.0, np.maximum(raw, lb))

    def spend(mu):
        return coords_at(mu) @ p

    # the bounds exhaust the budget exactly: nothing left to allocate
    out = coords_at(np.full(len(w), 1e300))
    rest = w - p @ lb > 0
    # nothing worth buying beyond the bounds: lexicographically smallest point
    lazy = coords_at(np.full(len(w), 1e-300))
    idle = rest & (lazy @ p <= w * (1 + 1e-12) + 1e-12)
    out[idle] = lazy[idle]
    rest &= ~idle
    if not rest.any():
        return out
    w, weight, tilt, big, floor, unweighted = \
        w[rest], weight[rest], tilt[rest], big[rest], floor[rest], unweighted[rest]

    mu_lo, mu_hi = np.ones(len(w)), np.ones(len(w))
    while (low := spend(mu_lo) < w).any():
        mu_lo = np.where(low, mu_lo / 8.0, mu_lo)
    while (high := spend(mu_hi) > w).any():
        mu_hi = np.where(high, mu_hi * 8.0, mu_hi)
    for _ in range(90):
        mid = np.sqrt(mu_lo * mu_hi)
        above = spend(mid) >= w
        lo, hi = np.where(above, mid, mu_lo), np.where(above, mu_hi, mid)
        if (lo == mu_lo).all() and (hi == mu_hi).all():
            break
        mu_lo, mu_hi = lo, hi

    final = coords_at(mu_hi)
    residual = w - final @ p
    # a pure-status coordinate has constant marginal utility: the leftover
    # budget at the jump goes to the best such coordinate
    ratio = np.where(unweighted & (tilt > 0) & ~forbidden, tilt / p, -np.inf)
    best = np.argmax(ratio, axis=1)
    k = np.flatnonzero((residual > 1e-9 * (1 + w)) & (ratio[np.arange(len(w)), best] > 0))
    final[k, best[k]] += residual[k] / p[best[k]]
    out[rest] = final
    return out


def gathered_demand_rows(rows, prices) -> np.ndarray:
    """``demand_rows`` at one feasible price vector or an ``(m, d)`` batch,
    by the kernel's closed form as it stood before its tilted rows were
    taken by agent index: a full-size tilt array, the tilted rows gathered
    by boolean mask, and their quadratic re-solved every round. Rows the
    closed form leaves go to the library's multiplier solve, as they did."""
    fiber = rows.fiber
    n = fiber.n
    lb, forbidden = fiber.columns[:2]
    p = np.asarray(prices, dtype=float)
    if p.ndim == 2:
        p = p[:, None, :]
    # disposable income per (vector, agent), forbidden goods demonetized
    w = (np.einsum("...j,...j->...", rows.endowment, np.where(forbidden[:n], 0.0, p[..., :n]))
         - fiber.constraints.prior_claim_total)
    tilt = None
    if rows.tilted.size:
        tilt = np.zeros(w.shape + lb.shape)
        tilt[..., n:] = rows.theta[:, None] * (p[..., n:] - rows.p_bar)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        coords, todo = _gathered_active_set_rows(fiber, p, w, rows.weight, tilt)
        if todo.any():
            at = np.nonzero(todo)
            coords[todo] = economy._multiplier_rows(
                fiber, np.broadcast_to(p, w.shape + p.shape[-1:])[todo], w[todo],
                rows.weight[at[-1]], tilt[todo])
    return coords


def _gathered_active_set_rows(fiber, p, w, weight, tilt):
    lb, forbidden, offset, _ = fiber.columns
    shape = w.shape + lb.shape
    unsolved = np.zeros(w.shape, dtype=bool)
    rows = None
    if tilt is not None and (tilting := tilt.any(axis=-1)).any():
        p_r, weight_r, tilt_r = (np.broadcast_to(v, shape)[tilting] for v in (p, weight, tilt))
        tilted = tilt_r != 0
        left = ((tilted.sum(axis=-1) > 1)
                | ((tilt_r > 0) & (weight_r == 0)).any(axis=-1)
                | ~(~forbidden & ~tilted & (weight_r > 0)).any(axis=-1))
        unsolved[tilting] = left
        tilting[tilting] = ~left
        if tilting.any():
            rows = tilting
            p_r, weight_r, tilt_r, tilted = (v[~left] for v in (p_r, weight_r, tilt_r, tilted))
    clipped, settle = forbidden, None
    while True:
        total_weight = np.where(clipped, 0.0, weight).sum(axis=-1)
        pool = w + np.where(clipped, -p * lb, p * offset).sum(axis=-1)
        mu = total_weight / pool
        denom = mu[..., None] * p
        if rows is not None:
            clipped_r = clipped if clipped.ndim == 1 else clipped[rows]
            status = tilted & ~clipped_r
            settle = status.any(axis=-1)
            if settle.any():
                a_weight = np.where(clipped_r | status, 0.0, weight_r).sum(axis=-1)
                price, b_weight, t = (np.where(status, v, 0.0).sum(axis=-1)
                                      for v in (p_r, p_r * weight_r, tilt_r))
                root, net = _gathered_larger_root(a_weight, pool[rows], price, b_weight, t)
                mu[rows] = mu_r = np.where(settle, root, mu[rows])
                denom[rows] = np.where(status, net[:, None], mu_r[:, None] * p_r)
        wanted = weight / denom - offset
        violating = ~clipped & (wanted < lb)
        if not violating.any():
            break
        clipped = clipped | violating
    at_bound = clipped | (total_weight <= 0.0)[..., None]
    coords = np.where(at_bound, lb, wanted)
    if settle is not None and settle.any():
        at = rows.copy()
        at[rows] = settle
        rate = np.where(at_bound, 0.0, weight / denom / denom * p * p)
        q, p_at, w_at, rate_at = coords[at], np.broadcast_to(p, shape)[at], w[at], rate[at]
        steep = np.argmax(rate_at, axis=1)
        k = np.flatnonzero(rate_at[np.arange(len(w_at)), steep] > 0)
        q[k, steep[k]] = np.maximum(
            q[k, steep[k]] + (w_at - np.einsum("...j,...j->...", q, p_at))[k] / p_at[k, steep[k]],
            lb[steep[k]])
        coords[at] = q
    return coords, unsolved


def _gathered_larger_root(a_weight, pool, price, b_weight, t):
    u, v = pool * t, a_weight * price
    _, e = np.frexp(np.maximum(np.abs(u), v + b_weight))
    u, v, b = (np.ldexp(x, -e) for x in (u, v, b_weight))
    root = np.sqrt(np.where(u > 0, (u - v) ** 2 + b * (b + 2.0 * (u + v)),
                            (u + v + b) ** 2 - 4.0 * u * v))
    s, s_net = u + v + b, v + b - u
    q, q_net = (np.ldexp(0.5 * (x + np.copysign(root, x)), e) for x in (s, s_net))
    return (np.where(s >= 0, q / (pool * price), a_weight * t / q),
            np.where(s_net >= 0, q_net / pool, -b_weight * t / q_net))


def kkt_residual(agent, prices, fiber, bundle):
    """Largest violation of the first-order conditions of demand at ``bundle``.

    Written from the utility's definition alone,

        U = sum_i alpha_i ln(x_i + eps) + lam sum_j beta_j ln(1 + e_j)
            [+ theta sum_j e_j (p_j - pbar_j) for VEBLEN],

    which is concave, so a bundle is optimal on the duty-feasible budget set
    exactly when (1) it spends the disposable budget (tradable income less
    prior claims), (2) it meets every REQUIRE_MIN bound and holds zero of
    every FORBID good, and (3) marginal utility per unit of money is equal
    across the coordinates above their bounds, and no coordinate at its
    bound has a larger one. Returns the largest relative violation of the
    three; it is zero at the exact optimum. Works in any dimension.

    The common multiplier mu is read off the coordinates whose marginal
    utility is one term. A status-tilted duty's condition is
    lam beta / (1 + e) + tilt = mu p with tilt = theta (p - pbar), and with
    large endowments mu is small: priced below its reference, the log term
    and the tilt are of order one and cancel to mu p; priced above it, the
    log term is what is small. So the condition is checked as the gap
    between the log term and the net price mu p - tilt, relative to the
    larger of the log term and mu p; that is (1 + e)(mu p - tilt) against
    lam beta, relative to lam beta, below the reference, and the marginal
    utility per unit of money against mu above it, neither of which cancels.
    """
    p = np.asarray(prices, dtype=float)
    q = np.concatenate([bundle.x, bundle.e])
    spec = agent.utility
    forbidden = fiber.forbidden_goods()
    bounds = fiber.constraints.lower_bounds()
    income = sum(p[i] * agent.endowment.get(g, 0.0)
                 for i, g in enumerate(fiber.goods) if g not in forbidden)
    w = income - fiber.constraints.prior_claim_total
    violations = [abs(float(p @ q) - w) / (1.0 + abs(w))]

    interior, at_bound, tilted = [], [], []
    for k, d in enumerate(fiber.dims):
        if d in forbidden:
            violations.append(abs(q[k]))
            continue
        lb = bounds.get(d, 0.0)
        violations.append(max(lb - q[k], 0.0))
        tilt = 0.0
        if k < fiber.n:
            log_term = spec.alpha.get(d, 0.0) / (q[k] + EPSILON)
        else:
            log_term = agent.lam * spec.beta.get(d, 0.0) / (1.0 + q[k])
            if spec.family is UtilityFamily.VEBLEN_PRICE_DEPENDENT:
                tilt = agent.theta * (p[k] - spec.reference_premium.get(d, 1.0))
        if q[k] <= lb + 1e-9 * (1.0 + lb):
            at_bound.append((log_term + tilt) / p[k])
        elif tilt:
            tilted.append((log_term, tilt, p[k]))
        else:
            interior.append(log_term / p[k])

    reference = interior or [(log_term + tilt) / pk for log_term, tilt, pk in tilted]
    if reference:
        mu = min(reference)
        violations.append((max(reference) - mu) / abs(mu))
        violations.extend(abs(log_term - (mu * pk - tilt)) / max(log_term, mu * pk)
                          for log_term, tilt, pk in tilted)
        violations.extend(max(r - mu, 0.0) / abs(mu) for r in at_bound)
    return max(violations)
