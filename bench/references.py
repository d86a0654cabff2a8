"""Independent correctness references for the benchmark.

Nothing here calls a dutybound algorithm. Each reference is a closed form or
a direct count computed from the generated inputs, so a fast path that
changes an answer shows up as a mismatch rather than agreeing with itself.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Interior offset of the log-additive utility, log(x + EPSILON); it enters
# the Cobb-Douglas spending identity exactly, so the reference carries it too.
EPSILON = 1e-9
PRICE_RTOL = 1e-6       # solved prices against the null-vector reference
WALRAS_GAP_MAX = 1e-10  # relative violation of Walras' law


def cobb_douglas_prices(alpha: np.ndarray, endowments: np.ndarray) -> np.ndarray:
    """Equilibrium prices of a goods-only Cobb-Douglas exchange economy.

    Agent k spends the share a_ki = alpha_ki / sum_i alpha_ki of its wealth
    p.(w_k + eps) on good i, so market clearing is the linear system
    (A^T (W + eps) - diag(sum W + N eps)) p = 0. Its null vector, normalized
    so the first good is the numeraire, is the equilibrium price vector.
    """
    shares = alpha / alpha.sum(axis=1, keepdims=True)
    n_agents = endowments.shape[0]
    system = shares.T @ (endowments + EPSILON) \
        - np.diag(endowments.sum(axis=0) + n_agents * EPSILON)
    _, _, vt = np.linalg.svd(system)
    null = vt[-1]
    return null / null[0]


def walras_gap(prices, goods: np.ndarray, duties: np.ndarray, endowments: np.ndarray,
               tradable: np.ndarray, prior_claim: float) -> float:
    """Relative violation of Walras' law at a solver's answer.

    ``goods`` and ``duties`` hold each agent's allocated quantities, one row
    per agent; ``prices`` lists the goods' prices, then the duties'. Every
    agent spends its whole disposable income: the value of its endowment of
    tradable goods (a forbidden good has no market) less the regime's prior
    claim. Summed over agents, spending minus income is p.z, so the gap is
    |total spending - total income| / (1 + total income).
    """
    p = np.asarray(prices, dtype=float)
    n = endowments.shape[1]
    spending = float(np.sum(goods @ p[:n]) + np.sum(duties @ p[n:]))
    income = float(np.sum(endowments[:, tradable] @ p[:n][tradable])) \
        - prior_claim * endowments.shape[0]
    return abs(spending - income) / (1.0 + abs(income))


def price_error(prices, reference: np.ndarray) -> float:
    """Largest relative deviation of solved prices from the reference."""
    return float(np.max(np.abs(np.asarray(prices, dtype=float) / reference - 1.0)))


def exact_critical_mass(population: int, seed: int, w_max: float, price_ethical: float,
                        price_conventional: float, price_conventional_after: float,
                        shock_period: int, horizon: int, threshold: float,
                        exit_consecutive: int) -> float | None:
    """Smallest ethical share that survives, from prefix counts of the draws.

    The share in a period is the count of the first n_ethical
    willingness-to-pay draws at or above that period's premium, over the
    population. There are two premiums (before and after the tariff shock),
    so survival for every n follows from two prefix-count arrays and the exit
    rule. The share parameter maps to n_ethical = round(phi * N), so the
    threshold in phi is (n* - 1/2) / N, or 0 when n* = 0.
    """
    wtp = np.random.default_rng(seed).uniform(0.0, w_max, size=population)
    premiums = (price_ethical - price_conventional,
                price_ethical - price_conventional_after)
    # viable[k][n]: the share with n ethical consumers clears the threshold
    viable = []
    for premium in premiums:
        counts = np.concatenate([[0], np.cumsum(wtp >= premium)])
        viable.append(counts / population >= threshold)
    schedule = [0 if t < shock_period else 1 for t in range(horizon)]

    def survives(flags: tuple[bool, bool]) -> bool:
        streak = 0
        for k in schedule:
            streak = 0 if flags[k] else streak + 1
            if streak >= exit_consecutive:
                return False
        return True

    alive = np.zeros(population + 1, dtype=bool)
    for a in (False, True):
        for b in (False, True):
            if survives((a, b)):
                alive |= (viable[0] == a) & (viable[1] == b)
    if not alive.any():
        return None
    # prefix counts grow with n, so survival is monotone and the first
    # surviving count is the threshold
    n_star = int(np.argmax(alive))
    return 0.0 if n_star == 0 else (n_star - 0.5) / population


def discrete_topology_checks(m: int) -> tuple[int, int]:
    """(open-set count, pairwise checks) for the power set of m points:
    the empty and total sets plus a union and an intersection per pair."""
    sets = 2 ** m
    return sets, 2 + 2 * math.comb(sets, 2)


def read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))
