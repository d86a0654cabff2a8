"""Packaged experiments: the ethical sugar market, the three-era path with a
forbidden good, and the conspicuous-ethics demand probe.

The sugar market is share-based rather than equilibrium-based: prices are
exogenous (with a tariff shock that cheapens the conventional variant) and
the question is whether the ethical variant's market share stays above the
producer's viability threshold. The ethical-consumer count is deterministic
in the share parameter (round(phi * N)); only willingness-to-pay draws use
the seed. A period's share is the count of the first n_ethical draws at or
above one of two premiums (before and after the shock), over N, so survival
changes only where one of the two prefix counts first clears the threshold.
The critical mass is therefore exact: the smallest surviving n_ethical is
0 or one of those two counts, and ``run_sugar`` confirms it on every call.
The draws do not depend on phi or the prices, so a sweep draws them once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .economy import Agent, Fiber, _is_price, demand
from .errors import NonMonotoneSurvival
from .transition import BasePath, EconomyTemplate, GenerationProfile, TraceRecord, run_path


@dataclass(frozen=True)
class SugarMarketConfig:
    population: int = 4000
    phi: float = 0.73                     # ethical-consumer share of the population
    w_max: float = 1.0                    # WtP premium is uniform on [0, w_max]
    price_ethical: float = 1.2
    price_conventional: float = 1.0
    shock_period: int = 20                # tariff shock: conventional price drops
    price_conventional_after: float = 0.6
    viability_threshold: float = 0.03     # exit if share stays below this
    exit_consecutive: int = 3
    horizon: int = 40
    seed: int = 12345

    def __post_init__(self):
        if not 0 <= self.phi <= 1:
            raise ValueError(f"phi must lie in [0, 1], got {self.phi}")
        if not all(_is_price(p) for p in (self.price_ethical, self.price_conventional,
                                          self.price_conventional_after)):
            raise ValueError("prices must be positive and finite")
        if not 0 < self.viability_threshold < 1:
            raise ValueError("viability threshold must lie strictly between 0 and 1")
        if self.shock_period > self.horizon:
            raise ValueError("the shock must land within the horizon")
        if self.population < 1 or self.horizon < 1 or self.exit_consecutive < 1:
            raise ValueError("population, horizon, and exit window must be positive")
        if self.w_max < 0:
            raise ValueError(f"w_max must not be negative, got {self.w_max}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


@dataclass
class ScenarioReport:
    shares: list[float]
    survived: bool
    collapse_period: int | None = None


def _draw_wtp(config: SugarMarketConfig) -> np.ndarray:
    """Each consumer's willingness-to-pay premium, in population order."""
    return np.random.default_rng(config.seed).uniform(0.0, config.w_max, size=config.population)


def _shares(config: SugarMarketConfig, wtp: np.ndarray) -> tuple[float, float]:
    """The ethical share before and after the shock: the first n_ethical
    draws whose premium covers the price gap, over the population."""
    n_ethical = int(round(config.phi * config.population))
    share_pre, share_post = (
        int(np.count_nonzero(wtp[:n_ethical] >= config.price_ethical - p_c)) / config.population
        for p_c in (config.price_conventional, config.price_conventional_after))
    return share_pre, share_post


def _collapse_period(config: SugarMarketConfig, viable_pre: bool,
                     viable_post: bool) -> int | None:
    """The period the variant exits in, None when it survives the horizon.

    It exits once its share has sat below the viability threshold for
    ``exit_consecutive`` periods in a row. The unviable periods form one run:
    the pre-shock periods, the post-shock ones, or both, so the exit falls
    ``exit_consecutive - 1`` periods after the run starts, if the run lasts.
    """
    start = config.shock_period if viable_pre else 0
    end = config.shock_period if viable_post else config.horizon
    collapse = start + config.exit_consecutive - 1
    return collapse if collapse < end else None


def _outcome(config: SugarMarketConfig, wtp: np.ndarray) -> tuple[float, float, int | None]:
    """Both shares and the collapse period, on the draws ``wtp``."""
    share_pre, share_post = _shares(config, wtp)
    threshold = config.viability_threshold
    return share_pre, share_post, _collapse_period(config, share_pre >= threshold,
                                                   share_post >= threshold)


def run_sugar(config: SugarMarketConfig) -> ScenarioReport:
    """The ethical variant's market share in each period of the horizon.

    A consumer buys ethical iff flagged ethical and its WtP premium covers
    the current price gap. The variant exits once its share sits below the
    viability threshold for the configured number of consecutive periods;
    after exit the share is identically zero. Deterministic given the seed.
    """
    share_pre, share_post, collapse = _outcome(config, _draw_wtp(config))
    active = config.horizon if collapse is None else collapse + 1
    shares = [share_pre if t < config.shock_period else share_post for t in range(active)]
    shares += [0.0] * (config.horizon - active)
    return ScenarioReport(shares=shares, survived=collapse is None,
                          collapse_period=collapse)


def sugar_sweep(config: SugarMarketConfig, phis: Sequence[float],
                premiums: Sequence[float]) -> list[tuple[float, float, float, bool]]:
    """``(phi, premium, period-0 share, survived)`` for every cell of the
    lattice, phis outermost: ``run_sugar`` at that phi with the ethical
    price set ``premium`` above the conventional one, on one draw of the
    willingness-to-pay vector, which no cell changes."""
    wtp = _draw_wtp(config)
    cells = []
    for phi in phis:
        for premium in premiums:
            cell = replace(config, phi=phi, price_ethical=config.price_conventional + premium)
            share_pre, share_post, collapse = _outcome(cell, wtp)
            first = share_post if cell.shock_period == 0 else share_pre
            cells.append((phi, premium, first, collapse is None))
    return cells


@dataclass
class CriticalMassResult:
    phi_star: float | None
    bisect_tol: float


def _first_viable_count(wtp: np.ndarray, premium: float, population: int,
                        threshold: float) -> int | None:
    """Smallest n whose first n draws hold enough buyers at ``premium`` for
    the share to clear ``threshold``; None when not even n = N does.

    The share is compared in floating point exactly as ``_shares`` computes
    it. The prefix count grows with n, so the comparison is a step in n and
    a bisection over n finds it.
    """
    buys = wtp >= premium

    def clears(n: int) -> bool:
        return int(np.count_nonzero(buys[:n])) / population >= threshold

    if not clears(population):
        return None
    return bisect.bisect_left(range(population + 1), True, key=clears)


def _smallest_surviving_count(config: SugarMarketConfig) -> int | None:
    """The smallest n_ethical under which the variant survives, or None.

    Viability before and after the shock switches on at one count each, so
    survival is constant between 0 and those two counts and the answer is
    the first of the three that survives.
    """
    wtp = _draw_wtp(config)
    firsts = [_first_viable_count(wtp, config.price_ethical - p_c, config.population,
                                  config.viability_threshold)
              for p_c in (config.price_conventional, config.price_conventional_after)]
    for n in sorted({0, *(f for f in firsts if f is not None)}):
        pre, post = (f is not None and n >= f for f in firsts)
        if _collapse_period(config, pre, post) is None:
            return n
    return None


def estimate_critical_mass(config: SugarMarketConfig,
                           bisect_tol: float = 0.005) -> CriticalMassResult:
    """Locate the smallest ethical share under which the variant survives.

    The answer is exact, so it lies within any ``bisect_tol``. With n* the
    smallest surviving ethical count, ``phi_star`` is 0.0 when n* = 0 and
    (n* - 1/2) / N otherwise: the boundary of round(phi * N) between n* - 1
    and n*. It is None when not even n = N survives.

    ``run_sugar`` stays the definition of survival: it is run at n* / N,
    which must survive, and at (n* - 1) / N, which must collapse (at phi = 1,
    which must collapse, when there is no n*). A disagreement raises
    NonMonotoneSurvival.
    """
    n_star = _smallest_surviving_count(config)
    population = config.population
    if n_star is None:
        probes, phi_star = [(1.0, False)], None
    elif n_star == 0:
        probes, phi_star = [(0.0, True)], 0.0
    else:
        probes = [(n_star / population, True), ((n_star - 1) / population, False)]
        phi_star = (n_star - 0.5) / population
    for phi, expected in probes:
        survived = run_sugar(replace(config, phi=phi)).survived
        if survived != expected:
            raise NonMonotoneSurvival(phi, survived)
    return CriticalMassResult(phi_star=phi_star, bisect_tol=bisect_tol)


def run_slavery_eras(template: EconomyTemplate, path: BasePath,
                     profile: GenerationProfile) -> list[TraceRecord]:
    """Solve the era path (acceptance-to-prohibition) for a forbidden good.

    Thin wrapper over the generic path runner; all postconditions are
    inherited. The canonical configuration ships with the package: three
    eras, no constraint on the tainted good in the first, a required minimum
    of the rights duty in the second, prohibition in the third, with the
    duty weight rising across eras.
    """
    return run_path(template, path, profile)


@dataclass
class VeblenCurve:
    duty_id: str
    prices: list[float]
    quantities: list[float]
    increasing_segments: list[tuple[float, float]]

    def has_increasing_segment(self) -> bool:
        return bool(self.increasing_segments)


def increasing_segments(prices: Sequence[float], quantities: Sequence[float],
                        rtol: float = 1e-7) -> list[tuple[float, float]]:
    """Maximal price intervals where quantity strictly increases in price."""
    segments = []
    start: int | None = None
    for i in range(len(prices) - 1):
        rising = quantities[i + 1] - quantities[i] > rtol * (1.0 + abs(quantities[i]))
        if rising and start is None:
            start = i
        if not rising and start is not None:
            segments.append((prices[start], prices[i]))
            start = None
    if start is not None:
        segments.append((prices[start], prices[-1]))
    return segments


def veblen_demand_curve(agent: Agent, fiber: Fiber, duty_id: str,
                        sweep: Sequence[float],
                        base_prices: Sequence[float] | None = None) -> VeblenCurve:
    """Demand for one duty across a sweep of its own price, all else fixed.

    Reports every maximal strictly-increasing interval: with the status
    weight at zero the curve is never upward sloping, so a detected segment
    is the conspicuous-ethics signature. A swept price that is not positive
    and finite is refused by ``demand``, which names the duty.
    """
    if duty_id not in fiber.duties:
        raise ValueError(f"{duty_id!r} is not a duty dimension of fiber {fiber.y_id!r}")
    j = fiber.n + fiber.duties.index(duty_id)
    base = (np.ones(fiber.n + fiber.l) if base_prices is None
            else np.asarray(base_prices, dtype=float).copy())

    prices, quantities = [], []
    for p_e in sweep:
        p = base.copy()
        p[j] = p_e
        bundle = demand(agent, p, fiber)
        prices.append(float(p_e))
        quantities.append(float(bundle.e[j - fiber.n]))

    return VeblenCurve(duty_id=duty_id, prices=prices, quantities=quantities,
                       increasing_segments=increasing_segments(prices, quantities))
