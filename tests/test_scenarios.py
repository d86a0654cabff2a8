"""Sugar market dynamics, era paths, and the conspicuous-ethics probe."""

from dataclasses import replace

import numpy as np
import pytest

import dutybound.scenarios as scenarios
from dutybound.config import load_packaged_config
from dutybound.economy import Agent, Fiber, UtilityFamily, UtilitySpec
from dutybound.equilibrium import solve_tatonnement
from dutybound.errors import NonMonotoneSurvival
from dutybound.scenarios import (
    SugarMarketConfig,
    estimate_critical_mass,
    increasing_segments,
    run_slavery_eras,
    run_sugar,
    sugar_sweep,
    veblen_demand_curve,
)
from dutybound.transition import GenerationProfile, build_path

from oracles import (
    bisection_critical_mass,
    brute_force_critical_mass,
    grid_search_demand,
    run_sugar_by_periods,
    sweep_by_run_sugar,
)


def random_sugar_config(rng, **overrides) -> SugarMarketConfig:
    """A small sugar market with every field drawn, the shock anywhere from
    the first period to the horizon and exit windows longer than it too."""
    horizon = int(rng.integers(1, 12))
    fields = dict(population=int(rng.choice([1, 2, 7, 60, 500])),
                  phi=float(rng.uniform(0.0, 1.0)), w_max=float(rng.uniform(0.1, 2.0)),
                  price_ethical=float(rng.uniform(0.5, 2.0)),
                  price_conventional=float(rng.uniform(0.5, 1.5)),
                  shock_period=int(rng.integers(0, horizon + 1)),
                  price_conventional_after=float(rng.uniform(0.3, 1.5)),
                  viability_threshold=float(rng.uniform(0.01, 0.9)),
                  exit_consecutive=int(rng.integers(1, 14)), horizon=horizon,
                  seed=int(rng.integers(0, 10_000)))
    return SugarMarketConfig(**{**fields, **overrides})


def hexed(cells):
    return [tuple(v.hex() if isinstance(v, float) else v for v in cell) for cell in cells]


class TestRunSugar:
    def test_no_ethical_consumers_immediate_exit(self):
        config = SugarMarketConfig(phi=0.0)
        report = run_sugar(config)
        assert not report.survived
        assert report.collapse_period == config.exit_consecutive - 1
        assert all(s == 0.0 for s in report.shares)

    def test_all_ethical_zero_premium_survives(self):
        config = SugarMarketConfig(phi=1.0, price_ethical=1.0, price_conventional=1.0,
                                   price_conventional_after=1.0)
        report = run_sugar(config)
        assert report.survived and all(s == 1.0 for s in report.shares)

    def test_default_survives_pre_shock(self):
        report = run_sugar(SugarMarketConfig())
        pre = report.shares[: SugarMarketConfig.shock_period]
        assert all(s >= SugarMarketConfig.viability_threshold for s in pre)
        assert report.survived

    def test_small_share_collapses_after_shock(self):
        config = SugarMarketConfig(phi=0.05)
        report = run_sugar(config)
        assert not report.survived
        assert report.collapse_period is not None
        assert report.collapse_period > config.shock_period

    def test_share_zero_after_exit(self):
        config = SugarMarketConfig(phi=0.05)
        report = run_sugar(config)
        assert all(s == 0.0 for s in report.shares[report.collapse_period + 1:])

    def test_deterministic_given_seed(self):
        a = run_sugar(SugarMarketConfig(seed=5))
        b = run_sugar(SugarMarketConfig(seed=5))
        assert a.shares == b.shares

    def test_share_monotone_in_phi_and_premium(self):
        phis = np.linspace(0.05, 0.95, 10)
        premiums = np.linspace(0.0, 0.9, 10)
        shares = np.empty((10, 10))
        for i, phi in enumerate(phis):
            for j, premium in enumerate(premiums):
                config = SugarMarketConfig(phi=float(phi),
                                           price_ethical=1.0 + float(premium),
                                           price_conventional=1.0, seed=777)
                shares[i, j] = run_sugar(config).shares[0]
        assert np.all(np.diff(shares, axis=0) >= 0)   # nondecreasing in phi
        assert np.all(np.diff(shares, axis=1) <= 0)   # nonincreasing in premium

    @pytest.mark.parametrize("overrides", [
        {}, dict(shock_period=0), dict(exit_consecutive=1), dict(population=1)])
    def test_matches_the_period_by_period_simulation(self, overrides):
        rng = np.random.default_rng(17)
        for _ in range(150):
            config = random_sugar_config(rng, **overrides)
            shares, collapse = run_sugar_by_periods(config)
            report = run_sugar(config)
            assert [s.hex() for s in report.shares] == [s.hex() for s in shares]
            assert (report.collapse_period, report.survived) == (collapse, collapse is None)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SugarMarketConfig(phi=1.5)
        with pytest.raises(ValueError):
            SugarMarketConfig(viability_threshold=0.0)
        with pytest.raises(ValueError):
            SugarMarketConfig(shock_period=50, horizon=40)


class TestSugarSweep:
    @pytest.mark.parametrize("overrides", [
        {}, dict(shock_period=0), dict(exit_consecutive=1), dict(population=1)])
    def test_matches_run_sugar_per_cell(self, overrides):
        """Bit for bit, with premium 0, a negative premium that leaves the
        ethical price positive, and phi at both ends of [0, 1]."""
        rng = np.random.default_rng(29)
        for _ in range(30):
            config = random_sugar_config(rng, **overrides)
            phis = [0.0, *rng.uniform(0.0, 1.0, 4).tolist(), 1.0]
            premiums = [0.0, -0.9 * config.price_conventional,
                        *rng.uniform(-0.5, 1.5, 3).tolist()]
            assert hexed(sugar_sweep(config, phis, premiums)) == \
                hexed(sweep_by_run_sugar(config, phis, premiums))

    def test_draws_once_and_keeps_the_lattice_order(self, monkeypatch):
        draws = []
        draw = scenarios._draw_wtp

        def counted(config):
            draws.append(config)
            return draw(config)

        monkeypatch.setattr(scenarios, "_draw_wtp", counted)
        cells = sugar_sweep(SugarMarketConfig(), [0.2, 0.8], [0.1, 0.3, 0.5])
        assert len(draws) == 1
        assert [(phi, premium) for phi, premium, _, _ in cells] == [
            (0.2, 0.1), (0.2, 0.3), (0.2, 0.5), (0.8, 0.1), (0.8, 0.3), (0.8, 0.5)]

    def test_rejects_a_premium_that_leaves_no_ethical_price(self):
        with pytest.raises(ValueError, match="positive"):
            sugar_sweep(SugarMarketConfig(), [0.5], [-1.0])


class TestCriticalMass:
    def test_zero_premium_threshold_equals_viability(self):
        config = SugarMarketConfig(price_ethical=1.0, price_conventional=1.0,
                                   price_conventional_after=1.0,
                                   viability_threshold=0.25)
        estimate = estimate_critical_mass(config, bisect_tol=0.002)
        # share equals the rounded ethical count, so the threshold is v itself
        assert estimate.phi_star == pytest.approx(0.25, abs=0.003)

    def test_unpayable_premium_has_no_threshold(self):
        config = SugarMarketConfig(price_ethical=3.0, price_conventional=1.0,
                                   price_conventional_after=1.0, w_max=1.0)
        estimate = estimate_critical_mass(config)
        assert estimate.phi_star is None

    def test_reproducible_across_seeds(self):
        stars = []
        for seed in range(10):
            config = SugarMarketConfig(seed=seed)
            stars.append(estimate_critical_mass(config, bisect_tol=0.002).phi_star)
        assert max(stars) - min(stars) <= 0.04
        assert all(abs(s - stars[0]) <= 0.02 for s in stars[1:])

    # small populations, so that the oracle can run the simulator at every n
    SMALL = dict(population=300, price_ethical=1.2, price_conventional=1.0,
                 price_conventional_after=0.6, viability_threshold=0.03)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_oracle_across_seeds(self, seed):
        config = SugarMarketConfig(seed=seed, **self.SMALL)
        want = brute_force_critical_mass(config)
        assert want is not None and want > 0.0
        assert estimate_critical_mass(config).phi_star == want

    @pytest.mark.parametrize("overrides", [
        # an unpayable premium: no share survives
        dict(price_ethical=3.0, price_conventional_after=1.0),
        # fewer periods than the exit window: even n = 0 survives
        dict(horizon=2, shock_period=1, exit_consecutive=3),
        # zero premium, so the share is n / N and v * N = 100 lands exactly
        # on the threshold
        dict(population=400, price_ethical=1.0, price_conventional_after=1.0,
             viability_threshold=0.25),
        # zero premium again, where 0.07 * 100 rounds above 7 but the
        # share 7 / 100 still clears 0.07: an integer ceil would say 8
        dict(population=100, price_ethical=1.0, price_conventional_after=1.0,
             viability_threshold=0.07),
        # the shock raises the conventional price: the pre-shock count,
        # the larger one, sets the answer
        dict(price_conventional_after=1.1),
        # the same, but the pre-shock window is shorter than the exit
        # window: only post-shock viability matters
        dict(shock_period=2, exit_consecutive=3, price_conventional_after=1.1),
        # a shock in the first period
        dict(shock_period=0, price_conventional_after=0.9),
    ])
    def test_edge_cases_match_brute_force_oracle(self, overrides):
        config = SugarMarketConfig(**{**self.SMALL, "seed": 3, **overrides})
        assert estimate_critical_mass(config).phi_star == brute_force_critical_mass(config)

    def test_edge_case_values(self):
        short = SugarMarketConfig(**{**self.SMALL, "horizon": 2, "shock_period": 1})
        assert estimate_critical_mass(short).phi_star == 0.0
        on_threshold = SugarMarketConfig(population=400, price_ethical=1.0,
                                         price_conventional=1.0,
                                         price_conventional_after=1.0,
                                         viability_threshold=0.25)
        assert estimate_critical_mass(on_threshold).phi_star == (100 - 0.5) / 400
        float_share = replace(on_threshold, population=100, viability_threshold=0.07)
        assert 0.07 * 100 > 7 and 7 / 100 >= 0.07
        assert estimate_critical_mass(float_share).phi_star == (7 - 0.5) / 100

    def test_collapse_only_after_the_shock(self):
        """Just below the critical mass the share clears the threshold before
        the shock and collapses after it, so the answer is set by the
        post-shock premium."""
        config = SugarMarketConfig(seed=4, **self.SMALL)
        phi_star = estimate_critical_mass(config).phi_star
        below = run_sugar(replace(config, phi=phi_star - 0.5 / config.population))
        assert not below.survived
        assert below.collapse_period >= config.shock_period
        assert all(s >= config.viability_threshold
                   for s in below.shares[: config.shock_period])

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_scan_and_bisection(self, seed):
        config = SugarMarketConfig(seed=seed)
        phi_star = estimate_critical_mass(config, bisect_tol=0.002).phi_star
        assert abs(phi_star - bisection_critical_mass(config, 0.002)) <= 0.002

    def test_non_monotone_survival_raised(self, monkeypatch):
        """run_sugar is asked at n* / N, then at (n* - 1) / N, or at phi = 1
        when no count survives; a fake that disagrees at any of them raises."""
        config = SugarMarketConfig()
        unpayable = SugarMarketConfig(price_ethical=3.0)
        n = config.population
        n_star = round(estimate_critical_mass(config).phi_star * n + 0.5)
        cases = [
            # survives only on a middle band of phi: collapses at n* / N
            (config, lambda phi: 0.3 <= phi <= 0.6, n_star / n, False),
            # survives everywhere: also just below n*, and at phi = 1 when
            # the premium is unpayable
            (config, lambda phi: True, (n_star - 1) / n, True),
            (unpayable, lambda phi: True, 1.0, True),
        ]
        for cfg, survives, phi, survived in cases:
            monkeypatch.setattr(scenarios, "run_sugar", lambda c, survives=survives:
                                scenarios.ScenarioReport(shares=[], survived=survives(c.phi)))
            with pytest.raises(NonMonotoneSurvival) as err:
                estimate_critical_mass(cfg)
            assert (err.value.phi, err.value.survived) == (phi, survived)


class TestSlaveryEras:
    def test_canonical_config_structure(self):
        cfg = load_packaged_config("slavery")
        records = run_slavery_eras(cfg.template, cfg.path, cfg.profile)
        assert [rec.y_id for rec in records] == ["y1", "y2", "y3"]
        assert records[0].volumes["slave_sugar"] > 0
        assert records[2].volumes["slave_sugar"] == 0.0
        for bundle in records[2].result.allocations.values():
            assert bundle.x[1] == 0.0

    def test_single_era_reduces_to_plain_solve(self):
        cfg = load_packaged_config("slavery")
        template = cfg.template
        path = build_path([[0, "y1"]], template.base)
        records = run_slavery_eras(template, path, GenerationProfile(lambdas=(0.1,)))
        direct = solve_tatonnement(
            template.economy_at("y1", [replace(a, lam=0.1) for a in template.agents]),
            tol=template.solver_tol, max_iter=template.solver_max_iter)
        assert np.allclose(records[0].result.prices.values, direct.prices.values)

    def test_constraint_ablation_lambda_constant(self):
        """Holding lambda fixed isolates the constraint channel: the y3
        prohibition still zeroes the tainted good while the duty share
        moves only through constraints and carried endowments."""
        cfg = load_packaged_config("slavery")
        template = cfg.template
        lam = 0.6
        records = run_slavery_eras(template, cfg.path,
                                   GenerationProfile(lambdas=(lam, lam, lam)))
        paired = run_slavery_eras(template, cfg.path, cfg.profile)
        assert records[2].volumes["slave_sugar"] == 0.0
        # the rising-lambda run spends weakly more on duties at the final era
        assert paired[2].duty_share >= records[2].duty_share - 1e-12


class TestVeblenProbe:
    def make_fiber(self):
        return Fiber(y_id="y", goods=("staple",), duties=("eco",))

    def cd_agent(self, rng):
        spec = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                           alpha={"staple": float(rng.uniform(0.3, 1.5))},
                           beta={"eco": float(rng.uniform(0.2, 1.5))})
        return Agent(id="c", endowment={"staple": float(rng.uniform(2.0, 12.0))},
                     utility=spec, lam=float(rng.uniform(0.2, 2.0)))

    def test_theta_zero_never_slopes_upward(self):
        rng = np.random.default_rng(123)
        sweep = np.linspace(0.4, 3.0, 14)
        fiber = self.make_fiber()
        for _ in range(100):
            curve = veblen_demand_curve(self.cd_agent(rng), fiber, "eco", sweep)
            assert curve.increasing_segments == []

    def test_high_theta_upward_segment_confirmed_by_oracle(self):
        fiber = self.make_fiber()
        spec = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                           alpha={"staple": 1.0}, beta={"eco": 1.0},
                           reference_premium={"eco": 1.0})
        agent = Agent(id="v", endowment={"staple": 10.0}, utility=spec,
                      lam=1.0, theta=2.0)
        sweep = np.linspace(0.5, 3.0, 26)
        curve = veblen_demand_curve(agent, fiber, "eco", sweep)
        assert curve.has_increasing_segment()
        lo, hi = curve.increasing_segments[0]
        grid = [p for p in sweep if lo <= p <= hi]
        oracle_q = []
        for p_e in grid:
            bundle, _ = grid_search_demand(agent, np.array([1.0, p_e]), fiber,
                                           resolution=1e-3)
            oracle_q.append(bundle.e[0])
        assert increasing_segments(grid, oracle_q, rtol=1e-4)

    def test_reference_price_sweep_matches_theta_zero(self):
        """When the swept price never leaves the reference, the status term
        vanishes and the curve coincides with the plain one."""
        fiber = self.make_fiber()
        veblen = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                             alpha={"staple": 1.0}, beta={"eco": 1.0},
                             reference_premium={"eco": 1.3})
        plain = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                            alpha={"staple": 1.0}, beta={"eco": 1.0})
        sweep = [1.3]
        a_veblen = Agent(id="v", endowment={"staple": 8.0}, utility=veblen,
                         lam=1.0, theta=3.0)
        a_plain = Agent(id="p", endowment={"staple": 8.0}, utility=plain, lam=1.0)
        q_veblen = veblen_demand_curve(a_veblen, fiber, "eco", sweep).quantities
        q_plain = veblen_demand_curve(a_plain, fiber, "eco", sweep).quantities
        assert q_veblen == pytest.approx(q_plain, abs=1e-9)

    def test_unknown_duty_rejected(self):
        with pytest.raises(ValueError):
            veblen_demand_curve(self.cd_agent(np.random.default_rng(0)),
                                self.make_fiber(), "ghost", [1.0])
