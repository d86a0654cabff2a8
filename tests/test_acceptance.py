"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

import dutybound as db
from dutybound.cli import main
from dutybound.config import load_packaged_config, packaged_config_path
from dutybound.errors import NotTransitive
from dutybound.preferences import ChoiceGrid, PreferenceRelation

from oracles import (
    absolute_walras_gap,
    cd_equilibrium_2good,
    grid_search_demand,
    oracle_complete,
    oracle_family_closed,
    oracle_monotone,
    oracle_reflexive,
    oracle_transitive,
)


@contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2}: FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:>2}: PASS  {label} "
          f"({time.perf_counter() - started:.2f}s)")


def base_of(m):
    return db.BaseSpace(points=tuple(f"y{i + 1}" for i in range(m)))


def cd_agent(name, alpha1, w1, w2):
    spec = db.UtilitySpec(family=db.UtilityFamily.COBB_DOUGLAS_EXTENDED,
                          alpha={"g1": alpha1, "g2": 1.0 - alpha1})
    return db.Agent(id=name, endowment={"g1": w1, "g2": w2}, utility=spec)


def two_good_economy(agents):
    return db.FiberEconomy(fiber=db.Fiber(y_id="y", goods=("g1", "g2"), duties=()),
                           agents=tuple(agents))


def test_criterion_1_topology_suite():
    with criterion(1, "discrete topology exact, axioms and continuity pass, m=1..4"):
        for m in (1, 2, 3, 4):
            base = base_of(m)
            family = db.discrete_topology(base)
            assert len(family.masks) == 2 ** m
            assert db.verify_topology_axioms(family, base).passed
            report = db.projection_continuous(base, family)
            assert report.passed and report.checked == 2 ** m


def test_criterion_2_topology_negative_controls():
    with criterion(2, "50 violating sub-families per m failed with valid witnesses"):
        for m in (1, 2, 3, 4):
            base = base_of(m)
            power = set(range(1 << m))
            rng = np.random.default_rng(100 + m)
            produced = 0
            while produced < 50:
                size = int(rng.integers(0, len(power)))  # proper subset
                masks = set(rng.choice(sorted(power), size=size,
                                       replace=False).tolist())
                closed, _ = oracle_family_closed(masks, base.full_mask)
                if closed:
                    continue
                produced += 1
                family = db.OpenFamily(base=base, masks=frozenset(masks))
                report = db.verify_topology_axioms(family, base)
                assert not report.passed
                witness = report.witness
                missing_mask = base.mask_of(witness["missing"])
                assert missing_mask not in family.masks
                if "op" in witness:
                    a = base.mask_of(witness["a"])
                    b = base.mask_of(witness["b"])
                    assert a in family.masks and b in family.masks
                    expected = a | b if witness["op"] == "union" else a & b
                    assert expected == missing_mask


def test_criterion_3_ordinal_representation_round_trip():
    with criterion(3, "1000 rational relations round-trip; 200 planted cycles rejected"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            grid = ChoiceGrid(coords=np.arange(n, dtype=float).reshape(-1, 1))
            values = rng.integers(0, max(2, n // 3), size=n).astype(float)
            rel = db.induced_relation(values, grid)
            ranks = db.construct_ordinal_utility(rel).ranks
            assert np.array_equal(db.induced_relation(ranks, grid).holds, rel.holds)
        for _ in range(200):
            n = int(rng.integers(3, 120))
            grid = ChoiceGrid(coords=np.arange(n, dtype=float).reshape(-1, 1))
            values = rng.integers(0, max(2, n // 3), size=n).astype(float)
            holds = db.induced_relation(values, grid).holds.copy()
            a, b, c = rng.choice(n, size=3, replace=False)
            holds[a, b], holds[b, a] = True, False
            holds[b, c], holds[c, b] = True, False
            holds[c, a], holds[a, c] = True, False
            rel = PreferenceRelation(grid=grid, holds=holds)
            with pytest.raises(NotTransitive) as err:
                db.construct_ordinal_utility(rel)
            wa, wb, wc = err.value.witness
            assert holds[wa, wb] and holds[wb, wc] and not holds[wa, wc]


def test_criterion_4_axiom_checkers_match_oracles():
    with criterion(4, "checker verdicts match brute-force oracles, sizes 5/10/25/50"):
        for size in (5, 10, 25, 50):
            rng = np.random.default_rng(size * 7)
            for trial in range(100):
                coords = rng.uniform(0, 4, size=(size, 2))
                coords = coords + np.arange(size)[:, None] * 1e-9  # ensure unique
                grid = ChoiceGrid(coords=coords)
                if trial % 2 == 0:
                    holds = rng.random((size, size)) < rng.uniform(0.5, 0.95)
                else:
                    holds = db.induced_relation(
                        rng.integers(0, 5, size=size).astype(float), grid).holds
                rel = PreferenceRelation(grid=grid, holds=holds)
                h = holds.tolist()
                assert db.check_reflexive(rel).passed == oracle_reflexive(h)
                assert db.check_complete(rel).passed == oracle_complete(h)
                assert db.check_transitive(rel).passed == oracle_transitive(h)
                assert db.check_monotone(rel).passed == oracle_monotone(
                    coords.tolist(), h)


def test_criterion_5_equilibrium_exactness():
    with criterion(5, "symmetric CD exact; 10 asymmetric instances match closed form"):
        symmetric = two_good_economy([cd_agent("A", 0.5, 1.0, 0.0),
                                      cd_agent("B", 0.5, 0.0, 1.0)])
        result = db.solve_tatonnement(symmetric, p0=np.array([1.0, 1.5]), tol=1e-12)
        assert result.converged
        assert abs(result.prices.values[1] / result.prices.values[0] - 1.0) <= 1e-8
        for bundle in result.allocations.values():
            assert np.all(np.abs(bundle.x - 0.5) <= 1e-6)

        rng = np.random.default_rng(55)
        for _ in range(10):
            alpha1 = rng.uniform(0.2, 0.8, size=2)
            endow = rng.uniform(0.3, 2.5, size=(2, 2))
            economy = two_good_economy([
                cd_agent("A", float(alpha1[0]), float(endow[0, 0]), float(endow[0, 1])),
                cd_agent("B", float(alpha1[1]), float(endow[1, 0]), float(endow[1, 1]))])
            p2_star, alloc = cd_equilibrium_2good(alpha1, endow)
            result = db.solve_tatonnement(economy, tol=1e-12)
            assert result.converged
            assert abs(result.prices.values[1] - p2_star) <= 1e-6
            assert np.all(np.abs(result.allocations["A"].x - alloc[0]) <= 1e-6)
            assert np.all(np.abs(result.allocations["B"].x - alloc[1]) <= 1e-6)


def _walras_test_economies():
    yield two_good_economy([cd_agent("A", 0.5, 1.0, 0.0), cd_agent("B", 0.5, 0.0, 1.0)])
    yield two_good_economy([cd_agent("A", 0.25, 2.0, 0.3), cd_agent("B", 0.8, 0.2, 1.4)])
    reg = db.load_registry({
        "goods": ["g1", "g2"], "imperfect_duties": ["d1"],
        "maxims": {
            "d1": {"class": "imperfect"},
            "debt": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 0.4},
            "min_d1": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "d1",
                       "level": 0.1},
        },
        "bundles": {"y": {"label": "duties", "active": ["debt", "min_d1"]}}})
    fiber = db.Fiber(y_id="y", goods=("g1", "g2"), duties=("d1",),
                     constraints=db.compile_constraints(reg.bundles["y"], reg))
    spec = db.UtilitySpec(family=db.UtilityFamily.COBB_DOUGLAS_EXTENDED,
                          alpha={"g1": 0.5, "g2": 0.5}, beta={"d1": 1.0})
    yield db.FiberEconomy(
        fiber=fiber,
        agents=(db.Agent(id="A", endowment={"g1": 2.5, "g2": 0.8}, utility=spec, lam=1.2),
                db.Agent(id="B", endowment={"g1": 0.7, "g2": 2.2}, utility=spec, lam=0.4)),
        duty_prices={"d1": 1.0})


def test_criterion_6_walras_law_and_homogeneity(monkeypatch):
    with criterion(6, "|p.z| <= 1e-10 relative at every iterate; z is 0-homogeneous"):
        # the gap relative to |p||z| is recorded next to the solver's own,
        # relative to income: both hold on every iterate of these economies
        absolute = []
        relative_to_income = db.equilibrium.walras_gap

        def record_both(p, z, income):
            absolute.append(absolute_walras_gap(p, z))
            return relative_to_income(p, z, income)

        monkeypatch.setattr(db.equilibrium, "walras_gap", record_both)
        for economy in _walras_test_economies():
            absolute.clear()
            result = db.solve_tatonnement(economy, p0=None)
            assert result.diagnostics
            assert max(result.walras_gaps()) <= 1e-10
            assert len(absolute) == len(result.diagnostics)
            assert max(absolute) <= 1e-10
        claim_free = two_good_economy([cd_agent("A", 0.35, 1.2, 0.4),
                                       cd_agent("B", 0.65, 0.4, 1.6)])
        p = claim_free.initial_prices()
        p[1] = 1.37
        z = db.excess_demand(claim_free, p)
        for k in (0.5, 2.0, 10.0):
            assert np.allclose(db.excess_demand(claim_free, k * p), z, rtol=1e-9, atol=1e-12)


def test_criterion_7_duty_constraint_suite():
    with criterion(7, "FORBID zeroes trade; duties never raise utility; debt repaid"):
        # FORBID: demand and trade volume exactly zero
        reg = db.load_registry({
            "goods": ["grain", "slave_sugar"], "imperfect_duties": [],
            "maxims": {"ban": {"class": "perfect", "kind": "FORBID",
                               "target": "slave_sugar"}},
            "bundles": {"y": {"label": "ban", "active": ["ban"]}}})
        fiber = db.Fiber(y_id="y", goods=("grain", "slave_sugar"), duties=(),
                         constraints=db.compile_constraints(reg.bundles["y"], reg))
        spec = db.UtilitySpec(family=db.UtilityFamily.COBB_DOUGLAS_EXTENDED,
                              alpha={"grain": 0.6, "slave_sugar": 0.4})
        economy = db.FiberEconomy(
            fiber=fiber,
            agents=(db.Agent(id="A", endowment={"grain": 1.0, "slave_sugar": 2.0},
                             utility=spec),
                    db.Agent(id="B", endowment={"grain": 2.0, "slave_sugar": 0.3},
                             utility=spec)))
        result = db.solve_tatonnement(economy)
        assert result.converged
        assert db.trade_volumes(economy, result.allocations)["slave_sugar"] == 0.0
        for bundle in result.allocations.values():
            assert bundle.x[1] == 0.0

        # adding any perfect duty never increases achieved utility
        rng = np.random.default_rng(77)
        for _ in range(100):
            goods, duties = ("g1", "g2"), ("d1",)
            spec = db.UtilitySpec(
                family=db.UtilityFamily.COBB_DOUGLAS_EXTENDED,
                alpha={"g1": float(rng.uniform(0.2, 1.0)),
                       "g2": float(rng.uniform(0.2, 1.0))},
                beta={"d1": float(rng.uniform(0.2, 1.0))})
            agent = db.Agent(id="a",
                             endowment={g: float(rng.uniform(0.5, 3.0)) for g in goods},
                             utility=spec, lam=float(rng.uniform(0.0, 1.5)))
            p = np.concatenate([rng.uniform(0.4, 2.5, size=2), [1.0]])
            kind = rng.choice(["FORBID", "REQUIRE_MIN", "PRIOR_CLAIM"])
            if kind == "FORBID":
                maxims = {"c": {"class": "perfect", "kind": "FORBID", "target": "g2"}}
            elif kind == "REQUIRE_MIN":
                maxims = {"d1": {"class": "imperfect"},
                          "c": {"class": "perfect", "kind": "REQUIRE_MIN",
                                "target": "d1",
                                "level": float(rng.uniform(0.05, 0.3))}}
            else:
                maxims = {"c": {"class": "perfect", "kind": "PRIOR_CLAIM",
                                "amount": float(rng.uniform(0.1, 0.5))}}
            reg = db.load_registry({"goods": list(goods),
                                    "imperfect_duties": list(duties),
                                    "maxims": maxims,
                                    "bundles": {"y": {"label": "y", "active": ["c"]}}})
            free = db.Fiber(y_id="y", goods=goods, duties=duties)
            constrained = db.Fiber(y_id="y", goods=goods, duties=duties,
                                   constraints=db.compile_constraints(
                                       reg.bundles["y"], reg))
            u_free = db.agent_utility(agent, db.demand(agent, p, free), p, free)
            u_con = db.agent_utility(agent, db.demand(agent, p, constrained), p,
                                     constrained)
            assert u_con <= u_free + 1e-9

        # the charity example: debt repaid in full, donation at most the rest
        reg = db.load_registry({
            "goods": ["consumption"], "imperfect_duties": ["donation"],
            "maxims": {"donation": {"class": "imperfect"},
                       "debt": {"class": "perfect", "kind": "PRIOR_CLAIM",
                                "amount": 500.0}},
            "bundles": {"y": {"label": "giver", "active": ["debt"]}}})
        fiber = db.Fiber(y_id="y", goods=("consumption",), duties=("donation",),
                         constraints=db.compile_constraints(reg.bundles["y"], reg))
        spec = db.UtilitySpec(family=db.UtilityFamily.COBB_DOUGLAS_EXTENDED,
                              alpha={"consumption": 1.0}, beta={"donation": 1.0})
        giver = db.Agent(id="giver", endowment={"consumption": 1000.0},
                         utility=spec, lam=1.0)
        p = np.array([1.0, 1.0])
        assert db.disposable_income(giver, p, fiber) == 500.0  # debt fully paid
        bundle = db.demand(giver, p, fiber)
        assert bundle.e[0] <= 500.0
        assert float(p @ bundle.coords) <= 500.0 + 1e-8


def test_criterion_8_index_theorem_desk_scale():
    with criterion(8, "indices over grid-oracle equilibria sum to +1 (20 economies)"):
        rng = np.random.default_rng(88)
        for _ in range(20):
            alpha1 = rng.uniform(0.2, 0.8, size=2)
            endow = rng.uniform(0.3, 2.5, size=(2, 2))
            economy = two_good_economy([
                cd_agent("A", float(alpha1[0]), float(endow[0, 0]), float(endow[0, 1])),
                cd_agent("B", float(alpha1[1]), float(endow[1, 0]), float(endow[1, 1]))])
            equilibria = db.solve_grid_oracle(economy, resolution=80)
            assert equilibria, "oracle found no equilibrium"
            total = sum(db.equilibrium_index(economy, p_star)
                        for p_star in equilibria)
            assert total == 1


def test_criterion_9_three_era_trace():
    with criterion(9, "canonical era path: projection, prohibition, rising duty share"):
        config = load_packaged_config("slavery")
        started = time.perf_counter()
        records = db.run_slavery_eras(config.template, config.path, config.profile)
        assert time.perf_counter() - started < 5.0
        assert db.project_trace(records) == ["y1", "y2", "y3"]
        assert records[0].volumes["slave_sugar"] > 0
        assert records[2].volumes["slave_sugar"] == 0.0
        lambdas = config.profile.lambdas
        assert all(b >= a for a, b in zip(lambdas, lambdas[1:]))
        shares = [rec.duty_share for rec in records]
        assert all(b >= a - 1e-10 for a, b in zip(shares, shares[1:]))


def test_criterion_10_sugar_market():
    with criterion(10, "sugar: defaults survive, small share collapses, phi* stable"):
        default = db.SugarMarketConfig()
        report = db.run_sugar(default)
        pre = report.shares[: default.shock_period]
        assert all(s >= default.viability_threshold for s in pre)
        assert report.collapse_period is None or \
            report.collapse_period > default.shock_period
        assert report.survived

        small = db.SugarMarketConfig(phi=0.05)
        small_report = db.run_sugar(small)
        assert not small_report.survived
        assert small_report.collapse_period > small.shock_period

        stars = [db.estimate_critical_mass(db.SugarMarketConfig(seed=seed),
                                           bisect_tol=0.002).phi_star
                 for seed in range(10)]
        center = float(np.median(stars))
        assert all(abs(s - center) <= 0.02 for s in stars)

        phis = np.linspace(0.05, 0.95, 10)
        premiums = np.linspace(0.0, 0.9, 10)
        shares = np.empty((10, 10))
        for i, phi in enumerate(phis):
            for j, premium in enumerate(premiums):
                cfg = db.SugarMarketConfig(phi=float(phi),
                                           price_ethical=1.0 + float(premium),
                                           price_conventional=1.0, seed=999)
                shares[i, j] = db.run_sugar(cfg).shares[0]
        assert np.all(np.diff(shares, axis=0) >= 0)
        assert np.all(np.diff(shares, axis=1) <= 0)


def test_criterion_11_veblen_probe():
    with criterion(11, "theta=0 never upward; high-theta segment confirmed by oracle"):
        fiber = db.Fiber(y_id="y", goods=("staple",), duties=("eco",))
        rng = np.random.default_rng(404)
        sweep = np.linspace(0.4, 3.0, 14)
        for _ in range(100):
            spec = db.UtilitySpec(family=db.UtilityFamily.COBB_DOUGLAS_EXTENDED,
                                  alpha={"staple": float(rng.uniform(0.3, 1.5))},
                                  beta={"eco": float(rng.uniform(0.2, 1.5))})
            agent = db.Agent(id="c",
                             endowment={"staple": float(rng.uniform(2.0, 12.0))},
                             utility=spec, lam=float(rng.uniform(0.2, 2.0)))
            assert db.veblen_demand_curve(agent, fiber, "eco",
                                          sweep).increasing_segments == []

        config = load_packaged_config("veblen")
        template = config.template
        agent = template.agents[0]
        probe_fiber = template.fiber_at("y1")
        probe_sweep = np.linspace(config.veblen.sweep_lo, config.veblen.sweep_hi,
                                  config.veblen.sweep_count)
        curve = db.veblen_demand_curve(agent, probe_fiber, "eco_label", probe_sweep)
        assert curve.has_increasing_segment()
        lo, hi = curve.increasing_segments[0]
        grid = [p for p in probe_sweep if lo <= p <= hi]
        oracle_quantities = []
        for p_e in grid:
            bundle, _ = grid_search_demand(agent, np.array([1.0, p_e]), probe_fiber,
                                           resolution=1e-3)
            oracle_quantities.append(bundle.e[0])
        from dutybound.scenarios import increasing_segments
        assert increasing_segments(grid, oracle_quantities, rtol=1e-4)


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "identical config and seed give byte-identical CSV output"):
        jobs = [
            (["solve", "--config", str(packaged_config_path("exchange"))],
             ["solve_y1.csv"]),
            (["trace", "--config", str(packaged_config_path("slavery"))],
             ["trace.csv", "trace_summary.csv"]),
            (["scenario", "sugar", "--config", str(packaged_config_path("sugar")),
              "--estimate-critical-mass"],
             ["sugar_shares.csv", "sugar_summary.csv"]),
            (["sweep", "--config", str(packaged_config_path("sugar"))],
             ["sugar_sweep.csv"]),
        ]
        for k, (argv, files) in enumerate(jobs):
            first = tmp_path / f"run{k}_first"
            second = tmp_path / f"run{k}_second"
            with redirect_stdout(io.StringIO()):
                assert main(argv + ["--out", str(first)]) == 0
                assert main(argv + ["--out", str(second)]) == 0
            for name in files:
                assert (first / name).read_bytes() == (second / name).read_bytes()
