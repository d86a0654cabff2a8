"""Paths, endowment transport, and equilibrium traces across regimes."""

from dataclasses import replace

import numpy as np
import pytest

from dutybound.duty import load_registry
from dutybound.economy import Agent, ExtendedBundle, UtilityFamily, UtilitySpec
from dutybound.equilibrium import solve_tatonnement
from dutybound.errors import NonMonotoneTime, UnknownBasePoint, ValidationErrors
from dutybound.topology import BaseSpace
from dutybound.transition import (
    BasePath,
    EconomyTemplate,
    FiberSpec,
    GenerationProfile,
    build_path,
    carry_endowment,
    project_trace,
    run_path,
)


def simple_template(duties=("d1",), duty_maxims=None, bundle_active=None, n_points=3):
    points = tuple(f"y{i + 1}" for i in range(n_points))
    maxims = {"d1": {"class": "imperfect"}} if "d1" in duties else {}
    maxims.update(duty_maxims or {})
    registry = load_registry({
        "goods": ["g1", "g2"],
        "imperfect_duties": list(duties),
        "maxims": maxims,
        "bundles": {y: {"label": y, "active": (bundle_active or {}).get(y, [])}
                    for y in points},
    })
    base = BaseSpace(points=points)
    spec = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                       alpha={"g1": 0.5, "g2": 0.5},
                       beta={d: 1.0 for d in duties})
    agents = (
        Agent(id="A", endowment={"g1": 3.0, "g2": 1.0}, utility=spec),
        Agent(id="B", endowment={"g1": 1.0, "g2": 3.0}, utility=spec),
    )
    fiber_specs = {y: FiberSpec(goods=("g1", "g2"), duties=tuple(duties),
                                duty_prices={d: 1.0 for d in duties})
                   for y in points}
    return EconomyTemplate(registry=registry, base=base, fiber_specs=fiber_specs,
                           agents=agents)


class TestBuildPath:
    def test_single_step(self):
        template = simple_template()
        path = build_path([[0, "y1"]], template.base)
        assert path.steps == ((0, "y1"),)

    def test_three_eras(self):
        template = simple_template()
        path = build_path([[0, "y1"], [1, "y2"], [2, "y3"]], template.base)
        assert path.y_sequence() == ["y1", "y2", "y3"]

    def test_non_monotone_time(self):
        template = simple_template()
        with pytest.raises(NonMonotoneTime):
            build_path([[0, "y1"], [0, "y2"]], template.base)

    def test_unknown_base_point(self):
        template = simple_template()
        with pytest.raises(UnknownBasePoint):
            build_path([[0, "nowhere"]], template.base)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            BasePath(steps=())


class TestGenerationProfile:
    def test_scarcity_mapping(self):
        profile = GenerationProfile.from_scarcity(1.2, [1.0, 0.5, 0.0])
        assert np.allclose(profile.lambdas, [0.0, 0.6, 1.2])

    def test_bad_scarcity_rejected(self):
        with pytest.raises(ValueError):
            GenerationProfile.from_scarcity(1.0, [1.5])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            GenerationProfile(lambdas=(-0.1,))


class TestCarryEndowment:
    def test_identity_transport(self):
        template = simple_template()
        fiber = template.fiber_at("y1")
        alloc = {"A": ExtendedBundle(x=np.array([1.5, 2.5]), e=np.array([0.7]))}
        carry = carry_endowment(alloc, fiber, fiber)
        assert carry.endowments["A"] == {"g1": 1.5, "g2": 2.5}
        assert carry.stranded == {}

    def test_dropped_good_reported_stranded(self):
        template = simple_template()
        src = template.fiber_at("y1")
        registry = template.registry
        from dutybound.economy import Fiber
        narrow = Fiber(y_id="y2", goods=("g1",), duties=())
        alloc = {"A": ExtendedBundle(x=np.array([1.0, 2.0]), e=np.array([0.0]))}
        carry = carry_endowment(alloc, src, narrow)
        assert carry.endowments["A"] == {"g1": 1.0}
        assert carry.stranded == {"A": {"g2": 2.0}}

    def test_duty_levels_reset(self):
        template = simple_template()
        fiber = template.fiber_at("y1")
        alloc = {"A": ExtendedBundle(x=np.array([1.0, 1.0]), e=np.array([9.0]))}
        carry = carry_endowment(alloc, fiber, fiber)
        assert set(carry.endowments["A"]) == {"g1", "g2"}

    def test_empty_allocation_gives_zero_endowments(self):
        template = simple_template()
        fiber = template.fiber_at("y1")
        alloc = {"A": ExtendedBundle(x=np.zeros(2), e=np.zeros(1))}
        carry = carry_endowment(alloc, fiber, fiber)
        assert carry.endowments["A"] == {"g1": 0.0, "g2": 0.0}


class TestEconomyTemplate:
    def test_fiber_at_is_a_lookup_of_the_compiled_fiber(self):
        template = simple_template()
        assert template.fiber_at("y2") is template.fiber_at("y2") is template.fibers["y2"]

    def test_unknown_base_point_raises(self):
        template = simple_template()
        with pytest.raises(UnknownBasePoint):
            template.fiber_at("nowhere")
        with pytest.raises(UnknownBasePoint):
            template.economy_at("nowhere", template.agents)

    def test_every_failing_fiber_is_reported(self):
        """A FORBID on a duty fails to compile into a fiber, in both regimes."""
        with pytest.raises(ValidationErrors) as err:
            simple_template(
                duty_maxims={"ban": {"class": "perfect", "kind": "FORBID", "target": "d1"}},
                bundle_active={"y1": ["ban"], "y3": ["ban"]})
        assert [e.split(":")[0] for e in err.value.errors] == ["fibers.y1", "fibers.y3"]


class TestRunPath:
    def test_single_step_equals_direct_solve(self):
        template = simple_template()
        path = build_path([[0, "y1"]], template.base)
        records = run_path(template, path, GenerationProfile(lambdas=(0.5,)))
        assert len(records) == 1
        direct = solve_tatonnement(
            template.economy_at("y1", [replace(a, lam=0.5) for a in template.agents]))
        assert np.allclose(records[0].result.prices.values, direct.prices.values,
                           atol=1e-12)
        for agent_id, bundle in records[0].result.allocations.items():
            assert np.allclose(bundle.coords, direct.allocations[agent_id].coords,
                               atol=1e-12)

    def test_later_step_equals_direct_solve_with_its_lambda_and_carried_endowment(self):
        """Step 2's agents carry step 2's lambda and, as endowment, the goods
        of their step-1 allocation; a direct solve of that economy agrees."""
        template = simple_template(
            duty_maxims={"floor": {"class": "perfect", "kind": "REQUIRE_MIN",
                                   "target": "d1", "level": 0.1}},
            bundle_active={"y2": ["floor"]})
        path = build_path([[0, "y1"], [1, "y2"]], template.base)
        records = run_path(template, path, GenerationProfile(lambdas=(0.5, 1.5)))
        first = records[0].result.allocations
        agents = [replace(a, lam=1.5, endowment={"g1": float(first[a.id].x[0]),
                                                 "g2": float(first[a.id].x[1])})
                  for a in template.agents]
        direct = solve_tatonnement(template.economy_at("y2", agents))
        assert np.allclose(records[1].result.prices.values, direct.prices.values,
                           atol=1e-12)
        for agent_id, bundle in records[1].result.allocations.items():
            assert np.allclose(bundle.coords, direct.allocations[agent_id].coords,
                               atol=1e-12)

    def test_identity_transport_conserves_equilibria(self):
        """Identical consecutive fibers with no duty leakage: the second step
        re-solves to the same prices and allocations within tolerance."""
        template = simple_template(duties=())
        path = build_path([[0, "y1"], [1, "y2"], [2, "y3"]], template.base)
        records = run_path(template, path, GenerationProfile(lambdas=(0.0, 0.0, 0.0)))
        p0 = records[0].result.prices.values
        for rec in records[1:]:
            assert np.allclose(rec.result.prices.values, p0, atol=1e-6)
            for agent_id, bundle in rec.result.allocations.items():
                assert np.allclose(bundle.coords,
                                   records[0].result.allocations[agent_id].coords, atol=1e-6)

    def test_rising_lambda_raises_duty_share(self):
        template = simple_template()
        path = build_path([[0, "y1"], [1, "y2"], [2, "y3"]], template.base)
        records = run_path(template, path, GenerationProfile(lambdas=(0.0, 1.0, 2.5)))
        shares = [rec.duty_share for rec in records]
        assert all(b >= a - 1e-10 for a, b in zip(shares, shares[1:]))
        assert shares[-1] > shares[0]

    def test_duty_share_monotone_in_lambda_50_random_configs(self):
        """Comparative statics on a fixed economy: re-solving with a higher
        duty weight never lowers the aggregate duty-expenditure share.

        (Along a carried-endowment path the wealth drained into duties can
        lower the measured share even with nondecreasing lambda; the monotone
        statement is about the weight itself, so the oracle re-solves the
        same economy at each lambda.)
        """
        from dutybound.equilibrium import duty_expenditure_share

        rng_outer = np.random.default_rng(10)
        for _ in range(50):
            seed = int(rng_outer.integers(1_000_000_000))
            lams = sorted(np.random.default_rng(seed).uniform(0.0, 2.5, size=3))
            shares = []
            for lam in lams:
                rng = np.random.default_rng(seed)  # identical economy per lambda
                registry = load_registry({
                    "goods": ["g1", "g2"], "imperfect_duties": ["d1"],
                    "maxims": {"d1": {"class": "imperfect"}},
                    "bundles": {"y1": {"label": "y1", "active": []}}})
                spec_of = lambda: UtilitySpec(
                    family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                    alpha={"g1": float(rng.uniform(0.2, 1.0)),
                           "g2": float(rng.uniform(0.2, 1.0))},
                    beta={"d1": float(rng.uniform(0.3, 1.2))})
                agents = tuple(
                    Agent(id=f"a{k}",
                          endowment={"g1": float(rng.uniform(0.5, 4.0)),
                                     "g2": float(rng.uniform(0.5, 4.0))},
                          utility=spec_of(), lam=lam)
                    for k in range(2))
                template = EconomyTemplate(
                    registry=registry, base=BaseSpace(points=("y1",)),
                    fiber_specs={"y1": FiberSpec(
                        goods=("g1", "g2"), duties=("d1",),
                        duty_prices={"d1": float(rng.uniform(0.5, 1.5))})},
                    agents=agents)
                economy = template.economy_at("y1", template.agents)
                result = solve_tatonnement(economy)
                assert result.converged
                shares.append(duty_expenditure_share(economy, result.prices,
                                                     result.allocations))
            assert all(b >= a - 1e-10 for a, b in zip(shares, shares[1:]))

    def test_constraint_inheritance_per_step(self):
        """Each step's allocations satisfy that step's constraints, and the
        forbidden-era constraint does not leak into earlier eras."""
        template = simple_template(
            duty_maxims={"ban": {"class": "perfect", "kind": "FORBID", "target": "g2"}},
            bundle_active={"y3": ["ban"]})
        path = build_path([[0, "y1"], [1, "y2"], [2, "y3"]], template.base)
        records = run_path(template, path, GenerationProfile(lambdas=(0.2, 0.2, 0.2)))
        assert records[0].result.allocations["A"].x[1] > 0
        assert records[1].result.allocations["A"].x[1] > 0
        for bundle in records[2].result.allocations.values():
            assert bundle.x[1] == 0.0

    def test_profile_length_mismatch(self):
        template = simple_template()
        path = build_path([[0, "y1"], [1, "y2"]], template.base)
        with pytest.raises(ValueError):
            run_path(template, path, GenerationProfile(lambdas=(1.0,)))

    def test_errors_annotated_with_step(self):
        template = simple_template(
            duty_maxims={"debt": {"class": "perfect", "kind": "PRIOR_CLAIM",
                                  "amount": 1e9}},
            bundle_active={"y2": ["debt"]})
        path = build_path([[0, "y1"], [1, "y2"]], template.base)
        with pytest.raises(Exception) as err:
            run_path(template, path, GenerationProfile(lambdas=(0.0, 0.0)))
        assert "path step 1" in str(err.value)


class TestProjectTrace:
    def test_three_era_projection(self):
        template = simple_template()
        path = build_path([[0, "y1"], [1, "y2"], [2, "y3"]], template.base)
        records = run_path(template, path, GenerationProfile(lambdas=(0.1, 0.2, 0.3)))
        assert project_trace(records) == ["y1", "y2", "y3"]

    def test_empty_trace(self):
        assert project_trace([]) == []

    def test_projection_matches_path_on_random_paths(self):
        template = simple_template(n_points=4)
        rng = np.random.default_rng(2)
        for _ in range(10):
            length = int(rng.integers(1, 5))
            ys = rng.choice(template.base.points, size=length).tolist()
            path = build_path(list(enumerate(ys)), template.base)
            records = run_path(template, path,
                               GenerationProfile(lambdas=tuple([0.1] * length)))
            assert project_trace(records) == path.y_sequence()
