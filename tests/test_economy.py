"""Feasibility, utility families, and duty-constrained demand."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutybound import economy
from dutybound.duty import compile_constraints, load_registry
from dutybound.economy import (
    Agent,
    AgentRows,
    ExtendedBundle,
    Fiber,
    FiberEconomy,
    UtilityFamily,
    UtilitySpec,
    agent_utility,
    demand,
    demand_jacobian,
    demand_rows,
    disposable_income,
    feasible,
    utility_value,
)
from dutybound.errors import (
    DimensionMismatch,
    InfeasibleDutySet,
    NegativeInput,
    NoConvergence,
    NonPositivePrice,
    UnknownReference,
)
from dutybound.equilibrium import PriceVector, solve_tatonnement
from dutybound.preferences import EPSILON
from dutybound.scenarios import veblen_demand_curve

from oracles import (
    bisection_demand_rows,
    central_difference_jacobian,
    gathered_demand_rows,
    grid_search_demand,
    kkt_residual,
)


def cd_spec(alpha, beta=None):
    return UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                       alpha=alpha, beta=beta or {})


def plain_fiber(goods=("g1", "g2"), duties=()):
    return Fiber(y_id="y", goods=goods, duties=duties)


def fiber_with(maxims, bundle_active, goods=("g1", "g2"), duties=()):
    reg = load_registry({
        "goods": list(goods),
        "imperfect_duties": list(duties),
        "maxims": maxims,
        "bundles": {"y": {"label": "y", "active": bundle_active}},
    })
    return Fiber(y_id="y", goods=goods, duties=duties,
                 constraints=compile_constraints(reg.bundles["y"], reg))


class TestFeasible:
    def test_budget_identity_is_feasible(self):
        fiber = plain_fiber()
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 0.5, "g2": 0.5}))
        candidate = ExtendedBundle(x=np.array([0.5, 0.5]), e=np.zeros(0))
        assert feasible(agent, np.array([1.0, 1.0]), fiber, candidate)

    def test_forbidden_coordinate_infeasible(self):
        fiber = fiber_with({"ban": {"class": "perfect", "kind": "FORBID", "target": "g2"}},
                           ["ban"])
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 1.0}))
        candidate = ExtendedBundle(x=np.array([0.0, 0.1]), e=np.zeros(0))
        assert not feasible(agent, np.array([1.0, 1.0]), fiber, candidate)

    def test_prior_claim_shrinks_budget(self):
        fiber = fiber_with(
            {"debt": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 500.0}},
            ["debt"], goods=("money",))
        agent = Agent(id="a", endowment={"money": 1000.0}, utility=cd_spec({"money": 1.0}))
        p = np.array([1.0])
        over = ExtendedBundle(x=np.array([600.0]), e=np.zeros(0))
        under = ExtendedBundle(x=np.array([500.0]), e=np.zeros(0))
        assert not feasible(agent, p, fiber, over)
        assert feasible(agent, p, fiber, under)

    def test_dimension_mismatch(self):
        fiber = plain_fiber()
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 1.0}))
        with pytest.raises(DimensionMismatch):
            feasible(agent, np.array([1.0, 1.0]), fiber,
                     ExtendedBundle(x=np.array([1.0]), e=np.zeros(0)))


class TestUtilityValue:
    def test_reduces_to_goods_only_cobb_douglas(self):
        fiber = plain_fiber(duties=("d1",))
        spec = cd_spec({"g1": 0.5, "g2": 0.5}, {"d1": 1.0})
        p = np.array([1.0, 1.0, 1.0])
        with_duty_zero = utility_value(spec, [1.0, 2.0], [0.0], p, fiber, lam=1.0)
        lam_zero = utility_value(spec, [1.0, 2.0], [3.0], p, fiber, lam=0.0)
        goods_only = utility_value(spec, [1.0, 2.0], [0.0], p, fiber, lam=0.0)
        assert with_duty_zero == pytest.approx(goods_only)
        assert lam_zero == pytest.approx(goods_only)

    def test_veblen_zero_premium_matches_plain(self):
        fiber = plain_fiber(goods=("g1",), duties=("d1",))
        veblen = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                             alpha={"g1": 1.0}, beta={"d1": 1.0},
                             reference_premium={"d1": 1.0})
        plain = cd_spec({"g1": 1.0}, {"d1": 1.0})
        p = np.array([1.0, 1.0])  # duty price equals the reference premium
        assert utility_value(veblen, [2.0], [1.5], p, fiber, lam=1.0, theta=5.0) == \
            pytest.approx(utility_value(plain, [2.0], [1.5], p, fiber, lam=1.0))

    def test_veblen_rejects_nonpositive_duty_price(self):
        fiber = plain_fiber(goods=("g1",), duties=("d1",))
        veblen = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                             alpha={"g1": 1.0}, beta={"d1": 1.0})
        with pytest.raises(NonPositivePrice):
            utility_value(veblen, [1.0], [1.0], np.array([1.0, 0.0]), fiber, theta=1.0)

    def test_negative_bundle_rejected(self):
        fiber = plain_fiber(goods=("g1",))
        with pytest.raises(NegativeInput):
            utility_value(cd_spec({"g1": 1.0}), [-1.0], [], np.array([1.0]), fiber)


class TestDemand:
    def test_equal_shares(self):
        fiber = plain_fiber()
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 0.5, "g2": 0.5}))
        bundle = demand(agent, np.array([1.0, 1.0]), fiber)
        assert np.allclose(bundle.x, [0.5, 0.5], atol=1e-7)

    def test_forbid_sends_all_income_to_free_good(self):
        fiber = fiber_with({"ban": {"class": "perfect", "kind": "FORBID", "target": "g2"}},
                           ["ban"])
        agent = Agent(id="a", endowment={"g1": 2.0, "g2": 5.0},
                      utility=cd_spec({"g1": 0.5, "g2": 0.5}))
        bundle = demand(agent, np.array([1.0, 1.0]), fiber)
        # the forbidden good is demonetized: its endowment buys nothing
        assert bundle.x[1] == 0.0
        assert bundle.x[0] == pytest.approx(2.0, rel=1e-9)

    def test_one_good_one_duty_matches_grid_oracle(self):
        fiber = plain_fiber(goods=("g1",), duties=("d1",))
        agent = Agent(id="a", endowment={"g1": 2.0},
                      utility=cd_spec({"g1": 1.0}, {"d1": 1.0}), lam=1.0)
        p = np.array([1.0, 1.0])
        bundle = demand(agent, p, fiber)
        oracle_bundle, _ = grid_search_demand(agent, p, fiber, resolution=1e-3)
        assert abs(bundle.x[0] - oracle_bundle.x[0]) < 1e-2
        assert abs(bundle.e[0] - oracle_bundle.e[0]) < 1e-2

    def test_budget_exhaustion_random_instances(self):
        rng = np.random.default_rng(21)
        fiber = plain_fiber(goods=("g1", "g2"), duties=("d1",))
        for _ in range(50):
            alpha = rng.uniform(0.2, 1.0, size=2)
            spec = cd_spec({"g1": alpha[0], "g2": alpha[1]}, {"d1": rng.uniform(0.2, 1.5)})
            agent = Agent(id="a",
                          endowment={"g1": rng.uniform(0.5, 4), "g2": rng.uniform(0.5, 4)},
                          utility=spec, lam=rng.uniform(0.5, 2.0))
            p = np.concatenate([rng.uniform(0.3, 3.0, size=2), rng.uniform(0.5, 2.0, size=1)])
            bundle = demand(agent, p, fiber)
            w = disposable_income(agent, p, fiber)
            assert abs(float(p @ bundle.coords) - w) <= 1e-8 * (1 + w)

    def test_require_min_met_exactly_and_zero_homogeneous(self):
        fiber = fiber_with(
            {"d1": {"class": "imperfect"},
             "min_d1": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "d1",
                        "level": 0.4}},
            ["min_d1"], goods=("g1", "g2"), duties=("d1",))
        agent = Agent(id="a", endowment={"g1": 1.0, "g2": 1.0},
                      utility=cd_spec({"g1": 0.7, "g2": 0.3}, {"d1": 0.2}), lam=1.0)
        p = np.array([1.0, 2.0, 1.0])
        bundle = demand(agent, p, fiber)
        assert bundle.e[0] >= 0.4
        for k in (0.5, 2.0, 10.0):
            scaled = demand(agent, k * p, fiber)
            assert np.allclose(scaled.coords, bundle.coords, rtol=1e-8, atol=1e-10)

    def test_adding_duty_never_raises_utility(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            goods = ("g1", "g2")
            duties = ("d1",)
            alpha = {g: float(rng.uniform(0.2, 1.0)) for g in goods}
            spec = cd_spec(alpha, {"d1": float(rng.uniform(0.2, 1.0))})
            agent = Agent(id="a",
                          endowment={g: float(rng.uniform(0.5, 3.0)) for g in goods},
                          utility=spec, lam=float(rng.uniform(0.0, 1.5)))
            p = np.concatenate([rng.uniform(0.4, 2.5, size=2), [1.0]])
            free = plain_fiber(goods, duties)
            kind = rng.choice(["FORBID", "REQUIRE_MIN", "PRIOR_CLAIM"])
            if kind == "FORBID":
                maxims = {"c": {"class": "perfect", "kind": "FORBID", "target": "g2"}}
            elif kind == "REQUIRE_MIN":
                maxims = {"d1": {"class": "imperfect"},
                          "c": {"class": "perfect", "kind": "REQUIRE_MIN",
                                "target": "d1", "level": float(rng.uniform(0.05, 0.3))}}
            else:
                maxims = {"c": {"class": "perfect", "kind": "PRIOR_CLAIM",
                                "amount": float(rng.uniform(0.1, 0.5))}}
            constrained = fiber_with(maxims, ["c"], goods, duties)
            u_free = agent_utility(agent, demand(agent, p, free), p, free)
            u_constrained = agent_utility(agent, demand(agent, p, constrained), p, constrained)
            assert u_constrained <= u_free + 1e-9

    def test_demand_matches_oracle_three_dims(self):
        rng = np.random.default_rng(14)
        fiber = plain_fiber(goods=("g1", "g2"), duties=("d1",))
        for _ in range(5):
            spec = cd_spec({"g1": float(rng.uniform(0.3, 1.0)),
                            "g2": float(rng.uniform(0.3, 1.0))},
                           {"d1": float(rng.uniform(0.3, 1.0))})
            agent = Agent(id="a", endowment={"g1": 1.5, "g2": 1.5},
                          utility=spec, lam=1.0)
            p = np.array([1.0, float(rng.uniform(0.5, 2.0)), 1.0])
            bundle = demand(agent, p, fiber)
            oracle_bundle, oracle_value = grid_search_demand(agent, p, fiber,
                                                             resolution=2e-2)
            mine = agent_utility(agent, bundle, p, fiber)
            assert mine >= oracle_value - 1e-6
            assert np.all(np.abs(bundle.coords - oracle_bundle.coords) < 5e-2)

    def test_claims_exceeding_income_reported(self):
        fiber = fiber_with(
            {"debt": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 10.0}},
            ["debt"], goods=("g1",))
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 1.0}))
        with pytest.raises(InfeasibleDutySet):
            demand(agent, np.array([1.0]), fiber)

    def test_forbidden_and_required_conflict_reported(self):
        fiber = fiber_with(
            {"ban": {"class": "perfect", "kind": "FORBID", "target": "g2"},
             "min": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "g2",
                     "level": 0.5}},
            ["ban", "min"])
        agent = Agent(id="a", endowment={"g1": 1.0, "g2": 1.0},
                      utility=cd_spec({"g1": 1.0, "g2": 0.5}))
        with pytest.raises(InfeasibleDutySet):
            demand(agent, np.array([1.0, 1.0]), fiber)

    def test_nonpositive_price_rejected(self):
        fiber = plain_fiber()
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 1.0, "g2": 1.0}))
        with pytest.raises(NonPositivePrice):
            demand(agent, np.array([1.0, 0.0]), fiber)

    def test_veblen_demand_matches_oracle(self):
        fiber = plain_fiber(goods=("g1",), duties=("d1",))
        spec = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                           alpha={"g1": 1.0}, beta={"d1": 1.0},
                           reference_premium={"d1": 1.0})
        agent = Agent(id="a", endowment={"g1": 10.0}, utility=spec, lam=1.0, theta=2.0)
        for p_duty in (0.8, 1.1, 1.6):
            p = np.array([1.0, p_duty])
            bundle = demand(agent, p, fiber)
            oracle_bundle, oracle_value = grid_search_demand(agent, p, fiber,
                                                             resolution=1e-3)
            mine = agent_utility(agent, bundle, p, fiber)
            assert mine >= oracle_value - 1e-6
            assert abs(bundle.e[0] - oracle_bundle.e[0]) < 1e-2


GOODS3 = ("g1", "g2", "g3")
KKT_REGIMES = {
    "free": ({}, []),
    "prior_claim": ({"c": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 0.3}}, ["c"]),
    "require_min": ({"d1": {"class": "imperfect"},
                     "c": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "d1",
                           "level": 0.4}}, ["c"]),
    "forbid": ({"c": {"class": "perfect", "kind": "FORBID", "target": "g3"}}, ["c"]),
}


def random_agent(rng, name="a", veblen=False, duties=("d1",), goods=GOODS3):
    """``goods`` and ``duties``; a VEBLEN agent has a positive status weight."""
    family = (UtilityFamily.VEBLEN_PRICE_DEPENDENT if veblen
              else UtilityFamily.COBB_DOUGLAS_EXTENDED)
    spec = UtilitySpec(family=family,
                       alpha=dict(zip(goods, rng.uniform(0.1, 1.0, len(goods)).tolist())),
                       beta={d: float(rng.uniform(0.2, 1.5)) for d in duties},
                       reference_premium=dict.fromkeys(duties, 1.0))
    return Agent(id=name, utility=spec,
                 endowment=dict(zip(goods, rng.uniform(1.0, 3.0, len(goods)).tolist())),
                 lam=float(rng.uniform(0.2, 2.0)),
                 theta=float(rng.uniform(0.5, 2.0)) if veblen else 0.0)


def random_prices(rng, duties=1, goods=3):
    """Goods prices, then duty prices on either side of the reference 1.0."""
    return np.concatenate([rng.uniform(0.3, 3.0, goods), rng.uniform(0.5, 2.0, duties)])


class TestDemandKKT:
    """Demand checked against first-order conditions in four dimensions,
    beyond the reach of the grid oracle."""

    @pytest.mark.parametrize("regime", list(KKT_REGIMES))
    def test_demand_meets_first_order_conditions(self, regime):
        maxims, active = KKT_REGIMES[regime]
        fiber = fiber_with(maxims, active, goods=GOODS3, duties=("d1",))
        rng = np.random.default_rng(list(KKT_REGIMES).index(regime))
        for k in range(60):
            agent = random_agent(rng, veblen=k % 2 == 1)
            p = random_prices(rng)
            assert kkt_residual(agent, p, fiber, demand(agent, p, fiber)) < 1e-9

    def test_oracle_flags_a_misallocated_bundle(self):
        fiber = fiber_with(*KKT_REGIMES["forbid"], goods=GOODS3, duties=("d1",))
        rng = np.random.default_rng(3)
        agent = random_agent(rng, veblen=True)
        p = random_prices(rng)
        coords = demand(agent, p, fiber).coords
        # same spending, moved from good 1 to good 2
        moved = coords + np.array([-0.05 / p[0], 0.05 / p[1], 0.0, 0.0])
        assert kkt_residual(agent, p, fiber, ExtendedBundle(x=moved[:3], e=moved[3:])) > 1e-3
        held = coords + np.array([-0.05 / p[0], 0.0, 0.05 / p[2], 0.0])
        assert kkt_residual(agent, p, fiber, ExtendedBundle(x=held[:3], e=held[3:])) >= 0.05


class TestDemandRows:
    def test_each_row_is_that_agents_demand(self):
        rng = np.random.default_rng(5)
        fiber = fiber_with(*KKT_REGIMES["require_min"], goods=GOODS3, duties=("d1",))
        agents = [random_agent(rng, name=f"a{k}", veblen=k % 3 == 0) for k in range(12)]
        rows = AgentRows.pack(fiber, agents)
        for _ in range(5):
            p = random_prices(rng)
            batch = demand_rows(rows, p)
            for row, agent in zip(batch, agents):
                np.testing.assert_array_equal(row, demand(agent, p, fiber).coords)


CLAIM_AND_FORBID = ({"c": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 0.3},
                     "f": {"class": "perfect", "kind": "FORBID", "target": "g3"}}, ["c", "f"])


STATUS_PRICES = np.array([[1.0, 1.2, 0.8, 0.5], [0.7, 1.0, 1.5, 2.0], [1.3, 0.9, 1.0, 0.9]])


def status_only_agents():
    """An ordinary VEBLEN agent and a status-only one (all log weight on the
    forbidden g3, none on the duty), under FORBID g3."""
    fiber = fiber_with(*KKT_REGIMES["forbid"], goods=GOODS3, duties=("d1",))
    status_only = Agent(id="s", endowment={"g1": 2.0, "g2": 1.0},
                        utility=UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                                            alpha={"g3": 1.0}, beta={"d1": 0.0},
                                            reference_premium={"d1": 1.0}),
                        theta=1.0)
    return fiber, [random_agent(np.random.default_rng(6), name="v", veblen=True), status_only]


def first_error(solve, vectors):
    """The error a loop over the price vectors raises first."""
    for p in vectors:
        try:
            solve(p)
        except (InfeasibleDutySet, NonPositivePrice) as exc:
            return exc
    raise AssertionError("no price vector raised")


class TestDemandRowsBatch:
    """A batch of price vectors against one call per vector."""

    CASES = list(KKT_REGIMES) + ["goods_only", "floor_binds_at_some_vectors", "wide_fiber"]
    GOODS9 = tuple(f"g{i}" for i in range(1, 10))

    @pytest.mark.parametrize("case", CASES)
    def test_each_row_is_the_single_vector_call(self, case):
        """Each of ``KKT_REGIMES`` with one duty; a goods-only fiber, where
        no row can tilt; a REQUIRE_MIN floor on the duty that binds at the
        vectors with a dear duty only, so the kernel's clipped mask grows
        from one entry per dimension to one per row partway through the
        call; and the same floor in a wide fiber, 24 agents with 9 goods and
        2 duties, where numpy would add the 11 dimensions of one vector
        pairwise and those of a batch in order (a kernel that left the
        order to numpy fails here). Each row is also that agent's
        ``demand`` at its vector."""
        rng = np.random.default_rng(11 + self.CASES.index(case))
        goods = self.GOODS9 if case == "wide_fiber" else GOODS3
        duties = {"goods_only": (), "wide_fiber": ("d1", "d2")}.get(case, ("d1",))
        floor = case in ("floor_binds_at_some_vectors", "wide_fiber")
        regime = "require_min" if floor else "free" if case == "goods_only" else case
        fiber = fiber_with(*KKT_REGIMES[regime], goods=goods, duties=duties)
        agents = [random_agent(rng, name=f"a{k}", veblen=k % 3 == 0, duties=duties, goods=goods)
                  for k in range(24 if case == "wide_fiber" else 9)]
        rows = AgentRows.pack(fiber, agents)
        n = len(goods)
        prices = np.array([random_prices(rng, duties=len(duties), goods=n) for _ in range(16)])
        if floor:
            prices[:, :n] += 1.0
            prices[::2, n] *= 4.0
        batch = demand_rows(rows, prices)
        assert batch.shape == (16, len(agents), n + len(duties))
        if floor:
            # (vector, agent) pairs at the floor; by vector in the narrow case
            binds = batch[..., n] == 0.4
            binds = binds if case == "wide_fiber" else binds.any(axis=1)
            assert binds.any() and not binds.all()
        for p, got in zip(prices, batch):
            np.testing.assert_array_equal(got, demand_rows(rows, p))
            for row, agent in zip(got, agents):
                np.testing.assert_array_equal(row, demand(agent, p, fiber).coords)

    def test_rows_idle_at_their_bounds_mix_with_bisected_rows(self):
        """A status-only agent (all log weight on a forbidden good) buys
        nothing below the reference duty price and only duty above it, next
        to an ordinary VEBLEN agent: the batch's multiplier solve sees a
        subset of its rows."""
        rows = AgentRows.pack(*status_only_agents())
        batch = demand_rows(rows, STATUS_PRICES)
        for p, got in zip(STATUS_PRICES, batch):
            np.testing.assert_array_equal(got, demand_rows(rows, p))
        assert np.all(batch[[0, 2], 1] == 0.0) and batch[1, 1, 3] > 0

    def claim_rows(self):
        """A rich agent, a poor one and a middling one under a prior claim of 0.3."""
        fiber = fiber_with(*CLAIM_AND_FORBID, goods=GOODS3, duties=("d1",))
        rng = np.random.default_rng(2)
        agents = [random_agent(rng, name=f"a{k}") for k in range(3)]
        agents = [replace(a, endowment={g: q * scale for g, q in a.endowment.items()})
                  for a, scale in zip(agents, (10.0, 0.15, 1.0))]
        return AgentRows.pack(fiber, agents)

    @pytest.mark.parametrize("order", [
        ("ok", "poor_fails", "all_fail"),
        ("ok", "nonpositive", "poor_fails"),
        ("ok", "all_fail", "nonpositive"),
        ("ok", "ok", "all_fail"),
        ("nonpositive_twice", "all_fail"),
        ("ok", "nan", "poor_fails"),
        ("ok", "inf", "poor_fails"),
        ("poor_fails", "inf"),
    ])
    def test_batch_raises_what_a_loop_raises_first(self, order):
        rows = self.claim_rows()
        vectors = {"ok": [1.0, 1.0, 1.0, 1.0], "poor_fails": [0.2, 0.2, 0.2, 1.0],
                   "all_fail": [1e-3, 1e-3, 1e-3, 1.0], "nonpositive": [1.0, 1.0, -2.0, 1.0],
                   "nonpositive_twice": [1.0, 0.0, -3.0, 1.0],
                   "nan": [1.0, 1.0, np.nan, 1.0], "inf": [1.0, np.inf, 1.0, 1.0]}
        prices = np.array([vectors[name] for name in order])
        expected = first_error(lambda p: demand_rows(rows, p), prices)
        with pytest.raises(type(expected)) as raised:
            demand_rows(rows, prices)
        assert str(raised.value) == str(expected)

    def test_batch_of_wrong_width_rejected(self):
        rows = AgentRows.pack(plain_fiber(), [Agent(id="a", endowment={"g1": 1.0},
                                                    utility=cd_spec({"g1": 1.0}))])
        with pytest.raises(DimensionMismatch):
            demand_rows(rows, np.ones((4, 3)))

    def test_empty_batch_gives_no_rows(self):
        """The price check reduces over the batch, which must not fail on none."""
        rows = self.claim_rows()
        assert demand_rows(rows, np.ones((0, 4))).shape == (0, 3, 4)


class TestUntiltedPacks:
    """A pack in which no row can carry a status tilt (no duty in the fiber,
    or no VEBLEN agent) runs none of the tilted-row code: no quadratic, no
    budget settling, no multiplier solve."""

    @pytest.fixture
    def tilted_code_raises(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tilted-row code ran")
        for name in ("_larger_root", "_settle_budget", "_multiplier_rows"):
            monkeypatch.setattr(economy, name, refuse)

    def test_goods_only_grid_sized_batch(self, tilted_code_raises):
        """3,600 vectors, as the grid oracle sends at resolution 60; one agent
        is VEBLEN, which cannot tilt without a duty."""
        rng = np.random.default_rng(3)
        agents = [random_agent(rng, name=f"a{k}", veblen=k == 0, duties=()) for k in range(3)]
        rows = AgentRows.pack(plain_fiber(GOODS3), agents)
        assert rows.tilted.size == 0
        batch = demand_rows(rows, rng.uniform(0.05, 20.0, (3600, 3)))
        assert batch.shape == (3600, 3, 3) and np.all(batch > 0)

    @pytest.mark.parametrize("regime", list(KKT_REGIMES))
    def test_cobb_douglas_pack_in_a_fiber_with_a_duty(self, regime, tilted_code_raises):
        rng = np.random.default_rng(17)
        fiber = fiber_with(*KKT_REGIMES[regime], goods=GOODS3, duties=("d1",))
        rows = AgentRows.pack(fiber, [random_agent(rng, name=f"a{k}") for k in range(6)])
        assert rows.tilted.size == 0
        demand_rows(rows, np.array([random_prices(rng) for _ in range(32)]))

    def test_one_agent_demand(self, tilted_code_raises):
        fiber = fiber_with(*KKT_REGIMES["require_min"], goods=GOODS3, duties=("d1",))
        bundle = demand(random_agent(np.random.default_rng(4)), [1.0, 1.2, 0.8, 1.5], fiber)
        assert bundle.e[0] >= 0.4

    def test_half_veblen_pack_still_takes_the_quadratic(self, monkeypatch):
        rng = np.random.default_rng(19)
        fiber = fiber_with(*KKT_REGIMES["free"], goods=GOODS3, duties=("d1",))
        rows = AgentRows.pack(fiber, [random_agent(rng, name=f"a{k}", veblen=k % 2 == 0)
                                      for k in range(6)])
        np.testing.assert_array_equal(rows.tilted, [0, 2, 4])
        calls = counted(monkeypatch, "_larger_root")
        demand_rows(rows, np.array([random_prices(rng) for _ in range(8)]))
        assert calls


class TestTiltedRowsByIndex:
    """The kernel takes the rows that can tilt by agent index, finds each
    one's tilted coordinate, p_d, B and t once per call (``_tilt_plan``),
    and solves the quadratic again only in a round after one of the rows it
    still solves clipped a coordinate.
    ``gathered_demand_rows`` keeps the form that gathered the tilted rows by
    mask and solved the quadratic every round; both do the same arithmetic
    on every row."""

    @staticmethod
    def mixed_pack(rng, regime, duties, scale):
        """1-13 agents, about half VEBLEN and a fifth of those pure-status
        on d1 (no log weight there), under ``regime`` scaled by ``scale``."""
        fiber = fiber_with(*scaled_regime(regime, scale), goods=GOODS3, duties=duties)
        agents = []
        for k in range(int(rng.integers(1, 14))):
            agent = random_agent(rng, name=f"a{k}", veblen=rng.uniform() < 0.5, duties=duties)
            if agent.theta and rng.uniform() < 0.2:
                agent = replace(agent, utility=replace(
                    agent.utility, beta={**agent.utility.beta, "d1": 0.0}))
            agents.append(replace(agent, endowment={g: q * scale
                                                    for g, q in agent.endowment.items()}))
        return fiber, agents

    def test_byte_for_byte_against_the_gathered_form(self):
        """Random mixed packs under each of ``KKT_REGIMES`` at scales 1e-6 to
        1e7, one vector and a 6-vector batch each, with d1 priced exactly at
        its reference in some vectors; each call is made twice, on the same
        pack. Every case the kernel tells apart occurs
        on the way: rows with two tilted duties (left to Newton), pure-status
        rows, and a tilted row whose REQUIRE_MIN floor on its tilted duty
        clips it after the first round."""
        rng = np.random.default_rng(2024)
        seen = dict.fromkeys(["two_tilted", "pure_status", "at_reference", "floor_clips"], 0)
        for k in range(160):
            regime = list(KKT_REGIMES)[k % len(KKT_REGIMES)]
            duties = ("d1", "d2")[: 1 + (k // len(KKT_REGIMES)) % 2]
            scale = 10.0 ** int(rng.integers(-6, 8))
            fiber, agents = self.mixed_pack(rng, regime, duties, scale)
            rows = AgentRows.pack(fiber, agents)
            prices = np.array([random_prices(rng, duties=len(duties)) for _ in range(6)])
            prices[::3, 3] = 1.0
            for p in (prices[0], prices[1], prices):
                want = gathered_demand_rows(rows, p).tobytes()
                for _ in range(2):
                    got = demand_rows(rows, p)
                    assert got.tobytes() == want, (k, p)
            tilt = rows.theta[:, None, None] * (prices[None, :, 3:] - rows.p_bar[:, None, :])
            tilted = (tilt != 0).sum(axis=-1)  # (agents, vectors)
            seen["two_tilted"] += int((tilted == 2).sum())
            seen["pure_status"] += int(((tilt[..., 0] > 0) & (rows.weight[:, None, 3] == 0)).sum())
            seen["at_reference"] += int((rows.theta[:, None] * (prices[:, 3] == 1.0) > 0).sum())
            if regime == "require_min":
                floor = (got[..., 3] == 0.4 * scale).T  # (agents, vectors)
                seen["floor_clips"] += int((floor & (tilted == 1) & (tilt[..., 0] != 0)).sum())
        assert all(seen.values()), seen

    @staticmethod
    def floor_pack(*veblen):
        """Under a REQUIRE_MIN of 0.4 on d1: a VEBLEN agent whose lam beta on
        d1 (3.0) keeps it above the floor, then one agent per entry of
        ``veblen`` (VEBLEN when the entry is true) with lam beta 0.04 on d1,
        which wants less than zero of it at a duty price of 0.8."""
        fiber = fiber_with(*KKT_REGIMES["require_min"], goods=GOODS3, duties=("d1",))

        def agent(name, veblen, beta):
            family = (UtilityFamily.VEBLEN_PRICE_DEPENDENT if veblen
                      else UtilityFamily.COBB_DOUGLAS_EXTENDED)
            return Agent(id=name, endowment=dict.fromkeys(GOODS3, 3.0), lam=1.0,
                         theta=1.0 if veblen else 0.0,
                         utility=UtilitySpec(family=family, alpha=dict.fromkeys(GOODS3, 1.0),
                                             beta={"d1": beta},
                                             reference_premium={"d1": 1.0}))
        agents = [agent("v", True, 3.0)] + [agent(f"a{k}", flag, 0.04)
                                           for k, flag in enumerate(veblen)]
        return AgentRows.pack(fiber, agents)

    @pytest.mark.parametrize("veblen,calls", [(False, 1), (True, 1)],
                             ids=["cobb_douglas_row_clips", "tilted_row_clips"])
    def test_quadratic_solves(self, veblen, calls, monkeypatch):
        """One vector, two rounds: the first clips the low-weight agent's
        duty to its floor. When that agent is Cobb-Douglas no tilted row
        moved; when it is VEBLEN its tilted duty clipped and its row left
        the closed form, which leaves the pool and A of the row still solved
        as they were. Either way the first round's roots stand."""
        rows = self.floor_pack(veblen)
        p = np.array([1.0, 1.0, 1.0, 0.8])
        solved = counted(monkeypatch, "_larger_root")
        got = demand_rows(rows, p)
        assert len(solved) == calls
        assert got[1, 3] == 0.4 and got[0, 3] > 0.4
        assert got.tobytes() == gathered_demand_rows(rows, p).tobytes()

    def test_quadratic_solved_again_only_after_a_solved_row_moved(self, monkeypatch):
        """A 4-vector batch on a pack whose three low-weight VEBLEN rows clip
        their tilted duty to its floor in round 1 at every vector: those
        rows leave the closed form, and the quadratic is solved once. A
        VEBLEN row with no weight on g3
        clips that good in round 1 while its duty stays free, so its
        quadratic is solved again in round 2."""
        prices = np.array([[1.0, 1.0, 1.0, 0.8], [1.2, 0.9, 1.0, 0.7],
                           [0.8, 1.1, 1.3, 0.85], [1.0, 1.4, 0.9, 0.9]])
        rows = self.floor_pack(True, True, True)
        solved = counted(monkeypatch, "_larger_root")
        got = demand_rows(rows, prices)
        assert len(solved) == 1
        assert np.all(got[:, 1:, 3] == 0.4) and np.all(got[:, 0, 3] > 0.4)
        assert got.tobytes() == gathered_demand_rows(rows, prices).tobytes()

        no_g3 = Agent(id="z", endowment=dict.fromkeys(GOODS3, 3.0), lam=1.0, theta=1.0,
                      utility=UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                                          alpha={"g1": 1.0, "g2": 1.0, "g3": 0.0},
                                          beta={"d1": 3.0}, reference_premium={"d1": 1.0}))
        rows = AgentRows.pack(rows.fiber, [no_g3])
        solved.clear()
        got = demand_rows(rows, prices)
        assert len(solved) == 2
        assert np.all(got[:, 0, 2] == 0.0) and np.all(got[:, 0, 3] > 0.4)
        assert got.tobytes() == gathered_demand_rows(rows, prices).tobytes()


class TestTiltPlan:
    """What the kernel needs of a pack's rows that can tilt at given duty
    prices (``_tilt_plan``) is built on every ``demand_rows`` call, and
    nothing on the pack remembers it."""

    @staticmethod
    def mixed_agents():
        """Under a REQUIRE_MIN floor on d1: Cobb-Douglas agents, VEBLEN ones
        that the closed form solves, and a pure-status one (no log weight on
        d1) that it leaves to Newton above the reference price."""
        fiber = fiber_with(*KKT_REGIMES["require_min"], goods=GOODS3, duties=("d1",))
        rng = np.random.default_rng(43)
        agents = [random_agent(rng, name=f"a{k}", veblen=k % 2 == 0) for k in range(7)]
        agents[2] = replace(agents[2], utility=replace(agents[2].utility, beta={"d1": 0.0}))
        return fiber, agents

    def test_every_call_builds_its_plan(self, monkeypatch):
        """Each pass on one pack builds the plan once, whether or not the
        duty prices moved since the last, and equals a fresh pack's bit for
        bit."""
        fiber, agents = self.mixed_agents()
        p1 = np.array([1.0, 1.3, 0.8, 1.4])
        passes = [p1, p1 * [1.0, 1.1, 0.9, 1.0], p1 * [1.0, 1.0, 1.0, 0.5], p1,
                  np.array([p1, p1 * [1.0, 1.0, 1.0, 0.5]])]
        fresh = [demand_rows(AgentRows.pack(fiber, agents), p).tobytes() for p in passes]
        rows = AgentRows.pack(fiber, agents)
        builds = counted(monkeypatch, "_tilt_plan")
        for built, (p, want) in enumerate(zip(passes, fresh), start=1):
            assert demand_rows(rows, p).tobytes() == want
            assert len(builds) == built
        # the pack holds its fields and its free weight, and nothing else
        assert set(vars(rows)) == {f.name for f in fields(AgentRows)} | {"free_weight"}

    def test_a_batch_over_several_duty_prices_equals_its_rows(self):
        """Batch and one-vector calls alternate on one pack; every row
        equals a fresh pack's."""
        fiber, agents = self.mixed_agents()
        rng = np.random.default_rng(44)
        prices = np.array([random_prices(rng) for _ in range(6)])
        prices[1::2, 3] = 1.4  # above the reference, where the pure-status row buys d1
        assert len(set(prices[:, 3])) == 4
        rows = AgentRows.pack(fiber, agents)
        batch = demand_rows(rows, prices)
        for p, got in list(zip(prices, batch)) + list(zip(prices[::-1], batch[::-1])):
            assert demand_rows(rows, p).tobytes() == got.tobytes()
            assert got.tobytes() == demand_rows(AgentRows.pack(fiber, agents), p).tobytes()
        assert demand_rows(rows, prices).tobytes() == batch.tobytes()

    def test_plan_is_read_only(self):
        fiber, agents = self.mixed_agents()
        rows = AgentRows.pack(fiber, agents)
        economy_plan = FiberEconomy(fiber=fiber, agents=tuple(agents),
                                    duty_prices={"d1": 1.4}).tilt_plan
        for plan in (economy._tilt_plan(rows, np.array([1.0, 1.3, 0.8, 1.4])[:, None]),
                     economy_plan):
            arrays = [a for v in plan for a in (v if isinstance(v, tuple) else (v,))]
            assert len(arrays) == 13 and all(a.size for a in arrays)  # both kinds of row
            for a in arrays + [rows.free_weight]:
                with pytest.raises(ValueError):
                    a[...] = 0
        untilted = AgentRows.pack(fiber, [agents[1]])
        assert economy._tilt_plan(untilted, np.ones((4, 1))) is None  # no row can tilt


def scaled_regime(regime, scale):
    """One of ``KKT_REGIMES`` with its claim amount and floor level times
    ``scale``."""
    maxims, active = KKT_REGIMES[regime]
    return ({key: {**spec, **{term: spec[term] * scale
                              for term in ("amount", "level") if term in spec}}
             for key, spec in maxims.items()}, active)


class TestClosedFormRows:
    """Rows without a status tilt take the active-set closed form, with no
    check after it and no second solve."""

    @pytest.mark.parametrize("regime", list(KKT_REGIMES))
    def test_every_row_meets_first_order_conditions(self, regime):
        rng = np.random.default_rng(71 + list(KKT_REGIMES).index(regime))
        for scale in 10.0 ** np.arange(-6, 8):
            fiber = fiber_with(*scaled_regime(regime, scale), goods=GOODS3, duties=("d1",))
            agents = [random_agent(rng, name=f"a{k}") for k in range(8)]
            agents = [replace(a, endowment={g: q * scale for g, q in a.endowment.items()})
                      for a in agents]
            prices = np.array([random_prices(rng) for _ in range(8)])
            batch = demand_rows(AgentRows.pack(fiber, agents), prices)
            for p, rows in zip(prices, batch):
                for coords, agent in zip(rows, agents):
                    bundle = ExtendedBundle(x=coords[:3], e=coords[3:])
                    assert kkt_residual(agent, p, fiber, bundle) <= 1e-9, scale

    def test_floors_that_cost_the_budget_hold_every_row_at_its_bounds(self):
        """A duty floor that costs the budget to within the feasibility
        check's 1e-12 leaves the free goods a pool of budget at or below
        zero once the floor is clipped (each good's offset costs eps p).
        The closed form then clips every coordinate."""
        level = 0.4
        fiber = fiber_with(*KKT_REGIMES["require_min"], goods=GOODS3, duties=("d1",))
        rng = np.random.default_rng(81)
        agents = [replace(random_agent(rng, name=f"a{k}"), endowment=dict.fromkeys(GOODS3, 1e4))
                  for k in range(4)]
        goods_prices = rng.uniform(0.3, 3.0, (8, 3))
        w = 1e4 * goods_prices.sum(axis=1)
        over = np.linspace(2e-13, 9e-13, 8)  # the floor's cost over the budget, relative
        prices = np.column_stack([goods_prices, w * (1 + over) / level])
        assert np.all(w - prices[:, 3] * level + EPSILON * goods_prices.sum(axis=1) <= 0)
        batch = demand_rows(AgentRows.pack(fiber, agents), prices)
        np.testing.assert_array_equal(batch, np.broadcast_to([0.0, 0.0, 0.0, level], batch.shape))
        for p, rows in zip(prices, batch):
            for coords, agent in zip(rows, agents):
                bundle = ExtendedBundle(x=coords[:3], e=coords[3:])
                assert kkt_residual(agent, p, fiber, bundle) <= 1e-9


def pole_tolerance(rows, p, want):
    """How far two solvers may differ at ``want``. Each finds mu to a few
    ulps, and a duty whose denominator mu p - tilt is a small difference of
    large numbers magnifies that by mu p / (mu p - tilt) = 1 + tilt (e + 1) /
    weight, so 1e-12 (1 + |q|) is multiplied by that factor (1 for goods and
    for duties priced at or below their reference)."""
    n = rows.fiber.n
    tilt = rows.theta[:, None] * np.maximum(p[n:] - rows.p_bar, 0.0)
    duty_weight = rows.weight[:, n:]
    magnified = np.ones_like(want)
    magnified[:, n:] += np.divide(tilt * (want[:, n:] + 1.0), duty_weight,
                                  out=np.zeros_like(duty_weight), where=duty_weight > 0)
    return 1e-12 * (1 + np.abs(want)) * magnified


def counted(monkeypatch, name):
    """The calls made to ``economy.<name>`` from now on, one entry each."""
    calls, original = [], getattr(economy, name)
    monkeypatch.setattr(economy, name, lambda *args: calls.append(1) or original(*args))
    return calls


class TestMultiplierRows:
    """Status-tilted rows against the retired bisection and the first-order
    conditions. A row with one tilted duty takes the closed form of
    ``_active_set_rows``; rows with two tilted duties, and pure-status rows
    (zero log weight, positive tilt), take Newton's method on the income
    multiplier in ``_multiplier_rows``."""

    @staticmethod
    def check(fiber, agents, prices, spends=None, kkt_tol=1e-9):
        """Every row of a batch call against the bisection, and every row
        that spends its budget (``spends``, per vector; all by default)
        against the first-order conditions to ``kkt_tol``; the bisection
        to ``pole_tolerance``."""
        rows = AgentRows.pack(fiber, agents)
        batch = demand_rows(rows, prices)
        for m, (p, got) in enumerate(zip(prices, batch)):
            want = bisection_demand_rows(rows, p)
            assert np.all(np.abs(got - want) <= pole_tolerance(rows, p, want))
            for coords, agent in zip(got, agents):
                if spends is None or spends[m]:
                    bundle = ExtendedBundle(x=coords[:3], e=coords[3:])
                    assert kkt_residual(agent, p, fiber, bundle) < kkt_tol
        return batch

    @pytest.mark.parametrize("regime", list(KKT_REGIMES))
    def test_half_veblen_batch_on_both_sides_of_the_reference(self, regime):
        rng = np.random.default_rng(31 + list(KKT_REGIMES).index(regime))
        fiber = fiber_with(*KKT_REGIMES[regime], goods=GOODS3, duties=("d1",))
        agents = [random_agent(rng, name=f"a{k}", veblen=k % 2 == 1) for k in range(12)]
        agents = [replace(a, theta=float(rng.uniform(0.0, 5.0))) if a.theta else a
                  for a in agents]
        prices = np.array([random_prices(rng) for _ in range(16)])
        assert (prices[:, 3] < 1.0).any() and (prices[:, 3] > 1.0).any()
        self.check(fiber, agents, prices)

    def test_status_only_agent_spends_its_budget_above_the_reference(self):
        """Spending jumps where the status premium starts to pay, and the
        leftover budget goes to the duty; the bisection evaluated at its
        bracket's midpoint overspent by 1 about half the time here."""
        fiber, agents = status_only_agents()
        rng = np.random.default_rng(7)
        prices = np.vstack([STATUS_PRICES,
                            np.column_stack([rng.uniform(0.3, 3.0, (32, 3)),
                                             rng.uniform(1.05, 3.0, 32)])])
        # below the reference nothing is worth buying: the agent keeps its
        # bounds and leaves its budget, outside the first-order oracle
        self.check(fiber, agents, prices, spends=prices[:, 3] > 1.0)

    def test_require_min_floor_binds_at_the_root(self):
        rng = np.random.default_rng(41)
        fiber = fiber_with(*KKT_REGIMES["require_min"], goods=GOODS3, duties=("d1",))
        agents = [replace(random_agent(rng, name=f"a{k}", veblen=True),
                          theta=float(rng.uniform(0.5, 5.0))) for k in range(8)]
        # a duty priced below the reference is worth less than its price
        prices = np.array([np.concatenate([rng.uniform(0.3, 3.0, 3), [rng.uniform(0.5, 0.8)]])
                           for _ in range(6)])
        batch = self.check(fiber, agents, prices)
        assert np.all(batch[..., 3] >= 0.4) and np.any(batch[..., 3] == 0.4)

    @pytest.mark.parametrize("scale", [10.0 ** k for k in range(-6, 8)])
    def test_endowment_scale(self, scale):
        """The status term does not scale with the endowments, so at scale k
        a VEBLEN duty's marginal utility per unit of money is about 1/k of
        the two terms it is the difference of. ``kkt_residual`` checks that
        condition in a form without the difference, and reads about 1e-16 at
        every scale here (the difference read 1.3e-9 at 1e6)."""
        rng = np.random.default_rng(51)
        fiber = fiber_with(*KKT_REGIMES["forbid"], goods=GOODS3, duties=("d1",))
        agents = [random_agent(rng, name=f"a{k}", veblen=k % 2 == 1) for k in range(8)]
        agents = [replace(a, endowment={g: q * scale for g, q in a.endowment.items()})
                  for a in agents]
        self.check(fiber, agents, np.array([random_prices(rng) for _ in range(8)]),
                   kkt_tol=1e-9)

    @pytest.mark.parametrize("regime", list(KKT_REGIMES))
    def test_two_tilted_duties_take_newton(self, regime, monkeypatch):
        duties = ("d1", "d2")
        rng = np.random.default_rng(91 + list(KKT_REGIMES).index(regime))
        fiber = fiber_with(*KKT_REGIMES[regime], goods=GOODS3, duties=duties)
        agents = [random_agent(rng, name=f"a{k}", veblen=k % 2 == 1, duties=duties)
                  for k in range(12)]
        prices = np.array([random_prices(rng, duties=2) for _ in range(16)])
        calls = counted(monkeypatch, "_multiplier_rows")
        self.check(fiber, agents, prices)
        assert calls

    def test_few_spending_evaluations_per_demand(self, monkeypatch):
        """VEBLEN agents as the many-agent benchmark builds them (3 goods,
        reference 1.0), with two duties priced 1.2 and 0.8, so Newton's method
        runs. Bisection to rounding took 61 evaluations of spending per
        ``demand`` call; Newton takes a median of 12 here (worst 16). A batch
        runs until its slowest row stops, so the worst row counts too."""
        duties = ("d1", "d2")
        calls = counted(monkeypatch, "_spend")
        rng = np.random.default_rng(61)
        counts = []
        for k in range(120):
            fiber = fiber_with(*list(KKT_REGIMES.values())[k % 4], goods=GOODS3,
                               duties=duties)
            spec = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                               alpha=dict(zip(GOODS3, rng.dirichlet([2.0] * 3).tolist())),
                               beta={d: float(rng.uniform(0.2, 1.0)) for d in duties},
                               reference_premium=dict.fromkeys(duties, 1.0))
            agent = Agent(id="a", utility=spec,
                          endowment=dict(zip(GOODS3, rng.uniform(0.5, 2.0, 3).tolist())),
                          lam=float(rng.uniform(0.2, 1.0)), theta=float(rng.uniform(0.5, 2.0)))
            calls.clear()
            demand(agent, np.array([1.0, 1.0, 1.0, 1.2, 0.8]), fiber)
            counts.append(len(calls))
        assert np.median(counts) <= 25 and max(counts) <= 25

    @pytest.mark.parametrize("regime", list(KKT_REGIMES))
    def test_one_tilted_duty_never_reaches_newton(self, regime, monkeypatch):
        """Rows with one tilted duty and some untilted weight, at every
        endowment scale the suite tests and on both sides of the reference,
        meet the first-order conditions without Newton's method. So do they
        at 1e100 to 1e250: past a budget times tilt of about 1e154 the
        quadratic's squares overflowed, and above the reference a large
        budget puts mu p within rounding of the tilt, which left the duty a
        net price of zero or below. The bisection oracle cannot follow there
        (it resolves mu, not mu p - tilt, to rounding); the first-order
        conditions certify the optimum."""
        rng = np.random.default_rng(101 + list(KKT_REGIMES).index(regime))
        calls = counted(monkeypatch, "_multiplier_rows")
        for scale in np.concatenate([10.0 ** np.arange(-6, 8), [1e100, 1e160, 1e250]]):
            fiber = fiber_with(*scaled_regime(regime, scale), goods=GOODS3, duties=("d1",))
            agents = [random_agent(rng, name=f"a{k}", veblen=True) for k in range(8)]
            agents = [replace(a, endowment={g: q * scale for g, q in a.endowment.items()})
                      for a in agents]
            prices = np.array([random_prices(rng) for _ in range(8)])
            batch = demand_rows(AgentRows.pack(fiber, agents), prices)
            for p, rows in zip(prices, batch):
                for coords, agent in zip(rows, agents):
                    bundle = ExtendedBundle(x=coords[:3], e=coords[3:])
                    assert kkt_residual(agent, p, fiber, bundle) <= 1e-9, scale
        assert calls == []

    def test_floor_that_takes_most_of_the_budget(self):
        """A REQUIRE_MIN floor on g0 costing 90-99.9% of disposable income
        leaves spending a large constant plus a small part that moves with
        mu. Newton's method on mu then cycled between two values a few ulps
        apart and raised NoConvergence on about a fifth of these rows; the
        closed form solves every one."""
        goods = ("g0",) + GOODS3
        fiber = fiber_with({"d1": {"class": "imperfect"},
                            "c": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "g0",
                                  "level": 1.0}}, ["c"], goods=goods, duties=("d1",))
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = np.concatenate([rng.uniform(0.3, 3.0, 4), rng.uniform(0.5, 2.0, 1)])
            agents = []
            for k in range(100):
                share = rng.uniform(0.9, 0.999)
                held = np.concatenate([[0.0], rng.uniform(0.5, 2.0, 3)])
                held *= p[0] / share / (held @ p[:4])  # one unit of g0 costs share
                spec = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                                   alpha=dict(zip(goods, rng.uniform(0.1, 1.0, 4).tolist())),
                                   beta={"d1": float(rng.uniform(0.2, 1.5))},
                                   reference_premium={"d1": 1.0})
                agents.append(Agent(id=f"a{k}", utility=spec,
                                    endowment=dict(zip(goods, held.tolist())),
                                    lam=float(rng.uniform(0.2, 2.0)),
                                    theta=float(rng.uniform(0.5, 2.0))))
            rows = AgentRows.pack(fiber, agents)
            got = demand_rows(rows, p)
            w = rows.endowment @ p[:4]
            assert np.all(np.abs(got @ p - w) <= 4 * np.finfo(float).eps * w)
            for coords, agent in zip(got, agents):
                bundle = ExtendedBundle(x=coords[:4], e=coords[4:])
                assert kkt_residual(agent, p, fiber, bundle) <= 1e-9


class TestTiltedClosedForm:
    """Random rows with one duty, against Newton's method on the same rows,
    the bisection oracle and the first-order conditions."""

    @settings(max_examples=150, deadline=None)
    @given(goods=st.integers(2, 5),
           regime=st.sampled_from(["free", "forbid", "prior_claim", "floor_on_good",
                                   "floor_on_duty"]),
           share=st.floats(0.0, 0.999),
           log_scale=st.floats(-4.0, 5.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_duty_rows(self, goods, regime, share, log_scale, seed):
        """Half the agents VEBLEN, duty prices on both sides of the
        reference, some zero weights (g0's never, so every row has untilted
        weight), endowments at 10^log_scale, and a claim or floor that costs
        ``share`` of the poorest agent's income."""
        rng = np.random.default_rng(seed)
        names = tuple(f"g{i}" for i in range(goods))
        held = rng.uniform(0.5, 2.0, (6, goods)) * 10.0 ** log_scale
        agents = []
        for k, endowment in enumerate(held):
            alpha = rng.uniform(0.1, 1.0, goods) * (rng.uniform(size=goods) > 0.25)
            alpha[0] = max(alpha[0], 0.1)
            veblen = k % 2 == 1
            spec = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT if veblen
                               else UtilityFamily.COBB_DOUGLAS_EXTENDED,
                               alpha=dict(zip(names, alpha.tolist())),
                               beta={"d1": float(rng.uniform(0.2, 1.5) * (rng.uniform() > 0.25))},
                               reference_premium={"d1": 1.0})
            agents.append(Agent(id=f"a{k}", utility=spec,
                                endowment=dict(zip(names, endowment.tolist())),
                                lam=float(rng.uniform(0.2, 2.0)),
                                theta=float(rng.uniform(0.5, 2.0)) if veblen else 0.0))
        p = np.concatenate([rng.uniform(0.3, 3.0, goods), rng.uniform(0.5, 2.0, 1)])
        cost = share * (held @ p[:goods]).min()
        duty = {"forbid": {"kind": "FORBID", "target": names[-1]},
                "prior_claim": {"kind": "PRIOR_CLAIM", "amount": cost},
                "floor_on_good": {"kind": "REQUIRE_MIN", "target": "g0", "level": cost / p[0]},
                "floor_on_duty": {"kind": "REQUIRE_MIN", "target": "d1",
                                  "level": cost / p[goods]}}.get(regime)
        maxims = {"d1": {"class": "imperfect"}}
        if duty:
            maxims["c"] = {"class": "perfect", **duty}
        fiber = fiber_with(maxims, ["c"] if duty else [], goods=names, duties=("d1",))
        rows = AgentRows.pack(fiber, agents)

        got = demand_rows(rows, p)
        want = bisection_demand_rows(rows, p)
        assert np.all(np.abs(got - want) <= pole_tolerance(rows, p, want))
        tilt = np.zeros(rows.weight.shape)
        tilt[:, goods:] = rows.theta[:, None] * (p[goods:] - rows.p_bar)
        _, w = economy._income(fiber, rows.endowment, p)
        try:
            with np.errstate(all="ignore"):
                newton = economy._multiplier_rows(fiber, np.broadcast_to(p, tilt.shape), w,
                                                  rows.weight, tilt)
        except NoConvergence:
            newton = None
        if newton is not None:
            assert np.all(np.abs(got - newton) <= pole_tolerance(rows, p, newton))
        for coords, agent in zip(got, agents):
            bundle = ExtendedBundle(x=coords[:goods], e=coords[goods:])
            assert kkt_residual(agent, p, fiber, bundle) <= 1e-9


class TestDemandJacobian:
    """The kernel's exact derivative in the free goods prices against central
    differences of the kernel, to 1e-6 relative, at prices where no bump
    crosses a kink (central differences are good to about 1e-9 there)."""

    @staticmethod
    def check(fiber, agents, prices):
        """Every price vector of a batch; returns the batch of coordinates."""
        rows = AgentRows.pack(fiber, agents)
        free = FiberEconomy(fiber=fiber, agents=tuple(agents)).free_indices()
        batch = demand_rows(rows, prices)
        for p, coords in zip(prices, batch):
            exact = demand_jacobian(rows, p, coords, free)
            reference = central_difference_jacobian(
                lambda q: demand_rows(rows, q).sum(axis=0), p, free)
            assert exact.shape == (len(free), len(free))
            assert np.max(np.abs(exact - reference)) <= 1e-6 * np.max(np.abs(reference))
        return batch

    @pytest.mark.parametrize("regime", list(KKT_REGIMES))
    def test_half_veblen_batch_of_random_prices(self, regime):
        rng = np.random.default_rng(91 + list(KKT_REGIMES).index(regime))
        fiber = fiber_with(*KKT_REGIMES[regime], goods=GOODS3, duties=("d1",))
        agents = [random_agent(rng, name=f"a{k}", veblen=k % 2 == 1) for k in range(12)]
        prices = np.array([random_prices(rng) for _ in range(8)])
        assert (prices[:, 3] < 1.0).any() and (prices[:, 3] > 1.0).any()
        self.check(fiber, agents, prices)

    def test_binding_require_min_floors(self):
        """A duty priced below its reference holds VEBLEN rows at the duty's
        floor, and a floor on the free good g2 binds for the rows that care
        little for it: a good held at its floor costs its floor times its
        price, which the rest of the row pays for."""
        maxims, active = KKT_REGIMES["require_min"]
        fiber = fiber_with({**maxims, "m": {"class": "perfect", "kind": "REQUIRE_MIN",
                                            "target": "g2", "level": 0.8}},
                           active + ["m"], goods=GOODS3, duties=("d1",))
        rng = np.random.default_rng(93)
        agents = [replace(random_agent(rng, name=f"a{k}", veblen=k % 2 == 0),
                          theta=float(rng.uniform(0.5, 5.0))) for k in range(8)]
        prices = np.array([np.concatenate([rng.uniform(0.3, 3.0, 3), [rng.uniform(0.5, 0.8)]])
                           for _ in range(6)])
        batch = self.check(fiber, agents, prices)
        assert np.any(batch[..., 3] == 0.4) and np.any(batch[..., 3] > 0.4)
        assert np.any(batch[..., 1] == 0.8) and np.any(batch[..., 1] > 0.8)

    def test_forbidden_good_has_no_column(self):
        """Under FORBID g3 only g2 is free. The status-only agent puts all its
        log weight on g3: below the reference it sits at its bounds and does
        not move, above it its budget goes to the duty."""
        fiber, agents = status_only_agents()
        rng = np.random.default_rng(95)
        prices = np.vstack([STATUS_PRICES, np.column_stack([rng.uniform(0.3, 3.0, (6, 3)),
                                                            rng.uniform(0.5, 3.0, 6)])])
        batch = self.check(fiber, agents, prices)
        assert np.all(batch[..., 2] == 0.0)

    def test_pure_status_row_on_its_leftover_rule(self):
        """A VEBLEN agent with no log weight on the duty and a duty priced
        above its reference buys goods until their marginal utility per unit
        of money falls to tilt / p of the duty, and puts what is left into
        the duty. That pins mu, so each good moves only with its own price
        (a diagonal Jacobian) and the duty absorbs the budget change."""
        fiber = fiber_with(*KKT_REGIMES["free"], goods=GOODS3, duties=("d1",))
        rng = np.random.default_rng(97)
        agents = [Agent(id=f"s{k}", endowment=dict(zip(GOODS3, rng.uniform(5.0, 10.0, 3))),
                        utility=UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                                            alpha=dict(zip(GOODS3, rng.uniform(0.1, 1.0, 3))),
                                            beta={"d1": 0.0}, reference_premium={"d1": 1.0}),
                        theta=1.0)
                  for k in range(4)]
        prices = np.column_stack([rng.uniform(0.3, 3.0, (6, 3)), rng.uniform(1.5, 3.0, 6)])
        batch = self.check(fiber, agents, prices)
        assert np.all(batch[..., 3] > 1.0)
        rows = AgentRows.pack(fiber, agents)
        exact = demand_jacobian(rows, prices[0], batch[0], [1, 2])
        assert exact[0, 1] == exact[1, 0] == 0.0


class TestIncomeRule:
    """``disposable_income`` and the demand kernel apply one income rule."""

    def test_same_income_and_same_error_under_claim_and_forbid(self):
        fiber = fiber_with(*CLAIM_AND_FORBID, goods=GOODS3, duties=("d1",))
        rng = np.random.default_rng(4)
        for k in range(20):
            agent = random_agent(rng, veblen=k % 2 == 1)
            p = random_prices(rng)
            # demand spends exactly the disposable budget; the forbidden g3
            # endowment earns nothing on either path
            spent = float(p @ demand(agent, p, fiber).coords)
            assert spent == pytest.approx(disposable_income(agent, p, fiber), rel=1e-12)
            # a high price of the forbidden good would pay the claims if it counted
            poor = p * np.array([0.01, 0.01, 100.0, 1.0])
            with pytest.raises(InfeasibleDutySet) as from_income:
                disposable_income(agent, poor, fiber)
            with pytest.raises(InfeasibleDutySet) as from_demand:
                demand(agent, poor, fiber)
            assert str(from_income.value) == str(from_demand.value)
            assert "prior claims 0.3 exceed income" in str(from_demand.value)


class TestNonFiniteInputs:
    """A sign test such as ``x < 0`` is False for NaN and passes infinity,
    so each check rejects non-finite values explicitly. The config path
    rejects them already; built in code, they would reach demand."""

    @pytest.mark.parametrize("field", ["lam", "theta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_agent_intensities(self, field, value):
        spec = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                           alpha={"g1": 1.0}, beta={"d1": 1.0})
        with pytest.raises(NegativeInput, match="finite"):
            Agent(id="a", endowment={"g1": 1.0}, utility=spec, **{field: value})

    @pytest.mark.parametrize("weights", [
        {"alpha": {"g1": np.nan}},
        {"alpha": {"g1": 1.0, "g2": np.inf}},
        {"alpha": {"g1": 1.0}, "beta": {"d1": np.nan}},
        {"alpha": {"g1": 1.0}, "beta": {"d1": np.inf}},
    ])
    def test_utility_weights(self, weights):
        with pytest.raises(NegativeInput, match="finite"):
            UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT, **weights)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_reference_premium(self, value):
        with pytest.raises(ValueError, match="finite"):
            UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT, alpha={"g1": 1.0},
                        reference_premium={"d1": value})

    @pytest.mark.parametrize("coords", [([np.nan], [0.0]), ([1.0], [np.nan])])
    def test_bundle_coordinates(self, coords):
        with pytest.raises(NegativeInput):
            ExtendedBundle(*coords)

    def test_nan_price_rejected_by_demand(self):
        fiber = plain_fiber(goods=("g1", "g2"), duties=("d1",))
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 1.0, "g2": 1.0}))
        with pytest.raises(NonPositivePrice, match="'g2'"):
            demand(agent, np.array([1.0, np.nan, 1.0]), fiber)

    def test_nan_duty_price_rejected_by_the_economy(self):
        fiber = plain_fiber(goods=("g1",), duties=("d1",))
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 1.0}))
        with pytest.raises(NonPositivePrice, match="'d1'"):
            FiberEconomy(fiber=fiber, agents=(agent,), duty_prices={"d1": np.nan})


PRICED_FIBER = plain_fiber(goods=("g1", "g2"), duties=("d1",))
PRICED_AGENT = Agent(id="a", endowment={"g1": 1.0, "g2": 1.0}, lam=1.0, theta=1.0,
                     utility=UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                                         alpha={"g1": 0.5, "g2": 0.5}, beta={"d1": 1.0}))
# each entry point of the package that takes prices, at the vector ``p``
PRICE_ENTRY_POINTS = {
    "disposable_income": lambda p: disposable_income(PRICED_AGENT, p, PRICED_FIBER),
    "feasible": lambda p: feasible(PRICED_AGENT, p, PRICED_FIBER,
                                   ExtendedBundle(x=[0.1, 0.1], e=[0.0])),
    "utility_value": lambda p: utility_value(PRICED_AGENT.utility, [1.0, 1.0], [0.5], p,
                                             PRICED_FIBER, theta=1.0),
    "demand": lambda p: demand(PRICED_AGENT, p, PRICED_FIBER),
    "demand_rows": lambda p: demand_rows(AgentRows.pack(PRICED_FIBER, [PRICED_AGENT]), p),
    "demand_rows_batch": lambda p: demand_rows(AgentRows.pack(PRICED_FIBER, [PRICED_AGENT]),
                                               np.array([[1.0, 1.0, 1.0], p])),
    "fiber_economy": lambda p: FiberEconomy(fiber=PRICED_FIBER, agents=(PRICED_AGENT,),
                                            duty_prices={"d1": p[2]}),
    "price_vector": lambda p: PriceVector(p, PRICED_FIBER.dims),
    "solve_tatonnement_p0": lambda p: solve_tatonnement(
        FiberEconomy(fiber=PRICED_FIBER, agents=(PRICED_AGENT,)), p0=p),
    # the duty's swept price, or a good's in the base vector
    "veblen_sweep": lambda p: veblen_demand_curve(PRICED_AGENT, PRICED_FIBER, "d1",
                                                  [1.5, p[2]], base_prices=p),
}


class TestEveryPriceEntryPoint:
    """Each entry point refuses a price that is not positive and finite
    (0 < p < inf, which NaN fails) with NonPositivePrice, naming its
    dimension. It does so before any arithmetic on the price, so no
    RuntimeWarning appears (the suite turns one into an error)."""

    @pytest.mark.parametrize("entry,dim", [
        (entry, dim) for entry in PRICE_ENTRY_POINTS for dim in ("g1", "d1")
        if (entry, dim) != ("fiber_economy", "g1")])  # its goods prices are not an input
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_names_the_dimension(self, entry, dim, value):
        p = np.array([1.0, 1.0, 1.0])
        p[PRICED_FIBER.dims.index(dim)] = value
        with pytest.raises(NonPositivePrice, match=f"'{dim}'.*positive and finite"):
            PRICE_ENTRY_POINTS[entry](p)

    def test_the_first_bad_dimension_is_named(self):
        for entry in ("demand_rows", "demand_rows_batch", "price_vector", "utility_value"):
            with pytest.raises(NonPositivePrice, match="'g2'"):
                PRICE_ENTRY_POINTS[entry](np.array([1.0, 0.0, -3.0]))


class TestFiberEconomy:
    def test_solvability_warning_fires(self):
        fiber = plain_fiber()
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 1.0, "g2": 1.0}))
        economy = FiberEconomy(fiber=fiber, agents=(agent,))
        assert any("g2" in w for w in economy.warnings)

    def test_unvalued_good_warning_fires(self):
        fiber = plain_fiber(goods=("g1", "g2", "g3"))
        agents = tuple(Agent(id=f"a{k}", endowment=dict.fromkeys(("g1", "g2", "g3"), 1.0),
                             utility=cd_spec({"g1": 1.0, "g2": 0.5, "g3": 0.0}))
                       for k in range(2))
        economy = FiberEconomy(fiber=fiber, agents=agents)
        assert economy.warnings == ["no agent values 'g3': every alpha on it is zero"]
        valued = replace(agents[1], utility=cd_spec({"g1": 1.0, "g3": 0.1}))
        assert FiberEconomy(fiber=fiber, agents=(agents[0], valued)).warnings == []

    @pytest.mark.parametrize("key", ["d_typo", "g1"])
    def test_a_duty_price_for_no_duty_of_the_fiber_is_refused(self, key):
        """Such a key used to be ignored, and the duty kept the price 1.0."""
        agent = Agent(id="a", endowment={"g1": 1.0, "g2": 1.0},
                      utility=cd_spec({"g1": 1.0, "g2": 1.0}))
        with pytest.raises(UnknownReference, match=f"'{key}' in duty prices of fiber 'y'"):
            FiberEconomy(fiber=plain_fiber(duties=("d1",)), agents=(agent,),
                         duty_prices={"d1": 2.0, key: 5.0})

    def test_varying_fiber_dimensions(self):
        f1 = Fiber(y_id="y1", goods=("g1",), duties=("d1", "d2"))
        f2 = Fiber(y_id="y2", goods=("g1", "g2", "g3"), duties=())
        assert (f1.n, f1.l) == (1, 2)
        assert (f2.n, f2.l) == (3, 0)

    def test_all_goods_forbidden_rejected(self):
        fiber = fiber_with({"ban1": {"class": "perfect", "kind": "FORBID", "target": "g1"},
                            "ban2": {"class": "perfect", "kind": "FORBID", "target": "g2"}},
                           ["ban1", "ban2"])
        agent = Agent(id="a", endowment={"g1": 1.0}, utility=cd_spec({"g1": 1.0}))
        with pytest.raises(ValueError):
            FiberEconomy(fiber=fiber, agents=(agent,))
