"""Excess demand, tatonnement, the grid oracle, and the equilibrium index."""

import warnings

import numpy as np
import pytest

from dutybound import economy as economy_module
from dutybound import equilibrium
from dutybound.duty import compile_constraints, load_registry
from dutybound.economy import (
    Agent,
    AgentRows,
    ExtendedBundle,
    Fiber,
    FiberEconomy,
    UtilityFamily,
    UtilitySpec,
    demand,
    demand_rows,
    disposable_income,
)
from dutybound.equilibrium import (
    PriceVector,
    duty_expenditure_share,
    equilibrium_index,
    excess_demand,
    relative_residual,
    solve_grid_oracle,
    solve_tatonnement,
    trade_volumes,
    walras_gap,
)
from dutybound.errors import (
    DimensionTooLarge,
    InfeasibleDutySet,
    NegativeInput,
    NonPositivePrice,
    SingularJacobian,
)
from dutybound.preferences import EPSILON

from oracles import (
    absolute_walras_gap,
    cd_equilibrium_2good,
    cd_equilibrium_prices,
    duty_spend_by_loop,
    trade_volumes_by_loop,
)


def cd_agent(name, alpha1, w1, w2):
    spec = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                       alpha={"g1": alpha1, "g2": 1.0 - alpha1})
    return Agent(id=name, endowment={"g1": w1, "g2": w2}, utility=spec)


def two_good_economy(agents):
    return FiberEconomy(fiber=Fiber(y_id="y", goods=("g1", "g2"), duties=()),
                        agents=tuple(agents))


def symmetric_economy():
    return two_good_economy([cd_agent("A", 0.5, 1.0, 0.0), cd_agent("B", 0.5, 0.0, 1.0)])


def cd_economy(alpha, endowments):
    """Goods-only Cobb-Douglas exchange, one row of weights and holdings per agent."""
    goods = tuple(f"g{i + 1}" for i in range(len(alpha[0])))
    agents = tuple(Agent(id=f"a{k}", endowment=dict(zip(goods, map(float, w))),
                         utility=UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                                             alpha=dict(zip(goods, map(float, a)))))
                   for k, (a, w) in enumerate(zip(alpha, endowments)))
    return FiberEconomy(fiber=Fiber(y_id="y", goods=goods, duties=()), agents=agents)


# a 3-good Cobb-Douglas exchange with one equilibrium, one row per agent
THREE_GOOD_ALPHA = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
THREE_GOOD_W = [[2.0, 0.5, 1.0], [1.0, 1.5, 0.5], [0.5, 1.0, 1.5]]


class CustomMarket:
    """The solvers' market interface (listed in the ``equilibrium`` module
    docstring) around a subclass's map of one price vector, ``z_at``, and
    its ``jacobian``. Good 1 is the numeraire and every other price is free,
    starting at one; excess demand is measured in units of 1; no agent holds
    income, so ``walras_gap`` reads |p.z| itself; and there is no
    allocation."""

    numeraire_index = 0
    dims: tuple[str, ...]

    def free_indices(self):
        return list(range(1, len(self.dims)))

    def initial_prices(self):
        return np.ones(len(self.dims))

    @property
    def units(self):
        return np.ones(len(self.dims))

    def excess_demand(self, prices):
        if prices.ndim == 2:
            return np.array([self.z_at(p) for p in prices])
        return self.z_at(prices)

    def total_income(self, prices):
        return 0.0

    def demands(self, prices):
        return {}


class TangentEconomy(CustomMarket):
    """z2 = (p2 - 1)^2 + offset: with offset 0 a double root at p2 = 1,
    where z2 touches zero without changing sign; with a positive offset no
    root at all. A second free price adds z3 = p3 - 1. Walras-consistent by
    construction: z1 = -(p2 z2 + p3 z3). With no free price z1 is the
    offset itself."""

    def __init__(self, free_prices: int, offset: float):
        self.dims = ("g1", "g2", "g3")[: free_prices + 1]
        self.offset = offset

    def z_at(self, p):
        if len(p) == 1:
            return np.array([self.offset])
        z = p - 1.0
        z[1] = z[1] ** 2 + self.offset
        z[0] = -(p[1:] @ z[1:])
        return z

    def jacobian(self, p, free):
        slopes = np.ones(len(free))  # dz3/dp3
        slopes[:1] = 2.0 * (p[1:2] - 1.0)  # dz2/dp2
        return np.diag(slopes)


class SyntheticEconomy(CustomMarket):
    """Two-good excess demand with three equilibria at p2 in {0.5, 1, 2}.

    Walras-consistent by construction: z1 = -p2 * z2. This is the classic
    desk-scale shape for multiplicity: demand for good 2 crosses zero three
    times with alternating slopes.
    """

    dims = ("g1", "g2")

    def z_at(self, p):
        p2 = float(p[1])
        z2 = -(p2 - 0.5) * (p2 - 1.0) * (p2 - 2.0) / p2 ** 2
        return np.array([-p2 * z2, z2])

    def jacobian(self, p, free):
        # z2 = -(p2 - 3.5 + 3.5 / p2 - 1 / p2^2)
        p2 = float(p[1])
        return np.array([[-(1.0 - 3.5 / p2 ** 2 + 2.0 / p2 ** 3)]])


class TestExcessDemand:
    def test_names_first_agent_whose_claim_exceeds_income(self):
        reg = load_registry({
            "goods": ["g1", "g2"], "imperfect_duties": [],
            "maxims": {"debt": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 1.0}},
            "bundles": {"y": {"label": "y", "active": ["debt"]}},
        })
        fiber = Fiber(y_id="y", goods=("g1", "g2"), duties=(),
                      constraints=compile_constraints(reg.bundles["y"], reg))
        economy = FiberEconomy(fiber=fiber, agents=(
            cd_agent("rich", 0.5, 3.0, 3.0), cd_agent("poor", 0.5, 0.3, 0.2),
            cd_agent("poorer", 0.5, 0.1, 0.1)))
        with pytest.raises(InfeasibleDutySet, match="'poor'") as err:
            excess_demand(economy, np.array([1.0, 1.0]))
        assert err.value.agent_id == "poor"

    def test_names_the_nonpositive_price(self):
        with pytest.raises(NonPositivePrice, match="'g2'"):
            excess_demand(symmetric_economy(), np.array([1.0, -0.5]))

    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_price_vector_names_the_nonpositive_price(self, value):
        with pytest.raises(NonPositivePrice, match="'g2'"):
            PriceVector(np.array([1.0, value]), ("g1", "g2"))

    def test_symmetric_clears_at_unit_prices(self):
        z = excess_demand(symmetric_economy(), np.array([1.0, 1.0]))
        assert np.allclose(z, 0.0, atol=1e-9)

    def test_skewed_prices_sign_pattern_and_walras(self):
        economy = symmetric_economy()
        p = np.array([1.0, 2.0])
        z = excess_demand(economy, p)
        # good 2 became expensive: excess demand for good 1, excess supply of 2
        assert z[0] > 0 and z[1] < 0
        assert absolute_walras_gap(p, z) <= 1e-10

    def test_single_agent_autarky(self):
        """One agent: the value of excess demand vanishes at every price
        (budget exhaustion), and markets clear at the agent's supporting
        price, where demand equals the endowment exactly."""
        economy = two_good_economy([cd_agent("solo", 0.4, 1.0, 2.0)])
        for p2 in (0.5, 1.0, 3.0):
            p = np.array([1.0, p2])
            assert absolute_walras_gap(p, excess_demand(economy, p)) <= 1e-12
        # supporting price of the endowment: p2 = (a2 / a1) * (w1 / w2)
        p_star = np.array([1.0, (0.6 / 0.4) * (1.0 / 2.0)])
        assert np.allclose(excess_demand(economy, p_star), 0.0, atol=1e-8)

    def test_walras_holds_with_duties_and_claims(self):
        reg = load_registry({
            "goods": ["g1", "g2"],
            "imperfect_duties": ["d1"],
            "maxims": {
                "d1": {"class": "imperfect"},
                "debt": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 0.3},
            },
            "bundles": {"y": {"label": "y", "active": ["debt"]}},
        })
        fiber = Fiber(y_id="y", goods=("g1", "g2"), duties=("d1",),
                      constraints=compile_constraints(reg.bundles["y"], reg))
        spec = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                           alpha={"g1": 0.5, "g2": 0.5}, beta={"d1": 1.0})
        agents = (Agent(id="A", endowment={"g1": 3.0, "g2": 1.0}, utility=spec, lam=1.0),
                  Agent(id="B", endowment={"g1": 1.0, "g2": 3.0}, utility=spec, lam=0.5))
        economy = FiberEconomy(fiber=fiber, agents=agents, duty_prices={"d1": 1.0})
        for p2 in (0.6, 1.0, 1.7):
            p = np.array([1.0, p2, 1.0])
            z = excess_demand(economy, p)
            assert absolute_walras_gap(p, z) <= 1e-10
            # income is the endowments' value less each agent's claim
            income = economy.total_income(p)
            assert income == pytest.approx(4.0 + 4.0 * p2 - 2 * 0.3, rel=1e-12)
            assert walras_gap(p, z, income) <= 1e-10


def claim_and_duty_economy():
    """Two goods and a priced duty under a prior claim; one agent in three
    is VEBLEN, so both the closed form and the multiplier solve run."""
    reg = load_registry({
        "goods": ["g1", "g2"],
        "imperfect_duties": ["d1"],
        "maxims": {
            "d1": {"class": "imperfect"},
            "debt": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 0.3},
        },
        "bundles": {"y": {"label": "y", "active": ["debt"]}},
    })
    fiber = Fiber(y_id="y", goods=("g1", "g2"), duties=("d1",),
                  constraints=compile_constraints(reg.bundles["y"], reg))
    rng = np.random.default_rng(8)
    agents = []
    for k in range(6):
        family = UtilityFamily.VEBLEN_PRICE_DEPENDENT if k % 3 == 0 \
            else UtilityFamily.COBB_DOUGLAS_EXTENDED
        spec = UtilitySpec(family=family, alpha={"g1": float(rng.uniform(0.2, 1.0)),
                                                 "g2": float(rng.uniform(0.2, 1.0))},
                           beta={"d1": float(rng.uniform(0.2, 1.5))})
        agents.append(Agent(id=f"a{k}", utility=spec, lam=float(rng.uniform(0.2, 2.0)),
                            theta=1.5 if k % 3 == 0 else 0.0,
                            endowment={"g1": float(rng.uniform(1.0, 3.0)),
                                       "g2": float(rng.uniform(1.0, 3.0))}))
    return FiberEconomy(fiber=fiber, agents=tuple(agents), duty_prices={"d1": 1.2})


MANY_AGENT_REGIMES = ("free", "prior_claim", "require_min", "forbid")


def many_agent_economy(regime: str, scale: float) -> FiberEconomy:
    """Shaped like the many-agent benchmark's fibers: 40 agents, 3 goods,
    one duty priced 1.2 against a reference of 1.0, one agent in ten
    VEBLEN, and one of four regimes (a prior claim of 0.1, a duty floor of
    0.05, or g3 forbidden). Endowments, the claim and the floor are times
    ``scale``."""
    maxims = {"d1": {"class": "imperfect"},
              "claim": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": 0.1 * scale},
              "floor": {"class": "perfect", "kind": "REQUIRE_MIN", "target": "d1",
                        "level": 0.05 * scale},
              "ban": {"class": "perfect", "kind": "FORBID", "target": "g3"}}
    reg = load_registry({"goods": ["g1", "g2", "g3"], "imperfect_duties": ["d1"],
                         "maxims": maxims,
                         "bundles": {"y": {"label": regime, "active": {
                             "free": [], "prior_claim": ["claim"], "require_min": ["floor"],
                             "forbid": ["ban"]}[regime]}}})
    goods = ("g1", "g2", "g3")
    fiber = Fiber(y_id="y", goods=goods, duties=("d1",),
                  constraints=compile_constraints(reg.bundles["y"], reg))
    rng = np.random.default_rng(list(MANY_AGENT_REGIMES).index(regime))
    members = []
    for k in range(40):
        veblen = k < 4
        spec = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT if veblen
                           else UtilityFamily.COBB_DOUGLAS_EXTENDED,
                           alpha=dict(zip(goods, rng.dirichlet([2.0] * 3).tolist())),
                           beta={"d1": float(rng.uniform(0.2, 1.0))},
                           reference_premium={"d1": 1.0})
        members.append(Agent(
            id=f"a{k}", utility=spec,
            endowment=dict(zip(goods, (scale * rng.uniform(0.5, 2.0, 3)).tolist())),
            lam=float(rng.uniform(0.2, 1.0)),
            theta=float(rng.uniform(0.5, 2.0)) if veblen else 0.0))
    return FiberEconomy(fiber=fiber, agents=tuple(members), duty_prices={"d1": 1.2})


class TestExcessDemandBatch:
    """A batch of price vectors against one call per vector, bit for bit, at
    the economy's own duty price, the only one it evaluates at."""

    @staticmethod
    def check_rows(economy, prices):
        prices[:, economy.fiber.n:] = economy.initial_prices()[economy.fiber.n:]
        batch = excess_demand(economy, prices)
        assert batch.shape == prices.shape
        for p, z in zip(prices, batch):
            np.testing.assert_array_equal(z, excess_demand(economy, p))
            assert absolute_walras_gap(p, z) <= 1e-10

    def test_each_row_is_the_single_vector_call(self):
        rng = np.random.default_rng(9)
        self.check_rows(claim_and_duty_economy(),
                        np.column_stack([np.ones(12), rng.uniform(0.3, 3.0, 12),
                                         np.ones(12)]))

    @pytest.mark.parametrize("regime", MANY_AGENT_REGIMES)
    def test_many_agent_rows_are_the_single_vector_call(self, regime):
        """The 40-agent economies shaped like the many-agent benchmark's,
        where the agents' sums are long enough for a different summation
        order to show."""
        rng = np.random.default_rng(9)
        self.check_rows(many_agent_economy(regime, 1.0),
                        np.column_stack([np.ones(12), rng.uniform(0.3, 3.0, (12, 2)),
                                         np.ones(12)]))


class TestJacobian:
    def test_matches_analytic_cobb_douglas(self):
        """dz_i/dp_j = sum_a alpha_ai (w_aj + eps) / p_i
                       - [i = j] sum_a alpha_ai p.(w_a + eps) / p_i^2
        for weights alpha_a summing to one, from x_ai = alpha_ai p.(w_a + eps)
        / p_i - eps (the utility's interior offset eps), with no reference to
        the solver."""
        goods = ("g1", "g2", "g3")
        alpha = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        w = np.array([[2.0, 0.5, 1.0], [0.4, 1.5, 2.5]])
        agents = tuple(Agent(id=f"a{k}", endowment=dict(zip(goods, w[k])),
                             utility=UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                                                 alpha=dict(zip(goods, alpha[k]))))
                       for k in range(2))
        economy = FiberEconomy(fiber=Fiber(y_id="y", goods=goods, duties=()), agents=agents)
        p = np.array([1.0, 1.7, 0.6])
        pool = (w + EPSILON) @ p
        analytic = (alpha.T @ (w + EPSILON)) / p[:, None] - np.diag(alpha.T @ pool / p ** 2)
        free = economy.free_indices()
        np.testing.assert_allclose(economy.jacobian(p, free),
                                   analytic[np.ix_(free, free)], rtol=1e-12, atol=0.0)


class TestDemandMemo:
    """A fiber economy remembers the demand kernel's answer at the last
    single price vector, which excess demand and its Jacobian share."""

    def test_same_vector_same_bits(self):
        economy = many_agent_economy("prior_claim", 1.0)
        p1, p2 = np.array([1.0, 1.3, 0.8, 1.2]), np.array([1.0, 0.9, 1.1, 1.2])
        first = excess_demand(economy, p1)
        other = excess_demand(economy, p2)
        again = excess_demand(economy, p1)
        np.testing.assert_array_equal(again, first)
        assert not np.array_equal(other, first)
        np.testing.assert_array_equal(again, excess_demand(many_agent_economy("prior_claim", 1.0),
                                                           p1))

    def test_remembered_answer_is_read_only_and_outlives_a_batch(self):
        economy = many_agent_economy("forbid", 1.0)
        p = np.array([1.0, 1.3, 0.8, 1.2])
        coords = economy.demand_at(p)
        assert not coords.flags.writeable
        with pytest.raises(ValueError):
            coords[0, 0] = 0.0
        excess_demand(economy, np.array([[1.0, 0.9, 1.1, 1.2], [1.0, 1.1, 0.9, 1.2]]))
        assert economy.demand_at(p) is coords

    def test_one_kernel_pass_per_evaluated_price_vector(self, monkeypatch):
        """Each Newton iterate evaluates excess demand and then its Jacobian
        at the same vector, and pays for one kernel pass (``_demand_pass``,
        behind ``demand_rows``), with no batch of bumped vectors."""
        economy = many_agent_economy("require_min", 1.0)
        passes, evaluated = [], []
        kernel = economy_module._demand_pass

        def counting(rows, prices, plan=None):
            if rows is economy.rows:
                passes.append(np.array(prices))
            return kernel(rows, prices, plan)

        def recording(economy, prices):
            evaluated.append(np.array(prices))
            return excess_demand(economy, prices)

        monkeypatch.setattr(economy_module, "_demand_pass", counting)
        monkeypatch.setattr(equilibrium, "excess_demand", recording)
        result = solve_tatonnement(economy)
        assert result.converged and result.iterations >= 2
        assert len(evaluated) > result.iterations
        assert all(q.ndim == 1 for q in passes) and len(passes) == len(evaluated)
        np.testing.assert_array_equal(passes, evaluated)


class TestPerSolveState:
    """What an economy computes once and reads at every iterate: the kernel's
    plan for the rows that can tilt, fixed by its own duty prices, and the
    total income at the vector of the last kernel pass."""

    @pytest.mark.parametrize("regime", MANY_AGENT_REGIMES)
    def test_one_tilt_plan_per_economy(self, monkeypatch, regime):
        """A solve, the index and the allocations at its prices, and a
        second solve build the plan once, and every kernel pass of theirs
        reads it. Solving from other duty prices raises ValueError; the
        economy at those duty prices builds its own plan once."""
        economy = many_agent_economy(regime, 1.0)
        moved = FiberEconomy(fiber=economy.fiber, agents=economy.agents,
                             duty_prices={"d1": 1.5})
        builds, plans = [], []
        build, kernel = economy_module._tilt_plan, economy_module._demand_pass
        monkeypatch.setattr(economy_module, "_tilt_plan",
                            lambda rows, p: builds.append(1) or build(rows, p))
        monkeypatch.setattr(economy_module, "_demand_pass",
                            lambda rows, p, plan=None: plans.append(plan) or kernel(rows, p, plan))
        result = solve_tatonnement(economy)
        equilibrium_index(economy, result.prices)
        economy.demands(result.prices)
        again = solve_tatonnement(economy)
        assert result.converged and result.iterations >= 2 and len(builds) == 1
        assert again.prices.values.tobytes() == result.prices.values.tobytes()
        assert plans and all(plan is economy.tilt_plan for plan in plans)
        with pytest.raises(ValueError, match="'d1' priced at 1.5"):
            solve_tatonnement(economy, moved.initial_prices())
        assert len(builds) == 1
        assert solve_tatonnement(moved).converged and len(builds) == 2
        # the plan is the one a fresh pack's kernel pass builds at these prices
        fresh = demand_rows(AgentRows.pack(economy.fiber, economy.agents), result.prices)
        assert economy.demand_at(result.prices.values).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("regime", MANY_AGENT_REGIMES)
    def test_total_income_from_the_last_pass(self, monkeypatch, regime):
        """At 240 random price vectors per regime (scales 1e-3, 1 and 1e4),
        total income after a kernel pass there is the sum of that pass's
        budgets, computes no income again, and equals computing it afresh
        bit for bit; at any other vector it is computed afresh."""
        rng = np.random.default_rng(17 + MANY_AGENT_REGIMES.index(regime))
        for scale in (1e-3, 1.0, 1e4):
            economy = many_agent_economy(regime, scale)
            free = economy.free_indices()
            for _ in range(80):
                p = economy.initial_prices()
                p[free] = rng.uniform(0.3, 3.0, len(free))
                economy.demand_at(p)
                afresh = float(economy_module._income(economy.fiber, economy.rows.endowment,
                                                      p)[1].sum())
                with monkeypatch.context() as m:
                    computed = []
                    income = economy_module._income
                    m.setattr(economy_module, "_income",
                              lambda *args: computed.append(1) or income(*args))
                    assert economy.total_income(p) == afresh and not computed
                    other = p * 1.5
                    assert economy.total_income(other) == float(
                        income(economy.fiber, economy.rows.endowment, other)[1].sum())
                    assert len(computed) == 1


class TestOwnDutyPrices:
    """A fiber economy evaluates only at its own duty prices: every call
    that evaluates demand refuses a vector with another duty price, and
    names the first such duty, after checking that every price is one."""

    @staticmethod
    def two_duty_economy():
        spec = UtilitySpec(family=UtilityFamily.VEBLEN_PRICE_DEPENDENT,
                           alpha={"g1": 0.5, "g2": 0.5}, beta={"d1": 0.5, "d2": 0.8})
        agents = (Agent(id="A", endowment={"g1": 2.0, "g2": 1.0}, utility=spec,
                        lam=1.0, theta=1.0),
                  cd_agent("B", 0.4, 1.0, 2.0))
        return FiberEconomy(fiber=Fiber(y_id="y", goods=("g1", "g2"), duties=("d1", "d2")),
                            agents=agents, duty_prices={"d1": 1.2, "d2": 0.8})

    CALLS = {
        "excess_demand": lambda economy, p: excess_demand(economy, p),
        "demand_at": lambda economy, p: economy.demand_at(p),
        "jacobian": lambda economy, p: economy.jacobian(p, economy.free_indices()),
        "demands": lambda economy, p: economy.demands(p),
        "batch": lambda economy, p: excess_demand(economy, np.array(
            [economy.initial_prices(), p, p])),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_another_duty_price_is_refused(self, call):
        economy = self.two_duty_economy()
        p = np.array([1.0, 1.3, 1.2, 0.9])
        with pytest.raises(ValueError, match="duty 'd2' priced at 0.9: this economy "
                                             "evaluates only at its own duty price 0.8"):
            self.CALLS[call](economy, p)
        # a vector with the economy's own duty prices evaluates
        p[3] = 0.8
        self.CALLS[call](economy, p)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("dim,value", [("d1", np.nan), ("d2", 0.0), ("g2", np.nan)])
    def test_a_bad_price_is_refused_first(self, call, dim, value):
        """A price that is not positive and finite raises NonPositivePrice,
        also in a vector whose duty prices are not the economy's."""
        economy = self.two_duty_economy()
        p = np.array([1.0, 1.3, 1.5, 0.9])
        p[economy.dims.index(dim)] = value
        with pytest.raises(NonPositivePrice, match=f"'{dim}'"):
            self.CALLS[call](economy, p)

    def test_a_batch_names_its_first_vector_at_another_duty_price(self):
        economy = self.two_duty_economy()
        prices = np.array([[1.0, 1.3, 1.2, 0.8], [1.0, 1.1, 0.7, 0.8], [1.0, 1.0, 1.2, 0.9]])
        with pytest.raises(ValueError, match="duty 'd1' priced at 0.7"):
            excess_demand(economy, prices)

    def test_total_income_reads_no_duty_price(self):
        economy = self.two_duty_economy()
        p = np.array([1.0, 1.3, 1.2, 0.8])
        assert economy.total_income(p) == economy.total_income(p * [1.0, 1.0, 3.0, 0.5])


class TestAllocations:
    """A solve's allocations are the rows of the kernel pass at its returned
    prices, copied, with no agent solved on its own again."""

    @pytest.mark.parametrize("max_iter", [1, 2, equilibrium.DEFAULT_MAX_ITER])
    @pytest.mark.parametrize("regime", MANY_AGENT_REGIMES)
    def test_each_bundle_is_the_agents_own_demand(self, regime, max_iter):
        """Converged or not, every bundle equals the one-agent ``demand`` at
        the returned prices bit for bit."""
        economy = many_agent_economy(regime, 1.0)
        result = solve_tatonnement(economy, max_iter=max_iter)
        assert result.converged == (max_iter == equilibrium.DEFAULT_MAX_ITER)
        assert list(result.allocations) == [a.id for a in economy.agents]
        for a in economy.agents:
            own = demand(a, result.prices, economy.fiber)
            assert result.allocations[a.id].coords.tobytes() == own.coords.tobytes()

    @staticmethod
    def counted_solve(monkeypatch, economy, **kwargs):
        """The solve, with every kernel pass (``_demand_pass``), every price
        vector the solver evaluates and every one-agent ``demand`` call
        recorded."""
        passes, evaluated, one_agent = [], [], []
        kernel, single = economy_module._demand_pass, economy_module.demand

        def counting(rows, prices, plan=None):
            passes.append(np.array(prices))
            return kernel(rows, prices, plan)

        def recording(economy, prices):
            evaluated.append(np.array(prices))
            return excess_demand(economy, prices)

        def counting_single(agent, prices, fiber):
            one_agent.append(agent.id)
            return single(agent, prices, fiber)

        monkeypatch.setattr(economy_module, "_demand_pass", counting)
        monkeypatch.setattr(economy_module, "demand", counting_single)
        monkeypatch.setattr(equilibrium, "excess_demand", recording)
        result = solve_tatonnement(economy, **kwargs)
        return result, passes, evaluated, one_agent

    @pytest.mark.parametrize("regime", MANY_AGENT_REGIMES)
    def test_converged_solve_makes_no_pass_after_its_last_iterate(self, monkeypatch, regime):
        result, passes, evaluated, one_agent = self.counted_solve(
            monkeypatch, many_agent_economy(regime, 1.0))
        assert result.converged
        assert len(passes) == len(evaluated)
        np.testing.assert_array_equal(evaluated[-1], result.prices.values)
        assert one_agent == []

    def test_best_iterate_before_the_last_costs_one_pass(self, monkeypatch):
        """With no Newton step and a fallback step of 10, the first move
        overshoots: the residual rises from 0.256 to 0.529, so the best
        iterate is the starting point and not the last point evaluated."""
        monkeypatch.setattr(FiberEconomy, "jacobian",
                            lambda economy, p, free: np.zeros((len(free), len(free))))
        monkeypatch.setattr(equilibrium, "FALLBACK_STEP", 10.0)
        economy = many_agent_economy("free", 1.0)
        result, passes, evaluated, one_agent = self.counted_solve(monkeypatch, economy,
                                                                 max_iter=1)
        assert not result.converged
        assert result.diagnostics[1].residual > result.diagnostics[0].residual
        assert not np.array_equal(evaluated[-1], result.prices.values)
        assert len(passes) == len(evaluated) + 1
        np.testing.assert_array_equal(passes[-1], result.prices.values)
        assert one_agent == []
        for a in economy.agents:
            own = demand(a, result.prices, economy.fiber)
            assert result.allocations[a.id].coords.tobytes() == own.coords.tobytes()

    def test_bundles_are_writable_and_private(self):
        economy = many_agent_economy("forbid", 1.0)
        result = solve_tatonnement(economy)
        p = result.prices.values
        z = excess_demand(economy, p).copy()
        before = {k: b.coords for k, b in result.allocations.items()}
        first, second = economy.agents[0].id, economy.agents[1].id
        result.allocations[first].x[0] *= 2.0
        assert result.allocations[first].x[0] == 2.0 * before[first][0]
        assert excess_demand(economy, p).tobytes() == z.tobytes()
        assert result.allocations[second].coords.tobytes() == before[second].tobytes()
        again = economy.demands(p)
        assert all(again[k].coords.tobytes() == before[k].tobytes() for k in before)
        assert not economy.demand_at(p).flags.writeable

    @pytest.mark.parametrize("bad", [-1e-300, np.nan])
    def test_a_bad_kernel_row_is_refused(self, monkeypatch, bad):
        """The one check over the copied rows applies the constructor's rule:
        a negative or NaN coordinate anywhere raises ``NegativeInput``."""
        economy = many_agent_economy("free", 1.0)
        p = economy.initial_prices()
        coords = economy.demand_at(p).copy()
        coords[7, 3] = bad
        monkeypatch.setattr(economy, "demand_at", lambda prices: coords)
        with pytest.raises(NegativeInput, match="bundle coordinates"):
            economy.demands(p)

    @pytest.mark.parametrize("regime", MANY_AGENT_REGIMES)
    def test_bundles_are_float_vectors_apart_from_the_memo(self, regime):
        economy = many_agent_economy(regime, 1.0)
        result = solve_tatonnement(economy)
        memo = economy.demand_at(result.prices.values)
        n, l = economy.fiber.n, economy.fiber.l
        for bundle in result.allocations.values():
            for part, size in ((bundle.x, n), (bundle.e, l)):
                assert part.flags.writeable and part.dtype == np.float64
                assert part.shape == (size,)
                assert not np.shares_memory(part, memo)

    def test_no_bundle_is_validated_one_by_one(self, monkeypatch):
        """Neither a solve's allocations nor the one-agent ``demand`` run the
        constructor's per-bundle conversion and check."""
        calls = []
        post_init = ExtendedBundle.__post_init__

        def counting(bundle):
            calls.append(bundle)
            post_init(bundle)

        monkeypatch.setattr(ExtendedBundle, "__post_init__", counting)
        ExtendedBundle(x=np.ones(2), e=np.zeros(0))
        assert len(calls) == 1
        economy = many_agent_economy("prior_claim", 1.0)
        result = solve_tatonnement(economy)
        assert result.converged and len(result.allocations) == len(economy.agents)
        demand(economy.agents[0], result.prices, economy.fiber)
        assert len(calls) == 1

    def test_duplicate_agent_ids_are_refused(self):
        """Allocations are keyed by id: two agents "A" used to converge with
        one allocation for two agents and wrong trade volumes."""
        with pytest.raises(ValueError, match="duplicate agent id 'A'"):
            two_good_economy([cd_agent("A", 0.8, 1.5, 0.6), cd_agent("A", 0.3, 0.6, 1.5)])


class TestTatonnement:
    def test_symmetric_equilibrium(self):
        result = solve_tatonnement(symmetric_economy(), p0=np.array([1.0, 1.6]),
                                   tol=1e-10)
        assert result.converged
        assert abs(result.prices.values[1] / result.prices.values[0] - 1.0) <= 1e-8
        for bundle in result.allocations.values():
            assert np.allclose(bundle.x, [0.5, 0.5], atol=1e-6)

    def test_asymmetric_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            alpha1 = rng.uniform(0.2, 0.8, size=2)
            endow = rng.uniform(0.3, 2.5, size=(2, 2))
            economy = two_good_economy([
                cd_agent("A", float(alpha1[0]), float(endow[0, 0]), float(endow[0, 1])),
                cd_agent("B", float(alpha1[1]), float(endow[1, 0]), float(endow[1, 1])),
            ])
            p2_star, alloc = cd_equilibrium_2good(alpha1, endow)
            result = solve_tatonnement(economy, tol=1e-12)
            assert result.converged
            assert abs(result.prices.values[1] - p2_star) < 1e-6
            assert np.allclose(result.allocations["A"].x, alloc[0], atol=1e-6)
            assert np.allclose(result.allocations["B"].x, alloc[1], atol=1e-6)

    @pytest.mark.parametrize("regime", MANY_AGENT_REGIMES)
    def test_one_residual_per_evaluated_point(self, monkeypatch, regime):
        """The solve takes the relative residual of each price vector it
        evaluates once: an accepted Newton trial's is carried to the next
        iterate instead of being taken again there."""
        evaluated, residuals = [], []

        def recording(economy, prices):
            evaluated.append(1)
            return excess_demand(economy, prices)

        def counting(z, units):
            residuals.append(1)
            return relative_residual(z, units)

        monkeypatch.setattr(equilibrium, "excess_demand", recording)
        monkeypatch.setattr(equilibrium, "relative_residual", counting)
        result = solve_tatonnement(many_agent_economy(regime, 1.0))
        assert result.converged and result.iterations >= 2
        assert len(residuals) == len(evaluated)

    def test_walras_law_at_every_iterate(self):
        result = solve_tatonnement(symmetric_economy(), p0=np.array([1.0, 3.0]))
        assert result.diagnostics
        assert max(result.walras_gaps()) <= 1e-10

    @pytest.mark.parametrize("scale", [10.0 ** k for k in range(-6, 8)])
    def test_walras_gap_is_unit_free(self, scale):
        """The gap is |p.z| over total income, so scaling every endowment
        leaves it at rounding level. Relative to |p||z| instead, this
        economy's converged solve reads 1.8e-10 at scale 1e6 and 2e-9 at 1e7."""
        goods = ("g1", "g2", "g3")
        alpha = np.array([[0.6, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        w = scale * np.array([[1.5, 0.5, 1.0], [1.0, 1.5, 0.5], [0.5, 1.0, 1.5]])
        economy = FiberEconomy(fiber=Fiber(y_id="y", goods=goods, duties=()), agents=tuple(
            Agent(id=f"a{k}", endowment=dict(zip(goods, w[k])),
                  utility=UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                                      alpha=dict(zip(goods, alpha[k]))))
            for k in range(3)))
        result = solve_tatonnement(economy)
        assert result.converged
        assert max(result.walras_gaps()) <= 1e-10
        p = result.prices.values
        assert economy.total_income(p) == pytest.approx(float(p @ w.sum(axis=0)), rel=1e-12)

    @pytest.mark.parametrize("regime", MANY_AGENT_REGIMES)
    def test_walras_gap_of_veblen_economies_at_any_scale(self, regime):
        """A VEBLEN row whose duty sits near its pole used to miss its
        budget by about mu p / (mu p - tilt) ulps, which grows with the
        endowments: at scale 1e7 the prior-claim economy read 3.8e-10, the
        others 6e-11 to 9e-11."""
        for scale in 10.0 ** np.arange(-6, 8):
            result = solve_tatonnement(many_agent_economy(regime, scale))
            assert result.converged
            assert max(result.walras_gaps()) <= 1e-10, scale

    def test_walras_gap_below_unit_income_is_relative(self):
        """A violation of 1e-5 of an income of 1e-6 fails criterion 6's
        bound; over 1 + income it read 1e-11 and passed."""
        p, z = np.array([1.0, 2.0]), np.array([1e-11, 0.0])
        assert walras_gap(p, z, 1e-6) == pytest.approx(1e-5, rel=1e-12)
        assert walras_gap(p, z, 1e-6) > 1e-10

    def test_walras_gap_without_income_is_absolute(self):
        p, z = np.array([1.0, 2.0]), np.array([1e-11, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert walras_gap(p, z, np.float64(0.0)) == 1e-11
            assert walras_gap(p, np.zeros(2), np.float64(0.0)) == 0.0

    def test_homogeneity_of_excess_demand(self):
        economy = two_good_economy([cd_agent("A", 0.3, 1.0, 0.5),
                                    cd_agent("B", 0.7, 0.5, 1.0)])
        p = np.array([1.0, 1.4])
        z = excess_demand(economy, p)
        for k in (0.5, 2.0, 10.0):
            assert np.allclose(excess_demand(economy, k * p), z, rtol=1e-9, atol=1e-12)

    def test_forbidden_good_never_trades(self):
        reg = load_registry({
            "goods": ["grain", "slave_sugar"],
            "imperfect_duties": [],
            "maxims": {"ban": {"class": "perfect", "kind": "FORBID",
                               "target": "slave_sugar"}},
            "bundles": {"y": {"label": "ban", "active": ["ban"]}},
        })
        fiber = Fiber(y_id="y", goods=("grain", "slave_sugar"), duties=(),
                      constraints=compile_constraints(reg.bundles["y"], reg))
        spec = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                           alpha={"grain": 0.5, "slave_sugar": 0.5})
        agents = (Agent(id="A", endowment={"grain": 1.0, "slave_sugar": 2.0}, utility=spec),
                  Agent(id="B", endowment={"grain": 2.0, "slave_sugar": 0.1}, utility=spec))
        economy = FiberEconomy(fiber=fiber, agents=agents)
        result = solve_tatonnement(economy)
        assert result.converged
        volumes = trade_volumes(economy, result.allocations)
        assert volumes["slave_sugar"] == 0.0
        for bundle in result.allocations.values():
            assert bundle.x[1] == 0.0

    def test_non_convergence_flagged_with_best_iterate(self):
        result = solve_tatonnement(symmetric_economy(), p0=np.array([1.0, 5.0]),
                                   max_iter=3)
        assert not result.converged
        assert result.residual < np.inf and result.iterations == 3

    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError):
            solve_tatonnement(symmetric_economy(), tol=-1.0)

    def test_a_start_off_the_numeraire_keeps_the_duty_prices(self):
        """Goods prices at twice the default start are the same start: only
        the goods prices are taken relative to the numeraire's. Dividing the
        whole vector used to halve the duty price to 0.6 and solve another
        economy, which converged to (1, 0.8136, 0.5660, 0.6)."""
        economy = many_agent_economy("free", 1.0)
        want = solve_tatonnement(economy)
        p0 = economy.initial_prices()
        p0[: economy.fiber.n] *= 2.0
        got = solve_tatonnement(economy, p0=p0)
        assert got.converged and got.prices.values[3] == 1.2
        assert got.prices.values.tobytes() == want.prices.values.tobytes()
        assert p0[0] == 2.0  # the caller's start is not changed

    def test_scale_sweep_converges_to_each_closed_form(self):
        """Scaling every endowment by s leaves the steps and the tolerance
        unchanged. Each scale is compared with its own closed form: the
        log(x + EPSILON) offset moves prices by about 1e-7 between s = 1e-3
        and s = 1."""
        rng = np.random.default_rng(2)
        for goods in (2, 3):
            for _ in range(3):
                alpha = rng.uniform(0.1, 1.0, (3, goods))
                w = rng.uniform(0.2, 3.0, (3, goods))
                for scale in 10.0 ** np.arange(-3, 5):
                    result = solve_tatonnement(cd_economy(alpha, w * scale), tol=1e-10)
                    assert result.converged and result.iterations <= 10
                    assert max(result.walras_gaps()) <= 1e-10
                    np.testing.assert_allclose(
                        result.prices.values, cd_equilibrium_prices(alpha, w * scale),
                        rtol=1e-8, atol=0.0)

    def test_residual_is_relative_to_total_endowment(self):
        economy = cd_economy([[0.3, 0.7], [0.6, 0.4]], [[2.0, 0.5], [1.0, 3.0]])
        result = solve_tatonnement(economy, p0=np.array([1.0, 3.0]), max_iter=0)
        z = excess_demand(economy, np.array([1.0, 3.0]))
        assert result.residual == max(abs(z[0]) / 3.0, abs(z[1]) / 3.5)

    def test_exchange_economy_that_stalled_tatonnement(self):
        """Three agents whose tatonnement at step 0.5 stopped 3.7e-10 short of
        tol 1e-10 after 10,000 iterations."""
        alpha = np.array([0.622952337332784, 0.4176212279495706, 0.5487676314070045])
        w = np.array([[0.48312089211127507, 1.5623745526539257],
                      [0.7568100563855705, 0.6190915752003461],
                      [0.9569936268886371, 1.4964920580113685]])
        economy = cd_economy(np.column_stack([alpha, 1.0 - alpha]), w)
        result = solve_tatonnement(economy, tol=1e-10, max_iter=10_000)
        assert result.converged and result.iterations <= 10
        np.testing.assert_allclose(result.prices.values,
                                   cd_equilibrium_prices(np.column_stack([alpha, 1.0 - alpha]), w),
                                   rtol=1e-9, atol=0.0)
        assert equilibrium_index(economy, result.prices) == 1

    def test_falls_back_to_tatonnement_where_the_jacobian_vanishes(self):
        """dz2/dp2 of SyntheticEconomy vanishes at p2 = 0.6498320514927...
        The Newton step there overshoots to the band edge and raises the
        residual, so the first move is the tatonnement step p2 + step * z2
        (its units are 1), and the run still reaches the root 0.5."""
        economy = SyntheticEconomy()
        p0 = np.array([1.0, 0.649832051492727])
        result = solve_tatonnement(economy, p0=p0, tol=1e-12)
        moved = p0 + equilibrium.FALLBACK_STEP * np.array([0.0, economy.excess_demand(p0)[1]])
        assert result.diagnostics[1].residual == relative_residual(
            economy.excess_demand(moved), np.ones(2))
        assert result.converged
        assert abs(result.prices.values[1] - 0.5) <= 1e-10

    def test_singular_jacobian_takes_the_fallback_every_time(self, monkeypatch):
        monkeypatch.setattr(FiberEconomy, "jacobian",
                            lambda economy, p, free: np.zeros((len(free), len(free))))
        economy = cd_economy([[0.3, 0.7], [0.6, 0.4]], [[2.0, 0.5], [1.0, 3.0]])
        result = solve_tatonnement(economy, tol=1e-10)
        assert result.converged and result.iterations > 10
        np.testing.assert_allclose(
            result.prices.values,
            cd_equilibrium_prices([[0.3, 0.7], [0.6, 0.4]], [[2.0, 0.5], [1.0, 3.0]]),
            rtol=1e-8, atol=0.0)

    @staticmethod
    def claim_economy(amount, alpha_a, held_a, b):
        """A, with g1 weight ``alpha_a``, holds only ``held_a`` of g2; B is
        ``b``; both owe a prior claim of ``amount``."""
        reg = load_registry({
            "goods": ["g1", "g2"], "imperfect_duties": [],
            "maxims": {"debt": {"class": "perfect", "kind": "PRIOR_CLAIM", "amount": amount}},
            "bundles": {"y": {"label": "y", "active": ["debt"]}},
        })
        fiber = Fiber(y_id="y", goods=("g1", "g2"), duties=(),
                      constraints=compile_constraints(reg.bundles["y"], reg))
        return FiberEconomy(fiber=fiber, agents=(
            Agent(id="A", endowment={"g2": held_a}, utility=UtilitySpec(
                family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                alpha={"g1": alpha_a, "g2": 1.0 - alpha_a})),
            b))

    def test_newton_trial_that_empties_a_duty_set_is_not_taken(self):
        """A holds only g2 and owes a prior claim of 0.29. From unit prices
        the second Newton trial puts p2 at 0.26, where A's claim exceeds its
        income; that trial used to end the solve with InfeasibleDutySet. It
        now counts as a trial that does not improve, and two more like it
        follow. The fiber clears where
        0.85 (p2 - 0.29) + 0.25 (1.5 p2 + 0.61) + 2 * 0.29 = 0.9, i.e. at
        p2 = 0.414 / 1.225."""
        economy = self.claim_economy(0.29, 0.85, 1.0, cd_agent("B", 0.25, 0.9, 1.5))
        result = solve_tatonnement(economy)
        assert result.converged
        assert max(result.walras_gaps()) <= 1e-10
        assert result.prices.values[1] == pytest.approx(0.414 / 1.225, rel=1e-8)
        assert equilibrium_index(economy, result.prices) == 1

    def test_fallback_point_that_empties_a_duty_set_is_not_taken(self):
        """A holds only 0.5 of g2 and owes a prior claim of 0.3, so its duty
        set is empty below p2 = 0.6, and the fiber would clear only where
        0.8 (0.5 p2 - 0.3) + 0.2 (0.5 + 2 p2 - 0.3) + 2 * 0.3 = 0.5, at
        p2 = 0.125: it has no feasible equilibrium. The fallback step used to
        walk past p2 = 0.6 and end the solve with InfeasibleDutySet. It now
        halves instead, and stops at its floor against A's bound, with the
        best iterate and one diagnostics record per iterate."""
        economy = self.claim_economy(0.3, 0.8, 0.5, cd_agent("B", 0.2, 0.5, 2.0))
        result = solve_tatonnement(economy)
        assert not result.converged
        assert len(result.diagnostics) == result.iterations + 1 < equilibrium.DEFAULT_MAX_ITER
        assert result.diagnostics[-1].step == equilibrium.MIN_STEP
        assert result.residual == min(rec.residual for rec in result.diagnostics)
        assert 0.6 <= result.prices.values[1] <= 0.6 * (1 + 1e-9)
        assert max(result.walras_gaps()) <= 1e-10

    def test_fallback_stalled_at_its_floor_stops(self):
        """A holds only 1.36 of g2 and owes a prior claim of 0.3338; no
        positive p2 clears this fiber. From iteration 57 the fallback step
        sits at ``MIN_STEP`` and the residual stays at 0.521, where the solve
        used to run on to all 10,000 iterations (2.1 s). It now stops there,
        stalled, with the best iterate and one diagnostics record per
        iterate."""
        economy = self.claim_economy(0.3338, 0.1543, 1.36, cd_agent("B", 0.749, 1.342, 1.859))
        result = solve_tatonnement(economy)
        assert not result.converged
        assert len(result.diagnostics) == result.iterations + 1 < 100
        assert result.diagnostics[-1].step == equilibrium.MIN_STEP
        assert result.diagnostics[-1].residual >= result.diagnostics[-2].residual * (1 - 1e-12)
        assert result.residual == min(rec.residual for rec in result.diagnostics)
        assert result.residual == pytest.approx(0.521, abs=5e-4)


@pytest.mark.parametrize("goods,duties,agents", [(1, 0, 40), (3, 1, 200), (2, 3, 9)])
def test_trade_accounts_equal_the_agent_loops(goods, duties, agents):
    """``trade_volumes`` and the duty spending of ``duty_expenditure_share``
    are array expressions; they add the agents in the loops' order and
    round each agent's duty spending as ``p @ e`` does, so they equal the
    loops bit for bit. Quantities span twelve orders of magnitude, where a
    pairwise sum or a fused product would round differently."""
    rng = np.random.default_rng(goods * 100 + duties)
    fiber = Fiber(y_id="y", goods=tuple(f"g{i}" for i in range(goods)),
                  duties=tuple(f"d{j}" for j in range(duties)))
    spread = lambda size: rng.uniform(0.0, 2.0, size) * 10.0 ** rng.uniform(-6, 6, size)
    economy = FiberEconomy(fiber=fiber, agents=tuple(
        Agent(id=f"a{k}", endowment=dict(zip(fiber.goods, spread(goods).tolist())),
              utility=UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                                  alpha=dict.fromkeys(fiber.goods, 1.0)))
        for k in range(agents)))
    allocations = {a.id: ExtendedBundle(x=spread(goods), e=spread(duties))
                   for a in economy.agents}
    p = rng.uniform(0.1, 3.0, goods + duties)
    assert trade_volumes(economy, allocations) == trade_volumes_by_loop(economy, allocations)
    assert duty_expenditure_share(economy, p, allocations) == \
        duty_spend_by_loop(economy, p, allocations) / economy.total_income(p)


# every public function that takes prices, called at an equilibrium ``eq``
# of ``claim_and_duty_economy`` or from a vector ``off`` that does not clear
PRICE_CALLS = {
    "excess_demand": lambda economy, eq, off: excess_demand(economy, off),
    "walras_gap": lambda economy, eq, off: walras_gap(
        off, excess_demand(economy, np.asarray(off)), 1.0),
    "equilibrium_index": lambda economy, eq, off: equilibrium_index(economy, eq),
    "duty_expenditure_share": lambda economy, eq, off: duty_expenditure_share(
        economy, eq, economy.demands(np.asarray(eq))),
    "solve_tatonnement": lambda economy, eq, off: solve_tatonnement(
        economy, p0=off).prices.values,
    "demand": lambda economy, eq, off: demand(economy.agents[0], off, economy.fiber).coords,
    "disposable_income": lambda economy, eq, off: disposable_income(
        economy.agents[0], off, economy.fiber),
}


@pytest.mark.parametrize("name", PRICE_CALLS)
def test_price_vector_and_its_values_give_the_same_bits(name):
    economy = claim_and_duty_economy()
    eq = solve_tatonnement(economy).prices
    off = PriceVector(eq.values * np.array([1.0, 1.5, 1.0]), eq.dims)
    call = PRICE_CALLS[name]
    np.testing.assert_array_equal(call(economy, eq, off), call(economy, eq.values, off.values))


class TestGridOracle:
    def test_symmetric_single_equilibrium_at_unit_ratio(self):
        candidates = solve_grid_oracle(symmetric_economy(), resolution=101)
        assert len(candidates) == 1
        assert abs(candidates[0].values[1] - 1.0) < 0.05

    def test_oracle_and_tatonnement_agree(self):
        economy = two_good_economy([cd_agent("A", 0.25, 2.0, 0.2),
                                    cd_agent("B", 0.75, 0.3, 1.5)])
        oracle = solve_grid_oracle(economy, resolution=151)
        solver = solve_tatonnement(economy, tol=1e-11)
        assert solver.converged and len(oracle) == 1
        step = (20.0 / 0.05) ** (1.0 / 150)
        assert abs(np.log(oracle[0].values[1] / solver.prices.values[1])) < 2 * np.log(step)

    def test_three_equilibria_odd_count(self):
        candidates = solve_grid_oracle(SyntheticEconomy(), resolution=200)
        assert len(candidates) == 3
        ratios = sorted(c.values[1] for c in candidates)
        assert np.allclose(ratios, [0.5, 1.0, 2.0], atol=1e-6)

    def test_synthetic_roots_are_exact(self):
        candidates = solve_grid_oracle(SyntheticEconomy(), resolution=200)
        np.testing.assert_allclose([c.values[1] for c in candidates], [0.5, 1.0, 2.0],
                                   rtol=0.0, atol=1e-12)

    def test_grid_is_one_batch(self, monkeypatch):
        """One excess-demand call covers the grid; what follows is Newton
        polishing, one vector at a time (the Jacobian comes from the kernel's
        answer at that vector)."""
        shapes = []

        def recording(economy, prices):
            shapes.append(np.shape(prices))
            return excess_demand(economy, prices)

        monkeypatch.setattr(equilibrium, "excess_demand", recording)
        goods = ("g1", "g2", "g3")
        spec = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                           alpha={"g1": 1.0, "g2": 1.0, "g3": 1.0})
        # equilibrium at unit prices, a point of the odd-sized grid
        economy = FiberEconomy(
            fiber=Fiber(y_id="y", goods=goods, duties=()),
            agents=(Agent(id="a", endowment={"g1": 2.0, "g2": 1.0, "g3": 1.5}, utility=spec),
                    Agent(id="b", endowment={"g1": 1.0, "g2": 2.0, "g3": 1.5}, utility=spec)))
        found = solve_grid_oracle(economy, resolution=41)
        np.testing.assert_allclose([f.values for f in found], [[1.0, 1.0, 1.0]], atol=1e-9)
        assert shapes[0] == (1681, 3)
        assert set(shapes[1:]) == {(3,)}
        shapes.clear()
        solve_grid_oracle(symmetric_economy(), resolution=101)
        assert shapes[0] == (101, 2) and set(shapes[1:]) == {(2,)}

    def test_coarse_three_good_grid_polishes_its_one_basin(self):
        """At resolution 60 the grid step is 10.7%, and no grid point comes
        within 1e-2 of clearing; the best cell of the basin still polishes
        to the closed form."""
        economy = cd_economy(THREE_GOOD_ALPHA, THREE_GOOD_W)
        found = solve_grid_oracle(economy, resolution=60)
        assert len(found) == 1
        np.testing.assert_allclose(found[0].values,
                                   cd_equilibrium_prices(THREE_GOOD_ALPHA, THREE_GOOD_W),
                                   rtol=1e-10, atol=0.0)
        assert equilibrium_index(economy, found[0]) == 1

    def test_double_root_is_polished(self):
        """z2 = (p2 - 1)^2 has no sign change to bracket. Its basin is
        polished to the root; no grid point of resolution 200 lies on it."""
        for free_prices in (0, 1, 2):
            found = solve_grid_oracle(TangentEconomy(free_prices, 0.0), resolution=200)
            assert len(found) == 1
            np.testing.assert_allclose(found[0].values, np.ones(free_prices + 1),
                                       rtol=0.0, atol=1e-6)

    def test_basin_without_a_root_yields_nothing(self):
        """z2 = (p2 - 1)^2 + 1e-3 never vanishes. The grid point at p2 = 1
        is within 1e-2 of clearing and a basin minimum, but polishing it
        cannot converge, so the oracle reports no equilibrium, with none, one
        or two free prices."""
        for free_prices in (0, 1, 2):
            assert solve_grid_oracle(TangentEconomy(free_prices, 1e-3), resolution=61) == []

    def test_dimension_guard(self):
        fiber = Fiber(y_id="y", goods=("a", "b", "c", "d"), duties=())
        spec = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED,
                           alpha={g: 1.0 for g in "abcd"})
        economy = FiberEconomy(fiber=fiber,
                               agents=(Agent(id="x", endowment={g: 1.0 for g in "abcd"},
                                             utility=spec),))
        with pytest.raises(DimensionTooLarge):
            solve_grid_oracle(economy, resolution=20)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            solve_grid_oracle(symmetric_economy(), resolution=5)


class TestEquilibriumIndex:
    def test_unique_cd_equilibrium_has_index_plus_one(self):
        economy = two_good_economy([cd_agent("A", 0.3, 1.0, 0.0),
                                    cd_agent("B", 0.7, 0.0, 1.0)])
        result = solve_tatonnement(economy, tol=1e-11)
        assert equilibrium_index(economy, result.prices) == 1

    def test_index_does_not_depend_on_units(self):
        """Singularity is judged on -diag(1/W) J diag(p). A free price of
        1e-7 keeps index +1, and so does the 3-good economy at every
        endowment scale."""
        economy = two_good_economy([cd_agent("A", 0.5, 1.0, 0.0),
                                    cd_agent("B", 0.5, 0.0, 1e7)])
        p = cd_equilibrium_prices([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1e7]])
        assert p[1] < 1.01e-7
        assert equilibrium_index(economy, p) == 1
        for scale in 10.0 ** np.arange(-6, 8):
            w = np.multiply(THREE_GOOD_W, scale)
            assert equilibrium_index(cd_economy(THREE_GOOD_ALPHA, w),
                                     cd_equilibrium_prices(THREE_GOOD_ALPHA, w)) == 1

    def test_indices_over_synthetic_equilibria_sum_to_plus_one(self):
        economy = SyntheticEconomy()
        candidates = solve_grid_oracle(economy, resolution=200)
        indices = [equilibrium_index(economy, c) for c in candidates]
        assert sorted(indices) == [-1, 1, 1]
        assert sum(indices) == 1

    def test_requires_market_clearing_prices(self):
        economy = symmetric_economy()
        with pytest.raises(ValueError):
            equilibrium_index(economy, PriceVector(values=np.array([1.0, 3.0]),
                                                   dims=("g1", "g2")))

    def test_clearing_check_is_relative_on_a_large_fiber(self):
        """On 120 agents a relative residual of about 1e-8 is an absolute one
        above 1e-6; the index shares the solver's relative rule."""
        rng = np.random.default_rng(5)
        alpha, w = rng.dirichlet([2.0] * 3, 120), rng.uniform(0.5, 2.0, (120, 3))
        economy = cd_economy(alpha, w)
        result = solve_tatonnement(economy)
        assert result.converged
        assert equilibrium_index(economy, result.prices) == 1
        p = result.prices.values * np.array([1.0, 1.0 + 1e-7, 1.0])
        z = excess_demand(economy, p)
        assert np.max(np.abs(z)) > 1e-6
        assert relative_residual(z, economy.total_endowment) <= 1e-6
        assert equilibrium_index(economy, p) == 1

    def test_singular_jacobian_guard(self):
        class FlatEconomy(CustomMarket):
            dims = ("g1", "g2")

            def z_at(self, p):
                p2 = float(p[1])
                # tangential equilibrium at p2 = 1: z2 = -(p2 - 1)^2
                z2 = -((p2 - 1.0) ** 2)
                return np.array([-p2 * z2, z2])

            def jacobian(self, p, free):
                return np.array([[-2.0 * (float(p[1]) - 1.0)]])

        economy = FlatEconomy()
        with pytest.raises(SingularJacobian):
            equilibrium_index(economy, np.array([1.0, 1.0]))

    def test_autarky_defaults_to_plus_one(self):
        # a one-good fiber has no free prices at all
        fiber = Fiber(y_id="y", goods=("g1",), duties=())
        spec = UtilitySpec(family=UtilityFamily.COBB_DOUGLAS_EXTENDED, alpha={"g1": 1.0})
        solo = FiberEconomy(fiber=fiber,
                            agents=(Agent(id="s", endowment={"g1": 1.0}, utility=spec),))
        assert equilibrium_index(solo, np.array([1.0])) == 1
