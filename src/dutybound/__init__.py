"""Duty-constrained exchange economies over discrete ethical regimes.

The model: a finite base space of ethical regimes (each a bundle of absolute
perfect duties, compiled to feasibility constraints), a fiber economy over
each regime (goods plus priced imperfect-duty dimensions), Walrasian
equilibria per fiber, and time-parameterized paths across regimes that carry
endowments forward as societal values shift.
"""

__version__ = "0.1.0"

from .duty import (
    Constraint,
    ConstraintSet,
    DutyBundle,
    DutyKind,
    ImperfectDutyDef,
    MaximRegistry,
    PerfectDutySpec,
    classify,
    compile_constraints,
    load_registry,
)
from .economy import (
    Agent,
    AgentRows,
    ExtendedBundle,
    Fiber,
    FiberEconomy,
    UtilityFamily,
    UtilitySpec,
    agent_utility,
    demand,
    demand_rows,
    disposable_income,
    feasible,
    utility_value,
)
from .equilibrium import (
    EquilibriumResult,
    PriceVector,
    duty_expenditure_share,
    equilibrium_index,
    excess_demand,
    solve_grid_oracle,
    solve_tatonnement,
    total_income,
    trade_volumes,
    walras_gap,
)
from .preferences import (
    ChoiceGrid,
    ComplianceProfile,
    OrdinalUtility,
    PreferenceRelation,
    axiom1_utility,
    check_complete,
    check_monotone,
    check_reflexive,
    check_transitive,
    construct_ordinal_utility,
    induced_relation,
    lexicographic_compare,
)
from .scenarios import (
    CriticalMassResult,
    ScenarioReport,
    SugarMarketConfig,
    VeblenCurve,
    estimate_critical_mass,
    run_slavery_eras,
    run_sugar,
    sugar_sweep,
    veblen_demand_curve,
)
from .topology import (
    BaseSpace,
    OpenFamily,
    discrete_topology,
    projection,
    projection_continuous,
    verify_topology_axioms,
)
from .transition import (
    BasePath,
    CarryResult,
    EconomyTemplate,
    FiberSpec,
    GenerationProfile,
    TraceRecord,
    build_path,
    carry_endowment,
    project_trace,
    run_path,
)

__all__ = [name for name in dir() if not name.startswith("_")]
