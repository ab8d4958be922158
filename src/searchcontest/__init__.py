"""Numerical laboratory for sequential-search contests.

Players pay a per-draw cost to sample values and the highest accepted value
wins a prize. The package solves the symmetric, multi-prize, asymmetric,
finite-horizon, team-designer and planner variants of that game, and checks
every closed form against quadrature, backward induction or Monte Carlo.
"""
__version__ = "0.1.0"

from .distributions import (
    Distribution,
    distribution_from_spec,
    from_quantile_grid,
    make_exponential,
    make_pareto,
    make_uniform,
)
from .equilibrium import (
    AsymmetricEquilibrium,
    ContestParams,
    MultiPrizeEquilibrium,
    PrizeSchedule,
    SymmetricEquilibrium,
    solve_asymmetric,
    solve_multiprize,
    solve_symmetric,
)
from .errors import (
    DivergentObjectiveError,
    InvalidParameterError,
    NoAsymmetricEquilibriumError,
    NoSearchIncentiveError,
    NotViableError,
    NumericFailureError,
    SearchContestError,
)
from .finite_horizon import (
    FiniteHorizonEquilibrium,
    FiniteHorizonParams,
    OpponentFinalCdf,
    ProfileRow,
    ThresholdProfile,
    solve_k_draw,
    solve_two_draw,
    threshold_profile,
)
from .hierarchy import (
    DesignerEquilibrium,
    DesignerParams,
    FocReport,
    solve_designer,
    verify_designer_foc,
)
from .planner import (
    EFFICIENT,
    OVERSEARCH,
    UNDERSEARCH,
    HazardOrderReport,
    PlannerSolution,
    PrizeClassification,
    classify_prize,
    efficient_prize_integral,
    hazard_order_check,
    planner_welfare,
    solve_planner,
)
from .serialize import canonical, to_json, write_json
from .simulation import (
    DeviationRow,
    DeviationScanReport,
    DistributionFreeReport,
    DistributionRow,
    FiniteThresholdStrategy,
    InfiniteThresholdStrategy,
    RecallReport,
    SimulationConfig,
    SimulationReport,
    StrategyProfile,
    deviation_scan,
    distribution_free_check,
    recall_irrelevance_check,
    simulate_contest,
    simulate_designer_dissipation,
)
