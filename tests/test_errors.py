"""Input boundary: every parameter record rejects NaN, infinities and non-integers
with InvalidParameterError, never a bare Python error or a NaN result."""
import math
import sys

import pytest

from searchcontest import (
    ContestParams,
    DesignerParams,
    FiniteHorizonParams,
    FiniteThresholdStrategy,
    InfiniteThresholdStrategy,
    InvalidParameterError,
    PrizeSchedule,
    SimulationConfig,
    StrategyProfile,
    deviation_scan,
    make_exponential,
    make_pareto,
    make_uniform,
    recall_irrelevance_check,
    simulate_contest,
    simulate_designer_dissipation,
    solve_k_draw,
    solve_multiprize,
    solve_planner,
    solve_two_draw,
    threshold_profile,
)
from searchcontest.errors import require_count, require_int, require_positive
from searchcontest.finite_horizon import OpponentFinalCdf

NAN, INF = math.nan, math.inf
HUGE = 10**400  # an integer count no float holds
UNIFORM = make_uniform(0.0, 1.0)
PROFILE = StrategyProfile((InfiniteThresholdStrategy(0.7),) * 3)
CONTEST = ContestParams(3, 0.1, 1.0)

BAD_CALLS = {
    "contest_cost_nan": lambda: ContestParams(3, NAN, 1.0),
    "contest_prize_nan": lambda: ContestParams(3, 0.1, NAN),
    "contest_prize_inf": lambda: ContestParams(3, 0.1, INF),
    "contest_n_inf": lambda: ContestParams(INF, 0.1, 1.0),
    "contest_n_nan": lambda: ContestParams(NAN, 0.1, 1.0),
    "finite_ratio_nan": lambda: FiniteHorizonParams(3, NAN, 3),
    "finite_ratio_inf": lambda: FiniteHorizonParams(3, INF, 3),
    "finite_k_inf": lambda: FiniteHorizonParams(3, 0.05, INF),
    "designer_cost_nan": lambda: DesignerParams(2, 2, NAN, 1.0),
    "designer_prize_nan": lambda: DesignerParams(2, 2, 0.05, NAN),
    "designer_m_nan": lambda: DesignerParams(NAN, 2, 0.05, 1.0),
    "config_reps_nan": lambda: SimulationConfig(NAN, 1),
    "config_reps_one": lambda: SimulationConfig(1, 1),  # no standard error from one
    "config_seed_negative": lambda: SimulationConfig(10, -1),
    "config_threads_nan": lambda: SimulationConfig(10, 1, n_threads=NAN),
    "planner_cost_nan": lambda: solve_planner(2, NAN, UNIFORM),
    "planner_n_inf": lambda: solve_planner(INF, 0.1, UNIFORM),
    "multiprize_cost_nan": lambda: solve_multiprize(2, NAN, PrizeSchedule((1.0, 0.0)), UNIFORM),
    "prize_schedule_nan": lambda: PrizeSchedule((1.0, NAN)),
    "exponential_nan": lambda: make_exponential(NAN),
    "pareto_shape_nan": lambda: make_pareto(NAN, 1.0),
    "pareto_scale_inf": lambda: make_pareto(2.0, INF),
    "uniform_unbounded": lambda: make_uniform(0.0, INF),
    "deviation_index_fractional": lambda: deviation_scan(
        PROFILE, 1.5, [], CONTEST, UNIFORM, SimulationConfig(10, 1)),
    "infinite_threshold_nan": lambda: InfiniteThresholdStrategy(NAN),
    "infinite_threshold_str": lambda: InfiniteThresholdStrategy("x"),
    "infinite_threshold_none": lambda: InfiniteThresholdStrategy(None),
    "finite_threshold_nan": lambda: FiniteThresholdStrategy((0.5, NAN)),
    "finite_threshold_str": lambda: FiniteThresholdStrategy(("x",)),
    # containers: a bare number where a sequence belongs, or items of the wrong kind
    "finite_thresholds_bare_number": lambda: FiniteThresholdStrategy(0.5),
    "profile_bare_number": lambda: StrategyProfile(5),
    "profile_of_strings": lambda: simulate_contest(
        StrategyProfile(("a", "b")), ContestParams(2, 0.1, 1.0), UNIFORM, SimulationConfig(10, 1)),
    "deviation_candidates_bare_number": lambda: deviation_scan(
        PROFILE, 0, 5, CONTEST, UNIFORM, SimulationConfig(10, 1)),
    "deviation_candidate_number": lambda: deviation_scan(
        PROFILE, 0, [5], CONTEST, UNIFORM, SimulationConfig(10, 1)),
    "deviation_candidate_str": lambda: deviation_scan(
        PROFILE, 0, ["x"], CONTEST, UNIFORM, SimulationConfig(10, 1)),
    "prize_schedule_bare_number": lambda: PrizeSchedule(5),
    "prize_schedule_str": lambda: PrizeSchedule(("a",)),
    "opponent_cdf_str": lambda: OpponentFinalCdf("x"),
    "opponent_cdf_nan": lambda: OpponentFinalCdf([NAN]),
    # float() reads a numeric string; ContestParams refuses one, and so do these
    "opponent_cdf_numeric_str": lambda: OpponentFinalCdf(["0.5"]),
    "opponent_cdf_numeric_str_iterator": lambda: OpponentFinalCdf(iter(["0.5"])),
    "k_draw_init_numeric_str": lambda: solve_k_draw(FiniteHorizonParams(3, 0.05, 3),
                                                    init=["0.7", "0.6"]),
    # a sweep with no rows still checks its cost ratio
    "profile_cost_negative_no_rows": lambda: threshold_profile(3, -1.0, []),
    "profile_cost_nan_no_rows": lambda: threshold_profile(3, NAN, []),
    "profile_n_range_bare_number": lambda: threshold_profile(3, 0.05, 5),
    # counts past the float range, which the solvers compute with as floats
    "contest_n_huge": lambda: ContestParams(HUGE, 0.1, 1.0),
    "finite_n_huge": lambda: FiniteHorizonParams(HUGE, 0.0, 3),
    "finite_k_huge": lambda: FiniteHorizonParams(3, 0.05, HUGE),
    "two_draw_n_huge": lambda: solve_two_draw(HUGE, 0.0),
    "profile_k_huge": lambda: threshold_profile(HUGE, 0.05, range(2, 5)),
    "planner_n_huge": lambda: solve_planner(HUGE, 0.1, UNIFORM),
    "designer_m_huge": lambda: DesignerParams(HUGE, 2, 0.05, 1.0),
    "designer_team_huge": lambda: DesignerParams(2, HUGE, 0.05, 1.0),
}


@pytest.mark.parametrize("call", list(BAD_CALLS.values()), ids=list(BAD_CALLS))
def test_bad_parameter_is_invalid_parameter_error(call):
    with pytest.raises(InvalidParameterError):
        call()


def test_infinite_thresholds_stay_legal():
    # +inf accepts no draw and -inf every draw: the first player keeps its second
    profile = StrategyProfile((FiniteThresholdStrategy((INF, -INF)),
                               InfiniteThresholdStrategy(-INF)))
    rep = simulate_contest(profile, ContestParams(2, 0.1, 1.0), UNIFORM, SimulationConfig(100, 1))
    assert rep.mean_draws == (2.0, 1.0)


@pytest.mark.parametrize("value, ok", [
    (3, True), (3.0, True), (2, True), (1, False), (2.5, False),
    (NAN, False), (INF, False), ("3", False), (None, False),
])
def test_require_int(value, ok):
    if ok:
        require_int("n", value, 2)
    else:
        with pytest.raises(InvalidParameterError, match="n must be an integer >= 2"):
            require_int("n", value, 2)


def test_require_count_stops_at_the_largest_float():
    top = int(sys.float_info.max)
    assert require_count("n", top, 2) == top
    assert require_count("n", sys.float_info.max, 2) == top
    with pytest.raises(InvalidParameterError, match="n must be an integer >= 2 that a float"):
        require_count("n", top + 1, 2)
    with pytest.raises(InvalidParameterError, match="n must be an integer >= 2, got 1"):
        require_count("n", 1, 2)


# each call with integral floats where ints go; they used to escape as a raw TypeError
INTEGRAL_FLOAT_CALLS = {
    "simulate_reps": lambda i: simulate_contest(PROFILE, CONTEST, UNIFORM,
                                                SimulationConfig(i(1000), 1)),
    "recall_reps": lambda i: recall_irrelevance_check(CONTEST, UNIFORM,
                                                      SimulationConfig(i(1000), 1)),
    "config_seed": lambda i: SimulationConfig(1000, i(1)),
    "k_draw_k": lambda i: solve_k_draw(FiniteHorizonParams(3, 0.05, i(3))),
    "profile_k": lambda i: threshold_profile(i(3), 0.05, range(2, 5)),
    "profile_n": lambda i: threshold_profile(3, 0.05, [i(2), i(3)]),
    "designer_sizes": lambda i: simulate_designer_dissipation(
        DesignerParams(i(2), i(2), 0.05, 1.0), UNIFORM, SimulationConfig(1000, 1)),
}


@pytest.mark.parametrize("call", list(INTEGRAL_FLOAT_CALLS.values()),
                         ids=list(INTEGRAL_FLOAT_CALLS))
def test_integral_float_acts_as_its_int(call):
    assert repr(call(float)) == repr(call(int))


@pytest.mark.parametrize("value, zero_ok, ok", [
    (0.1, False, True), (0.0, False, False), (0.0, True, True), (-1.0, True, False),
    (NAN, False, False), (NAN, True, False), (INF, False, False), (INF, True, False),
    ("x", False, False),
])
def test_require_positive(value, zero_ok, ok):
    if ok:
        require_positive("c", value, zero_ok=zero_ok)
    else:
        with pytest.raises(InvalidParameterError, match="c must be finite"):
            require_positive("c", value, zero_ok=zero_ok)
