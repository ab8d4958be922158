"""Monte Carlo engine: statistical agreement with theory and determinism."""
import dataclasses
import math
import tracemalloc

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
    distribution_free_check,
    recall_irrelevance_check,
    simulate_contest,
    simulate_designer_dissipation,
    solve_k_draw,
    solve_multiprize,
    solve_symmetric,
    to_json,
)

SEED = 20260814


def _symmetric_profile(params, d):
    eq = solve_symmetric(params, d)
    return StrategyProfile(
        (InfiniteThresholdStrategy(eq.threshold),) * params.n_players
    )


def test_symmetric_equilibrium_statistics(uniform):
    params = ContestParams(n_players=3, cost=0.1, prize=1.0)
    profile = _symmetric_profile(params, uniform)
    rep = simulate_contest(profile, params, uniform, SimulationConfig(200_000, SEED))
    for mean, se in zip(rep.mean_payoff, rep.se_payoff):
        assert se > 0
        assert abs(mean) <= 3 * se  # rents fully dissipated
    assert abs(rep.dissipation_ratio - 1.0) <= 3 * rep.se_dissipation
    for win, se in zip(rep.win_frequency, rep.se_win):
        assert abs(win - 1.0 / 3.0) <= 3 * se
    for draws, se in zip(rep.mean_draws, rep.se_draws):
        assert abs(draws - 1.0 / 0.3) <= 3 * se
    assert rep.total_prize == 1.0
    assert rep.capped_replications < 200_000 * 1e-4


def test_distribution_free_equilibrium_behavior(trio):
    params = ContestParams(n_players=2, cost=0.05, prize=1.0)
    report = distribution_free_check(params, trio, SimulationConfig(100_000, SEED))
    assert report.passed
    assert report.max_pairwise_sigma <= 3.0
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.theoretical_draws == pytest.approx(10.0, rel=1e-12)
        assert abs(row.acceptance_rate - 0.1) <= 5 * row.se_acceptance_rate


def test_distribution_free_needs_two(uniform):
    params = ContestParams(n_players=2, cost=0.05, prize=1.0)
    with pytest.raises(InvalidParameterError):
        distribution_free_check(params, [uniform], SimulationConfig(100, SEED))


def test_reports_identical_across_thread_counts(uniform):
    # three chunks so the thread pool actually interleaves
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    profile = _symmetric_profile(params, uniform)
    rep1 = simulate_contest(
        profile, params, uniform, SimulationConfig(140_000, SEED, n_threads=1)
    )
    rep4 = simulate_contest(
        profile, params, uniform, SimulationConfig(140_000, SEED, n_threads=4)
    )
    assert rep1 == rep4
    assert to_json(rep1) == to_json(rep4)


def test_deviation_scan_identical_across_thread_counts(uniform):
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    profile = _symmetric_profile(params, uniform)
    candidates = [InfiniteThresholdStrategy(t) for t in (0.7, 0.9)]
    reports = [
        deviation_scan(
            profile, 0, candidates, params, uniform,
            SimulationConfig(140_000, SEED, n_threads=k),
        )
        for k in (1, 4)
    ]
    assert reports[0] == reports[1]
    assert to_json(reports[0]) == to_json(reports[1])


def test_recall_check_identical_across_thread_counts(uniform):
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    reports = [
        recall_irrelevance_check(params, uniform, SimulationConfig(140_000, SEED, n_threads=k))
        for k in (1, 4)
    ]
    assert to_json(reports[0]) == to_json(reports[1])


def test_seed_changes_output(uniform):
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    profile = _symmetric_profile(params, uniform)
    rep_a = simulate_contest(profile, params, uniform, SimulationConfig(10_000, 1))
    rep_b = simulate_contest(profile, params, uniform, SimulationConfig(10_000, 2))
    assert rep_a.mean_payoff != rep_b.mean_payoff


def test_deviation_scan_clean_at_equilibrium(uniform):
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    profile = _symmetric_profile(params, uniform)
    candidates = [InfiniteThresholdStrategy(t) for t in (0.70, 0.75, 0.85, 0.90)]
    report = deviation_scan(
        profile, 0, candidates, params, uniform, SimulationConfig(200_000, SEED)
    )
    assert not report.any_flagged
    assert abs(report.equilibrium_payoff) <= 3 * report.se_equilibrium_payoff


def test_deviation_scan_flags_profitable_deviation(uniform):
    # opponents stop far too early; moving to the best response must be caught
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.55),) * 2)
    report = deviation_scan(
        profile, 0, [InfiniteThresholdStrategy(0.7)], params, uniform,
        SimulationConfig(100_000, SEED),
    )
    assert report.any_flagged
    row = report.rows[0]
    assert row.mean_gain == pytest.approx(0.0556, abs=10 * row.se_gain)


def test_deviation_scan_paired_noise_cancels_exactly(uniform):
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    profile = _symmetric_profile(params, uniform)
    same = profile.strategies[0]
    report = deviation_scan(
        profile, 0, [same], params, uniform, SimulationConfig(50_000, SEED)
    )
    assert report.rows[0].mean_gain == 0.0
    assert report.rows[0].se_gain == 0.0
    assert not report.rows[0].flagged


def test_deviation_scan_player_index_validation(uniform):
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    profile = _symmetric_profile(params, uniform)
    with pytest.raises(InvalidParameterError):
        deviation_scan(profile, 2, [], params, uniform, SimulationConfig(10, SEED))


def test_finite_horizon_simulation_matches_value_oracle(uniform):
    params = FiniteHorizonParams(n_players=3, cost_ratio=0.05, n_draws=3)
    eq = solve_k_draw(params)
    assert eq.exists
    a = eq.round_quantiles
    strategy = FiniteThresholdStrategy(tuple(float(q) for q in a))
    profile = StrategyProfile((strategy,) * 3)
    rep = simulate_contest(profile, ContestParams(3, 0.05, 1.0), uniform,
                           SimulationConfig(200_000, SEED))
    # independent oracle: win a third of the prize, pay for surviving rounds
    survival = [a[0], a[0] * a[1]]
    expected_draws = 1.0 + sum(survival)
    expected_payoff = 1.0 / 3.0 - 0.05 * expected_draws
    for mean, se in zip(rep.mean_payoff, rep.se_payoff):
        assert abs(mean - expected_payoff) <= 3 * se
    for draws, se in zip(rep.mean_draws, rep.se_draws):
        assert abs(draws - expected_draws) <= 3 * se
    assert rep.capped_replications == 0
    assert rep.max_draws_cap == 3


def test_multiprize_simulation_matches_theory(uniform):
    prizes = PrizeSchedule((0.6, 0.3, 0.1))
    eq = solve_multiprize(3, 0.05, prizes, uniform)
    profile = StrategyProfile((InfiniteThresholdStrategy(eq.threshold),) * 3)
    params = ContestParams(n_players=3, cost=0.05, prize=1.0)
    rep = simulate_contest(
        profile, params, uniform, SimulationConfig(200_000, SEED), prizes=prizes
    )
    # every player keeps exactly the lowest prize in expectation
    for mean, se in zip(rep.mean_payoff, rep.se_payoff):
        assert abs(mean - 0.1) <= 3 * se
    assert abs(rep.dissipation_ratio - 0.7) <= 3 * rep.se_dissipation
    assert rep.total_prize == pytest.approx(1.0, rel=1e-12)


def test_prize_schedule_length_must_match(uniform):
    params = ContestParams(n_players=3, cost=0.05, prize=1.0)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.5),) * 3)
    with pytest.raises(InvalidParameterError):
        simulate_contest(
            profile, params, uniform, SimulationConfig(10, SEED),
            prizes=PrizeSchedule((1.0, 0.0)),
        )


def test_zero_top_prize_refused(uniform):
    # the dissipation ratio divides by the prize pool
    params = ContestParams(n_players=2, cost=0.05, prize=1.0)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.5),) * 2)
    with pytest.raises(InvalidParameterError, match="top prize"):
        simulate_contest(profile, params, uniform, SimulationConfig(10, SEED),
                         prizes=PrizeSchedule((0.0, 0.0)))


@pytest.mark.parametrize("exponent", [600, -600])
def test_report_scales_with_the_prize(uniform, exponent):
    # a power of two rescales exactly, so payoffs and costs must be the prize-1
    # figures times the prize, bit for bit, and draws, wins and dissipation
    # must not move; sums of squares in absolute units overflow at 2^600 and
    # underflow at 2^-600
    def report(prize):
        params = ContestParams(n_players=3, cost=0.1 * prize, prize=prize)
        return simulate_contest(_symmetric_profile(params, uniform), params, uniform,
                                SimulationConfig(70_000, 7))

    w = 2.0**exponent
    base, scaled = report(1.0), report(w)
    money = ("mean_payoff", "se_payoff", "mean_cost", "se_cost")
    unscaled = dataclasses.replace(
        scaled, total_prize=scaled.total_prize / w,
        **{name: tuple(v / w for v in getattr(scaled, name)) for name in money})
    assert repr(unscaled) == repr(base)


def test_profile_params_player_count_must_match(uniform):
    params = ContestParams(n_players=3, cost=0.05, prize=1.0)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.5),) * 2)
    with pytest.raises(InvalidParameterError):
        simulate_contest(profile, params, uniform, SimulationConfig(10, SEED))


def test_strategy_and_config_validation(uniform):
    with pytest.raises(InvalidParameterError):
        StrategyProfile((InfiniteThresholdStrategy(0.5),))
    with pytest.raises(InvalidParameterError):
        FiniteThresholdStrategy(())
    with pytest.raises(InvalidParameterError):
        SimulationConfig(0, SEED)
    with pytest.raises(InvalidParameterError):
        SimulationConfig(10, SEED, n_threads=0)


def test_threshold_with_no_acceptance_mass_rejected(uniform):
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    profile = StrategyProfile(
        (InfiniteThresholdStrategy(1.0), InfiniteThresholdStrategy(0.5))
    )
    with pytest.raises(InvalidParameterError):
        simulate_contest(profile, params, uniform, SimulationConfig(10, SEED))


def test_forced_stops_are_counted(uniform, monkeypatch):
    import searchcontest.simulation as sim

    # round-by-round play stops at the cap, which a real contest reaches
    # with probability about e^-40; force it to one draw
    monkeypatch.setattr(sim, "_default_cap", lambda quantiles, kinds: 1)
    params = ContestParams(n_players=2, cost=0.01, prize=1.0)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.9),) * 2)
    rep = simulate_contest(profile, params, uniform, SimulationConfig(20_000, SEED))
    assert rep.max_draws_cap == 1
    assert rep.capped_replications > 0.9 * 20_000
    assert rep.mean_draws == (1.0, 1.0)
    assert rep.se_draws == (0.0, 0.0)


def test_forced_stop_reports_frozen(uniform, monkeypatch):
    import searchcontest.simulation as sim

    # a cap of 3 at acceptance 0.3 binds on about a third of the searches:
    # the no-recall side keeps its last draw, the with-recall side its best,
    # so the KS check fails; both reports are pinned to the last bit, over
    # one full chunk and a partial one on two threads
    monkeypatch.setattr(sim, "_default_cap", lambda quantiles, kinds: 3)
    params = ContestParams(n_players=3, cost=0.1, prize=1.0)
    config = SimulationConfig(70_000, SEED, n_threads=2)
    rep = simulate_contest(_symmetric_profile(params, uniform), params, uniform, config)
    assert repr(rep) == (
        "SimulationReport(n_players=3, replications=70000, seed=20260814, max_draws_cap=3, "
        "capped_replications=50343, mean_payoff=(np.float64(0.11249999999999999), "
        "np.float64(0.11360714285714285), np.float64(0.11576285714285714)), "
        "se_payoff=(np.float64(0.001904503599118825), np.float64(0.0019071896095116476), "
        "np.float64(0.0019104194828709158)), mean_cost=(np.float64(0.2195714285714286), "
        "np.float64(0.2193214285714286), np.float64(0.21923714285714288)), "
        "se_cost=(np.float64(0.0003281471423612966), np.float64(0.0003283245388105664), "
        "np.float64(0.0003284542695417728)), mean_draws=(np.float64(2.1957142857142857), "
        "np.float64(2.193214285714286), np.float64(2.1923714285714286)), "
        "se_draws=(np.float64(0.0032814714236129635), np.float64(0.003283245388105661), "
        "np.float64(0.0032845426954177213)), win_frequency=(np.float64(0.3320714285714286), "
        "np.float64(0.3329285714285714), np.float64(0.335)), "
        "se_win=(np.float64(0.0017800608477343883), np.float64(0.0017812127107829138), "
        "np.float64(0.0017839690201724955)), dissipation_ratio=0.65813, "
        "se_dissipation=0.0005668703395170996, total_prize=1.0)"
    )
    assert repr(recall_irrelevance_check(params, uniform, config)) == (
        "RecallReport(ks_statistic=0.13118571428571427, critical_value=0.008702026036668538, "
        "replications=70000, passed=False)"
    )


def test_always_accept_uses_one_draw(uniform):
    params = ContestParams(n_players=2, cost=0.01, prize=1.0)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.0),) * 2)
    rep = simulate_contest(profile, params, uniform, SimulationConfig(5_000, SEED))
    assert rep.mean_draws == (1.0, 1.0)
    assert rep.capped_replications == 0


def test_recall_makes_no_difference(uniform, exponential):
    params = ContestParams(n_players=2, cost=0.1, prize=1.0)
    for d in (uniform, exponential):
        report = recall_irrelevance_check(params, d, SimulationConfig(40_000, SEED))
        assert report.passed
        assert report.ks_statistic < report.critical_value
        assert report.replications == 40_000


def test_recall_check_rejects_unresolvable_threshold(uniform):
    # acceptance 2e-18 rounds the threshold quantile to 1: no draw can stop
    params = ContestParams(n_players=2, cost=1e-18, prize=1.0)
    with pytest.raises(InvalidParameterError):
        recall_irrelevance_check(params, uniform, SimulationConfig(10, SEED))


def test_recall_check_refuses_a_test_that_cannot_fail(uniform):
    # at 5 replications the 1 percent KS critical value exceeds 1
    params = ContestParams(n_players=3, cost=0.1, prize=1.0)
    with pytest.raises(InvalidParameterError, match="cannot fail"):
        recall_irrelevance_check(params, uniform, SimulationConfig(5, SEED))
    assert recall_irrelevance_check(params, uniform, SimulationConfig(6, SEED)).critical_value < 1


def test_designer_dissipation_simulation(uniform):
    params = DesignerParams(n_designers=2, team_size=2, cost=0.05, meta_prize=1.0)
    diss, se = simulate_designer_dissipation(
        params, uniform, SimulationConfig(200_000, SEED)
    )
    assert se > 0
    assert abs(diss - 2.0 / 3.0) <= 3 * se


def test_asymmetric_profile_payoffs(uniform):
    # two zero-profit players and one picky player with a known rent
    from searchcontest import solve_asymmetric

    params = ContestParams(n_players=3, cost=0.1, prize=1.0)
    eq = solve_asymmetric(params, uniform)
    profile = StrategyProfile(
        (
            InfiniteThresholdStrategy(eq.low_threshold),
            InfiniteThresholdStrategy(eq.low_threshold),
            InfiniteThresholdStrategy(eq.high_threshold),
        )
    )
    rep = simulate_contest(profile, params, uniform, SimulationConfig(200_000, SEED))
    expected = (0.0, 0.0, eq.high_player_value)
    for mean, se, want in zip(rep.mean_payoff, rep.se_payoff, expected):
        assert abs(mean - want) <= 3 * se


def test_tiny_acceptance_refuses_default_cap(uniform):
    # acceptance 2e-14 asks for a default cap of 2e15 rounds
    params = ContestParams(n_players=2, cost=1e-14, prize=1.0)
    config = SimulationConfig(10, SEED)
    with pytest.raises(InvalidParameterError, match="max_draws_cap"):
        simulate_contest(_symmetric_profile(params, uniform), params, uniform, config)
    with pytest.raises(InvalidParameterError, match="max_draws_cap"):
        recall_irrelevance_check(params, uniform, config)


def test_memory_budget_refuses_before_allocating(uniform, monkeypatch):
    import searchcontest.simulation as sim

    def forbidden(*args, **kwargs):
        raise AssertionError("chunks ran before the memory check")

    monkeypatch.setattr(sim, "_map_chunks", forbidden)
    big = ContestParams(n_players=1000, cost=0.0003, prize=1.0)  # ~4.5 GB of chunks
    small = ContestParams(n_players=3, cost=0.1, prize=1.0)
    config = SimulationConfig(200_000, SEED)
    candidates = [InfiniteThresholdStrategy(0.5)] * 2000  # ~1.2 GB of paired payoffs
    calls = [
        lambda: simulate_contest(_symmetric_profile(big, uniform), big, uniform, config),
        lambda: deviation_scan(_symmetric_profile(small, uniform), 0, candidates, small,
                               uniform, config),
        # every replication is kept for the KS test: ~2.1 GB
        lambda: recall_irrelevance_check(small, uniform, SimulationConfig(20_000_000, SEED)),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(InvalidParameterError, match="memory budget"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # one player's chunk alone is about 4.5 MB
