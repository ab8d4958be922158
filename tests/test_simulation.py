"""Monte Carlo engine: statistical agreement with theory and determinism."""
import dataclasses
import hashlib
import math
import tracemalloc
import types
import warnings

import numpy as np
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
    solve_asymmetric,
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
    monkeypatch.setattr(sim, "_default_cap", lambda plans: 1)
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
    monkeypatch.setattr(sim, "_default_cap", lambda plans: 3)
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


def _pay_by_sorting(finals, schedule):
    """Reference payment: a stable sort of the negated values ranks each
    column, so an exact tie goes to the lower player index, and rank r gets
    schedule[r]."""
    order = np.argsort(-finals, axis=0, kind="stable")
    paid, won = np.zeros(finals.shape), np.zeros(finals.shape, dtype=bool)
    np.put_along_axis(paid, order, np.asarray(schedule)[:, None], axis=0)
    np.put_along_axis(won, order[:1], True, axis=0)
    return paid, won


def _schedules(rng, n):
    """Non-increasing schedules of n prizes with 1 to n positive ones, random
    and with runs of equal prizes."""
    for m in range(1, n + 1):
        top = np.sort(rng.random(m))[::-1] + 0.1
        yield np.r_[top, np.zeros(n - m)]
        yield np.r_[np.repeat(top[: (m + 1) // 2], 2)[:m], np.zeros(n - m)]


@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
def test_pay_prizes_matches_a_stable_sort(ties):
    import searchcontest.simulation as sim

    rng = np.random.default_rng(SEED)
    for n in range(2, 13):
        # with ties, values from {0, 1/4, 1/2} tie at every level of most columns
        finals = (rng.integers(0, 3, (n, 3_000)) / 4.0 if ties
                  else rng.random((n, 3_000)))
        if ties:
            finals[:, :10] = 0.5  # every player tied
        for schedule in _schedules(rng, n):
            paid = np.empty(finals.shape)
            won = sim._pay_prizes(finals.copy(), schedule[schedule > 0.0], paid)
            want_paid, want_won = _pay_by_sorting(finals, schedule)
            assert np.array_equal(paid, want_paid)
            assert np.array_equal(won, want_won)
            assert (won.sum(axis=0) == 1).all()
            assert np.allclose(paid.sum(axis=0), schedule.sum(), rtol=1e-14, atol=0.0)
            assert (np.sort(paid, axis=0)[::-1] == schedule[:, None]).all()


def _mixed_profile():
    return StrategyProfile((InfiniteThresholdStrategy(0.7), FiniteThresholdStrategy((0.6, 0.45)),
                            FiniteThresholdStrategy((0.8, 0.6))))


def test_deviation_scan_with_finite_strategies_frozen(uniform):
    # a k=3 opponent and k=2 and k=3 candidates read pre-drawn uniforms as the
    # draws themselves; pinned to the last bit over two chunks on two threads
    candidates = [FiniteThresholdStrategy((0.5,)), FiniteThresholdStrategy((0.75, 0.55)),
                  InfiniteThresholdStrategy(0.6)]
    scan = deviation_scan(_mixed_profile(), 0, candidates, ContestParams(3, 0.05, 1.0), uniform,
                          SimulationConfig(70_000, SEED, n_threads=2))
    assert repr(scan) == (
        "DeviationScanReport(player_index=0, equilibrium_payoff=0.3462357142857143, "
        "se_equilibrium_payoff=0.0019645796289632198, "
        "rows=(DeviationRow(strategy=FiniteThresholdStrategy(thresholds=(0.5,)), "
        "mean_gain=-0.16139857142857142, se_gain=0.002247590714445342, flagged=False), "
        "DeviationRow(strategy=FiniteThresholdStrategy(thresholds=(0.75, 0.55)), "
        "mean_gain=-0.10959142857142856, se_gain=0.0022439564088986407, flagged=False), "
        "DeviationRow(strategy=InfiniteThresholdStrategy(threshold=0.6), "
        "mean_gain=-0.05475285714285714, se_gain=0.0011312462249065496, flagged=False)))"
    )


def test_deviation_scan_with_a_wide_opponent_frozen(uniform):
    # a k=50 opponent's uniforms span 50 stream words per replication, so a
    # chunk holds many rows of them; pinned to the last bit over a full chunk
    # and a partial one on two threads
    profile = StrategyProfile((InfiniteThresholdStrategy(0.7), FiniteThresholdStrategy((0.9,) * 49),
                               InfiniteThresholdStrategy(0.65)))
    candidates = [FiniteThresholdStrategy((0.8, 0.7, 0.6, 0.5, 0.4)),
                  InfiniteThresholdStrategy(0.75)]
    scan = deviation_scan(profile, 0, candidates, ContestParams(3, 0.05, 1.0), uniform,
                          SimulationConfig(70_001, SEED, n_threads=2))
    assert repr(scan) == (
        "DeviationScanReport(player_index=0, equilibrium_payoff=-0.017358323452522122, "
        "se_equilibrium_payoff=0.0014498793581523776, "
        "rows=(DeviationRow(strategy=FiniteThresholdStrategy(thresholds=(0.8, 0.7, 0.6, 0.5, 0.4)), "
        "mean_gain=0.004125655347780745, se_gain=0.0018729393006727327, flagged=False), "
        "DeviationRow(strategy=InfiniteThresholdStrategy(threshold=0.75), "
        "mean_gain=-0.0031492407251325016, se_gain=0.0006663381762951016, flagged=False)))"
    )


def test_best_response_scans_of_the_asymmetric_profile_frozen(uniform):
    # `verify best_response --profile asymmetric`'s two scans: the 25-point
    # grid of infinite candidates, one below the support (q = 0) and a k=3
    # one, over a full chunk and a partial one on two threads; the 13 kB repr
    # is pinned by its digest, and a few fields are spelled out
    params = ContestParams(3, 0.1, 1.0)
    eq = solve_asymmetric(params, uniform)
    profile = StrategyProfile((InfiniteThresholdStrategy(eq.low_threshold),) * 2
                              + (InfiniteThresholdStrategy(eq.high_threshold),))
    candidates = ([InfiniteThresholdStrategy(float(uniform.quantile(q)))
                   for q in np.linspace(0.02, 0.98, 25)]
                  + [InfiniteThresholdStrategy(-1.0), FiniteThresholdStrategy((0.8, 0.6))])
    config = SimulationConfig(70_000, SEED, n_threads=2)
    scans = [deviation_scan(profile, i, candidates, params, uniform, config) for i in (0, 2)]
    assert [(s.equilibrium_payoff, s.se_equilibrium_payoff) for s in scans] == [
        (0.0009228571428571237, 0.0019017120932256076),
        (0.06558142857142855, 0.0022228888733643835)]
    assert [(r.mean_gain, r.se_gain) for r in scans[1].rows[-2:]] == [
        (-0.0437385714285714, 0.00212165274018031),
        (-0.03420428571428571, 0.0027518055204281324)]
    assert [hashlib.sha256(repr(s).encode()).hexdigest() for s in scans] == [
        "bc45bfa506be5bd8fe9e2197f438969cd75555ccd326fffad4c1eba3b16c785b",
        "0b3bd7401b584fcd489eabaa9f584b380734057a745581b5e538f3e175cbd8c9"]


def test_mixed_horizon_report_with_schedule_frozen(uniform):
    rep = simulate_contest(_mixed_profile(), ContestParams(3, 0.05, 1.0), uniform,
                           SimulationConfig(70_000, SEED, n_threads=2),
                           PrizeSchedule((0.6, 0.3, 0.1)))
    assert repr(rep) == (
        "SimulationReport(n_players=3, replications=70000, seed=20260814, max_draws_cap=134, "
        "capped_replications=0, mean_payoff=(np.float64(0.26181), "
        "np.float64(0.18246214285714282), np.float64(0.18048285714285714)), "
        "se_payoff=(np.float64(0.0008756176062262339), np.float64(0.0007771276816531612), "
        "np.float64(0.0008516366535494751)), mean_cost=(np.float64(0.1678342857142857), "
        "np.float64(0.09353642857142858), np.float64(0.11387428571428572)), "
        "se_cost=(np.float64(0.0005320494631521627), np.float64(0.00015313039563598794), "
        "np.float64(0.000147085153801559)), mean_draws=(np.float64(3.3566857142857143), "
        "np.float64(1.8707285714285715), np.float64(2.277485714285714)), "
        "se_draws=(np.float64(0.010640989263043256), np.float64(0.003062607912719759), "
        "np.float64(0.0029417030760311835)), win_frequency=(np.float64(0.5112714285714286), "
        "np.float64(0.21801428571428572), np.float64(0.27071428571428574)), "
        "se_win=(np.float64(0.0018893556141204627), np.float64(0.0015606156864707338), "
        "np.float64(0.0016794169126968547)), dissipation_ratio=0.375245, "
        "se_dissipation=0.0005725905593550523, total_prize=1.0)"
    )


def test_finite_plans_with_certain_and_impossible_rounds_frozen(uniform):
    # a threshold at the top of the support makes a round's acceptance
    # quantile exactly 1, so that round accepts no draw: the first player skips
    # its first draw; one below the support makes it 0, so the second player
    # keeps its second draw and never reaches its third round
    profile = StrategyProfile((FiniteThresholdStrategy((1.0, 0.5)),
                               FiniteThresholdStrategy((0.8, -1.0, 0.9)),
                               InfiniteThresholdStrategy(0.7)))
    rep = simulate_contest(profile, ContestParams(3, 0.05, 1.0), uniform,
                           SimulationConfig(70_000, SEED, n_threads=2))
    assert repr(rep) == (
        "SimulationReport(n_players=3, replications=70000, seed=20260814, max_draws_cap=134, "
        "capped_replications=0, mean_payoff=(np.float64(0.06034642857142857), "
        "np.float64(0.12732142857142856), np.float64(0.43020928571428574)), "
        "se_payoff=(np.float64(0.0014868830469215168), np.float64(0.0015935584956806755), "
        "np.float64(0.0019278956810146529)), mean_cost=(np.float64(0.12509642857142858), "
        "np.float64(0.08997857142857144), np.float64(0.16704785714285716)), "
        "se_cost=(np.float64(9.449109029024638e-05), np.float64(7.565411154002879e-05), "
        "np.float64(0.0005276909523266809)), mean_draws=(np.float64(2.5019285714285715), "
        "np.float64(1.7995714285714286), np.float64(3.340957142857143)), "
        "se_draws=(np.float64(0.0018898218058049135), np.float64(0.0015130822308005722), "
        "np.float64(0.010553819046533618)), win_frequency=(np.float64(0.18544285714285713), "
        "np.float64(0.2173), np.float64(0.5972571428571428)), "
        "se_win=(np.float64(0.0014689936390986603), np.float64(0.0015587684688292476), "
        "np.float64(0.00185373940421996)), dissipation_ratio=0.38212285714285715, "
        "se_dissipation=0.000541336037429608, total_prize=1.0)"
    )


def test_thirty_player_report_with_schedule_frozen(uniform):
    # 30-way ranks under a three-level schedule, one two-round player among 29
    # infinite ones, over a full chunk and a partial one on two threads; the
    # 8 kB repr is pinned by its digest, and a few fields are spelled out
    profile = StrategyProfile((InfiniteThresholdStrategy(0.9),) * 29
                              + (FiniteThresholdStrategy((0.8,)),))
    rep = simulate_contest(profile, ContestParams(30, 0.002, 1.0), uniform,
                           SimulationConfig(70_001, SEED, n_threads=2),
                           PrizeSchedule((0.6, 0.3, 0.1) + (0.0,) * 27))
    assert (rep.max_draws_cap, rep.capped_replications) == (401, 0)
    assert (rep.dissipation_ratio, rep.se_dissipation) == (0.5830415565491922,
                                                           0.000386272414095193)
    assert (rep.mean_payoff[-1], rep.win_frequency[-1], rep.mean_draws[-1]) == (
        0.0022616534049513574, 0.0057570606134198085, 1.801274267510464)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == (
        "6a35c4c056f4459ece210d08f836fa1eb0ee965a3de767d485597101e480ab0e")


def test_float_sums_do_not_depend_on_builtin_sum(uniform, exponential, monkeypatch):
    # builtin sum() of floats is compensated from Python 3.12 on; the package
    # adds left to right, so a compensated sum() must change nothing
    import searchcontest.equilibrium as eqm
    import searchcontest.simulation as sim

    params, config = ContestParams(3, 0.1, 1.0), SimulationConfig(2_000, SEED)
    before = (PrizeSchedule((0.89, 0.7, 0.4)).mean,
              repr(distribution_free_check(params, [uniform, exponential], config)))
    for module in (eqm, sim):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    after = (PrizeSchedule((0.89, 0.7, 0.4)).mean,
             repr(distribution_free_check(params, [uniform, exponential], config)))
    assert before == after
    assert before[0] == 1.9899999999999998 / 3


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


def _ks_by_searchsorted(a, b, reps):
    """The recall check's KS statistic as it was taken before the merge: both
    empirical CDFs at each side's sample points in turn."""
    a, b = np.sort(a), np.sort(b)
    return float(max(np.abs(np.searchsorted(a, x, side="right") / reps
                            - np.searchsorted(b, x, side="right") / reps).max() for x in (a, b)))


@pytest.mark.parametrize("grid", [None, 2, 7, 1000], ids=["no_ties", "grid2", "grid7", "grid1000"])
def test_recall_ks_statistic_equals_the_searchsorted_one(grid):
    # seeded samples, the second bent by a power so the largest gap lies
    # anywhere, on a coarse grid of values (ties within and across the
    # samples) or not; and equal and disjoint samples, whose gaps are 0 and 1
    import searchcontest.simulation as sim

    rng = np.random.default_rng(SEED)
    for reps in (6, 7, 10, 31, 100, 1000, 4097, 65537, 200_000):
        samples = [(rng.random(reps), rng.random(reps) ** power) for power in (1.0, 1.01, 1.3)]
        a = rng.random(reps)
        samples += [(a, a[::-1].copy()), (a, a + 1.0), (a + 1.0, a)]
        for a, b in samples:
            if grid:
                a, b = np.floor(a * grid) / grid, np.floor(b * grid) / grid
            want = _ks_by_searchsorted(a, b, reps)
            got = sim._ks_statistic(np.concatenate([a, b]), reps)
            assert type(got) is float and got.hex() == want.hex(), (reps, grid)


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
    wide = FiniteThresholdStrategy((0.5,) * 1999)  # ~1.2 GB of the deviator's uniforms
    calls = [
        lambda: simulate_contest(_symmetric_profile(big, uniform), big, uniform, config),
        lambda: deviation_scan(_symmetric_profile(small, uniform), 0, [wide], small,
                               uniform, config),
        # every replication is kept for the KS test: ~1.6 GB
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


@pytest.mark.parametrize("n", [218, 340])
def test_memory_budget_admits_what_fits(uniform, monkeypatch, n):
    # one 65,536-replication chunk of 218 to 340 players holds about 0.6 to
    # 0.9 GB at its peak: under the 1 GB budget, so the memory check must let
    # the simulation start
    import searchcontest.simulation as sim

    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(sim, "_map_chunks", started)
    params = ContestParams(n_players=n, cost=0.3 / n, prize=1.0)
    with pytest.raises(Started):
        simulate_contest(_symmetric_profile(params, uniform), params, uniform,
                         SimulationConfig(200_000, SEED))


@pytest.mark.parametrize("call", ["simulate_contest", "deviation_scan"])
def test_overflowing_payoff_squares_refused_before_chunks(uniform, monkeypatch, call):
    # a draw costs 1e300 prizes: the sums of the payoff squares overflow, so
    # the standard errors would be NaN, and a NaN gain is never flagged
    import searchcontest.simulation as sim

    def forbidden(*args, **kwargs):
        raise AssertionError("chunks ran before the range check")

    monkeypatch.setattr(sim, "_map_chunks", forbidden)
    params = ContestParams(3, 1e300, 1.0)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.5),) * 3)
    config = SimulationConfig(2000, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParameterError, match="would overflow"):
            if call == "simulate_contest":
                simulate_contest(profile, params, uniform, config)
            else:
                deviation_scan(profile, 0, [InfiniteThresholdStrategy(0.6)], params, uniform,
                               config)


@pytest.mark.parametrize("call", ["simulate_contest", "deviation_scan"])
def test_overflowing_reported_means_refused_before_chunks(uniform, monkeypatch, call):
    # every sum in top-prize units fits a float here, but the means scaled back
    # by a top prize of 1e308 would not: mean_cost read inf for two players
    import searchcontest.simulation as sim

    def forbidden(*args, **kwargs):
        raise AssertionError("chunks ran before the range check")

    monkeypatch.setattr(sim, "_map_chunks", forbidden)
    params = ContestParams(3, 1e308, 1e308)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.5),) * 3)
    config = SimulationConfig(2000, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParameterError, match="top prizes of 1e.308: .* would overflow"):
            if call == "simulate_contest":
                simulate_contest(profile, params, uniform, config)
            else:
                deviation_scan(profile, 0, [InfiniteThresholdStrategy(0.6)], params, uniform,
                               config)


def test_large_costs_that_fit_are_simulated(uniform):
    # 1e140 prizes a draw: the check bounds each square by about 5.8e284, and
    # 2,000 of those fit a float, so the contest runs to finite reports
    params = ContestParams(3, 1e140, 1.0)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.5),) * 3)
    config = SimulationConfig(2000, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = simulate_contest(profile, params, uniform, config)
        scan = deviation_scan(profile, 0, [InfiniteThresholdStrategy(0.6)], params, uniform,
                              config)
    assert all(map(math.isfinite, rep.se_payoff + (rep.se_dissipation,)))
    assert math.isfinite(scan.rows[0].se_gain) and scan.rows[0].se_gain > 0


def test_reported_means_bounded_per_player(uniform, monkeypatch):
    # each reported mean is at most top (1 + c D), not N times that: a top
    # prize of 1e308 and a cost of 1e290 report every figure finite (mean
    # payoff about 3.4e307, total prize 1e308), where N top (1 + c D) is inf
    params = ContestParams(3, 1e290, 1e308)
    profile = StrategyProfile((InfiniteThresholdStrategy(0.5),) * 3)
    config = SimulationConfig(2000, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = simulate_contest(profile, params, uniform, config)
        scan = deviation_scan(profile, 0, [InfiniteThresholdStrategy(0.6)], params, uniform,
                              config)
    figures = [v for f in dataclasses.fields(rep) for v in np.ravel(getattr(rep, f.name))]
    assert all(map(math.isfinite, figures)) and rep.total_prize == 1e308
    assert 3e307 < max(rep.mean_payoff) < 1e308
    row = scan.rows[0]
    assert all(map(math.isfinite, (scan.equilibrium_payoff, scan.se_equilibrium_payoff,
                                   row.mean_gain, row.se_gain)))
    # a total prize that overflows is still refused before any chunk runs
    import searchcontest.simulation as sim

    def forbidden(*args, **kwargs):
        raise AssertionError("chunks ran before the range check")

    monkeypatch.setattr(sim, "_map_chunks", forbidden)
    with pytest.raises(InvalidParameterError, match="or the total prize, would overflow"):
        simulate_contest(profile, params, uniform, config, PrizeSchedule((1e308, 1e308, 0.0)))


def test_finite_players_stay_within_the_memory_estimate(uniform, monkeypatch):
    # a k-draw player is played round by round, so its memory does not grow
    # with k; a pre-drawn k x chunk block of uniforms would hold 105 MB here
    import searchcontest.simulation as sim

    profile = StrategyProfile((FiniteThresholdStrategy((0.99,) * 199),) * 3)
    params, config = ContestParams(3, 0.001, 1.0), SimulationConfig(sim._CHUNK, SEED)
    tracemalloc.start()
    try:
        rep = simulate_contest(profile, params, uniform, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_draws_cap == 200
    # the estimate is above the peak exactly when a budget of the peak refuses
    monkeypatch.setattr(sim, "_MEMORY_BUDGET", peak)
    with pytest.raises(InvalidParameterError, match="memory budget"):
        simulate_contest(profile, params, uniform, config)


def test_thirty_players_stay_within_the_memory_estimate(uniform, monkeypatch):
    # a chunk holds one block of per-player statistics beside the accepted
    # values and a mask of the winners: about 40 B per player and replication
    # at the peak, 78 MiB here
    import searchcontest.simulation as sim

    params = ContestParams(30, 0.01, 1.0)
    profile, config = _symmetric_profile(params, uniform), SimulationConfig(sim._CHUNK, SEED)
    tracemalloc.start()
    try:
        simulate_contest(profile, params, uniform, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 << 20
    # the estimate is above the peak exactly when a budget of the peak refuses
    monkeypatch.setattr(sim, "_MEMORY_BUDGET", peak)
    with pytest.raises(InvalidParameterError, match="memory budget"):
        simulate_contest(profile, params, uniform, config)


WIDE_OPPONENTS = StrategyProfile((InfiniteThresholdStrategy(0.7),)
                                 + (FiniteThresholdStrategy((0.99,) * 199),) * 2)
MEMORY_CASES = {
    # each opponent's uniforms are drawn in blocks of whole rows: a k x chunk block is 105 MB
    "scan_k200_opponents": lambda d: deviation_scan(
        WIDE_OPPONENTS, 0, [InfiniteThresholdStrategy(0.6)], ContestParams(3, 0.001, 1.0), d,
        SimulationConfig(1 << 16, SEED)),
    # one candidate's payoffs are held at a time: all 200 of them are 105 MB
    "scan_200_candidates": lambda d: deviation_scan(
        StrategyProfile((InfiniteThresholdStrategy(0.7),) * 3), 0,
        [InfiniteThresholdStrategy(0.6)] * 200, ContestParams(3, 0.1, 1.0), d,
        SimulationConfig(1 << 16, SEED)),
    # the two samples hold 3.2 MB, and the KS statistic needs no pooled copy of them
    "recall_200k": lambda d: recall_irrelevance_check(
        ContestParams(3, 0.1, 1.0), d, SimulationConfig(200_000, SEED)),
}


@pytest.mark.parametrize("call", list(MEMORY_CASES.values()), ids=list(MEMORY_CASES))
def test_scans_and_recall_stay_within_the_memory_estimate(uniform, monkeypatch, call):
    import searchcontest.simulation as sim

    tracemalloc.start()
    try:
        call(uniform)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    # the estimate is above the peak exactly when a budget of the peak refuses
    monkeypatch.setattr(sim, "_MEMORY_BUDGET", peak)
    with pytest.raises(InvalidParameterError, match="memory budget"):
        call(uniform)


# The round-play kernel reads raw Philox words where Generator.random would
# have drawn doubles, and in sparse rounds computes the words from their
# positions. These tests pin the numpy behaviour that makes that byte-safe;
# advance gives the evaluator's test its reference words far into a stream.


def test_numpy_random_reads_one_philox_word_per_double():
    words = np.random.Philox(SEED).random_raw(1001)
    u = np.random.Generator(np.random.Philox(SEED)).random(1001)
    assert np.array_equal(u, (words >> np.uint64(11)) * 2.0**-53)


@pytest.mark.parametrize("consumed", range(8))
def test_numpy_philox_advance_moves_whole_blocks_and_empties_the_buffer(consumed):
    # from any position P, advance(d) lands on word 4 * (ceil(P / 4) + d)
    words = np.random.Philox(SEED).random_raw(64)
    for d in (0, 1, 2, 7):
        bits = np.random.Philox(SEED)
        bits.random_raw(consumed)
        bits.advance(d)
        assert bits.random_raw(1)[0] == words[4 * (-(-consumed // 4) + d)]


PHILOX_KEYS = [
    (SEED, 0, 0, 0), (SEED, 5, 1, 3), (1, 3, 29, 0), (12345, 2, 0, 17),  # _stream's tags
    (2**64 - 1, 2**64 - 1), (2**63, 2**63 + 1), (0, 2**64 - 1), (0xFFFFFFFF00000000, 1 << 32),
]


@pytest.mark.parametrize("source", PHILOX_KEYS, ids=lambda t: "-".join(f"{k:x}" for k in t))
def test_philox_words_equal_random_raw(source):
    # a stream's key, or a key with its top bits set: every lane of the first
    # 1,025 counter blocks, then positions up to 2^40, where the counter's high
    # 32 bits are nonzero, against numpy's own words
    import searchcontest.simulation as sim

    key = source if len(source) == 2 else tuple(
        int(k) for k in sim._stream(*source).bit_generator.state["state"]["key"])

    def fresh():
        return np.random.Philox(key=np.array(key, dtype=np.uint64))

    positions = np.arange(4100, dtype=np.uint64)
    want = fresh().random_raw(4100)
    far = np.random.default_rng(key[0] % 1000).integers(0, 2**40, 300, dtype=np.uint64)
    far[:3] = [2**33, 2**34 - 1, 2**34 + 6]
    far_want = []
    for w in far.tolist():
        bits = fresh()
        bits.advance(w // 4)
        far_want.append(bits.random_raw(w % 4 + 1)[-1])
    positions = np.concatenate([positions, far])
    want = np.concatenate([want, np.array(far_want, dtype=np.uint64)])
    got = sim._philox_words(key, positions.copy(), np.empty((10, positions.size), dtype=np.uint64))
    assert got.dtype == np.uint64 and np.array_equal(got, want)


def _spy_counter_phase(monkeypatch):
    """The word positions of every block _play_rounds computes rather than reads."""
    import searchcontest.simulation as sim

    calls, real = [], sim._philox_words

    def spy(key, words, workspace):
        calls.append(words.copy())
        return real(key, words, workspace)

    monkeypatch.setattr(sim, "_philox_words", spy)
    return calls


def _full_row_play(rng, size, plan, cap, recall=False):
    """The round-play kernel as it was before it read raw words: every round
    draws a full row of uniforms through Generator.random, and round r
    accepts a uniform at or above plan[min(r, len(plan)) - 1]."""
    x = np.empty(size)
    final = np.empty(size)
    draws = np.full(size, cap, dtype=np.int64)
    live = np.arange(size)
    best = np.zeros(size)  # running maximum of each live column, with recall
    mask = np.empty(size, dtype=bool)  # one buffer: a fresh mask every round fragments the heap
    for r in range(1, cap + 1):
        rng.random(out=x)
        seen = np.maximum(best, x[live]) if recall else x[live]
        stop = np.greater_equal(seen, plan[min(r, len(plan)) - 1], out=mask[: live.size])
        done = live[stop]
        final[done] = seen[stop]
        draws[done] = r
        keep = np.logical_not(stop, out=stop)
        live = live[keep]
        if recall:
            best = seen[keep]
        if not live.size:
            break
    final[live] = best if recall else x[live]  # cap reached
    return final, draws, live


def _assert_plays_equal(size, plan, cap, recall):
    import searchcontest.simulation as sim

    got = sim._play_rounds(sim._stream(SEED, 0, 1, size), size, plan, cap, recall)
    want = _full_row_play(sim._stream(SEED, 0, 1, size), size, plan, cap, recall)
    for g, w in zip(got, want):
        assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes())
    return want


@pytest.mark.parametrize("recall", [False, True], ids=["no_recall", "recall"])
@pytest.mark.parametrize("plan", [
    0.0, 0.3, 0.97, 0.999,
    # k-draw plans: a 1.0 round accepts no draw, a 0.0 round every draw
    pytest.param((0.5, 0.0), id="k2"),
    pytest.param((1.0, 0.3, 0.0), id="k3"),
    pytest.param((0.9, 0.0, 0.0), id="k3_zero"),
    pytest.param((0.97, 0.97, 1.0, 0.3, 0.97, 0.0), id="k6"),
])
@pytest.mark.parametrize("size", [1, 2, 3, 7, 4097, 65536])
def test_play_rounds_reads_the_full_row_words(monkeypatch, size, plan, recall):
    # odd sizes start rows off the 4-word block boundary; the default cap
    # runs where the full-row reference stays cheap
    import searchcontest.simulation as sim

    calls = _spy_counter_phase(monkeypatch)
    plan = np.array(plan, ndmin=1)
    caps = [1, 2, 3, 7]
    if plan.size > 1 or plan[0] <= 0.97 or size <= 7:
        caps.append(sim._default_cap([plan]))
    for cap in caps:
        _assert_plays_equal(size, plan, cap, recall)
    if size == 65536:  # a full chunk thins out past _SPARSE before the cap at q = 0.3 and 0.97,
        # and with recall the k6 plan's round 4, whose bound 0.3 meets the running
        # maximum of 4 draws, leaves about 0.3^4 * 65,536 = 531 columns live
        assert bool(calls) == (plan.size == 1 and 0.0 < plan[0] < 0.999
                               or recall and plan.size == 6)


def _block_rounds(words, size):
    """The rounds a computed block holds, from its word positions."""
    return sorted({int(w) // size + 1 for w in words})


@pytest.mark.parametrize("recall", [False, True], ids=["no_recall", "recall"])
def test_play_rounds_cap_inside_a_counter_block(monkeypatch, recall):
    # at q = 0.97 blocks hold ceil(1 / 0.03) = 34 rounds: the cap cuts the last one short
    calls = _spy_counter_phase(monkeypatch)
    size, cap = 65536, 200
    _, _, capped = _assert_plays_equal(size, np.array([0.97]), cap, recall)
    last = _block_rounds(calls[-1], size)
    assert last[-1] == cap and len(last) < 34 and capped.size > 0


@pytest.mark.parametrize("recall", [False, True], ids=["no_recall", "recall"])
def test_play_rounds_counter_block_spans_the_k_draw_rounds(monkeypatch, recall):
    # _SPARSE = 1 starts the counter phase at round 2 of the k6 plan, in one
    # block through its 1.0 round, which accepts no draw, to its 0.0 round
    import searchcontest.simulation as sim

    monkeypatch.setattr(sim, "_SPARSE", 1)
    calls = _spy_counter_phase(monkeypatch)
    plan = np.array([0.97, 0.97, 1.0, 0.3, 0.97, 0.0])
    _assert_plays_equal(65536, plan, plan.size, recall)
    assert [_block_rounds(w, 65536) for w in calls] == [[2, 3, 4, 5, 6]]


def test_play_rounds_reads_dense_rounds_then_computes_sparse_ones(monkeypatch):
    # at q = 0.97 a full chunk thins out over ~380 rounds: the early rounds are
    # read from the stream in whole rows, and once fewer than size / _SPARSE
    # columns are live the later ones are computed, block after block to the last
    import searchcontest.simulation as sim

    calls = _spy_counter_phase(monkeypatch)
    size, plan = 65536, np.array([0.97])
    _, draws, _ = _assert_plays_equal(size, plan, sim._default_cap([plan]), False)
    rounds = [r for w in calls for r in _block_rounds(w, size)]
    assert 100 < rounds[0] and rounds == list(range(rounds[0], rounds[-1] + 1))
    assert rounds[-1] >= draws.max()
    # the columns live at the last read round and at the first computed one
    read, computed = (np.count_nonzero(draws >= r) for r in (rounds[0] - 1, rounds[0]))
    assert computed * sim._SPARSE < size <= read * sim._SPARSE


@pytest.mark.parametrize("sparse", [3, 4, 5, 6, 7, 64])
@pytest.mark.parametrize("size", [7, 4097])
def test_play_rounds_matches_with_small_gaps(monkeypatch, sparse, size):
    # a _SPARSE sweep: the live columns lie more than `sparse` words apart on
    # average once words are computed. Leading rounds that accept no draw
    # move the switch, so across the plans its first computed row starts at
    # every word position mod 4; at size 7 and _SPARSE 7 or more nothing switches
    import searchcontest.simulation as sim

    monkeypatch.setattr(sim, "_SPARSE", sparse)
    calls = _spy_counter_phase(monkeypatch)
    starts = set()
    for lead in range(4):
        for q, recall in ((0.3, False), (0.9, True), (0.97, False)):
            plan = np.array([1.0] * lead + [q] * 400 + [0.0])
            calls.clear()
            _assert_plays_equal(size, plan, plan.size, recall)
            if calls:
                starts.add((_block_rounds(calls[0], size)[0] - 1) * size % 4)
    assert starts == ({0, 1, 2, 3} if sparse < size else set())


def test_a_round_of_quantile_one_rejects_even_the_top_word():
    # the top word, 2^64 - 1, makes the largest uniform, 1 - 2^-53: a round's
    # bound of 2^64 clamped to fit a uint64 would accept it
    import searchcontest.simulation as sim

    top = types.SimpleNamespace(random_raw=lambda n: np.full(n, 2**64 - 1, dtype=np.uint64))
    final, draws, capped = sim._play_rounds(types.SimpleNamespace(bit_generator=top), 5,
                                            np.array([1.0, 0.0]), 3)
    assert draws.tolist() == [2] * 5 and capped.size == 0
    assert final.tolist() == [1.0 - 2.0**-53] * 5


def test_play_rounds_matches_full_rows_at_random(monkeypatch):
    # seeded random sizes, plans, caps and recall sides, with _SPARSE from 1,
    # which computes words from the first round with a stop, to 10**9, which
    # never does. seen counts the cases that reach the cap in the read phase,
    # reach it inside a computed block, switch at round 2, and play a k-draw
    # plan to its end in the read phase
    import searchcontest.simulation as sim

    calls = _spy_counter_phase(monkeypatch)
    rng = np.random.default_rng(SEED)
    seen = dict.fromkeys(["read_cap", "block_cap", "round_2", "k_draw"], 0)
    for _ in range(200):
        size = int(math.exp(rng.uniform(0.0, math.log(70_000))))
        if rng.random() < 0.6:
            plan = np.array([rng.choice([0.0, rng.uniform(0.0, 0.999)], p=[0.1, 0.9])])
        else:
            k = int(rng.integers(2, 9))
            plan = np.array([rng.choice([0.0, 1.0, rng.uniform()]) for _ in range(k - 1)] + [0.0])
        cap = int(rng.integers(1, sim._default_cap([plan]) + 1))
        cap = min(cap, max(1, 3_000_000 // size))  # the full-row reference reads a row a round
        recall = bool(rng.integers(2))
        monkeypatch.setattr(sim, "_SPARSE", int(rng.choice([1, 2, 5, 32, 10**9])))
        calls.clear()
        _, draws, capped = _assert_plays_equal(size, plan, cap, recall)
        if capped.size:
            seen["block_cap" if calls else "read_cap"] += 1
            # a computed block's last round is the cap: its rounds cover it
            assert not calls or _block_rounds(calls[-1], size)[-1] == cap
        seen["round_2"] += bool(calls) and _block_rounds(calls[0], size)[0] == 2
        seen["k_draw"] += plan.size > 1 and cap == plan.size and not calls and bool(draws.max() > 1)
    assert min(seen.values()) >= 3, seen
