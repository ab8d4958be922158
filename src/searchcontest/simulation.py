"""Monte Carlo simulation of sequential-search contests.

Contests are simulated in quantile space: draws are uniforms, a player with
threshold quantile q accepts the first draw at or above q, and values only
matter through their ordering, so payoffs (prize minus cost per draw) are
exact for any continuous distribution. Replications are processed in fixed
chunks of 65536; every player/chunk pair gets its own counter-based RNG
stream keyed by (seed, purpose, player, chunk), and partial sums are reduced
in chunk order. Reports are therefore byte-identical for a given seed no
matter how many worker threads run the chunks.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .distributions import Distribution
from .equilibrium import ContestParams, PrizeSchedule, solve_symmetric
from .errors import InvalidParameterError, require_int
from .hierarchy import DesignerParams, solve_designer

_CHUNK = 1 << 16
# stream purposes: keeps every consumer of randomness on a disjoint substream
_TAG_DRAW = 0
_TAG_SELF = 2
_TAG_OPP = 3
_TAG_DIST = 4
_TAG_RECALL = 5
# round-by-round play draws a full row of uniforms per round, one for every
# replication, and examines only the live columns; the rows alone would take
# hours past this cap, so tiny acceptance probabilities are refused instead
_MAX_ROUNDS = 100_000
_MEMORY_BUDGET = 1 << 30  # bytes a simulation may hold at once; see _check_memory


@dataclass(frozen=True)
class InfiniteThresholdStrategy:
    """Accept the first draw at or above a fixed threshold, any horizon."""
    threshold: float


@dataclass(frozen=True)
class FiniteThresholdStrategy:
    """Per-round thresholds for the first k-1 draws; draw k is kept."""
    thresholds: tuple[float, ...]

    def __post_init__(self):
        if len(self.thresholds) < 1:
            raise InvalidParameterError("need at least one round threshold")


Strategy = Union[InfiniteThresholdStrategy, FiniteThresholdStrategy]


@dataclass(frozen=True)
class StrategyProfile:
    strategies: tuple[Strategy, ...]

    def __post_init__(self):
        if len(self.strategies) < 2:
            raise InvalidParameterError("a contest needs at least two players")

    @property
    def n_players(self) -> int:
        return len(self.strategies)


@dataclass(frozen=True)
class SimulationConfig:
    replications: int  # at least 2: a standard error needs two
    seed: int
    n_threads: int = 1

    def __post_init__(self):
        require_int("replications", self.replications, 2)
        require_int("seed", self.seed, 0)
        require_int("n_threads", self.n_threads, 1)


@dataclass(frozen=True)
class SimulationReport:
    n_players: int
    replications: int
    seed: int
    max_draws_cap: int
    capped_replications: int
    mean_payoff: tuple[float, ...]
    se_payoff: tuple[float, ...]
    mean_cost: tuple[float, ...]
    se_cost: tuple[float, ...]
    mean_draws: tuple[float, ...]
    se_draws: tuple[float, ...]
    win_frequency: tuple[float, ...]
    se_win: tuple[float, ...]
    dissipation_ratio: float
    se_dissipation: float
    total_prize: float


@dataclass(frozen=True)
class DeviationRow:
    strategy: Strategy
    mean_gain: float
    se_gain: float
    flagged: bool


@dataclass(frozen=True)
class DeviationScanReport:
    player_index: int
    equilibrium_payoff: float
    se_equilibrium_payoff: float
    rows: tuple[DeviationRow, ...]

    @property
    def any_flagged(self) -> bool:
        return any(r.flagged for r in self.rows)


@dataclass(frozen=True)
class DistributionRow:
    spec: dict  # Distribution.spec() of the row's distribution
    acceptance_rate: float
    se_acceptance_rate: float
    mean_draws: float
    se_draws: float
    mean_cost: float
    se_cost: float
    dissipation_ratio: float
    se_dissipation: float
    theoretical_draws: float


@dataclass(frozen=True)
class DistributionFreeReport:
    rows: tuple[DistributionRow, ...]
    max_pairwise_sigma: float  # largest pairwise gap in units of combined SE
    passed: bool


@dataclass(frozen=True)
class RecallReport:
    ks_statistic: float
    critical_value: float  # two-sample KS at the 1 percent level
    replications: int
    passed: bool


def _stream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + tags)))


def _threshold_quantiles(strategy: Strategy, d: Distribution) -> np.ndarray:
    if isinstance(strategy, InfiniteThresholdStrategy):
        qs = np.array([float(d.cdf(strategy.threshold))])
        if qs[0] >= 1.0:
            raise InvalidParameterError(
                f"threshold {strategy.threshold} leaves no acceptance probability"
            )
        return qs
    return np.asarray([float(d.cdf(t)) for t in strategy.thresholds], dtype=float)


def _default_cap(quantiles: list[np.ndarray], kinds: list[bool]) -> int:
    """The largest of ceil(40 / acceptance probability) over infinite-horizon
    players and k over finite-horizon ones."""
    cap = 1
    for qs, infinite in zip(quantiles, kinds):
        if infinite:
            cap = max(cap, math.ceil(40.0 / (1.0 - qs[0])))
        else:
            cap = max(cap, qs.size + 1)
    return cap


def _round_cap(quantiles: list[np.ndarray], kinds: list[bool]) -> int:
    """The draw cap of round-by-round play, refused past _MAX_ROUNDS."""
    cap = _default_cap(quantiles, kinds)
    if cap > _MAX_ROUNDS:
        raise InvalidParameterError(
            f"max_draws_cap {cap} exceeds {_MAX_ROUNDS} rounds: the acceptance "
            "probability is too small to simulate round by round"
        )
    return cap


def _play_rounds(
    rng: np.random.Generator, size: int, q: float, cap: int, recall: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one player's infinite-horizon search, round by round, for a
    block of replications.

    Returns the accepted quantile, the number of draws and the indices of the
    replications the cap stopped. Every round draws a full row of uniforms,
    however few replications still search, so the stream is consumed the same
    way whatever the stopping pattern; only the live columns of the row are
    examined. With recall a search stops once its running maximum reaches q,
    and the cap keeps that maximum instead of the last draw.
    """
    x = np.empty(size)
    final = np.empty(size)
    draws = np.full(size, cap, dtype=np.int64)
    live = np.arange(size)
    best = np.zeros(size)  # running maximum of each live column, with recall
    mask = np.empty(size, dtype=bool)  # one buffer: a fresh mask every round fragments the heap
    for r in range(1, cap + 1):
        rng.random(out=x)
        seen = np.maximum(best, x[live]) if recall else x[live]
        stop = np.greater_equal(seen, q, out=mask[: live.size])
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


def _simulate_chunk(
    chunk_idx: int,
    size: int,
    seed: int,
    quantiles: list[np.ndarray],
    kinds: list[bool],
    cap: int,
    cost: float,
    prize_arr: np.ndarray,
) -> dict:
    n = len(quantiles)
    finals = np.empty((n, size))
    draws = np.empty((n, size), dtype=np.int64)
    forced_any = np.zeros(size, dtype=bool)
    for i, qs in enumerate(quantiles):
        rng = _stream(seed, _TAG_DRAW, i, chunk_idx)
        if kinds[i]:
            f, dr, capped = _play_rounds(rng, size, qs[0], cap)
            forced_any[capped] = True
        else:  # row r of the block is the stretch of stream that round r would draw
            f, dr = _inverse_play(rng.random((qs.size + 1, size)).T, qs, False)
        finals[i] = f
        draws[i] = dr
    order = np.argsort(finals, axis=0)  # ascending accepted value; exact ties have measure zero
    asc_pos = np.empty((n, size), dtype=np.int64)
    np.put_along_axis(asc_pos, order, np.arange(n, dtype=np.int64)[:, None], axis=0)
    rank = n - 1 - asc_pos  # 0 = winner
    prize = prize_arr[rank]
    costs = cost * draws
    payoff = prize - costs
    diss = costs.sum(axis=0) / prize_arr.sum()
    return {
        "payoff1": payoff.sum(axis=1),
        "payoff2": (payoff**2).sum(axis=1),
        "cost1": costs.sum(axis=1),
        "cost2": (costs**2).sum(axis=1),
        "draws1": draws.sum(axis=1, dtype=np.float64),
        "draws2": (draws.astype(np.float64) ** 2).sum(axis=1),
        "win1": (rank == 0).sum(axis=1, dtype=np.float64),
        "diss1": diss.sum(),
        "diss2": (diss**2).sum(),
        "capped": int(forced_any.sum()),
    }


def _check_memory(what: str, config: SimulationConfig, bytes_per_rep: int,
                  held: int | None = None) -> None:
    """Refuse, before it allocates anything, a simulation that would hold more
    than _MEMORY_BUDGET: bytes_per_rep is peak-RSS growth measured per
    replication held, and by default one chunk per thread is held at once."""
    held = held or min(config.replications, _CHUNK * config.n_threads)
    if bytes_per_rep * held > _MEMORY_BUDGET:
        raise InvalidParameterError(f"{what} would hold about {bytes_per_rep * held >> 20} MB, "
                                    f"over the {_MEMORY_BUDGET >> 20} MB memory budget")


def _mean_se(s1: np.ndarray, s2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    mean = s1 / n
    var = np.maximum(s2 - n * mean**2, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def _map_chunks(work, reps: int, n_threads: int) -> list:
    """work(chunk, size) for every chunk of reps, results in chunk order."""
    sizes = [min(_CHUNK, reps - start) for start in range(0, reps, _CHUNK)]
    if n_threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(work, range(len(sizes)), sizes))
    return [work(c, size) for c, size in enumerate(sizes)]


def _sum_chunks(work, reps: int, n_threads: int) -> dict:
    """Key-wise sum of the dicts work(chunk, size) returns, in chunk order so
    float sums do not depend on the thread count."""
    partials = _map_chunks(work, reps, n_threads)
    acc = {k: 0.0 if np.isscalar(v) else np.zeros_like(v) for k, v in partials[0].items()}
    for p in partials:
        for k, v in p.items():
            acc[k] = acc[k] + v
    return acc


def _resolve_contest(
    params: ContestParams, prizes: PrizeSchedule | None, n_players: int
) -> tuple[float, np.ndarray, float]:
    """Per-draw cost and the rank-ordered prize vector implied by params, both
    in units of the top prize, and that top prize. Payoffs only scale with it,
    so sums of squares in these units stay in range at any prize scale."""
    if params.n_players != n_players:
        raise InvalidParameterError(
            f"profile has {n_players} players but params expect {params.n_players}"
        )
    if prizes is None:
        prizes = PrizeSchedule((params.prize,) + (0.0,) * (n_players - 1))
    if len(prizes.prizes) != n_players:
        raise InvalidParameterError("prize schedule length must equal player count")
    top = prizes.prizes[0]
    if top == 0.0:
        raise InvalidParameterError("the top prize must be positive")
    return params.cost / top, np.asarray(prizes.prizes, dtype=float) / top, top


def simulate_contest(
    profile: StrategyProfile,
    params: ContestParams,
    d: Distribution,
    config: SimulationConfig,
    prizes: PrizeSchedule | None = None,
) -> SimulationReport:
    """Replicate the contest and report per-player payoff, cost, draw and win
    statistics with standard errors, plus the cost/prize dissipation ratio."""
    n = profile.n_players
    cost, prize_arr, top = _resolve_contest(params, prizes, n)
    _check_memory(f"simulating {n} players", config, 72 * n)
    quantiles = [_threshold_quantiles(s, d) for s in profile.strategies]
    kinds = [isinstance(s, InfiniteThresholdStrategy) for s in profile.strategies]
    cap = _round_cap(quantiles, kinds)

    reps = config.replications

    def work(c: int, size: int) -> dict:
        return _simulate_chunk(c, size, config.seed, quantiles, kinds, cap, cost, prize_arr)

    acc = _sum_chunks(work, reps, config.n_threads)

    mean_pay, se_pay = _mean_se(acc["payoff1"], acc["payoff2"], reps)
    mean_cost, se_cost = _mean_se(acc["cost1"], acc["cost2"], reps)
    mean_draws, se_draws = _mean_se(acc["draws1"], acc["draws2"], reps)
    mean_win, se_win = _mean_se(acc["win1"], acc["win1"], reps)  # Bernoulli: s2 == s1
    mean_diss, se_diss = _mean_se(np.array([acc["diss1"]]), np.array([acc["diss2"]]), reps)
    return SimulationReport(
        n_players=n,
        replications=reps,
        seed=config.seed,
        max_draws_cap=cap,
        capped_replications=int(acc["capped"]),
        mean_payoff=tuple(mean_pay * top),
        se_payoff=tuple(se_pay * top),
        mean_cost=tuple(mean_cost * top),
        se_cost=tuple(se_cost * top),
        mean_draws=tuple(mean_draws),
        se_draws=tuple(se_draws),
        win_frequency=tuple(mean_win),
        se_win=tuple(se_win),
        dissipation_ratio=float(mean_diss[0]),
        se_dissipation=float(se_diss[0]),
        total_prize=float(prize_arr.sum() * top),
    )


def _inverse_play(v: np.ndarray, qs: np.ndarray, infinite: bool) -> tuple[np.ndarray, np.ndarray]:
    """Accepted quantile and draw count from pre-drawn uniforms.

    Infinite horizon uses two uniforms per replication: one through the
    geometric draw-count inverse CDF, one for the accepted value above the
    threshold. A uniform is at most 1 - 2^-53, so a draw count is at most
    ceil(36.74 / -log q) <= ceil(40 / (1 - q)), the cap of round-by-round
    play: no cap can bind. Finite horizon reads the uniforms as the draws
    themselves. Sharing v across strategies yields common-random-number
    comparisons.
    """
    size = v.shape[0]
    if infinite:
        q = qs[0]
        if q <= 0.0:
            return v[:, 1].copy(), np.ones(size, dtype=np.int64)
        draws = np.maximum(1, np.ceil(np.log1p(-v[:, 0]) / math.log(q))).astype(np.int64)
        return q + v[:, 1] * (1.0 - q), draws
    k = qs.size + 1
    acc = v[:, : k - 1] >= qs[None, :]
    any_acc = acc.any(axis=1)
    first = np.where(any_acc, acc.argmax(axis=1), k - 1)
    draws = first.astype(np.int64) + 1
    return v[np.arange(size), first], draws


def deviation_scan(
    profile: StrategyProfile,
    player_index: int,
    candidates: Sequence[Strategy],
    params: ContestParams,
    d: Distribution,
    config: SimulationConfig,
) -> DeviationScanReport:
    """Estimate the payoff gain from unilateral deviations.

    Opponents are simulated once per chunk; each candidate strategy reuses
    the deviator's own uniforms, so gains are paired differences against the
    profile strategy and their standard errors shrink with the common noise.
    A candidate is flagged when its mean gain exceeds three standard errors.
    """
    n = profile.n_players
    if not 0 <= player_index < n:
        raise InvalidParameterError(f"player_index {player_index} out of range")
    cost, prize_arr, top = _resolve_contest(params, None, n)
    opp_idx = [j for j in range(n) if j != player_index]
    opp_q = [_threshold_quantiles(profile.strategies[j], d) for j in opp_idx]
    opp_kind = [isinstance(profile.strategies[j], InfiniteThresholdStrategy) for j in opp_idx]
    all_strats = [profile.strategies[player_index]] + list(candidates)
    self_q = [_threshold_quantiles(s, d) for s in all_strats]
    self_kind = [isinstance(s, InfiniteThresholdStrategy) for s in all_strats]
    v_cols = max([2] + [q.size + 1 for q, inf in zip(self_q, self_kind) if not inf])
    _check_memory(f"scanning {len(candidates)} deviations", config,
                  9 * (n - 1 + len(all_strats) + v_cols))

    reps = config.replications

    def work(c: int, size: int) -> dict:
        opp_final = np.empty((n - 1, size))
        opp_cost_total = np.zeros(size)
        for slot, j in enumerate(opp_idx):
            rng = _stream(config.seed, _TAG_OPP, j, c)
            cols = 2 if opp_kind[slot] else opp_q[slot].size + 1
            f, dr = _inverse_play(rng.random((size, cols)), opp_q[slot], opp_kind[slot])
            opp_final[slot] = f
            opp_cost_total += cost * dr
        v_self = _stream(config.seed, _TAG_SELF, player_index, c).random((size, v_cols))

        payoffs = []
        for qs, infinite in zip(self_q, self_kind):
            f, dr = _inverse_play(v_self, qs, infinite)
            rank = (opp_final > f[None, :]).sum(axis=0)  # exact ties have measure zero
            payoffs.append(prize_arr[rank] - cost * dr)
        base = payoffs[0]
        return {
            "eq1": base.sum(),
            "eq2": (base**2).sum(),
            "gain1": np.array([(p - base).sum() for p in payoffs[1:]]),
            "gain2": np.array([((p - base) ** 2).sum() for p in payoffs[1:]]),
        }

    acc = _sum_chunks(work, reps, config.n_threads)
    eq_mean, eq_se = _mean_se(np.array([acc["eq1"]]), np.array([acc["eq2"]]), reps)
    gain_mean, gain_se = _mean_se(acc["gain1"], acc["gain2"], reps)
    rows = tuple(
        DeviationRow(
            strategy=s,
            mean_gain=float(m * top),
            se_gain=float(se * top),
            flagged=bool(m > 3.0 * se),
        )
        for s, m, se in zip(candidates, gain_mean, gain_se)
    )
    return DeviationScanReport(
        player_index=player_index,
        equilibrium_payoff=float(eq_mean[0] * top),
        se_equilibrium_payoff=float(eq_se[0] * top),
        rows=rows,
    )


def distribution_free_check(
    params: ContestParams,
    distributions: Sequence[Distribution],
    config: SimulationConfig,
) -> DistributionFreeReport:
    """Simulate the symmetric equilibrium under several distributions on
    independent substreams; draw counts, costs and dissipation must agree
    pairwise within three combined standard errors."""
    if len(distributions) < 2:
        raise InvalidParameterError("need at least two distributions to compare")
    w = params.prize  # costs are compared in its units: their squares can overflow or underflow
    rows = []
    for idx, d in enumerate(distributions):
        eq = solve_symmetric(params, d)
        child_seed = int(
            np.random.SeedSequence((config.seed, _TAG_DIST, idx)).generate_state(1, np.uint64)[0]
        )
        profile = StrategyProfile((InfiniteThresholdStrategy(eq.threshold),) * params.n_players)
        rep = simulate_contest(
            profile, params, d,
            SimulationConfig(config.replications, child_seed, n_threads=config.n_threads),
        )
        n = params.n_players
        draws = sum(rep.mean_draws) / n
        se_draws = math.sqrt(sum(se**2 for se in rep.se_draws)) / n
        cost = sum(rep.mean_cost) / n
        se_cost = math.sqrt(sum((se / w) ** 2 for se in rep.se_cost)) / n * w
        rows.append(
            DistributionRow(
                spec=d.spec(),
                acceptance_rate=1.0 / draws,
                se_acceptance_rate=se_draws / draws**2,
                mean_draws=draws,
                se_draws=se_draws,
                mean_cost=cost,
                se_cost=se_cost,
                dissipation_ratio=rep.dissipation_ratio,
                se_dissipation=rep.se_dissipation,
                theoretical_draws=1.0 / eq.acceptance_prob,
            )
        )
    worst = 0.0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            for ma, sa, mb, sb in (
                (a.mean_draws, a.se_draws, b.mean_draws, b.se_draws),
                (a.mean_cost / w, a.se_cost / w, b.mean_cost / w, b.se_cost / w),
                (a.dissipation_ratio, a.se_dissipation, b.dissipation_ratio, b.se_dissipation),
            ):
                sigma = abs(ma - mb) / max(math.hypot(sa, sb), 1e-300)
                worst = max(worst, sigma)
    return DistributionFreeReport(rows=tuple(rows), max_pairwise_sigma=worst, passed=worst <= 3.0)


def recall_irrelevance_check(
    params: ContestParams, d: Distribution, config: SimulationConfig
) -> RecallReport:
    """Sample one player's accepted value twice, with and without recall of
    earlier draws, on independent substreams. With a constant threshold the
    first draw above it is also the running maximum at stopping time, so the
    two samples must agree; a two-sample KS test at the 1 percent level makes
    that a falsifiable check of the simulator."""
    reps = config.replications
    crit = 1.628 * math.sqrt(2.0 / reps)  # both samples hold reps values
    if crit >= 1.0:
        raise InvalidParameterError(
            f"the recall check needs at least 6 replications: at {reps} its KS "
            f"critical value {crit:.3g} is not below 1, so it cannot fail")
    q = 1.0 - solve_symmetric(params, d).acceptance_prob  # refused when it rounds to 1
    cap = _round_cap([np.array([q])], [True])
    _check_memory("the recall check", config, 112, reps)  # all kept for KS

    def work(c: int, size: int) -> tuple[np.ndarray, ...]:
        return tuple(_play_rounds(_stream(config.seed, _TAG_RECALL, side, c), size, q, cap,
                                  recall=side == 1)[0] for side in (0, 1))

    # no name keeps the chunk pieces alive through the KS copies below
    a, b = (np.concatenate(side) for side in zip(*_map_chunks(work, reps, config.n_threads)))
    a_sorted, b_sorted = np.sort(a), np.sort(b)
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / b.size
    stat = float(np.abs(cdf_a - cdf_b).max())
    return RecallReport(
        ks_statistic=stat, critical_value=crit, replications=reps, passed=stat < crit
    )


def simulate_designer_dissipation(
    params: DesignerParams, d: Distribution, config: SimulationConfig
) -> tuple[float, float]:
    """Total worker search cost over the meta prize, with standard error.

    Workers in every team stop at the designer-equilibrium threshold, so the
    cost side does not depend on how prizes flow through teams; the worker
    pool is simulated as one contest whose prize pool is the meta prize.
    """
    eq = solve_designer(params, d)
    n_workers = params.n_designers * params.team_size
    profile = StrategyProfile((InfiniteThresholdStrategy(eq.threshold),) * n_workers)
    cparams = ContestParams(n_players=n_workers, cost=params.cost, prize=params.meta_prize)
    rep = simulate_contest(profile, cparams, d, config)
    return rep.dissipation_ratio, rep.se_dissipation
