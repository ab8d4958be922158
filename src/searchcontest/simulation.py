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

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .distributions import Distribution
from .equilibrium import ContestParams, PrizeSchedule, _sum_left, solve_symmetric
from .errors import InvalidParameterError, _as_tuple, require_int, require_real
from .hierarchy import DesignerParams, solve_designer

_CHUNK = 1 << 16
# stream purposes: keeps every consumer of randomness on a disjoint substream
_TAG_DRAW = 0
_TAG_SELF = 2
_TAG_OPP = 3
_TAG_DIST = 4
_TAG_RECALL = 5
# round-by-round play takes the words a full row of uniforms per round would,
# but every live search still takes one word per round: past this cap it would
# take hours, so tiny acceptance probabilities are refused instead
_MAX_ROUNDS = 100_000
# Costs below were measured on a 2-core Xeon with numpy 2.4. A dense round
# skips a dead stretch longer than this many words before its first live word
# rather than read it: a skip (Philox.advance, about 2 us, a discard and one
# more read call, about 0.7 us each) costs about what reading ~1,000 words does
# at about 4 ns a word
_GAP = 1024
# once the live columns lie more than this many words apart on average, their
# words are computed from their positions (_philox_words, about 110-150 ns a
# word in blocks of 4,096 words or more) rather than read with the dead words
# between them (about 4 ns a word, plus the round's own passes over its listed
# columns); 16 to 64 took the same CPU time, 128 about 9% more
_SPARSE = 32
# a dense round only marks its stops dead in the list of columns, and the list
# is compacted once this share of it is dead: a compaction is several passes
# over the list, about as costly as the round's read at density 1
_COMPACT_AT = 0.25
# Philox4x64-10 (Salmon et al., SC'11; Random123's constants): each round
# multiplier with its high and low 32 bits, and the key's Weyl increments. The
# multipliers are numpy scalars: numpy < 2 makes uint64 mixed with a Python
# int a float64
_PHILOX_M = tuple((np.uint64(m), np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MEMORY_BUDGET = 1 << 30  # bytes a simulation may hold at once; see _check_memory


@dataclass(frozen=True)
class InfiniteThresholdStrategy:
    """Accept the first draw at or above a fixed threshold, any horizon."""
    threshold: float

    def __post_init__(self):
        require_real("threshold", self.threshold)


@dataclass(frozen=True)
class FiniteThresholdStrategy:
    """Per-round thresholds for the first k-1 draws; draw k is kept."""
    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _as_tuple("thresholds", self.thresholds))
        if len(self.thresholds) < 1:
            raise InvalidParameterError("need at least one round threshold")
        for t in self.thresholds:
            require_real("threshold", t)


Strategy = Union[InfiniteThresholdStrategy, FiniteThresholdStrategy]


@dataclass(frozen=True)
class StrategyProfile:
    strategies: tuple[Strategy, ...]

    def __post_init__(self):
        object.__setattr__(self, "strategies", _as_tuple("strategies", self.strategies))
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
        for name, lo in (("replications", 2), ("seed", 0), ("n_threads", 1)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), lo))


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


def _plan(strategy: Strategy, d: Distribution) -> np.ndarray:
    """The acceptance quantile of each round: [q] for an infinite horizon, and
    [q_1, ..., q_(k-1), 0] for k draws, whose last draw accepts any uniform. A
    plan is infinite exactly when it has one entry, since k is at least 2."""
    if isinstance(strategy, InfiniteThresholdStrategy):
        q = float(d.cdf(strategy.threshold))
        if q >= 1.0:
            raise InvalidParameterError(
                f"threshold {strategy.threshold} leaves no acceptance probability"
            )
        return np.array([q])
    if not isinstance(strategy, FiniteThresholdStrategy):
        raise InvalidParameterError(f"not a strategy: {strategy!r}")
    return np.array([float(d.cdf(t)) for t in strategy.thresholds] + [0.0])


def _draw_bound(plans: list[np.ndarray]) -> int:
    """The largest of ceil(40 / acceptance probability) over infinite plans and
    k over k-draw ones: no replication of these plans takes more draws."""
    return max(math.ceil(40.0 / (1.0 - p[0])) if p.size == 1 else p.size for p in plans)


def _default_cap(plans: list[np.ndarray]) -> int:
    """The draw cap of round-by-round play, _draw_bound, refused past _MAX_ROUNDS."""
    cap = _draw_bound(plans)
    if cap > _MAX_ROUNDS:
        raise InvalidParameterError(
            f"max_draws_cap {cap} exceeds {_MAX_ROUNDS} rounds: the acceptance "
            "probability is too small to simulate round by round"
        )
    return cap


def _philox_words(key: tuple[int, int], words: np.ndarray, workspace: np.ndarray) -> np.ndarray:
    """Word w of a fresh Philox stream with this key, for each uint64 w in
    words, computed from its position alone: numpy increments the 4-word
    counter before it fills its buffer, so word w is lane w % 4 of
    Philox4x64-10 at counter (w // 4 + 1, 0, 0, 0). workspace is a
    (10, words.size) uint64 array, words is overwritten, and the words are
    returned in a row of workspace. Each 128-bit product is formed from 32-bit
    halves in uint64 arithmetic, which wraps. A word costs about 110-150 ns in
    blocks of 4,096 words or more, and numpy's per-call overhead makes small
    blocks dearer: about 300 ns a word at 1,024 and 870 at 256."""
    ctr, out = list(workspace[:4]), list(workspace[4:8])
    a, b = workspace[8], workspace[9]
    np.right_shift(words, np.uint64(2), out=ctr[0])
    ctr[0] += np.uint64(1)
    workspace[1:4] = 0
    low, half = np.uint64(0xFFFFFFFF), np.uint64(32)
    k0, k1 = key
    for _ in range(10):
        # (hi, lo) = m * x, with x's halves xh, xl and m's mh, ml
        for x, hi, lo, (m, mh, ml) in zip(ctr[::2], out[::2], out[1::2], _PHILOX_M):
            np.multiply(x, m, out=lo)
            np.bitwise_and(x, low, out=a)
            x >>= half
            np.multiply(x, mh, out=hi)
            x *= ml
            np.multiply(a, mh, out=b)
            a *= ml
            a >>= half
            x += a  # t = xh * ml + (xl * ml >> 32) < 2^64
            np.bitwise_and(x, low, out=a)
            x >>= half
            hi += x
            a += b
            a >>= half
            hi += a  # xh * mh + (t >> 32) + ((t & low) + xl * mh >> 32)
        # the round's output: (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        out[2] ^= ctr[1]
        out[2] ^= np.uint64(k0)
        out[0] ^= ctr[3]
        out[0] ^= np.uint64(k1)
        ctr, out = [out[2], out[3], out[0], out[1]], ctr
        # the key in Python ints: a numpy scalar's overflow warns
        k0, k1 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF, (k1 + _PHILOX_W[1]) & 0xFFFFFFFFFFFFFFFF
    words &= np.uint64(3)
    lane = b.view(bool)[: words.size]
    np.copyto(a, ctr[0])
    for i in (1, 2, 3):
        np.equal(words, np.uint64(i), out=lane)
        np.copyto(a, ctr[i], where=lane)
    return a


def _play_rounds(
    rng: np.random.Generator, size: int, plan: np.ndarray, cap: int, recall: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one player's search, round by round, for a block of
    replications: round r accepts a draw at or above plan[min(r, len(plan)) - 1],
    so a k-draw plan, whose last quantile 0 accepts any draw, ends by round k.

    Returns the accepted quantile, the number of draws and the indices of the
    replications the cap stopped. Draw (round r, replication j) is word
    (r - 1) * size + j of the fresh stream rng, the word a full row of uniforms
    per round gives it, so a replication's draws do not depend on when the
    others stop. A dense round reads its words from the first listed column's
    to the last's in one call, after skipping a dead stretch of more than _GAP
    words before them. Its stops are recorded at once and only marked dead in
    the list of columns, which is compacted once a _COMPACT_AT share of it is
    dead, at the cap, and before the switch: once the live columns lie more
    than _SPARSE words apart on average, their words are computed from their
    positions instead (_philox_words), the next rounds of every live column in
    one block, down which each column's first hit is found; the words are the
    same, so the bits are. A uniform is at or above q exactly when its word is
    at or above ceil(q * 2^53) << 11 (for q = 1, 2^64: a Python int no word
    reaches), so words are compared as integers and each accepted word is made
    a uniform once, at the end. With recall a search stops once its running
    maximum, kept in words since the map is monotone, reaches the round's
    bound, and the cap keeps that maximum, not the last draw.
    """
    bits = rng.bit_generator
    bounds = [math.ceil(q * 2.0**53) << 11 for q in plan]
    final = np.empty(size, dtype=np.uint64)  # the accepted words, made uniforms at the end
    draws = np.full(size, cap, dtype=np.int64)
    live = np.arange(size)  # the listed columns: the live ones and those stopped since compaction
    alive = np.ones(size, dtype=bool)  # which listed columns are live
    # the running maximum of each listed column, with recall
    best = np.zeros(size if recall else 0, dtype=np.uint64)
    # x holds a dense round's words of the listed columns, and later a block's
    # positions and workspace, 11 words a live column a round: fewer than
    # size / _SPARSE columns are live then, so it holds at least 5 rounds
    room = max(size // 11, -(-5 * size // _SPARSE))  # words a block may hold
    x = np.empty(max(size, 11 * room), dtype=np.uint64)
    # one buffer: a fresh mask every round fragments the heap
    mask = np.empty(max(size, room), dtype=bool)
    # stream words read; the key once words are computed; listed columns stopped
    pos, key, r, dead = 0, None, 1, 0
    while r <= cap and live.size > dead:
        n = live.size - dead
        if dead and (key is not None or dead >= _COMPACT_AT * live.size
                     or live[-1] - live[0] > _SPARSE * n):  # whenever the switch's test would
            keep = alive[: live.size]
            live = live[keep]
            if recall:
                best = best[keep]
            alive[:n], dead = True, 0
        if key is None and live[-1] - live[0] > _SPARSE * n:
            key = tuple(int(k) for k in bits.state["state"]["key"])
        n = live.size
        if key is None:  # one read, from the first listed column's word to the last's
            m, row = 1, (r - 1) * size  # row: the stream word of column 0 this round
            start = row + int(live[0])
            if start - pos > _GAP:  # advance moves whole 4-word blocks and empties the buffer
                bits.advance(start // 4 - -(-pos // 4))
                bits.random_raw(start % 4)
                pos = start
            live += row - pos  # live's own storage indexes the read, then is restored
            n_read = int(live[-1]) + 1
            block = np.take(bits.random_raw(n_read), live, out=x[:n], mode="clip")  # unbuffered
            live -= row - pos
            pos += n_read
            if recall:  # best is the round's own row
                block = np.maximum(best, block, out=best)
            block = block.reshape(1, n)
        else:  # the next m rounds of every live column, computed
            q = plan[min(r, plan.size) - 1]
            m = min(cap - r + 1, room // n, math.ceil(1.0 / (1.0 - q)) if q < 1.0 else cap)
            words = x[: m * n]
            rows = np.arange(r - 1, r - 1 + m)[:, None] * size
            np.add(rows, live, out=words.view(np.int64).reshape(m, n))
            block = _philox_words(key, words, x[m * n: 11 * m * n].reshape(10, -1))
            block = block.reshape(m, n)
            if recall:
                np.maximum(block[0], best, out=block[0])
                np.maximum.accumulate(block, axis=0, out=block)
                best[:] = block[m - 1]
        hits = mask[: m * n].reshape(m, n)
        for i in range(m):
            np.greater_equal(block[i], bounds[min(r + i, len(bounds)) - 1], out=hits[i])
        if m == 1:  # one round: no search down the block
            if dead:
                hits &= alive[:n]
            stop, first = np.flatnonzero(hits[0]), 0
        else:  # each column's first hit down the block
            stop = np.flatnonzero(hits.any(axis=0))
            first = hits.argmax(axis=0)[stop]
        done = live[stop]
        final[done] = block[first, stop]
        draws[done] = r + first
        alive[stop] = False
        dead += stop.size
        r += m
    keep = alive[: live.size]
    live = live[keep]
    final[live] = block[m - 1, keep]  # cap reached: the last draw, or with recall the best
    # Generator.random's double is (word >> 11) * 2^-53, made here in place and
    # through int64, which numpy converts to float far faster than uint64
    final >>= np.uint64(11)
    return np.multiply(final.view(np.int64), 2.0**-53, out=final.view(np.float64)), draws, live


def _check_memory(what: str, config: SimulationConfig, bytes_per_rep: int,
                  held: int | None = None) -> None:
    """Refuse, before it allocates anything, a simulation that would hold more
    than _MEMORY_BUDGET: bytes_per_rep is peak-RSS growth measured per
    replication held, and by default one chunk per thread is held at once."""
    held = held or min(config.replications, _CHUNK * config.n_threads)
    if bytes_per_rep * held > _MEMORY_BUDGET:
        raise InvalidParameterError(f"{what} would hold about {bytes_per_rep * held >> 20} MB, "
                                    f"over the {_MEMORY_BUDGET >> 20} MB memory budget")


def _check_range(cost: float, draws: int, n: int, reps: int, top: float) -> None:
    """Refuse, before any chunk runs, a contest whose sums of squares or
    reported means could overflow: in units of the top prize a replication's
    payoff, cost, gain and dissipation are at most n (1 + cost draws), their
    squares are summed over reps, and the means are scaled back by top."""
    bound = n * (1.0 + cost * draws)
    if math.isinf(reps * bound * bound):
        raise InvalidParameterError(
            f"a draw costs {cost:g} top prizes: payoff squares over {reps} replications "
            f"of up to {draws} draws would overflow a float")
    if math.isinf(top * bound):
        raise InvalidParameterError(
            f"a draw costs {cost:g} top prizes of {top:g}: payoffs of up to {draws} draws "
            "would overflow a float")


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


def _sum_chunks(work, reps: int, n_threads: int) -> list:
    """Element-wise sum of the tuples work(chunk, size) returns, in chunk order
    so float sums do not depend on the thread count."""
    return [_sum_left(parts) for parts in zip(*_map_chunks(work, reps, n_threads))]


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


def _pay_prizes(finals: np.ndarray, prizes: np.ndarray, paid: np.ndarray) -> np.ndarray:
    """Pay the positive prizes prizes[0] >= prizes[1] >= ... down each column
    of finals, players by replications, one level at a time: the best value
    not yet paid takes the level's prize, and an exact tie goes to the lower
    player index. paid gets each player's prize, 0.0 for none; the top prize's
    winners are returned as a bool mask. A level costs a column maximum and
    one comparison; the top level then pays by one multiplication, a later
    one by writing at its winners, one a column, whose values become -inf.
    On a random mask a masked write or search costs several plain passes
    (np.copyto with where= 1.0 ms against 0.12 for a multiplication at N=3),
    so the winner-take-all contest makes none."""
    size = finals.shape[1]
    won = hit = np.empty(finals.shape, dtype=bool)
    for level, prize in enumerate(prizes):
        if level == 1:  # won is kept
            hit = np.empty_like(won)
        np.equal(finals, finals.max(axis=0), out=hit)
        if np.count_nonzero(hit) > size:  # an exact tie: the lowest index takes the level
            tied = np.flatnonzero(hit.sum(axis=0) > 1)
            first = hit[:, tied].argmax(axis=0)
            hit[:, tied] = False
            hit[first, tied] = True
        at = np.flatnonzero(hit) if prizes.size > 1 else None  # the level's winners
        if level:
            np.put(paid, at, prize)
        else:
            np.multiply(hit, prize, out=paid)
        if level + 1 < prizes.size:  # out of the running at the later levels
            np.put(finals, at, -np.inf)
    return won


def simulate_contest(
    profile: StrategyProfile,
    params: ContestParams,
    d: Distribution,
    config: SimulationConfig,
    prizes: PrizeSchedule | None = None,
) -> SimulationReport:
    """Replicate the contest and report per-player payoff, cost, draw and win
    statistics with standard errors, plus the cost/prize dissipation ratio.

    Each replication pays its prizes by _pay_prizes, level by level: the
    paper's winner-take-all contest costs one column maximum and one
    comparison a replication, a schedule of m positive prizes m of them. The
    winner is the player who takes the top prize; an exact tie, which has
    measure zero, goes to the lower player index."""
    n = profile.n_players
    cost, prize_arr, top = _resolve_contest(params, prizes, n)
    levels = prize_arr[prize_arr > 0.0]  # a prefix: the schedule is non-increasing
    # per player, plus the round-play buffers of the chunk: the tracemalloc
    # peak of one chunk is at most 132 B at N=2, 171 at 3, 451 at 10, 1,277 at
    # 30 and 2,537 at 60 (peak-RSS growth is lower), about 40 N + 52 with one
    # prize and 42 N + 20 with every rank paid; this leaves 14% or more over both
    _check_memory(f"simulating {n} players", config, 48 * n + 64)
    plans = [_plan(s, d) for s in profile.strategies]
    cap = _default_cap(plans)
    reps = config.replications
    _check_range(cost, cap, n, reps, top)

    def work(c: int, size: int) -> tuple:
        finals = np.empty((n, size))
        stats = np.empty((4, n, size))  # payoff, cost, draw count and win, the report's order
        forced_any = np.zeros(size, dtype=bool)
        for i, plan in enumerate(plans):
            rng = _stream(config.seed, _TAG_DRAW, i, c)
            finals[i], stats[2, i], capped = _play_rounds(rng, size, plan, cap)
            forced_any[capped] = True  # a k-draw plan ends by round k <= cap
        stats[3] = _pay_prizes(finals, levels, stats[0])
        np.multiply(cost, stats[2], out=stats[1])
        np.subtract(stats[0], stats[1], out=stats[0])
        diss = stats[1].sum(axis=0) / prize_arr.sum()
        # the sums, then those of the block squared in place: a win's square is itself
        return (stats.sum(axis=2), np.square(stats, out=stats).sum(axis=2),
                diss.sum(), (diss**2).sum(), int(forced_any.sum()))

    sums, squares, diss1, diss2, n_capped = _sum_chunks(work, reps, config.n_threads)
    mean, se = _mean_se(sums, squares, reps)  # rows: payoff, cost, draws, win
    mean_diss, se_diss = _mean_se(diss1, diss2, reps)
    return SimulationReport(
        n_players=n,
        replications=reps,
        seed=config.seed,
        max_draws_cap=cap,
        capped_replications=int(n_capped),
        mean_payoff=tuple(mean[0] * top),
        se_payoff=tuple(se[0] * top),
        mean_cost=tuple(mean[1] * top),
        se_cost=tuple(se[1] * top),
        mean_draws=tuple(mean[2]),
        se_draws=tuple(se[2]),
        win_frequency=tuple(mean[3]),
        se_win=tuple(se[3]),
        dissipation_ratio=float(mean_diss),
        se_dissipation=float(se_diss),
        total_prize=float(prize_arr.sum() * top),
    )


def _inverse_play(v: np.ndarray, plan: np.ndarray,
                  log0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Accepted quantile and draw count from pre-drawn uniforms, for
    deviation_scan, whose candidates share one block v: common random numbers.

    An infinite plan uses two uniforms per replication: one through the
    geometric draw-count inverse CDF, one for the accepted value above the
    threshold. A uniform is at most 1 - 2^-53, so a draw count is at most
    ceil(36.74 / -log q) <= ceil(40 / (1 - q)), the cap of round-by-round
    play: no cap can bind. A k-draw plan reads the uniforms as the draws
    themselves, and its last round accepts any. The draw counts are float64,
    and they are made only when log0, np.log1p(-v[:, 0]), is given: an
    opponent's are never read, and None stands in for them.
    """
    size = v.shape[0]
    if plan.size == 1:
        q = plan[0]
        if q <= 0.0:
            return v[:, 1].copy(), None if log0 is None else np.ones(size)
        draws = None if log0 is None else np.maximum(1.0, np.ceil(log0 / math.log(q)))
        return q + v[:, 1] * (1.0 - q), draws
    first = (v[:, : plan.size] >= plan).argmax(axis=1)
    return v[np.arange(size), first], None if log0 is None else first + 1.0


def deviation_scan(
    profile: StrategyProfile,
    player_index: int,
    candidates: Sequence[Strategy],
    params: ContestParams,
    d: Distribution,
    config: SimulationConfig,
) -> DeviationScanReport:
    """Estimate the payoff gain from unilateral deviations.

    Opponents are simulated once per chunk and reduced to their best value
    in each replication; each candidate strategy reuses the deviator's own
    uniforms, so gains are paired differences against the profile strategy
    and their standard errors shrink with the common noise. A candidate wins
    the prize exactly when its value is at or above that best value, ties
    included. A candidate is flagged when its mean gain exceeds three
    standard errors.
    """
    n = profile.n_players
    player_index = require_int("player_index", player_index, 0)
    if player_index >= n:
        raise InvalidParameterError(f"player_index {player_index} out of range")
    cost, _, top = _resolve_contest(params, None, n)  # the prize is 1.0 in units of top
    candidates = _as_tuple("candidates", candidates)
    opp = [(j, _plan(s, d)) for j, s in enumerate(profile.strategies) if j != player_index]
    self_plans = [_plan(s, d) for s in (profile.strategies[player_index], *candidates)]
    v_cols = max([2] + [p.size for p in self_plans])
    # per player and column of the deviator's uniforms: peak-RSS growth measured at N=3
    # to 60, widths 2 to 400 for the deviator and its opponents, and 1 to 200 candidates
    _check_memory(f"scanning {len(candidates)} deviations", config, 9 * (n + v_cols) + 80)
    _check_range(cost, _draw_bound(self_plans), n, config.replications, top)

    def work(c: int, size: int) -> tuple:
        opp_final = np.empty((n - 1, size))
        for slot, (j, plan) in enumerate(opp):
            rng, cols = _stream(config.seed, _TAG_OPP, j, c), max(2, plan.size)
            step = max(1, _CHUNK // cols)  # whole rows in order: the words one block would read
            for out in np.split(opp_final[slot], range(step, size, step)):
                out[:] = _inverse_play(rng.random((out.size, cols)), plan)[0]
        opp_best = opp_final.max(axis=0)
        v_self = _stream(config.seed, _TAG_SELF, player_index, c).random((size, v_cols))
        log0 = np.log1p(-v_self[:, 0])  # every infinite candidate's, once a chunk
        sums, base = np.empty((2, len(self_plans))), 0.0  # column 0: the profile strategy's
        for i, plan in enumerate(self_plans):
            f, dr = _inverse_play(v_self, plan, log0)
            # the prize to a value at or above every opponent's, less the profile strategy's payoff
            gain = (f >= opp_best) - cost * dr - base
            sums[:, i] = gain.sum(), (gain**2).sum()
            base = base if i else gain
        return (sums,)

    reps = config.replications
    mean, se = _mean_se(*_sum_chunks(work, reps, config.n_threads)[0], reps)
    rows = tuple(DeviationRow(s, float(m * top), float(e * top), bool(m > 3.0 * e))
                 for s, m, e in zip(candidates, mean[1:], se[1:]))
    return DeviationScanReport(player_index, float(mean[0] * top), float(se[0] * top), rows)


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
        draws = _sum_left(rep.mean_draws) / n
        se_draws = math.sqrt(_sum_left(se**2 for se in rep.se_draws)) / n
        cost = _sum_left(rep.mean_cost) / n
        se_cost = math.sqrt(_sum_left((se / w) ** 2 for se in rep.se_cost)) / n * w
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
    for a, b in itertools.combinations(rows, 2):
        for ma, sa, mb, sb in (
            (a.mean_draws, a.se_draws, b.mean_draws, b.se_draws),
            (a.mean_cost / w, a.se_cost / w, b.mean_cost / w, b.se_cost / w),
            (a.dissipation_ratio, a.se_dissipation, b.dissipation_ratio, b.se_dissipation),
        ):
            worst = max(worst, abs(ma - mb) / max(math.hypot(sa, sb), 1e-300))
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
    plan = np.array([1.0 - solve_symmetric(params, d).acceptance_prob])  # refused if it is 1
    cap = _default_cap([plan])
    # all kept for KS: 40 B measured at a million replications (48 of peak
    # RSS), up to 72 while the play buffers of one or two chunks are live beside them
    _check_memory("the recall check", config, 80, reps)

    def work(c: int, size: int) -> tuple[np.ndarray, ...]:
        return tuple(_play_rounds(_stream(config.seed, _TAG_RECALL, side, c), size, plan, cap,
                                  recall=side == 1)[0] for side in (0, 1))

    a, b = (np.sort(np.concatenate(side))
            for side in zip(*_map_chunks(work, reps, config.n_threads)))
    # the largest gap of the two empirical CDFs lies at a sample point: each side's in turn
    stat = float(max(np.abs(np.searchsorted(a, x, side="right") / reps
                            - np.searchsorted(b, x, side="right") / reps).max() for x in (a, b)))
    return RecallReport(stat, crit, reps, stat < crit)


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
