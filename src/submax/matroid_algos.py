"""Discrete algorithms for monotone submodular maximization over a matroid.

Contains the deterministic thresholding greedy, the random lazy greedy with
its LinearGreedy inner routine, and the combined algorithm that runs the
lazy phase and finishes with continuous greedy plus swap rounding. The
lambda parameter of the combined algorithm trades value queries (through
the estimator budget) against independence queries (through the lazy
phase's iteration allowance).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .ledger import checked_int, checked_real
from .matroids import (
    ContractedMatroid,
    ContractedPartitionMatroid,
    Matroid,
    RankCappedMatroid,
    check_same_ground,
    independence_test,
    matroid_rank,
    threshold_sweep,
)
from .multilinear import continuous_greedy, swap_round
from .oracles import ResidualOracle, ValueOracle


def geometric_level_count(delta: float, ratio: float) -> int:
    """Number of integers t >= 0 with (1 - delta)^t > ratio (0 < ratio < 1).

    Counted with the same repeated multiplication the threshold loops use, so
    boundary cases agree with the loop semantics bit for bit.
    """
    count = 0
    w = 1.0
    while w > ratio:
        count += 1
        w *= 1.0 - delta
    return count


def thresholding_greedy(f: ValueOracle, M: Matroid, eps: float) -> set[int]:
    """Deterministic decreasing-threshold greedy, (1/2 - eps)-approximate.

    Refuses a non-monotone f. Loops are not removed: a loop's singleton value
    counts in ``w_max``, so a loop worth more than every real marginal lifts
    the thresholds above them all (ROADMAP item 2). The scan is
    :func:`~submax.matroids.threshold_sweep`: an element costs one value
    query per level at which it can join, and an independence query only
    when its answer is unknown (none on a handle that reports its blocks).
    Solution members cost nothing, and the scan stops once the solution is
    a base.
    """
    solution, _ = _thresholding_greedy_value(f, M, eps)
    return solution


def _thresholding_greedy_value(f: ValueOracle, M: Matroid, eps: float) -> tuple[set[int], float]:
    if not f.monotone:
        raise InvalidInputError("thresholding greedy requires a monotone objective")
    eps = checked_real(eps, "eps", 0.0, 1.0, open_low=True, open_high=True)
    # at eps <= 2**-54, 1 - eps rounds to 1 and the threshold never falls
    checked_real(eps, "eps", 2.0 ** -54, open_low=True)
    check_same_ground(f, M)
    ground = list(M.ground())
    current = f.evaluate([])
    w_max = max((f.evaluate([u]) for u in ground), default=0.0)
    rank = 0 if w_max <= 0.0 else matroid_rank(M)
    if rank == 0:
        return set(), current

    def clears(taken: list[int], u: int, w: float) -> bool:
        nonlocal current
        gain = f.evaluate(taken + [u]) - current
        if gain >= w:
            current += gain
            return True
        return False

    taken = threshold_sweep(M, ground, rank, w_max, eps * w_max / rank, 1.0 - eps, clears, ({}, {}))
    return set(taken), current


def crude_opt_estimate(f: ValueOracle, M: Matroid) -> float:
    """A value opt with f(OPT) <= opt <= 3 f(OPT) for monotone f.

    Runs the deterministic thresholding greedy at accuracy 1/6, whose output
    is a 1/3-approximation, and returns three times its value.
    """
    _, value = _thresholding_greedy_value(f, M, 1.0 / 6.0)
    return 3.0 * value


class LazyGreedyState:
    """Shared lazy-greedy bookkeeping across LinearGreedy calls of one run.

    Weight bounds are stored as integer level indices t (w_u = W (1-delta)^t)
    so the per-level equality test of the scan is exact. The solution is its
    real ids plus ``dummies``, a count of zero-value dummy elements that
    take up rank only.
    """

    def __init__(self, ground: list[int], W: float, delta: float, k: int):
        self.ground = list(ground)
        self.W = float(W)
        self.delta = float(delta)
        self.k = int(k)
        self.num_levels = (
            geometric_level_count(delta, delta / k) if (W > 0.0 and k > 0) else 0
        )
        self.level = {u: 0 for u in self.ground}
        self.solution: set[int] = set()
        self.dummies = 0
        self.solution_value = 0.0
        self.accept_marginals: dict[int, float] = {}

    def weight_of(self, u: int) -> float:
        return self.W * (1.0 - self.delta) ** self.level[u]


def linear_greedy(
    state: LazyGreedyState, f: ValueOracle, independent: Callable[[list[int]], bool]
) -> set[int]:
    """LinearGreedy over M/S: one value query per weight decay or acceptance.

    Scans each threshold level in id order. An element whose stored level
    does not match is skipped without any oracle use, and so is a member of
    the solution S: it is a loop of M/S and its marginal is 0. An element
    that ``independent`` refuses (asked about S plus the chosen ids plus
    the element) is frozen at its level for the rest of the call. Dummies
    take up rank: once S plus the chosen ids hold ``k - dummies`` ids, every
    later answer is "dependent" by count, and the scan returns unasked.
    """
    S = state.solution
    ordered = sorted(S)
    f_S = state.solution_value
    chosen: set[int] = set()
    work = list(ordered)
    state.accept_marginals = {}
    cap = state.k - state.dummies
    one_minus = 1.0 - state.delta
    for t in range(state.num_levels):
        bar = one_minus * (state.W * one_minus ** t)
        for u in state.ground:
            if state.level[u] != t or u in S:
                continue
            if len(work) >= cap:
                return chosen
            if not independent(work + [u]):
                continue
            gain = f.evaluate(ordered + [u]) - f_S
            if gain <= bar:
                state.level[u] = t + 1
            else:
                chosen.add(u)
                work.append(u)
                state.accept_marginals[u] = gain
    return chosen


@dataclass
class LazyGreedyOutcome:
    solution: frozenset[int]
    failed: bool
    iterations: int
    dummies_used: int
    opt_estimate: float = 0.0


def random_lazy_greedy(
    f: ValueOracle,
    M: Matroid,
    delta: float,
    B: float,
    I: int,
    rng: np.random.Generator,
    *,
    use_partition: bool = False,
) -> LazyGreedyOutcome:
    """Randomized lazy greedy phase (the combined algorithm's first stage).

    Repeatedly builds an approximately maximum-weight residual independent set
    via LinearGreedy; while its weight stays at least B * opt, a uniformly
    random member of that set, padded with zero-value dummies to the
    remaining rank, joins the solution. Exhausting all I iterations without
    hitting the low-weight stopping test is a failure. Each question of the
    scan is one charged ``M.is_independent`` query; ``use_partition``
    answers it by the matroid's own count loop, uncharged, and needs a
    matroid that reports its blocks; any other is refused before the first
    query.
    """
    if not f.monotone:
        raise InvalidInputError("random lazy greedy requires a monotone objective")
    delta = checked_real(delta, "delta", 0.0, 1.0, open_low=True, open_high=True)
    # at delta <= 2**-54, 1 - delta rounds to 1 and the weight levels never fall
    checked_real(delta, "delta", 2.0 ** -54, open_low=True)
    B = checked_real(B, "B", 0.0)
    I = checked_int(I, "iteration bound")
    if use_partition and M.partition_structure() is None:
        raise InvalidInputError("partition fast path needs a partition matroid")
    check_same_ground(f, M)
    k = matroid_rank(M)
    if I > k / 2:
        raise InvalidInputError("iteration bound above k/2 voids the failure analysis")
    opt = crude_opt_estimate(f, M)
    ground = list(range(f.n))
    W = max((f.evaluate([u]) for u in ground), default=0.0)

    state = LazyGreedyState(ground, W, delta, k)
    state.solution_value = f.evaluate([])
    independent = independence_test(M) if use_partition else M.is_independent

    for i in range(1, I + 1):
        chosen = linear_greedy(state, f, independent)
        total_weight = sum(state.weight_of(u) for u in sorted(chosen))
        if (1.0 - delta) * total_weight >= B * opt:
            # the pool: the chosen ids, then one dummy per unfilled unit of rank
            pool = sorted(chosen)
            need = k - len(state.solution) - state.dummies - len(pool)
            slot = int(rng.integers(len(pool) + need))
            if slot < len(pool):
                state.solution.add(pool[slot])
                state.solution_value += state.accept_marginals[pool[slot]]
            else:
                state.dummies += 1
        else:
            return LazyGreedyOutcome(
                solution=frozenset(state.solution),
                failed=False,
                iterations=i - 1,
                dummies_used=state.dummies,
                opt_estimate=opt,
            )
    return LazyGreedyOutcome(
        solution=frozenset(),
        failed=True,
        iterations=I,
        dummies_used=0,
        opt_estimate=opt,
    )


@dataclass
class CombinedParams:
    delta: float
    B: float
    I: int
    c: float
    cg_delta: float


def combined_parameters(k: int, eps: float, lam: float) -> CombinedParams:
    """The prescribed parameters of :func:`combined_algorithm` for rank ``k``.

    Raises :class:`InvalidInputError` naming the field unless k is a positive
    integer, eps is in (2**-52, 1 - 1/e) and lam >= 1.
    """
    k = checked_int(k, "k", least=1)
    eps = checked_real(eps, "eps", 0.0, 1.0 - 1.0 / math.e, open_low=True, open_high=True)
    # continuous greedy's delta is eps/4, which must exceed 2**-54
    checked_real(eps, "eps", 2.0 ** -52, open_low=True)
    lam = checked_real(lam, "lam", 1.0)
    return CombinedParams(
        delta=0.5,
        B=20.0 * k / (lam * eps),
        I=math.ceil(lam / 3.0),
        c=240.0 * k / (lam * eps) + 2.0,
        cg_delta=eps / 4.0,
    )


@dataclass
class CombinedResult:
    solution: frozenset[int]
    failed: bool
    lazy_iterations: int
    lazy_solution: frozenset[int]
    params: Optional[CombinedParams]


def combined_algorithm(
    f: ValueOracle,
    M: Matroid,
    eps: float,
    lam: float,
    rng: np.random.Generator,
    *,
    sample_scale: float = 1.0,
    use_partition: bool = False,
    B_override: Optional[float] = None,
) -> CombinedResult:
    """Lazy phase + continuous greedy + swap rounding (1 - 1/e - eps guarantee).

    ``lam`` in [1, k] steers the query tradeoff. ``B_override`` replaces the
    prescribed stopping parameter for failure-path diagnostics only.
    ``sample_scale`` rescales the derivative-estimator budget; 1.0 keeps the
    analysis-faithful sample count. The residual is M/S, the partition
    contraction under ``use_partition``, capped at ``k - |S| - dummies``
    only when the lazy phase drew dummies (without them the cap is its
    rank). Each lazy iteration adds one id or dummy, and a phase that does
    not fail adds fewer than I <= k/2, so the cap exceeds k/2.
    """
    if not f.monotone:
        raise InvalidInputError("combined algorithm requires a monotone objective")
    eps = checked_real(eps, "eps", 0.0, 1.0 - 1.0 / math.e, open_low=True, open_high=True)
    # continuous greedy's delta is eps/4, which must exceed 2**-54
    checked_real(eps, "eps", 2.0 ** -52, open_low=True)
    sample_scale = checked_real(sample_scale, "sample_scale", 0.0, open_low=True)
    lam = checked_real(lam, "lam", 1.0)
    B = None if B_override is None else checked_real(B_override, "B", 0.0)
    if use_partition and M.partition_structure() is None:
        raise InvalidInputError("partition fast path needs a partition matroid")
    check_same_ground(f, M)
    k = matroid_rank(M)
    if k == 0:
        return CombinedResult(frozenset(), False, 0, frozenset(), None)
    lam = checked_real(lam, "lam", 1.0, k)
    if k == 1:
        independent = independence_test(M)
        best_u, best_v = None, -math.inf
        for u in M.ground():
            if independent([u]):
                v = f.evaluate([u])
                if v > best_v:
                    best_u, best_v = u, v
        sol = frozenset() if best_u is None else frozenset({best_u})
        return CombinedResult(sol, False, 0, frozenset(), None)

    params = combined_parameters(k, eps, lam)
    outcome = random_lazy_greedy(
        f, M, params.delta, params.B if B is None else B, params.I, rng, use_partition=use_partition
    )
    if outcome.failed:
        return CombinedResult(frozenset(), True, outcome.iterations, frozenset(), params)

    S = set(outcome.solution)
    residual: Matroid = (
        ContractedPartitionMatroid(M, S) if use_partition else ContractedMatroid(M, sorted(S))
    )
    if outcome.dummies_used > 0:
        residual = RankCappedMatroid(residual, k - len(S) - outcome.dummies_used)
    point = continuous_greedy(
        ResidualOracle(f, S), residual, params.c, params.cg_delta, rng, sample_scale=sample_scale
    )
    rounded = swap_round(residual, point, rng)
    return CombinedResult(
        frozenset(S | rounded), False, outcome.iterations, frozenset(S), params
    )


def choose_lambda(n: int, k: int, eps: float) -> float:
    """The closing choice of lambda: k below the threshold, the threshold above; n >= 3."""
    n = checked_int(n, "n", least=3)
    eps = checked_real(eps, "eps", 0.0, 1.0, open_low=True, open_high=True)
    k = checked_int(k, "k", least=1)
    threshold = math.sqrt(n * eps ** -5) * math.log(n / eps)
    # n >= 3 and eps < 1 put the threshold above 1.9, so the choice lies in [1, k]
    return float(k) if k <= threshold else threshold
