"""Discrete algorithms for monotone submodular maximization over a matroid.

Contains the deterministic thresholding greedy, the random lazy greedy with
its general and partition LinearGreedy inner routines, and the combined
algorithm that runs the lazy phase and finishes with continuous greedy plus
swap rounding. The lambda parameter of the combined algorithm trades value
queries (through the estimator budget) against independence queries (through
the lazy phase's iteration allowance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .matroids import (
    ContractedMatroid,
    Matroid,
    PartitionMatroid,
    RankCappedMatroid,
    matroid_rank,
    threshold_sweep,
)
from .multilinear import check_sample_scale, continuous_greedy, swap_round
from .oracles import ResidualOracle, ValueOracle, members_with


def geometric_level_count(delta: float, ratio: float) -> int:
    """Number of integers t >= 0 with (1 - delta)^t > ratio (0 < ratio < 1).

    Counted with the same repeated multiplication the threshold loops use, so
    boundary cases agree with the loop semantics bit for bit.
    """
    if ratio >= 1.0:
        return 0
    count = 0
    w = 1.0
    while w > ratio:
        count += 1
        w *= 1.0 - delta
    return count


def thresholding_greedy(f: ValueOracle, M: Matroid, eps: float) -> set[int]:
    """Deterministic decreasing-threshold greedy, (1/2 - eps)-approximate.

    Expects self-loops removed and f monotone. The scan is
    :func:`~submax.matroids.threshold_sweep`: an element costs one value
    query per level at which it can join, and an independence query only
    when its answer is unknown. Solution members cost nothing, and the scan
    stops once the solution is a base.
    """
    solution, _ = _thresholding_greedy_value(f, M, eps)
    return solution


def _thresholding_greedy_value(f: ValueOracle, M: Matroid, eps: float) -> tuple[set[int], float]:
    if not 0.0 < eps < 1.0:
        raise InvalidInputError("eps must be in (0, 1)")
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

    taken = threshold_sweep(M, ground, rank, w_max, eps * w_max / rank, 1.0 - eps, clears)
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
        self.adds = 0
        self.decays = 0

    def weight_of(self, u: int) -> float:
        return self.W * (1.0 - self.delta) ** self.level[u]


def linear_greedy(state: LazyGreedyState, f: ValueOracle, M: Matroid) -> set[int]:
    """General LinearGreedy: one value query per weight decay or acceptance.

    Scans each threshold level in id order; elements whose stored level does
    not match are skipped without any oracle use, and elements the
    independence check refuses are frozen at their level for the rest of the
    call. The solution's dummies take up rank: ``S + T`` must fit in
    ``k - dummies``.
    """
    M = RankCappedMatroid(M, state.k - state.dummies)
    S = state.solution
    ordered = sorted(S)
    f_S = state.solution_value
    chosen: set[int] = set()
    work = sorted(S)
    state.accept_marginals = {}
    one_minus = 1.0 - state.delta
    for t in range(state.num_levels):
        bar = one_minus * (state.W * one_minus ** t)
        for u in state.ground:
            if state.level[u] != t:
                continue
            if not M.is_independent(members_with(S, work, u)):
                continue
            gain = f.evaluate(members_with(S, ordered, u)) - f_S
            if gain <= bar:
                state.level[u] = t + 1
                state.decays += 1
            else:
                chosen.add(u)
                work.append(u)
                state.adds += 1
                state.accept_marginals[u] = gain
    return chosen


def linear_greedy_partition(state: LazyGreedyState, f: ValueOracle, M: Matroid) -> set[int]:
    """Partition LinearGreedy: no independence queries at all.

    Reads blocks and capacities from ``M.partition_structure()`` and handles
    each block separately, scanning its elements in (level, id) order; the
    per-element feasibility test of the general variant collapses to a block
    quota check. A decayed element is rescanned at its next level in the
    same sweep.
    """
    structure = M.partition_structure()
    if structure is None:
        raise InvalidInputError("partition LinearGreedy needs a generalized partition matroid")
    S = state.solution
    ordered = sorted(S)
    f_S = state.solution_value
    state.accept_marginals = {}
    chosen: set[int] = set()
    one_minus = 1.0 - state.delta
    # dummies in S occupy rank without living in any block
    allowance = state.k - len(S) - state.dummies
    for blk, cap in zip(*structure):
        blk = sorted(blk)
        room = min(cap - sum(1 for v in blk if v in S), allowance - len(chosen))
        for t in range(state.num_levels):
            bar = one_minus * (state.W * one_minus ** t)
            for u in blk:
                if room <= 0:
                    break
                if state.level[u] != t:
                    continue
                # solution members ride the levels down like any element
                gain = f.evaluate(members_with(S, ordered, u)) - f_S
                if gain <= bar:
                    state.level[u] = t + 1
                    state.decays += 1
                else:
                    chosen.add(u)
                    room -= 1
                    state.adds += 1
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
    hitting the low-weight stopping test is a failure.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidInputError("delta must be in (0, 1)")
    if B < 0.0:
        raise InvalidInputError("B must be non-negative")
    if I < 0:
        raise InvalidInputError("iteration bound must be non-negative")
    k = matroid_rank(M)
    if I > k / 2:
        raise InvalidInputError("iteration bound above k/2 voids the failure analysis")
    opt = crude_opt_estimate(f, M)
    ground = list(range(f.n))
    W = max((f.evaluate([u]) for u in ground), default=0.0)

    if use_partition and M.partition_structure() is None:
        raise InvalidInputError("partition fast path needs a partition matroid")
    state = LazyGreedyState(ground, W, delta, k)
    state.solution_value = f.evaluate([])

    for i in range(1, I + 1):
        if use_partition:
            chosen = linear_greedy_partition(state, f, M)
        else:
            chosen = linear_greedy(state, f, M)
        total_weight = sum(state.weight_of(u) for u in sorted(chosen))
        if (1.0 - delta) * total_weight >= B * opt:
            # the pool: the chosen ids, then one dummy per unfilled unit of rank
            pool = sorted(chosen)
            need = k - len(state.solution) - state.dummies - len(pool)
            slot = int(rng.integers(len(pool) + max(0, need)))
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
    analysis-faithful sample count.
    """
    if not f.monotone:
        raise InvalidInputError("combined algorithm requires a monotone objective")
    if not 0.0 < eps < 1.0 - 1.0 / math.e:
        raise InvalidInputError("eps must be in (0, 1 - 1/e)")
    check_sample_scale(sample_scale)
    k = matroid_rank(M)
    if k == 0:
        return CombinedResult(frozenset(), False, 0, frozenset(), None)
    if not 1.0 <= lam <= k:
        raise InvalidInputError("lambda must lie in [1, rank]")
    if k == 1:
        best_u, best_v = None, -math.inf
        for u in M.ground():
            if M.is_independent([u]):
                v = f.evaluate([u])
                if v > best_v:
                    best_u, best_v = u, v
        sol = frozenset() if best_u is None else frozenset({best_u})
        return CombinedResult(sol, False, 0, frozenset(), None)

    params = combined_parameters(k, eps, lam)
    B = params.B if B_override is None else float(B_override)
    outcome = random_lazy_greedy(
        f, M, params.delta, B, params.I, rng, use_partition=use_partition
    )
    if outcome.failed:
        return CombinedResult(frozenset(), True, outcome.iterations, frozenset(), params)

    S = set(outcome.solution)
    used = len(S) + outcome.dummies_used
    cap = k - used
    if cap <= 0:
        return CombinedResult(frozenset(S), False, outcome.iterations, frozenset(S), params)

    residual: Matroid
    if use_partition and outcome.dummies_used == 0:
        # random_lazy_greedy refused use_partition on any other matroid
        blocks, caps = M.partition_structure()
        res_blocks = [[u for u in blk if u not in S] for blk in blocks]
        res_caps = [c - sum(1 for u in blk if u in S) for blk, c in zip(blocks, caps)]
        # contracted ids form one block of capacity zero: loops of the residual
        residual = PartitionMatroid(res_blocks + [sorted(S)], res_caps + [0], M.ledger)
        # S is independent, so each block keeps min(c_j, |B_j|) - |S & B_j| and
        # the residual rank is k - |S| = cap: no scan needed
        residual._rank = cap
    else:
        residual = RankCappedMatroid(ContractedMatroid(M, sorted(S)), cap)
    shifted = ResidualOracle(f, S)
    ground = [u for u in range(f.n) if u not in S]
    point = continuous_greedy(
        shifted,
        residual,
        params.c,
        params.cg_delta,
        rng,
        ground=ground,
        sample_scale=sample_scale,
    )
    rounded = swap_round(residual, point, rng)
    return CombinedResult(
        frozenset(S | rounded), False, outcome.iterations, frozenset(S), params
    )


def choose_lambda(n: int, k: int, eps: float) -> float:
    """The closing choice of lambda: k below the threshold, the threshold above."""
    if n < 3:
        raise InvalidInputError("for constant-size ground sets solve exactly instead")
    if not 0.0 < eps < 1.0:
        raise InvalidInputError("eps must be in (0, 1)")
    if k < 1:
        raise InvalidInputError("rank must be positive")
    threshold = math.sqrt(n * eps ** -5) * math.log(n / eps)
    lam = float(k) if k <= threshold else threshold
    return min(max(1.0, lam), float(k))
