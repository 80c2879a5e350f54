"""Cardinality-constrained algorithms.

Random sampling (general, monotone and non-monotone parameterizations), the
two lazy threshold-pool variants built on a resumable filler, and the
standard/random greedy baselines. All randomness comes from the generator
passed in. The pool variants pad their pool with zero-value dummy elements,
kept as a count: a dummy has no id, is never asked about and never appears
in a returned solution.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .ledger import checked_int, checked_real
from .matroid_algos import geometric_level_count
from .oracles import ValueOracle, members_with


def standard_greedy(f: ValueOracle, k: int) -> set[int]:
    """Argmax-marginal greedy; ties go to the smallest id.

    On monotone instances this runs all k iterations and uses exactly
    1 + sum_{i=0}^{k-1} (n - i) value queries; it stops early if every
    remaining marginal is negative.
    """
    _validate_k(f, k)
    solution: set[int] = set()
    ordered: list[int] = []
    current = f.evaluate([])
    for _ in range(k):
        outside = [u for u in range(f.n) if u not in solution]
        # k <= n, so an id is left to rank
        best_gain, best_u = _ranked_gains(f, outside, solution, ordered, current)[0]
        if best_gain < 0.0:
            break
        solution.add(best_u)
        ordered.append(best_u)
        current += best_gain
    return solution


def random_greedy(f: ValueOracle, k: int, rng: np.random.Generator) -> set[int]:
    """Uniform pick among the k largest positive marginals each iteration.

    Short candidate lists are logically padded with zero-value dummies, so a
    pick can be a no-op; this is what yields the 1/e guarantee for
    non-monotone objectives.
    """
    _validate_k(f, k)
    solution: set[int] = set()
    ordered: list[int] = []
    current = f.evaluate([])
    for _ in range(k):
        outside = [u for u in range(f.n) if u not in solution]
        gains = _ranked_gains(f, outside, solution, ordered, current)
        top = [(g, u) for g, u in gains if g > 0.0][:k]
        slot = int(rng.integers(k))
        if slot < len(top):
            gain, u = top[slot]
            solution.add(u)
            ordered.append(u)
            current += gain
    return solution


def _ranked_gains(
    f: ValueOracle, candidates: list[int], solution: set[int], ordered: list[int], current: float
) -> list[tuple[float, int]]:
    """(marginal, id) per candidate, asked in candidate order; best first, ties to smaller ids."""
    gains = [(f.evaluate(members_with(solution, ordered, u)) - current, u) for u in candidates]
    # sorting is stable, reverse=True included: by id, then by marginal, best first
    return sorted(sorted(gains, key=itemgetter(1)), key=itemgetter(0), reverse=True)


def draw_rank(s: float, rng: np.random.Generator) -> int:
    """Rank drawn as ceil(d) with d uniform on (0, s].

    Realizes the fractional-s mixing: ranks 1..floor(s) each with probability
    1/s and rank ceil(s) with the remainder.
    """
    d = s * (1.0 - rng.random())
    return max(1, math.ceil(d))


def random_sampling(
    f: ValueOracle,
    k: int,
    p: float,
    s: float,
    rng: np.random.Generator,
) -> set[int]:
    """k rounds: sample ceil(pn) elements, add the ceil(d)-th best if helpful.

    The sample is drawn without replacement and may intersect the current
    solution (such members have zero marginal). An element is added only when
    its marginal is non-negative. Costs at most k * ceil(pn) + 1 value queries.

    A round's sample is a partial Fisher-Yates shuffle whose swap targets
    come from one ``rng.integers(np.arange(size), n)`` call. For a range
    below 2**32, numpy draws each element of that broadcast call with the
    same buffered 32-bit routine, in the same order, as a scalar
    ``rng.integers(j, n)`` per target; so the sample and the generator
    state afterwards (its buffered half-word included) equal those of the
    scalar loop, at a fraction of its per-call cost.
    """
    _validate_k(f, k)
    n = f.n
    p = checked_real(p, "p", 0.0, 1.0, open_low=True)
    sample_size = math.ceil(p * n)
    s = checked_real(s, "s", 1.0, sample_size)
    solution: set[int] = set()
    ordered: list[int] = []
    current = f.evaluate([])
    for _ in range(k):
        sample = _sample_without_replacement(n, sample_size, rng)
        gains = _ranked_gains(f, sample, solution, ordered, current)
        # draw_rank gives at most ceil(s) <= ceil(pn) = len(gains)
        gain, u = gains[draw_rank(s, rng) - 1]
        if gain >= 0.0 and u not in solution:
            solution.add(u)
            ordered.append(u)
            current += gain
    return solution


def _sample_without_replacement(n: int, size: int, rng: np.random.Generator) -> list[int]:
    # partial Fisher-Yates over a fresh index array; swap target j is drawn
    # from [j, n), all of them in one broadcast call (see random_sampling)
    arr = list(range(n))
    for j, r in enumerate(rng.integers(np.arange(size), n).tolist()):
        arr[j], arr[r] = arr[r], arr[j]
    return arr[:size]


def random_sampling_monotone(
    f: ValueOracle, k: int, eps: float, rng: np.random.Generator
) -> set[int]:
    """Sampling greedy for monotone objectives: s = 1, p = ln(1/eps)/k.

    For eps <= e^{-k} the plain greedy already meets the guarantee and is used
    directly. Gives (1 - 1/e - eps) OPT in expectation with O(n ln(1/eps))
    value queries.
    """
    if not f.monotone:
        raise InvalidInputError("this parameterization requires a monotone objective")
    eps = checked_real(eps, "eps", 0.0, 1.0, open_low=True, open_high=True)
    _validate_k(f, k)
    if eps <= math.exp(-k):
        return standard_greedy(f, k)
    p = math.log(1.0 / eps) / k
    return random_sampling(f, k, p, 1.0, rng)


def random_sampling_nonmonotone(
    f: ValueOracle, k: int, eps: float, rng: np.random.Generator
) -> set[int]:
    """Sampling algorithm for general objectives: (1/e - eps) OPT in expectation.

    With p = 8 ln(2/eps) / (k eps^2) and s = k ceil(pn) / n. Where
    8 ln(2/eps) >= k eps^2 that p would reach one, and random greedy runs
    instead; the test does not divide, as k eps^2 underflows to zero for eps
    below about 1e-162. Eps at or above 1/e is clamped just below it.
    """
    eps = checked_real(eps, "eps", 0.0, open_low=True)
    _validate_k(f, k)
    if eps >= 1.0 / math.e:
        eps = 1.0 / math.e - 1e-6
    numerator = 8.0 * math.log(2.0 / eps)
    denominator = k * eps * eps
    if numerator >= denominator:
        return random_greedy(f, k, rng)
    n = f.n
    p = numerator / denominator
    sample_size = math.ceil(p * n)
    # p < 1, and k <= n puts s in [8 ln(2/eps) / eps^2, ceil(pn)], above 100
    return random_sampling(f, k, p, k * sample_size / n, rng)


class FillState:
    """The pool of the two lazy pool variants and its resumable filler.

    The pool is a set of real ids, ``pool``, plus ``dummies``, a count of
    zero-value dummy elements; ``W`` is the best singleton value, asked in
    id order. ``fill`` scans (level, element) pairs in a fixed order,
    resumes exactly where the previous call stopped and returns once the
    pool holds k elements, topping it up with dummies after the sweep is
    exhausted. ``purge`` drops the ids at or under ``bar()``, the last level's.
    """

    def __init__(self, f: ValueOracle, k: int, delta: float):
        self.f = f
        self.k = k
        self.delta = delta
        self.W = float(max((f.evaluate([u]) for u in range(f.n)), default=0.0))
        self.num_levels = geometric_level_count(delta, delta / k) if self.W > 0.0 else 0
        self.level = 0
        self.pos = 0
        self.pool: set[int] = set()
        self.dummies = 0

    def bar(self) -> float:
        """W (1 - delta)^level (1 - delta): a marginal at or under it is stale."""
        one_minus = 1.0 - self.delta
        return self.W * one_minus ** self.level * one_minus

    def draw(self, rng: np.random.Generator) -> Optional[int]:
        """A uniform pool member: an id, or None for a dummy (dummies sort last)."""
        members = sorted(self.pool)
        slot = int(rng.integers(len(members) + self.dummies))
        return members[slot] if slot < len(members) else None

    def fill(
        self, ordered: list[int], solution_value: float
    ) -> tuple[list[Optional[int]], list[float]]:
        """Resume the sweep until the pool reaches k elements.

        ``ordered`` is the solution, distinct ids in pick order, so that a
        query's members-but-last are the oracle's cached prefix ``P``, or
        ``P`` plus one appended id (the latest pick). Returns the newly added
        elements, None for a dummy, and their insertion-time marginals (zero
        for dummies).
        """
        pool = self.pool
        added: list[Optional[int]] = []
        marginals: list[float] = []
        solution = set(ordered)
        while self.level < self.num_levels:
            bar = self.bar()
            while self.pos < self.f.n:
                u = self.pos
                self.pos += 1
                gain = self.f.evaluate(members_with(solution, ordered, u)) - solution_value
                if gain > bar:
                    if u not in pool:
                        pool.add(u)
                        added.append(u)
                        marginals.append(gain)
                    if len(pool) + self.dummies == self.k:
                        return added, marginals
            self.pos = 0
            self.level += 1
        top_up = self.k - len(pool) - self.dummies
        self.dummies += top_up
        added += [None] * top_up
        marginals += [0.0] * top_up
        return added, marginals

    def purge(self, solution: set[int], ordered: list[int], current: float) -> None:
        """Drop the members whose marginal to ``ordered`` is at or under the bar, in id order."""
        bar = self.bar()
        for u in sorted(self.pool):
            if self.f.evaluate(members_with(solution, ordered, u)) - current <= bar:
                self.pool.discard(u)


def lazy_greedy_simple(
    f: ValueOracle,
    k: int,
    delta: float,
    rng: np.random.Generator,
) -> set[int]:
    """Threshold-pool random greedy: (1/e - 2 delta) OPT in expectation.

    Keeps a pool of k high-marginal candidates (padded by dummies), adds a
    uniform pool member each round, then rescans the pool and drops members
    whose marginal fell under the current threshold.
    """
    _validate_lazy_params(f, k, delta)
    filler = FillState(f, k, delta)
    solution: set[int] = set()
    ordered: list[int] = []
    current = f.evaluate([])
    for _ in range(k):
        filler.fill(ordered, current)
        u_i = filler.draw(rng)
        if u_i is not None and u_i not in solution:
            solution.add(u_i)
            ordered.append(u_i)
        current = f.evaluate(ordered)
        filler.purge(solution, ordered, current)
        # a dummy's marginal, 0, clears no positive bar; if W <= 0, the next fill adds it back
        filler.dummies = 0
    return solution


def lazy_greedy_improved(
    f: ValueOracle,
    k: int,
    delta: float,
    rng: np.random.Generator,
    trace: Optional[dict] = None,
) -> set[int]:
    """Pool variant that rescans only when the drawn candidate went stale.

    A uniformly drawn pool member is used directly if it is a dummy or its
    marginal still clears the bar; otherwise the pool is purged of stale ids
    (dummies stay), refilled, and the pick is redrawn from the fresh arrivals.
    ``trace`` records each pick (None for a dummy) and each rescan.
    """
    _validate_lazy_params(f, k, delta)
    filler = FillState(f, k, delta)
    solution: set[int] = set()
    ordered: list[int] = []
    current = f.evaluate([])
    filler.fill(ordered, current)
    for _ in range(k):
        candidate = filler.draw(rng)
        if candidate is None:
            pick, pick_gain = None, 0.0
        else:
            gain = f.evaluate(members_with(solution, ordered, candidate)) - current
            if gain > filler.bar():
                pick, pick_gain = candidate, gain
            else:
                if trace is not None:
                    trace.setdefault("rescans", []).append(
                        (candidate, candidate in solution)
                    )
                filler.purge(solution, ordered, current)
                fresh, fresh_gains = filler.fill(ordered, current)
                slot = int(rng.integers(len(fresh)))
                pick, pick_gain = fresh[slot], fresh_gains[slot]
        if pick is not None and pick not in solution:
            solution.add(pick)
            ordered.append(pick)
            current += pick_gain
        if trace is not None:
            trace.setdefault("picks", []).append(pick)
    return solution


def _validate_k(f: ValueOracle, k: int) -> None:
    if checked_int(k, "k", least=1) > f.n:
        raise InvalidInputError("cardinality bound must satisfy 1 <= k <= n")


def _validate_lazy_params(f: ValueOracle, k: int, delta: float) -> None:
    _validate_k(f, k)
    checked_real(delta, "delta", 0.0, 1.0 / math.e, open_low=True, open_high=True)
    # at delta <= 2**-54, 1 - delta rounds to 1 and the thresholds never fall
    checked_real(delta, "delta", 2.0 ** -54, open_low=True)
