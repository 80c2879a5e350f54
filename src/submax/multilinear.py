"""Multilinear-extension machinery.

Sampling estimator for directional derivatives of F(x) = E[f(R(x))], the
decreasing-threshold continuous greedy that consumes it, and randomized swap
rounding of the resulting convex combination of bases. A sample row of R(x)
draws one uniform for each coordinate with x_j > 0, in id order, and none
for the others, which can never join R(x). Swap rounding never
touches the value oracle, and asks its independence questions through
:func:`~submax.matroids.independence_test`, so a handle that reports its
blocks is asked none.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError
from .ledger import checked_int
from .matroids import (
    Matroid, check_same_ground, independence_test, matroid_rank, threshold_sweep,
)
from .oracles import ValueOracle


@dataclass
class FractionalPoint:
    """Point of the matroid polytope kept as an explicit convex combination.

    ``x = sum(weight * indicator(base))``; rounding needs the decomposition,
    not just the coordinates.
    """

    n: int
    weights: list[float] = field(default_factory=list)
    bases: list[frozenset[int]] = field(default_factory=list)

    def coords(self) -> np.ndarray:
        x = np.zeros(self.n)
        for w, base in zip(self.weights, self.bases):
            for u in base:
                x[u] += w
        return x

    def total_weight(self) -> float:
        return float(sum(self.weights))


def estimate_marginal_F(
    f: ValueOracle,
    x: Union[FractionalPoint, Sequence[float], np.ndarray],
    u: int,
    m: int,
    rng: np.random.Generator,
) -> float:
    """Paired-sample estimate of the derivative of F at x along coordinate u.

    Averages f(R + u) - f(R - u) over m draws of R(x); costs exactly 2m value
    queries. The draws are the rows of one ``rng.random((m, len(support)))``
    call over the support of x (its ids with x_j > 0, in id order): element
    j is in a row when its uniform is below x_j. At x = 0 nothing is drawn.
    The rows come in blocks of at most ``BLOCK_DOUBLES // n`` rows, and
    ``rng`` ends where that one call would have left it. The raw
    (unclamped) mean is returned so the estimator stays unbiased; callers
    that rely on monotonicity clamp at zero themselves.
    Raises :class:`InvalidInputError` before any draw or query when ``m`` is
    not a positive integer, ``u`` is not an id of f's ground set or ``x`` is
    not a point of ``[0, 1]^n``.
    """
    m = checked_int(m, "m", least=1)
    try:
        u = operator.index(u)
    except TypeError:
        raise InvalidInputError(f"u must be an integer element id, got {u!r}") from None
    if not 0 <= u < f.n:
        raise InvalidInputError(f"u={u} outside ground set of size {f.n}")
    try:
        x_vec = x.coords() if isinstance(x, FractionalPoint) else np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"x must be a vector of numbers, got {x!r}") from None
    if x_vec.shape != (f.n,):
        raise InvalidInputError(f"x must hold one entry per element ({f.n}), got shape {x_vec.shape}")
    # NaN fails both comparisons
    if not ((x_vec >= 0.0) & (x_vec <= 1.0)).all():
        raise InvalidInputError("x entries must be finite and in [0, 1]")
    with _SampleRows(x_vec, rng) as rows:
        return _estimate(f, rows, u, m)


# One block of sample rows holds at most BLOCK_DOUBLES // n rows, so at most
# 256 KB of uniforms whatever the support of x (a row draws one per x_j > 0).
BLOCK_DOUBLES = 32_768


class _SampleRows:
    """The sample sets R(x) of the estimates made at one point x.

    Each row is one draw of R(x). It takes one uniform for each coordinate
    with x[j] > 0, in id order, and element j is in it when its uniform is
    below x[j]; an element with x[j] = 0 never is, so it takes none. Rows
    are drawn in blocks with one ``rng.random`` call each, which gives the
    numbers that one ``rng.random((m, len(support)))`` call per estimate
    would give, in the same order. The first block holds the rows its first
    request needs and each later one twice as many as the last, up to
    ``BLOCK_DOUBLES // n`` rows. At x = 0 every row is empty and nothing is
    drawn. Leaving the ``with`` block, also on an error, sets the generator
    back to the state saved before the last block and draws only the rows
    handed out of it, so ``rng`` ends where per-estimate draws would have
    left it, for any bit generator. Every row handed out is a list of its
    own: the caller may change it, and the views forward it to the base
    uncopied (no handle keeps it).
    """

    def __init__(self, x: np.ndarray, rng: np.random.Generator):
        self.cols = np.flatnonzero(x)  # the support of x, ascending
        self.p = x[self.cols]
        self.rng = rng
        self.n = x.shape[0]
        self.size = 0  # rows in the current block
        self.next = 0  # rows of it handed out
        self.ids: list[int] = []  # ids of the block's members, row after row
        self.ends: list[int] = [0]  # row r holds ids[ends[r]:ends[r + 1]]
        self.saved: Optional[dict] = None

    def __enter__(self) -> "_SampleRows":
        return self

    def __exit__(self, *exc) -> None:
        if self.next < self.size:
            self.rng.bit_generator.state = self.saved
            self.rng.random((self.next, len(self.cols)))

    def take(self, m: int) -> list[list[int]]:
        """The next m rows, each a fresh ascending id list."""
        if not self.cols.size:
            return [[] for _ in range(m)]
        rows = []
        for left in range(m, 0, -1):
            if self.next == self.size:
                self._draw(left)
            r = self.next
            rows.append(self.ids[self.ends[r]:self.ends[r + 1]])
            self.next = r + 1
        return rows

    def _draw(self, need: int) -> None:
        width = len(self.cols)
        size = min(max(1, BLOCK_DOUBLES // self.n), max(need, 2 * self.size))
        self.saved = self.rng.bit_generator.state
        # one flat scan: 2-D nonzero costs more than it saves
        hits = np.flatnonzero(self.rng.random((size, width)) < self.p)
        self.ends = np.searchsorted(hits, np.arange(0, (size + 1) * width, width)).tolist()
        self.ids = self.cols[hits % width].tolist()
        self.size, self.next = size, 0


def _estimate(f: ValueOracle, rows: _SampleRows, u: int, m: int) -> float:
    """The paired-sample loop of :func:`estimate_marginal_F`, without its checks.

    Takes the estimate's m rows before its first query and drops u from
    each. Each pair asks f(R + u) first, then f(R). The second query is the
    first one's members-but-last, so a prefix-cached oracle answers it from
    the cache the first one left.
    """
    total = 0.0
    evaluate = f.evaluate
    for ids in rows.take(m):
        i = bisect_left(ids, u)
        if i < len(ids) and ids[i] == u:
            del ids[i]
        ids.append(u)
        with_u = evaluate(ids)
        ids.pop()
        total += with_u - evaluate(ids)
    return total / m


def estimator_sample_count(c: float, n: int, delta: float, sample_scale: float = 1.0) -> int:
    """m = ceil(scale * c * ln(n) / delta^2), floored at one sample."""
    n_eff = max(n, 2)
    return max(1, math.ceil(sample_scale * c * math.log(n_eff) / delta ** 2))


def check_sample_scale(sample_scale: float) -> None:
    """Refuse a ``sample_scale`` that is not a finite positive number."""
    try:
        ok = math.isfinite(sample_scale) and sample_scale > 0.0
    except TypeError:
        ok = False
    if not ok:
        raise InvalidInputError(
            f"sample_scale must be a finite positive number, got {sample_scale!r}"
        )


def _ground_ids(ground: Iterable, n: int) -> list[int]:
    """The ids of ``ground``, sorted, once they are distinct ids of [0, n)."""
    ids = []
    for u in ground:
        try:
            ids.append(operator.index(u))
        except TypeError:
            raise InvalidInputError(f"ground ids must be integers, got {u!r}") from None
        if not 0 <= ids[-1] < n:
            raise InvalidInputError(f"ground id {u} outside ground set of size {n}")
    if len(set(ids)) != len(ids):
        raise InvalidInputError("ground ids must be distinct")
    return sorted(ids)


def continuous_greedy(
    f: ValueOracle,
    M: Matroid,
    c: float,
    delta: float,
    rng: np.random.Generator,
    *,
    ground: Optional[Sequence[int]] = None,
    sample_scale: float = 1.0,
) -> FractionalPoint:
    """Decreasing-threshold continuous greedy for monotone objectives.

    Runs ceil(1/delta) steps. Each step estimates every candidate's derivative,
    then sweeps a threshold geometrically (factor 1 - delta) from the largest
    estimate down to delta/n of it, adding elements whose fresh estimate clears
    the threshold while independence allows. The sweep is
    :func:`~submax.matroids.threshold_sweep`, which asks an independence
    question only while its answer is unknown and stops once the step's set
    reaches the matroid rank; neither shortcut changes an output or an
    estimator draw. The estimates of one step draw their sample rows in
    blocks (see ``BLOCK_DOUBLES``); at the step's end the generator is
    rewound to just past the rows used, so ``rng`` advances exactly as with
    one draw per estimate over the support of x (see
    :func:`estimate_marginal_F`). ``sample_scale`` rescales the per-estimate sample
    budget; 1.0 is the analysis-faithful count, which is far beyond
    interactive budgets on all but tiny instances. ``ground`` (default: all
    of M's ids) must hold distinct ids of f's ground set.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidInputError("delta must be in (0, 1)")
    if not (math.isfinite(c) and c >= 1.0):
        raise InvalidInputError(f"c must be a finite scale constant of at least 1, got {c!r}")
    check_sample_scale(sample_scale)
    if not f.monotone:
        raise InvalidInputError("continuous greedy requires a monotone objective")
    check_same_ground(f, M)
    ground_ids = _ground_ids(M.ground() if ground is None else ground, f.n)
    n_eff = max(len(ground_ids), 2)
    m = estimator_sample_count(c, n_eff, delta, sample_scale)
    steps = math.ceil(1.0 / delta)

    rank = matroid_rank(M)

    x = np.zeros(f.n)
    point = FractionalPoint(n=f.n)
    for t in range(steps):
        step_weight = delta if t < steps - 1 else 1.0 - delta * (steps - 1)
        # x is fixed within a step, and only its estimates draw from rng
        with _SampleRows(x, rng) as rows:
            d_max = max((max(0.0, _estimate(f, rows, u, m)) for u in ground_ids), default=0.0)
            # every threshold is positive, so a raw estimate clears it iff its clamp does
            base = threshold_sweep(
                M, ground_ids, rank, d_max, delta * d_max / n_eff, 1.0 - delta,
                lambda taken, u, w: _estimate(f, rows, u, m) >= w,
            )
        point.weights.append(step_weight)
        point.bases.append(frozenset(base))
        for u in base:
            x[u] += step_weight
    return point


def swap_round(M: Matroid, x: FractionalPoint, rng: np.random.Generator) -> set[int]:
    """Round a convex combination of independent sets to a single one.

    Every base id is first checked as an integer id of M's ground set. Bases
    are then padded to the rank by greedy completion in id order and merged
    pairwise: elements of the symmetric difference are exchanged with
    probability proportional to the accumulated weights, and each exchange
    is the first one that keeps both bases independent. No value oracle
    queries are made. One loop serves every matroid; its independence
    questions go through :func:`~submax.matroids.independence_test`.
    """
    pairs = [(float(w), set(b)) for w, b in zip(x.weights, x.bases) if w > 0.0]
    if not pairs:
        raise InvalidInputError("decomposition must be non-empty")
    independent = independence_test(M)
    for _, base in pairs:
        for u in base:
            M._check_id(u)
        if not independent(sorted(base)):
            raise InvalidInputError("dependent base in decomposition")
    target = matroid_rank(M)
    for _, base in pairs:
        _greedy_complete(independent, M.ground(), base, target)
    merged_w, merged = pairs[0]
    for w_i, b_i in pairs[1:]:
        merged = _merge_general(independent, merged, merged_w, b_i, w_i, rng)
        merged_w += w_i
    return merged


def _greedy_complete(
    independent: Callable[[list[int]], bool], ground: Iterable[int], base: set[int], target: int
) -> None:
    if len(base) >= target:
        return
    members = sorted(base)
    for u in ground:
        if len(base) >= target:
            return
        if u in base:
            continue
        members.append(u)
        if independent(members):
            base.add(u)
        else:
            members.pop()


def _merge_general(
    independent: Callable[[list[int]], bool],
    B1: set[int],
    w1: float,
    B2: set[int],
    w2: float,
    rng: np.random.Generator,
) -> set[int]:
    bias = w1 / (w1 + w2)
    while B1 != B2:
        i = min(B1 - B2)
        j = _find_exchange(independent, B1, B2, i)
        if rng.random() < bias:
            B2.discard(j)
            B2.add(i)
        else:
            B1.discard(i)
            B1.add(j)
    return B1


def _find_exchange(
    independent: Callable[[list[int]], bool], B1: set[int], B2: set[int], i: int
) -> int:
    b1_minus = sorted(B1 - {i})
    for j in sorted(B2 - B1):
        if independent(b1_minus + [j]) and independent(sorted(B2 - {j}) + [i]):
            return j
    raise InvalidInputError("no feasible exchange: decomposition bases are inconsistent")
