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
from .ledger import checked_int, checked_real
from .matroids import (
    AnswerNode, Matroid, check_same_ground, independence_test, matroid_rank, threshold_sweep,
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

    def _checked_weights(self) -> list[float]:
        """The weights as floats, one per base; InvalidInputError names a bad one.

        A weight must be finite and non-negative, and there must be as many
        weights as bases.
        """
        if len(self.weights) != len(self.bases):
            raise InvalidInputError(
                f"decomposition holds {len(self.weights)} weights for {len(self.bases)} bases"
            )
        return [checked_real(w, f"weights[{i}]", 0.0) for i, w in enumerate(self.weights)]

    def coords(self) -> np.ndarray:
        """x as a vector; InvalidInputError names a bad weight or a base holding
        an id outside ``[0, n)``."""
        x = np.zeros(self.n)
        for i, (w, base) in enumerate(zip(self._checked_weights(), self.bases)):
            for u in base:
                try:
                    v = operator.index(u)
                except TypeError:
                    v = -1
                if not 0 <= v < self.n:
                    raise InvalidInputError(
                        f"bases[{i}] holds {u!r}, not an element id of a ground set of size {self.n}"
                    )
                x[v] += w
        return x


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
    except InvalidInputError:
        raise
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


def _estimate(
    f: ValueOracle, rows: _SampleRows, u: int, m: int, known: Optional[dict] = None
) -> float:
    """The paired-sample loop of :func:`estimate_marginal_F`, without its checks.

    Takes the estimate's m rows before its first query and drops u from
    each. Each pair asks f(R + u) first, then f(R). The second query is the
    first one's members-but-last, so a prefix-cached oracle answers it from
    the cache the first one left. ``known`` is a run's table of the values
    of sets of at most one id, keyed by their id tuples: with it, such a
    set is asked only on its first use, in the pair's order, and later
    taken from the table. A row ``[v]`` still asks f({v, u}); an empty row
    asks nothing once f({u}) and f(∅) are known. Without it, every pair
    costs two queries.
    """
    total = 0.0
    evaluate = f.evaluate
    for ids in rows.take(m):
        i = bisect_left(ids, u)
        if i < len(ids) and ids[i] == u:
            del ids[i]
        small = known is not None and len(ids) < 2
        if small and not ids:
            with_u = _known_value(known, evaluate, [u])
        else:
            ids.append(u)
            with_u = evaluate(ids)
            ids.pop()
        total += with_u - (_known_value(known, evaluate, ids) if small else evaluate(ids))
    return total / m


def _known_value(known: dict, evaluate: Callable[[list[int]], float], ids: list[int]) -> float:
    """f(ids) from the table ``known``, asked and stored on its first use."""
    key = tuple(ids)
    value = known.get(key)
    if value is None:
        value = known[key] = evaluate(ids)
    return value


def estimator_sample_count(c: float, n: int, delta: float, sample_scale: float = 1.0) -> int:
    """m = ceil(scale * c * ln(n) / delta^2), floored at one sample.

    Raises :class:`InvalidInputError` naming the field unless c >= 1, n is a
    non-negative integer, delta is in (2**-54, 1) and sample_scale is positive.
    """
    c = checked_real(c, "c", 1.0)
    n_eff = max(checked_int(n, "n"), 2)
    delta = checked_real(delta, "delta", 0.0, 1.0, open_low=True, open_high=True)
    # continuous greedy's bound; below about 1e-162, delta ** 2 underflows to zero
    checked_real(delta, "delta", 2.0 ** -54, open_low=True)
    sample_scale = checked_real(sample_scale, "sample_scale", 0.0, open_low=True)
    return max(1, math.ceil(sample_scale * c * math.log(n_eff) / delta ** 2))


def continuous_greedy(
    f: ValueOracle,
    M: Matroid,
    c: float,
    delta: float,
    rng: np.random.Generator,
    *,
    sample_scale: float = 1.0,
) -> FractionalPoint:
    """Decreasing-threshold continuous greedy for monotone objectives.

    The candidates are ``M.ground()``, in its order: all ids of a base
    matroid, the ids outside S of a contraction by S. Runs ceil(1/delta)
    steps. Each step estimates every candidate's derivative, then sweeps a
    threshold geometrically (factor 1 - delta) from the largest estimate
    down to delta/n of it, n the number of candidates (at least 2), adding
    elements whose fresh estimate clears the threshold while independence
    allows. The sweep is
    :func:`~submax.matroids.threshold_sweep`, which asks an independence
    question only while its answer is unknown and stops once the step's set
    reaches the matroid rank; neither shortcut changes an output or an
    estimator draw. The run keeps two tables, which live across its steps
    and no longer: the values of f on sets of at most one id, which its
    estimates ask only on first use (see ``_estimate``), and the sweep's
    answer tree, so a step that retraces an earlier step's picks reads the
    answers asked there instead of asking again. Both change only the query
    bill, never an estimate, an output or a draw. The estimates of one step
    draw their sample rows in blocks (see ``BLOCK_DOUBLES``); at the step's
    end the generator is rewound to just past the rows used, so ``rng``
    advances exactly as with one draw per estimate over the support of x
    (see :func:`estimate_marginal_F`). ``sample_scale`` rescales the
    per-estimate sample budget; 1.0 is the analysis-faithful count, which is
    far beyond interactive budgets on all but tiny instances. Delta must
    exceed 2**-54: at or below it, ``1 - delta`` rounds to 1.
    """
    delta = checked_real(delta, "delta", 0.0, 1.0, open_low=True, open_high=True)
    # at delta <= 2**-54, 1 - delta rounds to 1 and the sweep's threshold never falls
    checked_real(delta, "delta", 2.0 ** -54, open_low=True)
    c = checked_real(c, "c", 1.0)
    sample_scale = checked_real(sample_scale, "sample_scale", 0.0, open_low=True)
    if not f.monotone:
        raise InvalidInputError("continuous greedy requires a monotone objective")
    check_same_ground(f, M)
    ground_ids = list(M.ground())
    n_eff = max(len(ground_ids), 2)
    m = estimator_sample_count(c, n_eff, delta, sample_scale)
    steps = math.ceil(1.0 / delta)

    rank = matroid_rank(M)

    x = np.zeros(f.n)
    point = FractionalPoint(n=f.n)
    # f and M are fixed for the run, so these answers hold across its steps
    values: dict[tuple[int, ...], float] = {}
    answers: AnswerNode = ({}, {})
    for t in range(steps):
        step_weight = delta if t < steps - 1 else 1.0 - delta * (steps - 1)
        # x is fixed within a step, and only its estimates draw from rng
        with _SampleRows(x, rng) as rows:
            d_max = max(
                (max(0.0, _estimate(f, rows, u, m, values)) for u in ground_ids), default=0.0
            )
            # every threshold is positive, so a raw estimate clears it iff its clamp does
            base = threshold_sweep(
                M, ground_ids, rank, d_max, delta * d_max / n_eff, 1.0 - delta,
                lambda taken, u, w: _estimate(f, rows, u, m, values) >= w, answers,
            )
        point.weights.append(step_weight)
        point.bases.append(frozenset(base))
        for u in base:
            x[u] += step_weight
    return point


def swap_round(M: Matroid, x: FractionalPoint, rng: np.random.Generator) -> set[int]:
    """Round a convex combination of independent sets to a single one.

    The weights are first checked (one finite, non-negative weight per base;
    a zero weight's base is dropped), then every base id as an integer id of
    M's ground set. Bases are then padded to the rank by greedy completion
    in id order and merged pairwise: elements of the symmetric difference
    are exchanged with probability proportional to the accumulated weights,
    and each exchange is the first one that keeps both bases independent.
    No value oracle queries are made. One loop serves every matroid; its
    independence questions go through
    :func:`~submax.matroids.independence_test`.
    """
    pairs = [(w, set(b)) for w, b in zip(x._checked_weights(), x.bases) if w > 0.0]
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
