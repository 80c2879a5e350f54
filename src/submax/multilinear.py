"""Multilinear-extension machinery.

Sampling estimator for directional derivatives of F(x) = E[f(R(x))], the
decreasing-threshold continuous greedy that consumes it, and randomized swap
rounding of the resulting convex combination of bases. Swap rounding never
touches the value oracle, and on a generalized partition matroid it answers
independence from block counts without an independence query.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError
from .matroids import Matroid, matroid_rank, threshold_sweep
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
    queries. The raw (unclamped) mean is returned so the estimator stays
    unbiased; callers that rely on monotonicity clamp at zero themselves.
    Raises :class:`InvalidInputError` before any draw or query when ``u`` is
    not an id of f's ground set or ``x`` is not a point of ``[0, 1]^n``.
    """
    if m < 1:
        raise InvalidInputError("need at least one sample")
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
    return _estimate(f, x_vec, u, int(m), rng)


def _estimate(f: ValueOracle, x_vec: np.ndarray, u: int, m: int, rng: np.random.Generator) -> float:
    """The paired-sample loop of :func:`estimate_marginal_F`, without its checks.

    Each pair asks f(R + u) first, then f(R). The second query is the first
    one's members-but-last, so a prefix-cached oracle answers it from the
    cache the first one left.
    """
    inclusion = rng.random((m, x_vec.shape[0])) < x_vec
    inclusion[:, u] = False
    total = 0.0
    evaluate = f.evaluate
    for row in inclusion:
        ids = row.nonzero()[0].tolist()
        ids.append(u)
        with_u = evaluate(ids)
        ids.pop()
        total += with_u - evaluate(ids)
    return total / m


def estimator_sample_count(c: float, n: int, delta: float, sample_scale: float = 1.0) -> int:
    """m = ceil(scale * c * ln(n) / delta^2), floored at one sample."""
    n_eff = max(n, 2)
    return max(1, math.ceil(sample_scale * c * math.log(n_eff) / delta ** 2))


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
    estimator draw. ``sample_scale`` rescales the per-estimate sample
    budget; 1.0 is the analysis-faithful count, which is far beyond
    interactive budgets on all but tiny instances.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidInputError("delta must be in (0, 1)")
    if c < 1.0:
        raise InvalidInputError("scale constant c must be at least 1")
    if not f.monotone:
        raise InvalidInputError("continuous greedy requires a monotone objective")
    if ground is None:
        ground_ids = list(M.ground())
    else:
        ground_ids = sorted(ground)
    n_eff = max(len(ground_ids), 2)
    m = estimator_sample_count(c, n_eff, delta, sample_scale)
    steps = math.ceil(1.0 / delta)

    rank = matroid_rank(M)

    x = np.zeros(f.n)
    point = FractionalPoint(n=f.n)
    for t in range(steps):
        step_weight = delta if t < steps - 1 else 1.0 - delta * (steps - 1)
        d_max = max((max(0.0, _estimate(f, x, u, m, rng)) for u in ground_ids), default=0.0)
        # every threshold is positive, so a raw estimate clears it iff its clamp does
        base = threshold_sweep(
            M, ground_ids, rank, d_max, delta * d_max / n_eff, 1.0 - delta,
            lambda taken, u, w: _estimate(f, x, u, m, rng) >= w,
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
    queries are made. One loop serves every matroid; on a generalized
    partition matroid it answers independence from block counts against
    the capacities and makes no oracle call at all.
    """
    pairs = [(float(w), set(b)) for w, b in zip(x.weights, x.bases) if w > 0.0]
    if not pairs:
        raise InvalidInputError("decomposition must be non-empty")
    structure = M.partition_structure()
    independent = M.is_independent if structure is None else _block_counts(*structure)
    for _, base in pairs:
        for u in base:
            M._check_id(u)
        if not independent(sorted(base)):
            raise InvalidInputError("dependent base in decomposition")
    if structure is None:
        target = matroid_rank(M)
    else:
        target = sum(min(c, len(blk)) for blk, c in zip(*structure))
    for _, base in pairs:
        _greedy_complete(independent, M.ground(), base, target)
    merged_w, merged = pairs[0]
    for w_i, b_i in pairs[1:]:
        merged = _merge_general(independent, merged, merged_w, b_i, w_i, rng)
        merged_w += w_i
    return merged


def _block_counts(blocks: list[list[int]], caps: list[int]) -> Callable[[list[int]], bool]:
    """Independence in a generalized partition matroid, read from block counts.

    Asks no oracle; an id in no block is a loop.
    """
    block_of = {u: j for j, blk in enumerate(blocks) for u in blk}

    def independent(members: list[int]) -> bool:
        counts = [0] * len(caps)
        for u in members:
            j = block_of.get(u)
            if j is None or counts[j] >= caps[j]:
                return False
            counts[j] += 1
        return True

    return independent


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
