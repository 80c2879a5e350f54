"""Multilinear-extension machinery.

Sampling estimator for directional derivatives of F(x) = E[f(R(x))], the
decreasing-threshold continuous greedy that consumes it, and randomized swap
rounding of the resulting convex combination of bases. Swap rounding never
touches the value oracle; the partition fast path also avoids independence
queries entirely.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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
    inclusion = rng.random((m, x_vec.shape[0])) < x_vec
    inclusion[:, u] = False
    total = 0.0
    evaluate = f.evaluate
    for row in inclusion:
        # f(R - u), then f(R - u + u): the second query extends the first by one id
        ids = row.nonzero()[0].tolist()
        without_u = evaluate(ids)
        ids.append(u)
        total += evaluate(ids) - without_u
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

    Bases are first padded to a common rank by greedy completion, then merged
    pairwise: elements of the symmetric difference are exchanged with
    probability proportional to the accumulated weights. No value oracle
    queries are made. Generalized partition matroids make no oracle call at
    all: bases are checked by block counts against the capacities and merged
    by block-indexed exchanges. General matroids search for a feasible
    exchange through the independence oracle.
    """
    pairs = [(float(w), set(b)) for w, b in zip(x.weights, x.bases) if w > 0.0]
    if not pairs:
        raise InvalidInputError("decomposition must be non-empty")
    structure = M.partition_structure()
    if structure is not None:
        blocks, caps = structure
        block_of: dict[int, int] = {}
        for j, blk in enumerate(blocks):
            for u in blk:
                block_of[u] = j
        for _, base in pairs:
            counts = [0] * len(blocks)
            for u in base:
                if u not in block_of:
                    raise InvalidInputError(f"element id {u} outside ground set of size {M.n}")
                counts[block_of[u]] += 1
            if any(have > cap for have, cap in zip(counts, caps)):
                raise InvalidInputError("dependent base in decomposition")
        _pad_partition(pairs, blocks, caps)
        merged_w, merged = pairs[0]
        for w_i, b_i in pairs[1:]:
            merged = _merge_partition(merged, merged_w, b_i, w_i, rng, block_of)
            merged_w += w_i
        return merged

    for w, base in pairs:
        if not M.is_independent(sorted(base)):
            raise InvalidInputError("dependent base in decomposition")
    target = matroid_rank(M)
    for _, base in pairs:
        _greedy_complete(M, base, target)
    merged_w, merged = pairs[0]
    for w_i, b_i in pairs[1:]:
        merged = _merge_general(M, merged, merged_w, b_i, w_i, rng)
        merged_w += w_i
    return merged


def _greedy_complete(M: Matroid, base: set[int], target: int) -> None:
    if len(base) >= target:
        return
    members = sorted(base)
    for u in M.ground():
        if len(base) >= target:
            return
        if u in base:
            continue
        members.append(u)
        if M.is_independent(members):
            base.add(u)
        else:
            members.pop()


def _merge_general(
    M: Matroid, B1: set[int], w1: float, B2: set[int], w2: float, rng: np.random.Generator
) -> set[int]:
    bias = w1 / (w1 + w2)
    while B1 != B2:
        i = min(B1 - B2)
        j = _find_exchange(M, B1, B2, i)
        if rng.random() < bias:
            B2.discard(j)
            B2.add(i)
        else:
            B1.discard(i)
            B1.add(j)
    return B1


def _find_exchange(M: Matroid, B1: set[int], B2: set[int], i: int) -> int:
    b1_minus = sorted(B1 - {i})
    for j in sorted(B2 - B1):
        if M.is_independent(b1_minus + [j]) and M.is_independent(sorted(B2 - {j}) + [i]):
            return j
    raise InvalidInputError("no feasible exchange: decomposition bases are inconsistent")


def _pad_partition(
    pairs: list[tuple[float, set[int]]], blocks: list[list[int]], caps: list[int]
) -> None:
    # fill every base to the block-wise maximum so all bases have equal rank
    for _, base in pairs:
        for j, blk in enumerate(blocks):
            quota = min(caps[j], len(blk))
            have = sum(1 for u in blk if u in base)
            if have >= quota:
                continue
            for u in blk:
                if have >= quota:
                    break
                if u not in base:
                    base.add(u)
                    have += 1


def _merge_partition(
    B1: set[int],
    w1: float,
    B2: set[int],
    w2: float,
    rng: np.random.Generator,
    block_of: dict[int, int],
) -> set[int]:
    bias = w1 / (w1 + w2)
    only1: dict[int, set[int]] = {}
    only2: dict[int, set[int]] = {}
    for u in B1 - B2:
        only1.setdefault(block_of[u], set()).add(u)
    for u in B2 - B1:
        only2.setdefault(block_of[u], set()).add(u)
    while any(only1.values()):
        i = min(u for s in only1.values() for u in s)
        blk = block_of[i]
        j = min(only2[blk])
        if rng.random() < bias:
            B2.discard(j)
            B2.add(i)
            only2[blk].discard(j)
            only1[blk].discard(i)
        else:
            B1.discard(i)
            B1.add(j)
            only1[blk].discard(i)
            only2[blk].discard(j)
    return B1

