"""Counted value oracles and the submodular test-function zoo.

An oracle evaluates a non-negative submodular set function over ground set
``{0, ..., n - 1}``. Every ``evaluate`` call charges exactly one value query
to the attached :class:`~submax.ledger.QueryLedger`; algorithms that keep the
current solution's value cached therefore pay one query per marginal.

Elements are plain ints. Callers pass subsets as iterables of *distinct*
element ids (sets, sorted lists, numpy index arrays); oracles never mutate
them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Collection, Iterable
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .ledger import Counted, PrefixCached, QueryLedger, View, checked_int

ElementId = int
Subset = Collection[int]


class ValueOracle(Counted):
    """Base class of value oracles: every ``evaluate`` charges one value query.

    Subclasses implement ``_value`` over an iterable of distinct ids and set
    ``monotone`` according to the function class.
    """

    monotone: bool = True

    def evaluate(self, members: Iterable[int]) -> float:
        """Return f(S), charging one value query."""
        self.ledger.charge_value()
        return self._value(members)

    def _value(self, members: Iterable[int]) -> float:
        raise NotImplementedError


def members_with(solution: set[int], ordered: list[int], u: ElementId) -> list[int]:
    """Distinct member list for f(S + u); ``ordered`` is a cached list of S."""
    if u in solution:
        return ordered
    return ordered + [u]


class CoverageOracle(PrefixCached, ValueOracle):
    """Weighted coverage: f(S) = total weight of universe items covered by S.

    Answers through :class:`~submax.ledger.PrefixCached`; the state of a
    prefix is its union mask, and ``P`` plus ``u`` ORs one mask. A prefix
    one id longer than ``P`` is rebuilt, not grown: coverage queries almost
    never take that path. A value is always taken from a final mask, so a
    cached answer equals a fresh one bit for bit.
    """

    monotone = True

    def __init__(
        self,
        sets: Sequence[Iterable[int]],
        universe_size: int,
        weights: Optional[Sequence[float]] = None,
        ledger: Optional[QueryLedger] = None,
    ):
        super().__init__(len(sets), ledger)
        universe_size = checked_int(universe_size, "universe")
        self.universe_size = universe_size
        masks = []
        for i, s in enumerate(sets):
            mask = 0
            try:
                for item in s:
                    if not 0 <= item < universe_size:
                        raise InvalidInputError(f"sets[{i}] item {item} out of range")
                    mask |= 1 << item
            except TypeError:
                raise InvalidInputError(
                    f"sets[{i}] must list integer universe items, got {s!r}"
                ) from None
            masks.append(mask)
        self._masks = masks
        if weights is None:
            self._weights = None
        else:
            if len(weights) != universe_size:
                raise InvalidInputError("weights must hold one weight per universe item")
            _check_weights(weights, "coverage weights")
            w = [float(x) for x in weights]
            # popcount fast path when the weighting is trivial
            self._weights = None if all(x == 1.0 for x in w) else w
        self._cache([])

    def _cache(self, prefix: list[int]) -> tuple[list[int], float, int]:
        masks = self._masks
        n = self.n
        mask = 0
        for u in prefix:
            try:
                if not 0 <= u < n:
                    self._check_id(u)
                mask |= masks[u]
            except TypeError:
                mask |= masks[self._check_id(u)]
        # popcount inline on the unweighted path: a call costs more than it
        value = float(mask.bit_count()) if self._weights is None else self._weighted(mask)
        self._prefix = (prefix, value, mask)
        return self._prefix

    def _extend(self, cache: tuple[list[int], float, int], u: int) -> float:
        mask = cache[2] | self._masks[u]
        return float(mask.bit_count()) if self._weights is None else self._weighted(mask)

    def _weighted(self, mask: int) -> float:
        """Total weight of the items in ``mask``, summed in item order."""
        total = 0.0
        weights = self._weights
        item = 0
        while mask:
            if mask & 1:
                total += weights[item]
            mask >>= 1
            item += 1
        return total


class DirectedCutOracle(PrefixCached, ValueOracle):
    """Directed cut: f(S) = total weight of arcs leaving S. Non-monotone.

    Arc weights are kept as exact ints over one common power-of-two
    denominator (every finite float is such a ratio), summed as ints and
    divided once, so a value is the correctly rounded sum of the weights it
    counts, whichever way it was reached. Integral weights give exactly the
    float sum.

    Answers through :class:`~submax.ledger.PrefixCached`; the state of a
    prefix ``P`` is ``(gain, total)``, where ``total`` is f(P) before the
    division, ``gain[x] = -(w(x -> P) + w(P -> x))`` for ``x`` outside
    ``P`` and ``gain[x]`` is None for ``x`` in ``P``. ``P`` plus ``u`` is
    then ``total + out(u) + gain[u]``, where ``out(u)`` is the weight of
    all of ``u``'s out-arcs, or ``f(P)`` when ``u`` is in ``P``: one lookup
    per query. Growing ``P`` by one appended ``v`` adds that to ``total``,
    marks ``v`` and subtracts the weight of each arc between ``v`` and an
    outside ``x`` from ``gain[x]``, on a copy of ``gain``; a rebuild grows
    the empty prefix by each of its ids in place. Membership is read from
    ``gain``, so a grown prefix copies one list and no set. Each node keeps
    the other ends and weights of its arcs, both directions, in two
    parallel lists that share the weight ints.
    """

    monotone = False

    def __init__(
        self,
        n: int,
        arcs: Iterable[tuple[int, int, float]],
        ledger: Optional[QueryLedger] = None,
    ):
        super().__init__(n, ledger)
        kept = []
        for i, arc in enumerate(arcs):
            try:
                a, b, w = arc
                a, b = operator.index(a), operator.index(b)
                finite = 0.0 <= w < math.inf
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"arcs[{i}] must be [tail, head, weight] with integer endpoints, got {arc!r}"
                ) from None
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidInputError(f"arcs[{i}] endpoint out of range")
            if not finite:
                raise InvalidInputError("arc weights must be finite and non-negative")
            if a != b:
                kept.append((a, b, *float(w).as_integer_ratio()))
        # the denominators are powers of two, so the largest is a common one
        denom = max((d for *_, d in kept), default=1)
        ends: list[list[int]] = [[] for _ in range(n)]
        weights: list[list[int]] = [[] for _ in range(n)]
        out_total = [0] * n
        for a, b, num, d in kept:
            w = num * (denom // d)
            ends[a].append(b)
            weights[a].append(w)
            ends[b].append(a)
            weights[b].append(w)
            out_total[a] += w
        self._ends = ends
        self._arc_weights = weights
        self._out_total = out_total
        self._denom = denom
        self._cache([])

    def _cache(self, prefix: list[int]) -> tuple[list[int], float, list, int]:
        gain: list = [0] * self.n
        total = 0
        for v in map(self._check_id, prefix):
            if gain[v] is not None:
                total = self._join(gain, total, v)
        self._prefix = (prefix, total / self._denom, gain, total)
        return self._prefix

    def _grow(self, cache: tuple[list[int], float, list, int], prefix: list[int], v: int) -> tuple:
        _, answer, gain, total = cache
        if gain[v] is None:
            self._prefix = (prefix, answer, gain, total)
        else:
            gain = gain.copy()
            total = self._join(gain, total, v)
            self._prefix = (prefix, total / self._denom, gain, total)
        return self._prefix

    def _join(self, gain: list, total: int, v: int) -> int:
        """Move ``v`` into the prefix whose ``gain`` list (updated in place) and total are given.

        Returns the new total; ``v`` must be outside the prefix.
        """
        total += self._out_total[v] + gain[v]
        gain[v] = None
        for x, w in zip(self._ends[v], self._arc_weights[v]):
            g = gain[x]
            if g is not None:
                gain[x] = g - w
        return total

    def _extend(self, cache: tuple[list[int], float, list, int], u: int) -> float:
        g = cache[2][u]
        if g is None:
            return cache[1]
        return (cache[3] + self._out_total[u] + g) / self._denom


class FacilityLocationOracle(PrefixCached, ValueOracle):
    """Max facility location: f(S) = sum over clients of the best value in S.

    Only the facilities x clients matrix is kept, so each facility's values
    are one contiguous row. Answers through
    :class:`~submax.ledger.PrefixCached`; the state of a prefix ``P`` is its
    per-client best, None for the empty prefix, and ``P`` plus ``u`` sums
    ``max(best, row u)``; growing ``P`` by one id takes that same
    ``np.maximum``. Max is exact and every sum runs over one contiguous
    per-client vector, so a cached answer equals a fresh one bit for bit.
    """

    monotone = True

    def __init__(self, values: Sequence[Sequence[float]], ledger: Optional[QueryLedger] = None):
        try:
            # column-major, so that the facility-major rows below are a view
            mat = np.asarray(values, dtype=float, order="F")
        except (TypeError, ValueError):
            raise InvalidInputError(
                "facility values must be a clients x facilities matrix of numbers"
            ) from None
        if mat.ndim != 2:
            raise InvalidInputError("facility values must be a clients x facilities matrix")
        if not ((mat >= 0.0) & (mat < math.inf)).all():
            raise InvalidInputError("facility values must be finite and non-negative")
        super().__init__(mat.shape[1], ledger)
        self._rows = np.ascontiguousarray(mat.T)
        self._cache([])

    def _cache(self, prefix: list[int]) -> tuple[list[int], float, Optional[np.ndarray]]:
        # integer ids: numpy would read bools as a mask
        ids = [self._check_id(u) for u in prefix]
        best = self._rows[ids].max(axis=0) if ids else None
        self._prefix = (prefix, 0.0 if best is None else float(best.sum()), best)
        return self._prefix

    def _grow(
        self, cache: tuple[list[int], float, Optional[np.ndarray]], prefix: list[int], v: int
    ) -> tuple:
        best = cache[2]
        row = self._rows[v]
        best = row if best is None else np.maximum(best, row)
        self._prefix = (prefix, float(best.sum()), best)
        return self._prefix

    def _extend(self, cache: tuple[list[int], float, Optional[np.ndarray]], u: int) -> float:
        best = cache[2]
        row = self._rows[u]
        return float((row if best is None else np.maximum(best, row)).sum())


class ModularOracle(ValueOracle):
    """Additive function: f(S) = sum of per-element weights."""

    monotone = True

    def __init__(self, weights: Sequence[float], ledger: Optional[QueryLedger] = None):
        super().__init__(len(weights), ledger)
        _check_weights(weights, "modular weights")
        self._weights = [float(w) for w in weights]

    def _value(self, members: Iterable[int]) -> float:
        n = self.n
        weights = self._weights
        total = 0.0
        for u in members:
            # a plain int in range skips the call: anything else meets the id rule
            if u.__class__ is not int or not 0 <= u < n:
                u = self._check_id(u)
            total += weights[u]
        return total


class TableOracle(ValueOracle):
    """Explicit lookup table over all 2^n subsets (test fixtures, n <= 16)."""

    def __init__(
        self,
        n: int,
        entries: dict[frozenset[int], float],
        ledger: Optional[QueryLedger] = None,
    ):
        super().__init__(n, ledger)
        if n > 16:
            raise InvalidInputError("table oracles are meant for n <= 16")
        table = {}
        for i, (members, value) in enumerate(entries.items()):
            table[self._id_set(members, f"entries[{i}]")] = float(value)
        if len(table) != 2 ** n:
            raise InvalidInputError("entries must define every subset")
        _check_weights(table.values(), "table values")
        self._table = table
        self.monotone = self._is_monotone()

    def _value(self, members: Iterable[int]) -> float:
        return self._table[frozenset(map(self._check_id, members))]

    def _is_monotone(self) -> bool:
        for members, value in self._table.items():
            for u in range(self.n):
                if u not in members and self._table[members | {u}] < value:
                    return False
        return True


class ResidualOracle(View, ValueOracle):
    """The shifted function f(. | S) for a fixed base set S.

    Each evaluation delegates one query to the wrapped oracle (the f(S) term
    is cached at construction, costing a single query there). The query
    lists the sorted anchor S first, then the members in their order, so
    the estimator's pair, R + u then R, reaches the base as a query and its
    members-but-last, which the base's prefix cache answers. With an empty
    anchor the caller's members are forwarded as given, uncopied: no
    handle keeps a caller's list (a prefix cache stores its own copy).
    """

    def __init__(self, base: ValueOracle, S: Subset):
        super().__init__(base)
        self._anchor = sorted(set(S))
        self._f_anchor = base.evaluate(self._anchor)
        self.monotone = base.monotone

    def evaluate(self, members: Iterable[int]) -> float:
        if self._anchor:
            members = [*self._anchor, *members]
        return self._base.evaluate(members) - self._f_anchor


def _check_weights(weights: Iterable[float], field: str) -> None:
    try:
        ok = all(0.0 <= w < math.inf for w in weights)
    except TypeError:
        ok = False
    if not ok:
        raise InvalidInputError(f"{field} must be finite non-negative numbers")
