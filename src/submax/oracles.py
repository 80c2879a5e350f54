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

import copy
import itertools
import math
from collections.abc import Collection, Iterable
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .ledger import QueryLedger

ElementId = int
Subset = Collection[int]


class ValueOracle:
    """Base class: query charging, validation and cloning.

    Subclasses implement ``_value`` over an iterable of distinct ids and set
    ``monotone`` according to the function class.
    """

    monotone: bool = True

    def __init__(self, n: int, ledger: Optional[QueryLedger] = None):
        if n < 0:
            raise InvalidInputError("ground set size must be non-negative")
        self.n = n
        self.n_real = n
        self.ledger = ledger if ledger is not None else QueryLedger()

    def evaluate(self, members: Iterable[int]) -> float:
        """Return f(S), charging one value query."""
        self.ledger.charge_value(1)
        return self._value(members)

    def _value(self, members: Iterable[int]) -> float:
        raise NotImplementedError

    def _check_id(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise InvalidInputError(f"element id {u} outside ground set of size {self.n}")

    def with_ledger(self, ledger: QueryLedger) -> "ValueOracle":
        """Shallow clone bound to a fresh ledger (instance data is shared)."""
        clone = copy.copy(self)
        clone.ledger = ledger
        return clone

    def uncounted(self) -> "ValueOracle":
        """Clone whose queries are not visible to the run's ledger."""
        return self.with_ledger(QueryLedger())

    def ground(self) -> range:
        return range(self.n)


def marginal(f: ValueOracle, u: ElementId, S: Subset, cached_fS: Optional[float] = None) -> float:
    """f(u | S) = f(S + u) - f(S); one query when f(S) is supplied, two otherwise.

    ``u in S`` is allowed and yields 0 by idempotence of the set union.
    """
    if cached_fS is None:
        cached_fS = f.evaluate(S)
    members = set(S)
    members.add(u)
    return f.evaluate(members) - cached_fS


class CoverageOracle(ValueOracle):
    """Weighted coverage: f(S) = total weight of universe items covered by S."""

    monotone = True

    def __init__(
        self,
        sets: Sequence[Iterable[int]],
        universe_size: int,
        weights: Optional[Sequence[float]] = None,
        ledger: Optional[QueryLedger] = None,
    ):
        super().__init__(len(sets), ledger)
        if universe_size < 0:
            raise InvalidInputError("universe size must be non-negative")
        self.universe_size = universe_size
        masks = []
        for s in sets:
            mask = 0
            for item in s:
                if not 0 <= item < universe_size:
                    raise InvalidInputError(f"universe item {item} out of range")
                mask |= 1 << item
            masks.append(mask)
        self._masks = masks
        if weights is None:
            self._weights = None
        else:
            if len(weights) != universe_size:
                raise InvalidInputError("need one weight per universe item")
            if any(not 0.0 <= w < math.inf for w in weights):
                raise InvalidInputError("coverage weights must be finite and non-negative")
            w = [float(x) for x in weights]
            # popcount fast path when the weighting is trivial
            self._weights = None if all(x == 1.0 for x in w) else w

    def _value(self, members: Iterable[int]) -> float:
        mask = 0
        masks = self._masks
        n = self.n
        for u in members:
            if not 0 <= u < n:
                raise InvalidInputError(f"element id {u} outside ground set of size {n}")
            mask |= masks[u]
        if self._weights is None:
            return float(mask.bit_count())
        total = 0.0
        weights = self._weights
        item = 0
        while mask:
            if mask & 1:
                total += weights[item]
            mask >>= 1
            item += 1
        return total


class DirectedCutOracle(ValueOracle):
    """Directed cut: f(S) = total weight of arcs leaving S. Non-monotone."""

    monotone = False

    def __init__(
        self,
        n: int,
        arcs: Iterable[tuple[int, int, float]],
        ledger: Optional[QueryLedger] = None,
    ):
        super().__init__(n, ledger)
        out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (a, b, w) in arcs:
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidInputError("arc endpoint out of range")
            if not 0.0 <= w < math.inf:
                raise InvalidInputError("arc weights must be finite and non-negative")
            if a != b:
                out[a].append((b, float(w)))
        self._out = out

    def _value(self, members: Iterable[int]) -> float:
        n = self.n
        inside = set()
        for u in members:
            if not 0 <= u < n:
                raise InvalidInputError(f"element id {u} outside ground set of size {n}")
            inside.add(u)
        total = 0.0
        out = self._out
        for u in inside:
            for (v, w) in out[u]:
                if v not in inside:
                    total += w
        return total


class FacilityLocationOracle(ValueOracle):
    """Max facility location: f(S) = sum over clients of the best value in S."""

    monotone = True

    def __init__(self, values: Sequence[Sequence[float]], ledger: Optional[QueryLedger] = None):
        mat = np.asarray(values, dtype=float)
        if mat.ndim != 2:
            raise InvalidInputError("facility values must be a clients x facilities matrix")
        if not ((mat >= 0.0) & (mat < math.inf)).all():
            raise InvalidInputError("facility values must be finite and non-negative")
        super().__init__(mat.shape[1], ledger)
        self._values = mat

    def _value(self, members: Iterable[int]) -> float:
        n = self.n
        ids = []
        for u in members:
            if not 0 <= u < n:
                raise InvalidInputError(f"element id {u} outside ground set of size {n}")
            ids.append(u)
        if not ids:
            return 0.0
        return float(self._values[:, ids].max(axis=1).sum())


class ModularOracle(ValueOracle):
    """Additive function: f(S) = sum of per-element weights."""

    monotone = True

    def __init__(self, weights: Sequence[float], ledger: Optional[QueryLedger] = None):
        super().__init__(len(weights), ledger)
        if any(not 0.0 <= w < math.inf for w in weights):
            raise InvalidInputError("modular weights must be finite and non-negative")
        self._weights = [float(w) for w in weights]

    def _value(self, members: Iterable[int]) -> float:
        n = self.n
        weights = self._weights
        total = 0.0
        for u in members:
            if not 0 <= u < n:
                raise InvalidInputError(f"element id {u} outside ground set of size {n}")
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
        if n > 16:
            raise InvalidInputError("table oracles are meant for n <= 16")
        super().__init__(n, ledger)
        table = {}
        for members, value in entries.items():
            key = frozenset(members)
            if any(not 0 <= u < n for u in key):
                raise InvalidInputError("table entry outside ground set")
            table[key] = float(value)
        if len(table) != 2 ** n:
            raise InvalidInputError("table must define every subset")
        if any(not 0.0 <= v < math.inf for v in table.values()):
            raise InvalidInputError("table values must be finite and non-negative")
        self._table = table
        self.monotone = self._is_monotone()

    def _value(self, members: Iterable[int]) -> float:
        key = frozenset(members)
        for u in key:
            self._check_id(u)
        return self._table[key]

    def _is_monotone(self) -> bool:
        for members, value in self._table.items():
            for u in range(self.n):
                if u not in members and self._table[members | {u}] < value:
                    return False
        return True


class ResidualOracle(ValueOracle):
    """The shifted function f(. | S) for a fixed base set S.

    Each evaluation delegates one query to the wrapped oracle (the f(S) term
    is cached at construction, costing a single query there).
    """

    def __init__(self, base: ValueOracle, S: Subset):
        self._base = base
        self._anchor = sorted(set(S))
        self._f_anchor = base.evaluate(self._anchor)
        self.n = base.n
        self.n_real = base.n_real
        self.ledger = base.ledger
        self.monotone = base.monotone

    def evaluate(self, members: Iterable[int]) -> float:
        combined = list(members)
        combined.extend(self._anchor)
        return self._base.evaluate(combined) - self._f_anchor

    def with_ledger(self, ledger: QueryLedger) -> "ResidualOracle":
        clone = copy.copy(self)
        clone._base = self._base.with_ledger(ledger)
        clone.ledger = ledger
        return clone


def make_coverage(
    sets: Sequence[Iterable[int]],
    universe_size: int,
    weights: Optional[Sequence[float]] = None,
    ledger: Optional[QueryLedger] = None,
) -> CoverageOracle:
    return CoverageOracle(sets, universe_size, weights, ledger)


def make_directed_cut(
    n: int, arcs: Iterable[tuple[int, int, float]], ledger: Optional[QueryLedger] = None
) -> DirectedCutOracle:
    return DirectedCutOracle(n, arcs, ledger)


def make_facility_location(
    values: Sequence[Sequence[float]], ledger: Optional[QueryLedger] = None
) -> FacilityLocationOracle:
    return FacilityLocationOracle(values, ledger)


def make_modular(weights: Sequence[float], ledger: Optional[QueryLedger] = None) -> ModularOracle:
    return ModularOracle(weights, ledger)


def make_table(
    n: int, entries: dict[frozenset[int], float], ledger: Optional[QueryLedger] = None
) -> TableOracle:
    return TableOracle(n, entries, ledger)


def check_submodular(f: ValueOracle, max_n: int = 12) -> bool:
    """Exhaustively verify f(u | A) >= f(u | B) for all A subseteq B, u notin B.

    Uses an uncounted clone; intended for small fixtures only.
    """
    if f.n > max_n:
        raise InvalidInputError(f"exhaustive check limited to n <= {max_n}")
    probe = f.uncounted()
    values = _all_values(probe)
    ground = list(range(f.n))
    for b_members, b_value in values.items():
        for u in ground:
            if u in b_members:
                continue
            gain_b = values[b_members | {u}] - b_value
            for a_members in _subsets_of(b_members):
                gain_a = values[a_members | {u}] - values[a_members]
                if gain_a < gain_b - 1e-9:
                    return False
    return True


def check_monotone(f: ValueOracle, max_n: int = 12) -> bool:
    """Exhaustively verify f(u | S) >= 0 everywhere."""
    if f.n > max_n:
        raise InvalidInputError(f"exhaustive check limited to n <= {max_n}")
    probe = f.uncounted()
    values = _all_values(probe)
    for members, value in values.items():
        for u in range(f.n):
            if u not in members and values[members | {u}] < value - 1e-9:
                return False
    return True


def sample_correlated_subset(A: Subset, p: float, rng: np.random.Generator) -> set[int]:
    """Independent-inclusion A(p): keep each element of A with probability p."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError("inclusion probability must be in [0, 1]")
    if p == 0.0:
        return set()
    items = sorted(A)
    if p == 1.0:
        return set(items)
    draws = rng.random(len(items))
    return {u for u, d in zip(items, draws) if d < p}


def _all_values(probe: ValueOracle) -> dict[frozenset[int], float]:
    ground = list(range(probe.n))
    values = {}
    for r in range(len(ground) + 1):
        for combo in itertools.combinations(ground, r):
            values[frozenset(combo)] = probe.evaluate(combo)
    return values


def _subsets_of(members: frozenset[int]) -> Iterable[frozenset[int]]:
    items = sorted(members)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)
