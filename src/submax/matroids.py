"""Counted matroid independence oracles.

Every ``is_independent`` call charges exactly one independence query to the
attached ledger. Views (contraction, rank caps, dummy augmentation) never
double-charge: a view query costs exactly one underlying query, and answers
that a view can decide from bookkeeping alone (size caps, dummy logic) are
still charged one query so that measured counts upper-bound real oracle
usage.
"""

from __future__ import annotations

import copy
import itertools
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidInputError
from .ledger import QueryLedger
from .oracles import Subset, ValueOracle


class Matroid:
    def __init__(self, n: int, ledger: Optional[QueryLedger] = None):
        if n < 0:
            raise InvalidInputError("ground set size must be non-negative")
        self.n = n
        self.ledger = ledger if ledger is not None else QueryLedger()

    def is_independent(self, members: Iterable[int]) -> bool:
        self.ledger.charge_independence(1)
        return self._indep(members)

    def _indep(self, members: Iterable[int]) -> bool:
        raise NotImplementedError

    def _check_id(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise InvalidInputError(f"element id {u} outside ground set of size {self.n}")

    def with_ledger(self, ledger: QueryLedger) -> "Matroid":
        clone = copy.copy(self)
        clone.ledger = ledger
        return clone

    def uncounted(self) -> "Matroid":
        return self.with_ledger(QueryLedger())

    def ground(self) -> range:
        return range(self.n)

    def partition_structure(self) -> Optional[tuple[list[list[int]], list[int]]]:
        """(blocks, capacities) when this handle is a generalized partition matroid."""
        return None


class UniformMatroid(Matroid):
    def __init__(self, n: int, k: int, ledger: Optional[QueryLedger] = None):
        super().__init__(n, ledger)
        if k < 0:
            raise InvalidInputError("rank bound must be non-negative")
        self.k = k

    def _indep(self, members: Iterable[int]) -> bool:
        count = 0
        for u in members:
            self._check_id(u)
            count += 1
            if count > self.k:
                return False
        return True

    def partition_structure(self):
        return ([list(range(self.n))], [self.k])


class PartitionMatroid(Matroid):
    """Generalized partition matroid: at most ``capacities[j]`` elements per block."""

    def __init__(
        self,
        blocks: Sequence[Iterable[int]],
        capacities: Sequence[int],
        ledger: Optional[QueryLedger] = None,
    ):
        blocks = [sorted(b) for b in blocks]
        if len(blocks) != len(capacities):
            raise InvalidInputError("need one capacity per block")
        if any(c < 0 for c in capacities):
            raise InvalidInputError("capacities must be non-negative")
        all_ids = [u for b in blocks for u in b]
        n = len(all_ids)
        if sorted(all_ids) != list(range(n)):
            raise InvalidInputError("blocks must partition {0, ..., n-1}")
        super().__init__(n, ledger)
        self.blocks = blocks
        self.capacities = [int(c) for c in capacities]
        self._block_of = [0] * n
        for j, b in enumerate(blocks):
            for u in b:
                self._block_of[u] = j

    def _indep(self, members: Iterable[int]) -> bool:
        counts = [0] * len(self.blocks)
        block_of = self._block_of
        caps = self.capacities
        n = self.n
        for u in members:
            if not 0 <= u < n:
                raise InvalidInputError(f"element id {u} outside ground set of size {n}")
            j = block_of[u]
            counts[j] += 1
            if counts[j] > caps[j]:
                return False
        return True

    def partition_structure(self):
        return ([list(b) for b in self.blocks], list(self.capacities))


class GraphicMatroid(Matroid):
    """Forests of an undirected multigraph; ground set elements are edge ids.

    Each instance caches the union-find result of the previous query's
    prefix (all members but the last): a component label per vertex, or
    ``None`` when the prefix holds a cycle. A query that extends the cached
    prefix by one edge is answered in O(1) by comparing the labels of that
    edge's endpoints; a query equal to the prefix reads the cached flag; any
    other query runs the union-find from scratch and replaces the cache.
    Answers and charges are unchanged: every call still charges one query
    and independence does not depend on member order. An id outside the
    ground set raises wherever it sits in the query, and a prefix is cached
    only after all of its ids passed that check. The cache is one
    tuple, replaced whole and never mutated, so clones sharing it and
    threads sharing the instance never see a torn state.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Sequence[tuple[int, int]],
        ledger: Optional[QueryLedger] = None,
    ):
        try:
            num_vertices = operator.index(num_vertices)
        except TypeError:
            raise InvalidInputError(
                f"vertices must be an integer, got {num_vertices!r}"
            ) from None
        if num_vertices < 0:
            raise InvalidInputError("vertices must be non-negative")
        checked = []
        for i, edge in enumerate(edges):
            try:
                a, b = map(operator.index, edge)
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"edges[{i}] must be a pair of integer vertex ids, got {edge!r}"
                ) from None
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise InvalidInputError(f"edges[{i}] endpoint out of range")
            checked.append((a, b))
        super().__init__(len(checked), ledger)
        self.num_vertices = num_vertices
        self.edges = checked
        self._prefix_labels: tuple[tuple[int, ...], Optional[tuple[int, ...]]] = (
            (),
            tuple(range(num_vertices)),
        )

    def _indep(self, members: Iterable[int]) -> bool:
        query = tuple(members)
        if not query:
            return True
        prefix, labels = self._prefix_labels
        if query[:-1] != prefix:
            if query == prefix:
                return labels is not None
            prefix = query[:-1]
            labels = self._component_labels(prefix)
            self._prefix_labels = (prefix, labels)
        last = query[-1]
        self._check_id(last)
        if labels is None:
            return False
        a, b = self.edges[last]
        return labels[a] != labels[b]

    def _component_labels(self, prefix: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """Union-find over ``prefix``: each vertex's root, or None on a cycle."""
        for e in prefix:
            self._check_id(e)
        parent = list(range(self.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in prefix:
            a, b = self.edges[e]
            ra, rb = find(a), find(b)
            if ra == rb:
                return None
            parent[ra] = rb
        return tuple(find(v) for v in range(self.num_vertices))


class ExplicitMatroid(Matroid):
    """Independence family given extensionally (test fixtures; may be a non-matroid)."""

    def __init__(
        self,
        n: int,
        independent_sets: Iterable[Iterable[int]],
        ledger: Optional[QueryLedger] = None,
    ):
        if n > 16:
            raise InvalidInputError("explicit matroids are meant for n <= 16")
        super().__init__(n, ledger)
        family = set()
        for s in independent_sets:
            fs = frozenset(s)
            if any(not 0 <= u < n for u in fs):
                raise InvalidInputError("independent set outside ground set")
            family.add(fs)
        self._family = family

    def _indep(self, members: Iterable[int]) -> bool:
        key = frozenset(members)
        for u in key:
            self._check_id(u)
        return key in self._family


class ContractedMatroid(Matroid):
    """The matroid M / S: T is independent iff S + T is independent in M.

    Queries reach the base anchor first, as ``S + T``, so that queries which
    grow T by one element extend one prefix; the graphic oracle answers
    those from its cache.
    """

    def __init__(self, base: Matroid, S: Subset):
        contracted = sorted(set(S))
        for u in contracted:
            if not 0 <= u < base.n:
                raise InvalidInputError("contracted element outside ground set")
        if contracted and not base.is_independent(contracted):
            raise InvalidInputError("can only contract an independent set")
        self.n = base.n
        self.ledger = base.ledger
        self._base = base
        self._contracted = contracted
        self._contracted_set = set(contracted)

    def is_independent(self, members: Iterable[int]) -> bool:
        combined = list(self._contracted)
        combined.extend(members)
        return self._base.is_independent(combined)

    def with_ledger(self, ledger: QueryLedger) -> "ContractedMatroid":
        clone = copy.copy(self)
        clone._base = self._base.with_ledger(ledger)
        clone.ledger = ledger
        return clone

    def ground(self) -> list[int]:
        return [u for u in range(self.n) if u not in self._contracted_set]


class RankCappedMatroid(Matroid):
    """Truncation view: independent iff |T| <= cap and independent in the base."""

    def __init__(self, base: Matroid, cap: int):
        if cap < 0:
            raise InvalidInputError("rank cap must be non-negative")
        self.n = base.n
        self.ledger = base.ledger
        self._base = base
        self.cap = cap

    def is_independent(self, members: Iterable[int]) -> bool:
        listed = list(members)
        if len(listed) > self.cap:
            # decidable from the cap alone; still charged (conservative accounting)
            self.ledger.charge_independence(1)
            return False
        return self._base.is_independent(listed)

    def with_ledger(self, ledger: QueryLedger) -> "RankCappedMatroid":
        clone = copy.copy(self)
        clone._base = self._base.with_ledger(ledger)
        clone.ledger = ledger
        return clone

    def ground(self):
        return self._base.ground()


def contract(M: Matroid, S: Subset) -> ContractedMatroid:
    return ContractedMatroid(M, S)


class DummyValueOracle(ValueOracle):
    """f'(S) = f(S minus dummies); every call charges one base value query."""

    def __init__(self, base: ValueOracle, d: int):
        self._base = base
        self.n = base.n + d
        self.n_real = base.n
        self.ledger = base.ledger
        self.monotone = base.monotone

    def evaluate(self, members: Iterable[int]) -> float:
        n_real, n = self.n_real, self.n
        real = []
        for u in members:
            if not 0 <= u < n:
                raise InvalidInputError(f"element id {u} outside ground set of size {n}")
            if u < n_real:
                real.append(u)
        return self._base.evaluate(real)

    def with_ledger(self, ledger: QueryLedger) -> "DummyValueOracle":
        clone = copy.copy(self)
        clone._base = self._base.with_ledger(ledger)
        clone.ledger = ledger
        return clone


class DummyAugmentedMatroid(Matroid):
    """S independent iff S minus dummies is independent in the base and |S| <= k."""

    def __init__(self, base: Matroid, d: int, k: int):
        self.n = base.n + d
        self.n_real = base.n
        self.ledger = base.ledger
        self._base = base
        self.k = k

    def is_independent(self, members: Iterable[int]) -> bool:
        n_real, n = self.n_real, self.n
        real = []
        size = 0
        for u in members:
            if not 0 <= u < n:
                raise InvalidInputError(f"element id {u} outside ground set of size {n}")
            size += 1
            if u < n_real:
                real.append(u)
        if size > self.k:
            # dummy logic alone decides, but the query is charged anyway
            self.ledger.charge_independence(1)
            return False
        return self._base.is_independent(real)

    def with_ledger(self, ledger: QueryLedger) -> "DummyAugmentedMatroid":
        clone = copy.copy(self)
        clone._base = self._base.with_ledger(ledger)
        clone.ledger = ledger
        return clone


@dataclass
class DummyAugmentedProblem:
    """Ground set extended by zero-value dummy elements.

    The matroid part is present for the matroid-constrained variant (rank cap
    ``k``; dummies make every independent set extendable to a base) and absent
    for the plain cardinality variant.
    """

    f: ValueOracle
    matroid: Optional[Matroid]
    n_real: int
    d: int

    @property
    def n_total(self) -> int:
        return self.n_real + self.d

    def dummy_ids(self) -> range:
        return range(self.n_real, self.n_total)

    def is_dummy(self, u: int) -> bool:
        return u >= self.n_real

    def strip(self, S: Subset) -> set[int]:
        return {u for u in S if u < self.n_real}


def augment_with_dummies(
    f: ValueOracle,
    M: Optional[Matroid],
    d: int,
    rank: Optional[int] = None,
) -> DummyAugmentedProblem:
    if d < 1:
        raise InvalidInputError("need at least one dummy element")
    aug_f = DummyValueOracle(f, d)
    aug_m = None
    if M is not None:
        if rank is None:
            rank = matroid_rank(M)
        aug_m = DummyAugmentedMatroid(M, d, rank)
    return DummyAugmentedProblem(f=aug_f, matroid=aug_m, n_real=f.n, d=d)


def greedy_basis(M: Matroid) -> set[int]:
    """Greedy scan in id order; costs exactly n independence queries."""
    basis: set[int] = set()
    for u in M.ground():
        candidate = list(basis)
        candidate.append(u)
        if M.is_independent(candidate):
            basis.add(u)
    return basis


def matroid_rank(M: Matroid) -> int:
    return len(greedy_basis(M))


def remove_self_loops(M: Matroid) -> list[int]:
    """Ids whose singletons are independent; costs n independence queries."""
    return [u for u in M.ground() if M.is_independent([u])]


def check_exchange_axiom(M: Matroid, max_n: int = 10) -> bool:
    """Exhaustive matroid-axiom verification plus base-pair swap bijections.

    Checks the empty set, downward closure and the augmentation axiom over
    all subsets, then verifies that every pair of bases admits a perfect
    matching of single-element swaps keeping the first base independent.
    """
    if M.n > max_n:
        raise InvalidInputError(f"exhaustive check limited to n <= {max_n}")
    probe = M.uncounted()
    ground = list(range(M.n))
    indep: set[frozenset[int]] = set()
    for r in range(len(ground) + 1):
        for combo in itertools.combinations(ground, r):
            if probe.is_independent(combo):
                indep.add(frozenset(combo))
    if frozenset() not in indep:
        return False
    for A in indep:
        for u in A:
            if A - {u} not in indep:
                return False
    members = sorted(indep, key=len)
    for A in members:
        for B in members:
            if len(A) >= len(B):
                continue
            if not any(A | {u} in indep for u in B - A):
                return False
    max_rank = max(len(A) for A in indep)
    bases = [A for A in indep if len(A) == max_rank]
    for A in bases:
        for B in bases:
            if A == B:
                continue
            if not _swap_bijection_exists(A, B, indep):
                return False
    return True


def _swap_bijection_exists(
    A: frozenset[int], B: frozenset[int], indep: set[frozenset[int]]
) -> bool:
    """Perfect matching u in B-A -> v in A-B with A - v + u independent."""
    left = sorted(B - A)
    right = sorted(A - B)
    if len(left) != len(right):
        return False
    edges = {
        u: [v for v in right if (A - {v}) | {u} in indep]
        for u in left
    }
    match: dict[int, int] = {}

    def try_assign(u: int, seen: set[int]) -> bool:
        for v in edges[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match or try_assign(match[v], seen):
                match[v] = u
                return True
        return False

    for u in left:
        if not try_assign(u, set()):
            return False
    return True
