"""Counted matroid independence oracles.

Every ``is_independent`` call charges exactly one independence query to the
attached ledger. Views (contraction, rank caps, dummy augmentation) follow
the one accounting rule of :class:`~submax.ledger.View`.

The structure rule lives here: a handle that reports
``partition_structure()`` is answered from its blocks, so its rank and every
question asked through :func:`independence_test` cost no query. Views never
report a structure and forward every query as a charged query.
``greedy_basis`` and ``remove_self_loops`` ask the oracle on any handle.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable
from typing import Callable, Optional, Sequence

from .errors import InvalidInputError
from .ledger import Counted, PrefixCached, QueryLedger, View, checked_int
from .oracles import Subset, ValueOracle


class Matroid(Counted):
    _rank: Optional[int] = None

    def is_independent(self, members: Iterable[int]) -> bool:
        self.ledger.charge_independence(1)
        return self._indep(members)

    def _indep(self, members: Iterable[int]) -> bool:
        raise NotImplementedError

    def rank(self) -> int:
        """The rank, kept on the handle after the first call.

        A handle that reports its blocks sums ``min(capacity, |block|)``
        over them; any other handle pays for one greedy scan. Clones made
        after the first call share the result; views derive theirs from
        their base's rank without a query.
        """
        if self._rank is None:
            counts = _block_counts(self)
            self._rank = len(greedy_basis(self)) if counts is None else counts[0]
        return self._rank

    def partition_structure(self) -> Optional[tuple[list[list[int]], list[int]]]:
        """(blocks, capacities) when this handle is a generalized partition matroid."""
        return None


class PartitionMatroid(Matroid):
    """Generalized partition matroid: at most ``capacities[j]`` elements per block."""

    def __init__(
        self,
        blocks: Sequence[Iterable[int]],
        capacities: Sequence[int],
        ledger: Optional[QueryLedger] = None,
    ):
        checked = []
        for j, b in enumerate(blocks):
            try:
                checked.append(sorted(map(operator.index, b)))
            except TypeError:
                raise InvalidInputError(
                    f"blocks[{j}] must be a list of integer element ids, got {b!r}"
                ) from None
        blocks = checked
        if len(blocks) != len(capacities):
            raise InvalidInputError("need one capacity per block")
        caps = [checked_int(c, f"capacities[{j}]") for j, c in enumerate(capacities)]
        all_ids = [u for b in blocks for u in b]
        n = len(all_ids)
        if sorted(all_ids) != list(range(n)):
            raise InvalidInputError("blocks must partition {0, ..., n-1}")
        super().__init__(n, ledger)
        self.blocks = blocks
        self.capacities = caps
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
            # the id rule of the block-count predicate, so that both answer alike
            if u.__class__ is not int or not 0 <= u < n:
                u = self._check_id(u)
            j = block_of[u]
            counts[j] += 1
            if counts[j] > caps[j]:
                return False
        return True

    def partition_structure(self):
        return ([list(b) for b in self.blocks], list(self.capacities))


class UniformMatroid(PartitionMatroid):
    """At most ``k`` elements: the partition matroid with the one block ``range(n)``."""

    def __init__(self, n: int, k: int, ledger: Optional[QueryLedger] = None):
        n = checked_int(n, "ground set size n")
        self.k = checked_int(k, "k")
        super().__init__([range(n)], [self.k], ledger)


class GraphicMatroid(PrefixCached, Matroid):
    """Forests of an undirected multigraph; ground set elements are edge ids.

    Answers through :class:`~submax.ledger.PrefixCached`; the state of a
    prefix is the union-find result over its edges: a component label per
    vertex, or None when the prefix holds a cycle. ``P`` plus one edge is
    then answered in O(1) by comparing the labels of that edge's endpoints,
    and growing ``P`` by one appended edge relabels one component in O(V).
    Independence does not depend on member order.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Sequence[tuple[int, int]],
        ledger: Optional[QueryLedger] = None,
    ):
        num_vertices = checked_int(num_vertices, "vertices")
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
        self._cache([])

    def _cache(self, prefix: list[int]) -> tuple[list[int], bool, Optional[tuple[int, ...]]]:
        ids = [self._check_id(e) for e in prefix]
        parent = list(range(self.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        labels: Optional[tuple[int, ...]] = None
        for e in ids:
            a, b = self.edges[e]
            ra, rb = find(a), find(b)
            if ra == rb:
                break
            parent[ra] = rb
        else:
            labels = tuple(find(v) for v in range(self.num_vertices))
        self._prefix = (prefix, labels is not None, labels)
        return self._prefix

    def _grow(
        self, cache: tuple[list[int], bool, Optional[tuple[int, ...]]], prefix: list[int], e: int
    ) -> tuple:
        labels = cache[2]
        if labels is not None:
            a, b = self.edges[e]
            joined, into = labels[a], labels[b]
            if joined == into:
                labels = None
            else:
                labels = tuple([into if label == joined else label for label in labels])
        self._prefix = (prefix, labels is not None, labels)
        return self._prefix

    def _extend(self, cache: tuple[list[int], bool, Optional[tuple[int, ...]]], u: int) -> bool:
        labels = cache[2]
        if labels is None:
            return False
        a, b = self.edges[u]
        return labels[a] != labels[b]


class ExplicitMatroid(Matroid):
    """Independence family given extensionally (test fixtures; may be a non-matroid)."""

    def __init__(
        self,
        n: int,
        independent_sets: Iterable[Iterable[int]],
        ledger: Optional[QueryLedger] = None,
    ):
        super().__init__(n, ledger)
        if n > 16:
            raise InvalidInputError("explicit matroids are meant for n <= 16")
        self._family = {
            self._id_set(s, f"independent[{i}]") for i, s in enumerate(independent_sets)
        }

    def _indep(self, members: Iterable[int]) -> bool:
        return frozenset(map(self._check_id, members)) in self._family


class ContractedMatroid(View, Matroid):
    """The matroid M / S: T is independent iff S + T is independent in M.

    Queries reach the base anchor first, as ``S + T``, so that queries which
    grow T by one element extend one prefix; the graphic oracle answers
    those from its cache. With nothing contracted the caller's members are
    forwarded as given, uncopied: no handle keeps a caller's list (a prefix
    cache stores its own copy).
    """

    def __init__(self, base: Matroid, S: Subset):
        contracted = sorted({base._check_id(u) for u in S})
        if contracted and not base.is_independent(contracted):
            raise InvalidInputError("can only contract an independent set")
        super().__init__(base)
        self._contracted = contracted
        self._contracted_set = set(contracted)

    def is_independent(self, members: Iterable[int]) -> bool:
        if self._contracted:
            members = [*self._contracted, *members]
        return self._base.is_independent(members)

    def ground(self) -> list[int]:
        return [u for u in range(self.n) if u not in self._contracted_set]

    def rank(self) -> int:
        # the contracted set is independent, so it takes exactly its size
        return self._base.rank() - len(self._contracted)


class RankCappedMatroid(View, Matroid):
    """Truncation view: independent iff |T| <= cap and independent in the base.

    A list is measured and forwarded as given, uncopied (no handle keeps a
    caller's list); any other iterable is copied into one first.
    """

    def __init__(self, base: Matroid, cap: int):
        cap = checked_int(cap, "rank cap")
        super().__init__(base)
        self.cap = cap

    def is_independent(self, members: Iterable[int]) -> bool:
        listed = members if members.__class__ is list else list(members)
        if len(listed) > self.cap:
            # decidable from the cap alone; still charged (conservative accounting)
            for u in listed:
                self._check_id(u)
            self.ledger.charge_independence(1)
            return False
        return self._base.is_independent(listed)

    def ground(self):
        return self._base.ground()

    def rank(self) -> int:
        return min(self.cap, self._base.rank())


def _split_real(view: View, members: Iterable[int]) -> tuple[list[int], int]:
    """The real ids of ``members`` (those below ``view.n_real``) and the number of dummy ids.

    Every id must be an id of the view's ground set. It is checked here,
    since the views may answer from the count alone before the base sees it.
    """
    real = []
    dummies = 0
    n_real = view.n_real
    n = view.n
    for u in members:
        # a float passes the range test, so the class is tested first
        if u.__class__ is not int or not 0 <= u < n:
            u = view._check_id(u)
        if u < n_real:
            real.append(u)
        else:
            dummies += 1
    return real, dummies


class DummyValueOracle(View, ValueOracle):
    """f'(S) = f(S minus dummies) over ids ``n, ..., n + d - 1`` added as dummies.

    A library view: the algorithms keep dummies as a count instead. Every
    call charges one base value query.
    """

    def __init__(self, base: ValueOracle, d: int):
        super().__init__(base, base.n + d)
        self.n_real = base.n
        self.monotone = base.monotone

    def evaluate(self, members: Iterable[int]) -> float:
        return self._base.evaluate(_split_real(self, members)[0])


class DummyAugmentedMatroid(View, Matroid):
    """S independent iff S minus dummies is independent in the base and |S| <= k.

    A library view like :class:`DummyValueOracle`; the lazy phase asks
    ``RankCappedMatroid(M, k - dummies)`` with the real ids instead.
    """

    def __init__(self, base: Matroid, d: int, k: int):
        super().__init__(base, base.n + d)
        self.n_real = base.n
        self.k = k

    def is_independent(self, members: Iterable[int]) -> bool:
        real, dummies = _split_real(self, members)
        if len(real) + dummies > self.k:
            # dummy logic alone decides, but the query is charged anyway
            self.ledger.charge_independence(1)
            return False
        return self._base.is_independent(real)


def greedy_basis(M: Matroid) -> set[int]:
    """Greedy scan of ``M.ground()`` in its order.

    Costs exactly one independence query per scanned id. Each query is the
    basis so far plus one id, so the graphic oracle answers from its prefix
    cache.
    """
    basis: list[int] = []
    for u in M.ground():
        basis.append(u)
        if not M.is_independent(basis):
            basis.pop()
    return set(basis)


def matroid_rank(M: Matroid) -> int:
    return M.rank()


def check_same_ground(f: ValueOracle, M: Matroid) -> None:
    """Refuse a value oracle and a matroid over ground sets of different sizes."""
    if M.n != f.n:
        raise InvalidInputError(
            f"matroid ground set size {M.n} differs from instance ground set size {f.n}"
        )


def independence_test(M: Matroid) -> Callable[[list[int]], bool]:
    """The independence question a phase asks of ``M``.

    On a handle that reports its blocks, a predicate that answers from
    block counts, as the oracle would (an id outside the ground set raises
    the oracle's error), and charges nothing; on any other handle,
    ``M.is_independent``.
    """
    counts = _block_counts(M)
    return M.is_independent if counts is None else counts[1]


def _block_counts(M: Matroid) -> Optional[tuple[int, Callable[[list[int]], bool]]]:
    """M's rank and an uncharged independence predicate, read from its blocks.

    None when ``M`` reports no structure. An id in no block is a loop.
    """
    structure = M.partition_structure()
    if structure is None:
        return None
    blocks, caps = structure
    n = M.n
    block_of: list[Optional[int]] = [None] * n
    for j, blk in enumerate(blocks):
        for u in blk:
            block_of[u] = j

    def independent(members: list[int]) -> bool:
        counts = [0] * len(caps)
        for u in members:
            if u.__class__ is not int or not 0 <= u < n:
                u = M._check_id(u)
            j = block_of[u]
            if j is None or counts[j] >= caps[j]:
                return False
            counts[j] += 1
        return True

    return sum(min(c, len(blk)) for blk, c in zip(blocks, caps)), independent


def threshold_sweep(
    M: Matroid,
    ground: Sequence[int],
    rank: int,
    w: float,
    floor: float,
    shrink: float,
    clears: Callable[[list[int], int, float], bool],
) -> list[int]:
    """Decreasing-threshold greedy scan; returns the ids taken, in order.

    At thresholds ``w, w * shrink, ...`` above ``floor``, each id of
    ``ground`` not yet taken joins when ``taken + [u]`` is independent and
    ``clears(taken, u, w)`` says so. An independence query is made only when
    its answer is unknown: an id found dependent stays dependent while
    ``taken`` grows, an independent answer holds until ``taken`` grows, and
    once ``taken`` reaches ``rank`` every answer is dependent and the scan
    stops. The questions go through :func:`independence_test`, so a handle
    that reports its blocks is asked none.
    """
    independent = independence_test(M)
    taken: list[int] = []
    # ids never asked about again: the taken ones and those found dependent
    blocked: set[int] = set()
    # free_at[u]: len(taken) at u's last independent answer
    free_at: dict[int, int] = {}
    while w > floor and len(taken) < rank:
        for u in ground:
            if u in blocked:
                continue
            if free_at.get(u) != len(taken):
                taken.append(u)
                free = independent(taken)
                taken.pop()
                if not free:
                    blocked.add(u)
                    continue
                free_at[u] = len(taken)
            if clears(taken, u, w):
                taken.append(u)
                blocked.add(u)
                if len(taken) >= rank:
                    break
        w *= shrink
    return taken


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
