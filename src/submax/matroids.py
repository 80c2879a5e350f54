"""Counted matroid independence oracles.

Every ``is_independent`` call charges exactly one independence query to the
attached ledger. Views (contraction, rank caps, dummy augmentation) follow
the one accounting rule of :class:`~submax.ledger.View`.

The structure rule lives here: a handle that reports
``partition_structure()`` reads its rank from its blocks, and every question
asked through :func:`independence_test` is answered by the handle's own
count loop, uncharged. So the free answers are the oracle's answers by
construction, and cost no query. Views never report a structure and forward
every query as a charged query. The partition contraction
:class:`ContractedPartitionMatroid` is no view but a partition matroid of
its own, so it reports its blocks.
``greedy_basis`` asks the oracle on any handle.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from typing import Callable, Optional, Sequence

from .errors import InvalidInputError
from .ledger import Counted, PrefixCached, QueryLedger, View, checked_int
from .oracles import Subset, ValueOracle


class Matroid(Counted):
    _rank: Optional[int] = None

    def is_independent(self, members: Iterable[int]) -> bool:
        self.ledger.charge_independence()
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
            raise InvalidInputError("capacities must hold one capacity per block")
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


class ContractedPartitionMatroid(PartitionMatroid):
    """The partition matroid M / S, itself a partition matroid that reports its blocks.

    Each block of M loses the ids of S and one unit of capacity per id it
    lost; the ids of S form one more block of capacity zero, so they are
    loops. Building it asks no query, and its queries charge M's ledger.
    Its ``ground()`` is the ids outside S, ascending, as for
    :class:`ContractedMatroid`.
    """

    def __init__(self, base: Matroid, S: Subset):
        structure = base.partition_structure()
        if structure is None:
            raise InvalidInputError("partition contraction needs a partition matroid")
        contracted = {base._check_id(u) for u in S}
        blocks, caps = structure
        res_caps = [c - len(contracted.intersection(blk)) for blk, c in zip(blocks, caps)]
        if any(c < 0 for c in res_caps):
            raise InvalidInputError("can only contract an independent set")
        res_blocks = [[u for u in blk if u not in contracted] for blk in blocks]
        super().__init__(res_blocks + [sorted(contracted)], res_caps + [0], base.ledger)
        self._contracted_set = contracted

    def ground(self) -> list[int]:
        return [u for u in range(self.n) if u not in self._contracted_set]


class RankCappedMatroid(View, Matroid):
    """Truncation view: independent iff |T| <= cap and independent in the base.

    A list is measured and forwarded as given, uncopied (no handle keeps a
    caller's list); any other iterable is copied into one first. A query
    longer than the cap is answered by count, still charged; it serves
    library callers (the lazy phase stops at its own ``k - dummies`` count).
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
            self.ledger.charge_independence()
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
    ``M`` about the real ids instead, and its scan stops once they fill
    ``k - dummies``.
    """

    def __init__(self, base: Matroid, d: int, k: int):
        super().__init__(base, base.n + d)
        self.n_real = base.n
        self.k = k

    def is_independent(self, members: Iterable[int]) -> bool:
        real, dummies = _split_real(self, members)
        if len(real) + dummies > self.k:
            # dummy logic alone decides, but the query is charged anyway
            self.ledger.charge_independence()
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

    On a handle that reports its blocks, its own count loop ``M._indep``,
    which charges nothing and answers (or raises) exactly as
    ``M.is_independent`` does; on any other handle, ``M.is_independent``.
    """
    counts = _block_counts(M)
    return M.is_independent if counts is None else counts[1]


def _block_counts(M: Matroid) -> Optional[tuple[int, Callable[[Iterable[int]], bool]]]:
    """M's rank, read from its blocks, and its own count loop ``M._indep``.

    None when ``M`` reports no structure. The loop is called without the
    charge, so its answers are the oracle's answers.
    """
    structure = M.partition_structure()
    if structure is None:
        return None
    blocks, caps = structure
    return sum(min(c, len(blk)) for blk, c in zip(blocks, caps)), M._indep


# A node of a sweep's answer tree (see threshold_sweep): the answers about
# taken + [u] at one prefix taken, keyed by u, and the node of each
# prefix taken + [u] that a sweep grew from it.
AnswerNode = tuple[dict[int, bool], dict[int, "AnswerNode"]]


def threshold_sweep(
    M: Matroid,
    ground: Sequence[int],
    rank: int,
    w: float,
    floor: float,
    shrink: float,
    clears: Callable[[list[int], int, float], bool],
    known: AnswerNode,
) -> list[int]:
    """Decreasing-threshold greedy scan; returns the ids taken, in order.

    At thresholds ``w, w * shrink, ...`` above ``floor``, each id of
    ``ground`` not yet taken joins when ``taken + [u]`` is independent and
    ``clears(taken, u, w)`` says so. An independence query is made only when
    its answer is unknown: an id found dependent stays dependent while
    ``taken`` grows, and once ``taken`` reaches ``rank`` every answer is
    dependent and the scan stops. The questions go through
    :func:`independence_test`, so a handle that reports its blocks is asked
    none. ``known`` is the root of the caller's answer tree, which has one
    node per ``taken`` prefix: the node's answers about ``taken + [u]``,
    keyed by u, and below it the node of each ``taken + [u]``. The sweep
    reads a question's answer there first and stores it there after asking,
    so a caller that sweeps one matroid several times with one tree asks
    each question once.
    """
    independent = independence_test(M)
    taken: list[int] = []
    # ids never asked about again: the taken ones and those found dependent
    blocked: set[int] = set()
    answers, below = known
    while w > floor and len(taken) < rank:
        for u in ground:
            if u in blocked:
                continue
            free = answers.get(u)
            if free is None:
                taken.append(u)
                free = answers[u] = independent(taken)
                taken.pop()
            if not free:
                blocked.add(u)
                continue
            if clears(taken, u, w):
                taken.append(u)
                blocked.add(u)
                answers, below = below.setdefault(u, ({}, {}))
                if len(taken) >= rank:
                    break
        w *= shrink
    return taken
