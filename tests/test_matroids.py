from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax import (
    ContractedMatroid,
    CoverageOracle,
    ExplicitMatroid,
    FractionalPoint,
    GraphicMatroid,
    InvalidInputError,
    Matroid,
    ModularOracle,
    PartitionMatroid,
    QueryLedger,
    RankCappedMatroid,
    ResidualOracle,
    TableOracle,
    UniformMatroid,
    check_exchange_axiom,
    greedy_basis,
    matroid_rank,
    remove_self_loops,
    swap_round,
    thresholding_greedy,
)
from submax.matroids import DummyAugmentedMatroid, DummyValueOracle, independence_test

from .conftest import (
    compose_views,
    coverage4,
    draw_independent,
    enumerate_independent,
    small_base_matroids,
    small_multigraphs,
    small_partitions,
    small_value_oracles,
    uf_has_cycle,
    zoo_matroids,
)


class TestIsIndependent:
    def test_uniform_cardinality_cap(self):
        M = UniformMatroid(5, 2)
        assert not M.is_independent({0, 1, 2})
        assert M.is_independent({0, 4})

    def test_partition_block_capacities(self):
        M = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        assert M.is_independent({0, 2})
        assert not M.is_independent({0, 1})

    def test_graphic_matches_union_find_oracle(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        M = GraphicMatroid(4, edges)
        for r in range(len(edges) + 1):
            for combo in itertools.combinations(range(len(edges)), r):
                expected = not uf_has_cycle(4, [edges[e] for e in combo])
                assert M.uncounted().is_independent(combo) == expected

    def test_triangle_is_dependent(self):
        M = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
        assert not M.is_independent({0, 1, 2})

    def test_each_call_charges_one_query(self, ledger):
        M = UniformMatroid(4, 2, ledger)
        M.is_independent({0})
        M.is_independent({0, 1, 2})
        assert ledger.independence_queries == 2

    def test_invalid_id_rejected(self):
        with pytest.raises(InvalidInputError):
            UniformMatroid(3, 1).is_independent({5})


@pytest.mark.parametrize(
    "handle",
    [
        GraphicMatroid(3, [(0, 1), (1, 2)]),
        PartitionMatroid([[0, 1], [2]], [1, 1]),
        UniformMatroid(3, 1),
        ExplicitMatroid(3, [[], [0], [1], [2]]),
        DummyAugmentedMatroid(UniformMatroid(2, 1), 2, 2),
        DummyValueOracle(CoverageOracle([[0], [1]], 2), 2),
        # every id a dummy: a fractional one never reaches the base
        DummyAugmentedMatroid(UniformMatroid(0, 0), 2, 2),
        DummyValueOracle(CoverageOracle([], 0), 2),
        # [0, bad] is longer than the cap, which alone decides the answer
        RankCappedMatroid(UniformMatroid(3, 3), 1),
        DummyAugmentedMatroid(UniformMatroid(3, 3), 2, 1),
    ],
    ids=[
        "graphic", "partition", "uniform", "explicit", "dummy_augmented", "dummy_value",
        "dummy_augmented_no_real", "dummy_value_no_real", "rank_capped_cap_decides",
        "dummy_augmented_cap_decides",
    ],
)
def test_non_integer_id_is_named(handle):
    ask = handle.is_independent if isinstance(handle, Matroid) else handle.evaluate
    for bad in (0.5, 1.5, "a"):
        for query in ([bad], [0, bad]):
            # a one-shot iterator is named too: the id is never read twice
            for given in (query, iter(query)):
                with pytest.raises(InvalidInputError, match=rf"element id {bad!r} is not an integer"):
                    ask(given)
    # bool ids stay accepted
    assert ask([True]) == ask([1])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RankCappedMatroid(UniformMatroid(3, 3), 1.5), "rank cap must be an integer, got 1.5"),
        (lambda: RankCappedMatroid(UniformMatroid(3, 3), float("nan")),
         "rank cap must be an integer, got nan"),
        (lambda: RankCappedMatroid(UniformMatroid(3, 3), "2"), "rank cap must be an integer, got '2'"),
        (lambda: RankCappedMatroid(UniformMatroid(3, 3), -1), "rank cap must be non-negative"),
        (lambda: ContractedMatroid(UniformMatroid(3, 3), ["a"]), "element id 'a' is not an integer"),
        (lambda: ContractedMatroid(UniformMatroid(3, 3), [0, 1.5]), "element id 1.5 is not an integer"),
        (lambda: ContractedMatroid(UniformMatroid(3, 3), [3]), "element id 3 outside ground set of size 3"),
        (lambda: PartitionMatroid([[0, "a"]], [1]), "blocks[0] must be a list of integer element ids"),
        (lambda: PartitionMatroid([[1], 5], [1, 1]), "blocks[1] must be a list of integer element ids"),
    ],
    ids=[
        "cap_float", "cap_nan", "cap_str", "cap_negative", "contract_str", "contract_float",
        "contract_out_of_range", "block_str_id", "block_not_a_list",
    ],
)
def test_malformed_constructor_argument_is_named(build, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        build()


def test_integer_like_constructor_arguments_accepted():
    M = UniformMatroid(4, 4)
    assert RankCappedMatroid(M, np.int64(2)).cap == 2
    assert ContractedMatroid(M, [np.int64(1), True]).ground() == [0, 2, 3]
    assert PartitionMatroid([[np.int64(1), 0], [2]], [1, 1]).blocks == [[0, 1], [2]]


class _IndexOnly:
    """An integer known only through ``__index__``: it has no order comparisons."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "handle",
    [
        PartitionMatroid([[0, 1], [2]], [1, 1]),
        UniformMatroid(3, 2),
        CoverageOracle([[0], [1], [0, 2]], 3),
        ModularOracle([1.0, 2.0, 4.0]),
        ExplicitMatroid(3, [[], [0], [1], [2], [0, 2]]),
        TableOracle(3, {frozenset(s): float(len(s)) for r in range(4)
                        for s in itertools.combinations(range(3), r)}),
    ],
    ids=["partition", "uniform", "coverage", "modular", "explicit", "table"],
)
def test_index_only_ids_are_read_through_index(handle):
    ask = handle.is_independent if isinstance(handle, Matroid) else handle.evaluate
    for query in ([1], [0, 2], [2, 1, 0]):
        assert ask([_IndexOnly(u) for u in query]) == ask(query)


class TestContraction:
    def test_uniform_residual_capacity(self):
        view = ContractedMatroid(UniformMatroid(6, 3), {0})
        assert view.is_independent({1, 2})
        assert not view.is_independent({1, 2, 3})

    def test_empty_contraction_identity(self):
        M = UniformMatroid(5, 2)
        view = ContractedMatroid(M, set())
        for r in range(4):
            for combo in itertools.combinations(range(5), r):
                assert view.uncounted().is_independent(combo) == M.uncounted().is_independent(combo)

    def test_graphic_contract_edge(self):
        M = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
        view = ContractedMatroid(M, {0})
        assert not view.is_independent({1, 2})
        assert view.is_independent({1})

    def test_view_query_costs_one_base_query(self, ledger):
        M = PartitionMatroid([[0, 1], [2, 3]], [1, 1], ledger)
        view = ContractedMatroid(M, {0})
        before = ledger.independence_queries
        view.is_independent({2})
        assert ledger.independence_queries == before + 1

    def test_dependent_set_rejected(self):
        with pytest.raises(InvalidInputError):
            ContractedMatroid(UniformMatroid(4, 1), {0, 1})

    def test_view_ground_excludes_contracted_ids(self):
        view = ContractedMatroid(UniformMatroid(5, 3), {1, 3})
        assert list(view.ground()) == [0, 2, 4]

    def test_consistency_on_random_sets(self, rng):
        for name, factory in zoo_matroids():
            M = factory()
            probe = M.uncounted()
            for fs in enumerate_independent(M):
                if len(fs) == 0:
                    continue
                view = ContractedMatroid(probe, fs)
                rest = [u for u in range(M.n) if u not in fs]
                for r in range(len(rest) + 1):
                    for combo in itertools.combinations(rest, r):
                        assert view.is_independent(combo) == probe.is_independent(
                            set(combo) | fs
                        ), name
                break  # one contraction per matroid keeps this quick


class TestDummyAugmentation:
    def test_value_transparency_on_random_sets(self, rng):
        f = coverage4()
        view = DummyValueOracle(f, 2).with_ledger(QueryLedger())
        probe = f.uncounted()
        for _ in range(1000):
            members = {u for u in range(view.n) if rng.random() < 0.5}
            assert view.evaluate(members) == probe.evaluate({u for u in members if u < f.n})

    def test_dummies_alone_have_empty_value(self):
        f = coverage4()
        assert DummyValueOracle(f, 2).uncounted().evaluate({4, 5}) == 0.0

    def test_size_cap_binds(self):
        M = UniformMatroid(6, 3)
        view = DummyAugmentedMatroid(M, 3, matroid_rank(M)).uncounted()
        assert not view.is_independent({0, 1, 4, 5})
        assert view.is_independent({0, 1, 4})
        # two real independent elements plus two dummies exceed rank 3
        assert not view.is_independent({0, 1, 6, 7})
        assert view.is_independent({0, 1, 6})

    def test_augmented_independence_charges_exactly_one(self, ledger):
        view = DummyAugmentedMatroid(UniformMatroid(4, 2, ledger), 2, 2)
        before = ledger.independence_queries
        view.is_independent({0, 1, 4})  # decided by the size cap alone
        assert ledger.independence_queries == before + 1
        view.is_independent({0, 4})  # needs the base oracle
        assert ledger.independence_queries == before + 2

    def test_wrapper_clones_charge_the_new_ledger(self):
        f = coverage4()
        M = UniformMatroid(4, 2)
        fresh = QueryLedger()
        DummyValueOracle(f, 2).with_ledger(fresh).evaluate({0, 4})
        DummyAugmentedMatroid(M, 2, 2).with_ledger(fresh).is_independent({0, 4})
        view = ContractedMatroid(M, {0}).with_ledger(fresh)
        view.is_independent({1})
        assert fresh.snapshot() == (1, 2)
        assert f.ledger.value_queries == 0

    def test_stripping_keeps_value(self, rng):
        f = coverage4()
        members = {1, 2, 5, 6}
        assert f.uncounted().evaluate({1, 2}) == DummyValueOracle(f, 4).uncounted().evaluate(members)


class TestRankAndLoops:
    def test_uniform_rank(self):
        assert matroid_rank(UniformMatroid(9, 5)) == 5

    def test_partition_rank_is_capacity_sum(self):
        assert matroid_rank(PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1])) == 3

    def test_graphic_rank_spanning_tree(self):
        rng = np.random.default_rng(3)
        edges = [(i, i + 1) for i in range(5)]
        edges += [(int(rng.integers(6)), int(rng.integers(6))) for _ in range(4)]
        edges = [e for e in edges if e[0] != e[1]]
        assert matroid_rank(GraphicMatroid(6, edges)) == 5

    def test_greedy_basis_costs_exactly_n_queries(self, ledger):
        M = PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1], ledger)
        greedy_basis(M)
        assert ledger.independence_queries == 5

    def test_remove_self_loops_noop_without_loops(self):
        assert remove_self_loops(UniformMatroid(4, 2)) == [0, 1, 2, 3]

    def test_explicit_loop_dropped(self):
        family = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
        M = ExplicitMatroid(4, family)  # {3} never independent
        assert remove_self_loops(M) == [0, 1, 2]

    def test_graphic_self_loop_edge_dropped(self):
        M = GraphicMatroid(3, [(0, 1), (1, 1), (1, 2)])
        assert remove_self_loops(M) == [0, 2]

    def test_loop_removal_costs_n_queries(self, ledger):
        M = UniformMatroid(6, 2, ledger)
        remove_self_loops(M)
        assert ledger.independence_queries == 6


class TestExchangeAxiom:
    @pytest.mark.parametrize("name,factory", zoo_matroids())
    def test_zoo_matroids_pass(self, name, factory):
        assert check_exchange_axiom(factory()), name

    def test_non_matroid_family_detected(self):
        M = ExplicitMatroid(3, [[], [0], [1, 2]])
        assert not check_exchange_axiom(M)

    def test_uniform_disjoint_bases_have_swap_bijection(self):
        # bases {0,1} and {2,3} of the rank-2 uniform matroid on 4 elements
        assert check_exchange_axiom(UniformMatroid(4, 2))

    def test_downward_closure_violation_detected(self):
        M = ExplicitMatroid(2, [[], [0, 1]])
        assert not check_exchange_axiom(M)


class _MatroidShim(UniformMatroid):
    """Hand-count interposer for independence queries.

    It reports no partition structure, so its questions reach the oracle.
    """

    def __init__(self, n, k, ledger):
        super().__init__(n, k, ledger)
        self.calls = 0

    def partition_structure(self):
        return None

    def is_independent(self, members):
        self.calls += 1
        return super().is_independent(members)


class TestIndependenceLedgerExactness:
    def test_hand_count_shim_matches_ledger(self):
        ledger = QueryLedger()
        shim = _MatroidShim(4, 2, ledger)
        f = coverage4(ledger)
        thresholding_greedy(f, shim, 0.25)
        assert shim.calls == ledger.independence_queries > 0


class TestDownwardClosureExhaustive:
    @pytest.mark.parametrize("name,factory", zoo_matroids())
    def test_all_subsets_of_independent_sets_independent(self, name, factory):
        M = factory()
        probe = M.uncounted()
        for fs in enumerate_independent(M):
            for u in fs:
                assert probe.is_independent(fs - {u}), name


@settings(max_examples=30, deadline=None)
@given(
    caps=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    data=st.data(),
)
def test_random_partition_matroids_satisfy_the_axioms(caps, data):
    sizes = data.draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=len(caps), max_size=len(caps))
    )
    blocks = []
    next_id = 0
    for size in sizes:
        blocks.append(list(range(next_id, next_id + size)))
        next_id += size
    if next_id > 8:
        return
    assert check_exchange_axiom(PartitionMatroid(blocks, caps))


def _answer(ask, members):
    try:
        return ask(members)
    except InvalidInputError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(structure=small_partitions())
def test_block_counts_answer_like_the_oracle_for_free(structure):
    M = PartitionMatroid(*structure)
    probe = M.uncounted()
    independent = independence_test(M)
    for r in range(M.n + 1):
        for combo in itertools.combinations(range(M.n), r):
            assert independent(list(combo)) == probe.is_independent(combo)
    for bad in ([M.n], [0, M.n], [0, "a"], [1.5], [-1], [np.array([1, 2])]):
        assert _answer(independent, bad) == _answer(probe.is_independent, bad)
    assert matroid_rank(M) == len(greedy_basis(probe))
    assert M.ledger.snapshot() == (0, 0)
    # a view reports no structure: its questions are the oracle's
    view = RankCappedMatroid(M, 1)
    assert independence_test(view) == view.is_independent


# ---------------------------------------------------------------------------
# graphic prefix cache and anchor-first contraction


def _reference_independent(v, edges, members):
    return not uf_has_cycle(v, [edges[e] for e in members])


_SHAPES = (list, tuple, set, iter)


@settings(max_examples=150, deadline=None)
@given(graph=small_multigraphs(), data=st.data())
def test_graphic_cache_matches_from_scratch_union_find(graph, data):
    v, edges = graph
    n = len(edges)
    ledger = QueryLedger()
    M = GraphicMatroid(v, edges, ledger)
    clone_ledger = QueryLedger()
    clone = M.with_ledger(clone_ledger)
    ids = st.integers(min_value=0, max_value=n - 1)
    prefix: list[int] = []
    last: list[int] = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        op = data.draw(st.sampled_from(["extend", "repeat", "unrelated", "clone", "bad"]))
        if op == "extend":
            query = prefix + [data.draw(ids)]
        elif op == "repeat":
            # the previous query's prefix, independent or not
            query = last[:-1]
        elif op == "bad":
            query = list(prefix)
        else:
            query = data.draw(st.lists(ids, max_size=n))
        handle, charged = (clone, clone_ledger) if op == "clone" else (M, ledger)
        shape = data.draw(st.sampled_from(_SHAPES))
        before = charged.independence_queries
        if op == "bad":
            # an out-of-range id inside the prefix; the rejected prefix must
            # not be cached, so extending it a second time raises again
            bad = data.draw(st.sampled_from([-1, n, n + 3]))
            query.insert(data.draw(st.integers(min_value=0, max_value=len(query))), bad)
            for _ in range(2):
                with pytest.raises(InvalidInputError):
                    handle.is_independent(shape(query + [data.draw(ids)]))
            calls = 2
        else:
            expected = _reference_independent(v, edges, set(query) if shape is set else query)
            assert handle.is_independent(shape(query)) == expected
            calls = 1
            last = query
            # the callers' pattern: keep the extension when it stays independent
            if op == "extend" and expected and data.draw(st.booleans()):
                prefix = query
        assert charged.independence_queries == before + calls


@settings(max_examples=40, deadline=None)
@given(graph=small_multigraphs(max_edges=7), data=st.data())
def test_contracted_graphic_matches_explicit_contraction(graph, data):
    v, edges = graph
    n = len(edges)
    S: list[int] = []
    for u in data.draw(st.permutations(range(n))):
        if data.draw(st.booleans()) and _reference_independent(v, edges, S + [u]):
            S.append(u)
    ledger = QueryLedger()
    view = ContractedMatroid(GraphicMatroid(v, edges, ledger), S)
    rest = [u for u in range(n) if u not in S]
    explicit = ExplicitMatroid(n, [
        combo
        for r in range(len(rest) + 1)
        for combo in itertools.combinations(rest, r)
        if _reference_independent(v, edges, S + list(combo))
    ])
    before = ledger.independence_queries
    queries = 0
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            assert view.is_independent(combo) == explicit.is_independent(combo)
            queries += 1
    assert ledger.independence_queries == before + queries
    assert check_exchange_axiom(view)


def _assert_same_answers(view, explicit, ids):
    """Every subset of ``ids`` gets one answer from both; each call charges one tick."""
    for r in range(len(ids) + 1):
        for T in itertools.combinations(ids, r):
            before = (view.ledger.snapshot(), explicit.ledger.snapshot())
            assert view.is_independent(T) == explicit.is_independent(T)
            assert (view.ledger.snapshot(), explicit.ledger.snapshot()) == tuple(
                (v, i + 1) for v, i in before
            )


@settings(max_examples=60, deadline=None)
@given(partition=small_partitions(), data=st.data())
def test_contracted_partition_is_the_explicit_residual(partition, data):
    blocks, caps = partition
    M = PartitionMatroid(blocks, caps)
    S = set(draw_independent(data, M, list(M.ground())))
    res_blocks = [[u for u in blk if u not in S] for blk in blocks]
    res_caps = [c - sum(1 for u in blk if u in S) for blk, c in zip(blocks, caps)]
    # the residual the combined algorithm builds on the partition fast path
    explicit = PartitionMatroid(res_blocks + [sorted(S)], res_caps + [0])
    rest = [u for u in range(M.n) if u not in S]
    _assert_same_answers(ContractedMatroid(M, S), explicit, rest)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=7), data=st.data())
def test_rank_capped_uniform_is_the_smaller_uniform(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    cap = data.draw(st.integers(min_value=0, max_value=n))
    view = RankCappedMatroid(UniformMatroid(n, k), cap)
    _assert_same_answers(view, UniformMatroid(n, min(k, cap)), list(range(n)))


# ---------------------------------------------------------------------------
# the view accounting rule: one tick per call through any composition


def _chain(handle):
    """The handle and every base below it, outermost first."""
    chain = [handle]
    while hasattr(chain[-1], "_base"):
        chain.append(chain[-1]._base)
    return chain


@settings(max_examples=80, deadline=None)
@given(base=small_base_matroids(), data=st.data())
def test_matroid_views_charge_one_query_per_call(base, data):
    ledger = base.ledger
    view = compose_views(data, base, ["contract", "cap", "dummy"])
    assert all(h.ledger is ledger for h in _chain(view))
    clone = view.uncounted() if data.draw(st.booleans()) else view.with_ledger(QueryLedger())
    assert all(h.ledger is clone.ledger for h in _chain(clone))
    assert all(h.ledger is ledger for h in _chain(view))
    query = st.lists(st.integers(min_value=0, max_value=view.n - 1), unique=True, max_size=view.n)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        members = data.draw(query)
        before, clone_before = ledger.snapshot(), clone.ledger.snapshot()
        answer = view.is_independent(members)
        assert ledger.snapshot() == (before[0], before[1] + 1)
        assert clone.is_independent(members) == answer
        assert clone.ledger.snapshot() == (clone_before[0], clone_before[1] + 1)
        assert ledger.snapshot() == (before[0], before[1] + 1)


@settings(max_examples=80, deadline=None)
@given(base=small_base_matroids(), data=st.data())
def test_view_ranks_derive_from_the_base_rank(base, data):
    view = compose_views(data, base, ["contract", "cap"])
    expected = len(greedy_basis(view.uncounted()))
    clone = view.with_ledger(QueryLedger())
    matroid_rank(base)
    before = base.ledger.snapshot()
    assert matroid_rank(view) == expected
    assert base.ledger.snapshot() == before
    # a clone made before the scan measures once, through its own chain: a
    # scan, or the block sum on a base that reports its structure
    assert matroid_rank(clone) == expected
    structured = base.partition_structure() is not None
    assert clone.ledger.independence_queries == (0 if structured else base.n)


@settings(max_examples=60, deadline=None)
@given(
    sets=st.lists(
        st.lists(st.integers(min_value=0, max_value=5), max_size=4), min_size=1, max_size=6
    ),
    data=st.data(),
)
def test_value_views_charge_one_query_per_call(sets, data):
    f = CoverageOracle(sets, universe_size=6)
    ledger = f.ledger
    view = f
    for layer in data.draw(st.lists(st.sampled_from(["residual", "dummy"]), max_size=3)):
        if layer == "residual":
            S = data.draw(st.lists(st.integers(min_value=0, max_value=view.n - 1), unique=True))
            before = ledger.value_queries
            view = ResidualOracle(view, S)
            assert ledger.value_queries == before + 1
        else:
            view = DummyValueOracle(view, data.draw(st.integers(min_value=1, max_value=3)))
    assert all(h.ledger is ledger for h in _chain(view))
    clone = view.uncounted() if data.draw(st.booleans()) else view.with_ledger(QueryLedger())
    assert all(h.ledger is clone.ledger for h in _chain(clone))
    assert all(h.ledger is ledger for h in _chain(view))
    ids = st.integers(min_value=0, max_value=view.n - 1)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        members = data.draw(st.lists(ids, unique=True, max_size=view.n))
        before, clone_before = ledger.snapshot(), clone.ledger.snapshot()
        value = view.evaluate(members)
        assert ledger.snapshot() == (before[0] + 1, before[1])
        assert clone.evaluate(members) == value
        assert clone.ledger.snapshot() == (clone_before[0] + 1, clone_before[1])
        assert ledger.snapshot() == (before[0] + 1, before[1])


# ---------------------------------------------------------------------------
# the views forward the caller's list: answers as the base asked S + T, and
# the caller may change its list afterwards


def _caller_lists(data, ids):
    """One member list of distinct ``ids``, changed in place between calls.

    As the estimator and ``threshold_sweep`` change theirs: append one id,
    pop the last, delete one anywhere, or start a new list. Yields the list
    after each change.
    """
    members: list[int] = []
    ops = st.sampled_from(["append", "pop", "delete", "new"])
    for op in data.draw(st.lists(ops, min_size=1, max_size=12)):
        unused = [u for u in ids if u not in members]
        if op == "append" and unused:
            members.append(data.draw(st.sampled_from(unused)))
        elif op == "pop" and members:
            members.pop()
        elif op == "delete" and members:
            del members[data.draw(st.integers(min_value=0, max_value=len(members) - 1))]
        elif op == "new":
            members = data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids)))]
        yield members


@settings(max_examples=150, deadline=None)
@given(base=small_value_oracles(), data=st.data())
def test_residual_view_answers_as_its_base_asked_anchor_then_members(base, data):
    pristine = base.uncounted()
    ids = st.integers(min_value=0, max_value=base.n - 1)
    anchor = data.draw(st.just([]) | st.lists(ids, unique=True, min_size=1, max_size=3))
    view = ResidualOracle(base, anchor)
    head = sorted(anchor)
    f_anchor = pristine.uncounted().evaluate(head)
    for members in _caller_lists(data, [u for u in range(base.n) if u not in anchor]):
        asked = list(members)
        reference = pristine.uncounted()
        before = view.ledger.snapshot()
        answer = view.evaluate(members)
        assert members == asked
        assert answer == reference.evaluate(head + asked) - f_anchor
        assert view.ledger.snapshot() == (before[0] + 1, before[1])
        assert reference.ledger.snapshot() == (1, 0)
        assert view.evaluate(iter(asked)) == answer


@settings(max_examples=150, deadline=None)
@given(base=small_base_matroids(), data=st.data())
def test_matroid_views_answer_as_their_base_asked_anchor_then_members(base, data):
    if data.draw(st.booleans()):
        base = ExplicitMatroid(base.n, enumerate_independent(base))
    pristine = base.uncounted()
    kind = data.draw(st.sampled_from(["contract", "cap", "cap over contract"]))
    anchor: list[int] = []
    view = base
    if kind != "cap":
        if data.draw(st.booleans()):
            anchor = draw_independent(data, base, list(range(base.n)))
        view = ContractedMatroid(base, anchor)
    cap = None
    if kind != "contract":
        cap = data.draw(st.integers(min_value=0, max_value=base.n))
        view = RankCappedMatroid(view, cap)
    head = sorted(anchor)
    for members in _caller_lists(data, [u for u in range(base.n) if u not in anchor]):
        asked = list(members)
        reference = pristine.uncounted()
        before = view.ledger.snapshot()
        answer = view.is_independent(members)
        assert members == asked
        # the cap decides alone past it, and still charges its one query
        expected = (cap is None or len(asked) <= cap) and reference.is_independent(head + asked)
        assert answer == expected
        assert view.ledger.snapshot() == (before[0], before[1] + 1)
        assert view.is_independent(iter(asked)) == answer


# ---------------------------------------------------------------------------
# the combined algorithm's partition residual: contracted ids in a block of
# capacity zero


class _BlocksWithoutLoops(Matroid):
    """Answers like ``inner`` but reports only the blocks of the remaining ids.

    The contracted ids are loops outside every block here; swap rounding
    must give the same result as with their zero-capacity block.
    """

    def __init__(self, inner: PartitionMatroid, blocks, caps):
        super().__init__(inner.n)
        self._inner = inner
        self._structure = (blocks, caps)

    def _indep(self, members):
        return self._inner.uncounted().is_independent(members)

    def partition_structure(self):
        return ([list(b) for b in self._structure[0]], list(self._structure[1]))


@st.composite
def partition_with_contraction(draw):
    blocks, caps = draw(small_partitions())
    S = set()
    for blk, cap in zip(blocks, caps):
        S.update(draw(st.lists(st.sampled_from(blk), unique=True, max_size=cap)))
    res_blocks = [[u for u in blk if u not in S] for blk in blocks]
    res_caps = [c - sum(1 for u in blk if u in S) for blk, c in zip(blocks, caps)]
    return PartitionMatroid(blocks, caps), sorted(S), res_blocks, res_caps


@settings(max_examples=60, deadline=None)
@given(instance=partition_with_contraction(), data=st.data())
def test_zero_capacity_residual_is_the_contraction(instance, data):
    M, S, res_blocks, res_caps = instance
    n = M.n
    residual = PartitionMatroid(res_blocks + [S], res_caps + [0])
    rest = [u for u in range(n) if u not in S]
    explicit = ExplicitMatroid(n, [
        combo
        for r in range(len(rest) + 1)
        for combo in itertools.combinations(rest, r)
        if M.uncounted().is_independent(S + list(combo))
    ])
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            assert residual.is_independent(combo) == explicit.is_independent(combo)
    assert check_exchange_axiom(residual)

    bases = [
        frozenset(draw_independent(data, residual, rest))
        for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
    ]
    weights = [data.draw(st.floats(min_value=0.05, max_value=1.0)) for _ in bases]
    total = sum(weights)
    point = FractionalPoint(n=n, weights=[w / total for w in weights], bases=bases)
    before = residual.ledger.snapshot()
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 16))
    rounded = swap_round(residual, point, np.random.default_rng(seed))
    assert residual.ledger.snapshot() == before
    reference = _BlocksWithoutLoops(residual, res_blocks, res_caps)
    assert rounded == swap_round(reference, point, np.random.default_rng(seed))
