from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax import (
    ContractedMatroid,
    CoverageOracle,
    DirectedCutOracle,
    FacilityLocationOracle,
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
    ValueOracle,
    standard_greedy,
)
from submax.harness import matroid_from_dict, oracle_from_dict

from .conftest import (
    check_monotone,
    check_submodular,
    coverage4,
    exact_all_values,
    marginal,
    mean_and_se,
    reference_cut_value,
    reference_facility_value,
    sample_correlated_subset,
    small_multigraphs,
    zoo_functions,
)


class TestEvaluate:
    def test_coverage_union(self):
        f = coverage4()
        assert f.evaluate({0, 2}) == 4.0  # {a,b} | {c,d}

    def test_empty_set_is_zero_for_all_zoo_functions(self):
        for name, factory in zoo_functions():
            assert factory().evaluate(set()) == 0.0, name

    def test_modular_additivity(self):
        f = ModularOracle((3.0, 1.0, 2.0))
        assert f.evaluate({0, 2}) == 5.0

    def test_each_call_charges_one_query(self, ledger):
        f = coverage4(ledger)
        f.evaluate(set())
        f.evaluate({0, 1, 2, 3})
        assert ledger.value_queries == 2
        assert ledger.independence_queries == 0

    def test_out_of_range_id_rejected(self):
        f = coverage4()
        with pytest.raises(InvalidInputError):
            f.evaluate({7})

    def test_deterministic_for_fixed_instance(self):
        f = coverage4()
        assert f.evaluate({1, 3}) == f.evaluate({1, 3})


class TestMarginal:
    def test_coverage_marginal(self):
        f = coverage4()
        assert marginal(f, 1, {0}) == 1.0  # S2 adds only item c over S1

    def test_member_marginal_is_zero(self):
        f = coverage4()
        assert marginal(f, 0, {0, 1}) == 0.0

    def test_modular_marginal(self):
        f = ModularOracle((3.0, 1.0, 2.0))
        assert marginal(f, 1, {0}) == 1.0

    def test_costs_one_query_with_cached_value(self, ledger):
        f = coverage4(ledger)
        base = f.evaluate({0})
        before = ledger.value_queries
        marginal(f, 1, {0}, cached_fS=base)
        assert ledger.value_queries == before + 1

    def test_costs_two_queries_without_cache(self, ledger):
        f = coverage4(ledger)
        before = ledger.value_queries
        marginal(f, 1, {0})
        assert ledger.value_queries == before + 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CoverageOracle([[0], [1, 4]], 4), "sets[1] item 4 out of range"),
        (lambda: CoverageOracle([[0]], 2, weights=[1.0]),
         "weights must hold one weight per universe item"),
        (lambda: DirectedCutOracle(2, [(0, 1, 1.0), (2, 0, 1.0)]), "arcs[1] endpoint out of range"),
        (lambda: FacilityLocationOracle([1.0, 2.0]),
         "facility values must be a clients x facilities matrix"),
        (lambda: TableOracle(17, {}), "table oracles are meant for n <= 16"),
        (lambda: TableOracle(1, {frozenset(): 0.0}), "entries must define every subset"),
        (lambda: TableOracle(1, {frozenset(): 0.0, frozenset({1}): 1.0}),
         "entries[1] outside ground set of size 1"),
    ],
    ids=["sets_item", "weights", "arcs", "facility_shape", "table_n", "entries", "entries_id"],
)
def test_malformed_constructor_argument_is_named(build, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        build()


class TestConstructors:
    def test_modular_two_elements(self):
        assert ModularOracle((1.0, 1.0)).evaluate({0, 1}) == 2.0

    def test_directed_cut_both_endpoints_inside(self):
        f = DirectedCutOracle(2, [(0, 1, 5.0)])
        assert f.evaluate({0}) == 5.0
        assert f.evaluate({0, 1}) == 0.0

    def test_coverage_full_union(self):
        assert coverage4().evaluate({0, 1, 2, 3}) == 4.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            ModularOracle((1.0, -2.0))
        with pytest.raises(InvalidInputError):
            CoverageOracle([[0]], 1, weights=[-1.0])
        with pytest.raises(InvalidInputError):
            DirectedCutOracle(2, [(0, 1, -3.0)])

    def test_modular_nan_weight_rejected(self):
        with pytest.raises(InvalidInputError, match="modular weights"):
            ModularOracle((1.0, math.nan))

    def test_coverage_inf_weight_rejected(self):
        with pytest.raises(InvalidInputError, match="coverage weights"):
            CoverageOracle([[0], [1]], 2, weights=[1.0, math.inf])

    def test_facility_nan_value_rejected(self):
        with pytest.raises(InvalidInputError, match="facility values"):
            FacilityLocationOracle([[1.0, math.nan], [0.5, 2.0]])

    def test_cut_nan_weight_rejected(self):
        with pytest.raises(InvalidInputError, match="arc weights"):
            DirectedCutOracle(2, [(0, 1, math.nan)])

    def test_table_inf_value_rejected(self):
        entries = {frozenset(): 0.0, frozenset({0}): math.inf}
        with pytest.raises(InvalidInputError, match="table values"):
            TableOracle(1, entries)

    def test_monotone_flags(self):
        assert coverage4().monotone
        assert ModularOracle((1.0,)).monotone
        assert not DirectedCutOracle(2, [(0, 1, 1.0)]).monotone


class TestChecks:
    def test_coverage_is_monotone_submodular(self):
        f = coverage4()
        assert check_submodular(f) and check_monotone(f)

    def test_cut_is_submodular_not_monotone(self):
        f = DirectedCutOracle(3, [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 3.0)])
        assert check_submodular(f)
        assert not check_monotone(f)

    def test_supermodular_table_detected(self):
        entries = {
            frozenset(): 0.0,
            frozenset({0}): 0.0,
            frozenset({1}): 0.0,
            frozenset({0, 1}): 1.0,
        }
        f = TableOracle(2, entries)
        assert not check_submodular(f)

    def test_all_zoo_functions_submodular(self):
        for name, factory in zoo_functions():
            f = factory()
            if f.n <= 10:
                assert check_submodular(f, max_n=10), name

    def test_checks_do_not_touch_the_ledger(self, ledger):
        f = coverage4(ledger)
        check_submodular(f)
        check_monotone(f)
        assert ledger.snapshot() == (0, 0)


class TestDiminishingReturnsExhaustive:
    @pytest.mark.parametrize("name,factory", zoo_functions())
    def test_marginals_shrink_on_supersets(self, name, factory):
        f = factory()
        if f.n > 10:
            pytest.skip("exhaustive pairs only on n <= 10 fixtures")
        values = exact_all_values(f)
        ground = range(f.n)
        for b in values:
            for a in itertools.combinations(sorted(b), max(0, len(b) - 1)):
                a = frozenset(a)
                for u in ground:
                    if u in b:
                        continue
                    assert values[a | {u}] - values[a] >= values[b | {u}] - values[b] - 1e-9


class _ShimOracle(ValueOracle):
    """Hand-count interposer: delegates to a wrapped oracle, tallying calls."""

    def __init__(self, inner: ValueOracle):
        self._inner = inner
        self.n = inner.n
        self.ledger = inner.ledger
        self.monotone = inner.monotone
        self.calls = 0

    def evaluate(self, members):
        self.calls += 1
        return self._inner.evaluate(members)


class TestLedgerExactness:
    def test_hand_count_shim_matches_ledger(self):
        ledger = QueryLedger()
        shim = _ShimOracle(coverage4(ledger))
        standard_greedy(shim, 2)
        assert shim.calls == ledger.value_queries > 0

    def test_counters_never_decrease(self):
        # a tick takes no count: it adds one to its own counter and nothing else
        ledger = QueryLedger()
        ticks = (ledger.charge_value, ledger.charge_independence)
        for i in (0, 1, 1, 0, 1, 0, 0):
            before = ledger.snapshot()
            ticks[i]()
            assert [a - b for a, b in zip(ledger.snapshot(), before)] == [int(i == 0), int(i == 1)]
        with pytest.raises(TypeError):
            ledger.charge_value(-1)
        assert ledger.snapshot() == (4, 3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: CoverageOracle([[0], [1]], 2, None, bad),
            lambda bad: DirectedCutOracle(2, [[0, 1, 1.0]], bad),
            lambda bad: FacilityLocationOracle([[1.0, 2.0]], bad),
            lambda bad: ModularOracle([1.0, 2.0], bad),
            lambda bad: TableOracle(1, {frozenset(): 0.0, frozenset({0}): 1.0}, bad),
            lambda bad: UniformMatroid(2, 1, bad),
            lambda bad: PartitionMatroid([[0, 1]], [1], bad),
            lambda bad: GraphicMatroid(2, [[0, 1]], bad),
            lambda bad: oracle_from_dict({"kind": "modular", "weights": [1.0]}, bad),
            lambda bad: matroid_from_dict({"kind": "uniform", "n": 3, "k": 1}, bad),
        ],
        ids=["coverage", "cut", "facility", "modular", "table", "uniform",
             "partition", "graphic", "oracle_from_dict", "matroid_from_dict"],
    )
    @pytest.mark.parametrize("bad", [1000, "x", QueryLedger], ids=["int", "str", "class"])
    def test_a_handle_refuses_a_non_ledger_when_built(self, build, bad):
        with pytest.raises(InvalidInputError, match="^ledger must be a QueryLedger"):
            build(bad)

    @pytest.mark.parametrize(
        "handle",
        [
            coverage4,
            lambda: UniformMatroid(3, 1),
            lambda: ResidualOracle(coverage4(), {1}),
            lambda: RankCappedMatroid(ContractedMatroid(UniformMatroid(4, 3), {0}), 1),
        ],
        ids=["coverage", "uniform", "residual", "capped_contraction"],
    )
    @pytest.mark.parametrize("bad", [None, 1000, "x"], ids=["none", "int", "str"])
    def test_a_clone_refuses_a_non_ledger(self, handle, bad):
        h = handle()
        with pytest.raises(InvalidInputError, match="^ledger must be a QueryLedger"):
            h.with_ledger(bad)
        ledger = QueryLedger()
        assert h.with_ledger(ledger).ledger is ledger


class TestSampleCorrelatedSubset:
    def test_p_zero_and_one(self, rng):
        A = {0, 1, 2}
        assert sample_correlated_subset(A, 0.0, rng) == set()
        assert sample_correlated_subset(A, 1.0, rng) == A

    def test_inclusion_frequencies(self, rng):
        A = [0, 1, 2]
        draws = 10 ** 5
        counts = {u: 0 for u in A}
        for _ in range(draws):
            for u in sample_correlated_subset(A, 0.5, rng):
                counts[u] += 1
        for u in A:
            assert abs(counts[u] / draws - 0.5) < 0.01


class TestDistributionLemmas:
    """Sampled-subset value bounds checked on a couple of fixtures here;
    the full zoo suite runs in the acceptance module."""

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_lower_bound_with_monotone_term(self, rng, p):
        f = coverage4()
        probe = f.uncounted()
        A = {0, 1, 2, 3}
        fA = probe.evaluate(A)
        f0 = probe.evaluate(set())
        samples = [probe.evaluate(sample_correlated_subset(A, p, rng)) for _ in range(10 ** 4)]
        mean, se = mean_and_se(samples)
        assert mean >= (1 - p) * f0 + p * fA - 3 * se

    def test_nonnegative_lower_bound_on_cut(self, rng):
        f = DirectedCutOracle(4, [(0, 1, 2.0), (1, 2, 3.0), (3, 0, 1.0), (2, 3, 2.0)])
        probe = f.uncounted()
        A = {0, 2}
        f0 = probe.evaluate(set())
        p = 0.5
        samples = [probe.evaluate(sample_correlated_subset(A, p, rng)) for _ in range(10 ** 4)]
        mean, se = mean_and_se(samples)
        assert mean >= (1 - p) * f0 - 3 * se


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=1, max_size=8),
    data=st.data(),
)
def test_modular_oracle_is_additive(weights, data):
    f = ModularOracle(weights)
    members = data.draw(st.sets(st.integers(min_value=0, max_value=len(weights) - 1)))
    assert math.isclose(
        f.uncounted().evaluate(members), sum(weights[u] for u in members), abs_tol=1e-9
    )
    # the correctly rounded sum, whichever order the members come in
    order = data.draw(st.permutations(sorted(members)))
    assert f.uncounted().evaluate(order) == math.fsum(weights[u] for u in members)


def test_modular_value_does_not_depend_on_member_order():
    # a float sum in member order rounds (w0 + w2) + w3 and (w0 + w3) + w2 apart
    f = ModularOracle([1.6653876389264268, 0.0, 5.0, 9.415393577280053])
    assert f.evaluate([0, 2, 3]) == f.evaluate([0, 3, 2]) == f.evaluate([3, 2, 0])


# ---------------------------------------------------------------------------
# the coverage prefix mask and the residual view's query order


def _covered(sets, weights, members):
    """Coverage value from scratch, summed in item order as the oracle sums it."""
    covered = set()
    for u in members:
        covered.update(sets[u])
    if weights is None:
        return float(len(covered))
    total = 0.0
    for item in sorted(covered):
        total += weights[item]
    return total


@st.composite
def coverage_instances(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    universe = draw(st.integers(min_value=1, max_value=10))
    item = st.integers(min_value=0, max_value=universe - 1)
    sets = draw(st.lists(st.lists(item, max_size=4), min_size=n, max_size=n))
    weight = st.floats(min_value=0.0, max_value=10.0)
    weights = draw(st.none() | st.lists(weight, min_size=universe, max_size=universe))
    return sets, universe, weights


@settings(max_examples=100, deadline=None)
@given(instance=coverage_instances(), data=st.data())
def test_coverage_prefix_mask_matches_a_fresh_clone(instance, data):
    sets, universe, weights = instance
    f = CoverageOracle(sets, universe, weights)
    pristine = f.uncounted()  # never queried
    query: list[int] = []
    ops = st.sampled_from(["extend", "repeat", "shorter", "empty", "fresh"])
    for op in data.draw(st.lists(ops, min_size=1, max_size=12)):
        unused = [v for v in range(f.n) if v not in query]
        if op == "extend" and unused:
            # in place, as the estimator extends its list between two queries
            query.append(data.draw(st.sampled_from(unused)))
        elif op == "shorter":
            query = query[: data.draw(st.integers(min_value=0, max_value=max(len(query) - 1, 0)))]
        elif op == "empty":
            query = []
        elif op == "fresh":
            query = data.draw(st.permutations(range(f.n)))[: data.draw(st.integers(0, f.n))]
        value = f.evaluate(query)
        assert value == pristine.uncounted().evaluate(list(query))
        assert value == _covered(sets, weights, query)


class TestCoveragePrefixMask:
    SETS = [[0, 1], [1, 2], [2, 3], [3], [0, 4]]
    WEIGHTS = [0.1, 0.2, 0.3, 0.4, 0.7]

    def test_bad_last_id_after_a_prefix_hit_leaves_the_cache_sound(self):
        f = coverage4()
        assert f.evaluate([0, 1]) == 3.0
        for bad in (7, -1):
            with pytest.raises(InvalidInputError):
                f.evaluate([0, 1, bad])
            # the rejected query was not cached as a prefix
            with pytest.raises(InvalidInputError):
                f.evaluate([0, 1, bad, 2])
        assert f.evaluate([0, 1, 2]) == 4.0
        assert f.evaluate([0, 1]) == 3.0

    def test_a_list_mutated_in_place_is_not_answered_stale(self):
        f = coverage4()
        query = [0]
        assert f.evaluate(query) == 2.0
        query[0] = 3  # same length, other content
        assert f.evaluate(query + [2]) == 2.0

    def test_clone_and_original_queried_alternately(self):
        f = CoverageOracle(self.SETS, 5, self.WEIGHTS)
        clone = f.with_ledger(QueryLedger())
        queries = [
            (f, [0]), (clone, [1]), (f, [0, 2]), (clone, [1, 3]),
            (f, [0, 2, 4]), (clone, [1, 3, 0]), (clone, [1, 3, 0, 4]), (f, [0, 2, 4, 1]),
        ]
        for handle, members in queries:
            assert handle.evaluate(members) == _covered(self.SETS, self.WEIGHTS, members)
        assert f.ledger.value_queries == clone.ledger.value_queries == 4


def test_residual_view_puts_its_anchor_first():
    base = coverage4()
    seen = []
    base._value = lambda members: seen.append(list(members)) or 0.0
    view = ResidualOracle(base, {3, 1})
    view.evaluate([2, 0])
    assert seen == [[1, 3], [1, 3, 2, 0]]


# ---------------------------------------------------------------------------
# the cut and facility prefix caches


def _exact_cut(arcs, members):
    """The cut value as one exact Fraction sum, rounded once to a float."""
    inside = set(members)
    leaving = (Fraction(w) for a, b, w in arcs if a in inside and b not in inside)
    return float(sum(leaving, Fraction(0)))


@st.composite
def cut_instances(draw):
    """(n, arcs, integral): parallel arcs and self-loops allowed."""
    n = draw(st.integers(min_value=1, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    integral = draw(st.booleans())
    if integral:
        weight = st.integers(min_value=0, max_value=20) | st.integers(0, 20).map(float)
    else:
        weight = st.floats(min_value=0.0, max_value=10.0)
    return n, draw(st.lists(st.tuples(vertex, vertex, weight), max_size=20)), integral


@st.composite
def facility_instances(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    clients = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=clients, max_size=clients))


_PREFIX_OPS = [
    "extend", "prefix", "member", "repeat", "advance", "pair", "shorter", "empty", "fresh", "bad",
    "insert", "bad insert",
]


def _check_prefix_cache(f, data, expected):
    """Interleave queries of every kind on ``f`` and a ``with_ledger`` clone.

    ``f`` is a value oracle or a matroid. Each query is built from the
    previous one: its members-but-last plus one id, those alone, plus one
    of their own ids, plus a repeated id, the previous query plus one new
    id, a pair ``P + u`` then ``P`` (the estimator's order), a shorter or
    empty list, a fresh list, one with an out-of-range id among its
    members, or its members-but-last with one unused id inserted at any
    position, then one id (a grown prefix), or with an out-of-range id
    inserted there (each out-of-range query must raise), each passed as a
    list or a tuple. Every answer must equal a never-queried clone's and
    ``expected(query)``, and every call, raising or not, charges exactly
    one query of ``f``'s own kind (value or independence) and none of the
    other.
    """
    if isinstance(f, Matroid):
        method, charge = "is_independent", (0, 1)
    else:
        method, charge = "evaluate", (1, 0)

    def ask(handle, query):
        return getattr(handle, method)(query)

    pristine = f.uncounted()
    clone = f.with_ledger(QueryLedger())
    ids = st.integers(min_value=0, max_value=f.n - 1)
    last: list[int] = []
    for op in data.draw(st.lists(st.sampled_from(_PREFIX_OPS), min_size=1, max_size=14)):
        prefix = last[:-1]
        unused = [v for v in range(f.n) if v not in last]
        if op == "extend":
            queries = [prefix + [data.draw(ids)]]
        elif op == "prefix":
            queries = [prefix]
        elif op == "member" and prefix:
            queries = [prefix + [data.draw(st.sampled_from(prefix))]]
        elif op == "repeat" and last:
            queries = [last + [data.draw(st.sampled_from(last))]]
        elif op == "advance" and unused:
            queries = [last + [data.draw(st.sampled_from(unused))]]
        elif op == "pair":
            base = data.draw(st.sampled_from([last, prefix]) | st.lists(ids, max_size=f.n))
            queries = [base + [data.draw(ids)], base]
        elif op == "shorter":
            queries = [last[: data.draw(st.integers(min_value=0, max_value=max(len(last) - 1, 0)))]]
        elif op == "bad":
            query = prefix + [data.draw(ids)]
            position = data.draw(st.integers(min_value=0, max_value=len(query)))
            query.insert(position, data.draw(st.sampled_from([f.n, -1])))
            queries = [query]
        elif op == "insert" and unused:
            query = list(prefix)
            position = data.draw(st.integers(min_value=0, max_value=len(query)))
            query.insert(position, data.draw(st.sampled_from(unused)))
            queries = [query + [data.draw(ids)]]
        elif op == "bad insert":
            query = list(prefix)
            position = data.draw(st.integers(min_value=0, max_value=len(query)))
            query.insert(position, data.draw(st.sampled_from([f.n, -1])))
            queries = [query + [data.draw(ids)]]
        elif op == "fresh":
            queries = [data.draw(st.lists(ids, max_size=f.n + 1))]
        else:
            queries = [[]]
        handle = data.draw(st.sampled_from([f, clone]))
        shape = data.draw(st.sampled_from([list, tuple]))
        for query in queries:
            before = handle.ledger.snapshot()
            if op in ("bad", "bad insert"):
                with pytest.raises(InvalidInputError, match="outside ground set"):
                    ask(handle, shape(query))
            else:
                answer = ask(handle, shape(query))
                assert answer == ask(pristine.uncounted(), query)
                assert answer == expected(query)
                last = query
            assert handle.ledger.snapshot() == (before[0] + charge[0], before[1] + charge[1])


@settings(max_examples=200, deadline=None)
@given(instance=cut_instances(), data=st.data())
def test_cut_prefix_cache_matches_a_fresh_clone_and_the_exact_sum(instance, data):
    n, arcs, integral = instance

    def expected(query):
        value = _exact_cut(arcs, query)
        if integral:
            # integral weights: bit for bit the float sum of the old oracle
            assert value == reference_cut_value(n, arcs, query)
        return value

    _check_prefix_cache(DirectedCutOracle(n, arcs), data, expected)


@settings(max_examples=200, deadline=None)
@given(values=facility_instances(), data=st.data())
def test_facility_prefix_cache_matches_a_fresh_clone_and_the_reference(values, data):
    _check_prefix_cache(
        FacilityLocationOracle(values), data, lambda query: reference_facility_value(values, query)
    )


@settings(max_examples=200, deadline=None)
@given(instance=coverage_instances(), data=st.data())
def test_coverage_prefix_cache_matches_a_fresh_clone_and_the_reference(instance, data):
    sets, universe, weights = instance
    _check_prefix_cache(
        CoverageOracle(sets, universe, weights), data, lambda query: _covered(sets, weights, query)
    )


def _networkx_forest(v, edges, members):
    """Whether the listed edges (repeats kept) form a forest, by networkx."""
    if not members:
        return True
    G = nx.MultiGraph()
    G.add_nodes_from(range(v))
    G.add_edges_from(edges[e] for e in members)
    return nx.is_forest(G)


@settings(max_examples=200, deadline=None)
@given(graph=small_multigraphs(), data=st.data())
def test_graphic_prefix_cache_matches_a_fresh_clone_and_networkx(graph, data):
    v, edges = graph
    _check_prefix_cache(
        GraphicMatroid(v, edges), data, lambda query: _networkx_forest(v, edges, query)
    )


class TestCutAndFacilityPrefixCaches:
    ARCS = [(0, 1, 2.0), (1, 2, 3.0), (2, 0, 1.0), (0, 2, 4.0), (3, 1, 5.0)]
    VALUES = [[1.0, 4.0, 2.0, 0.5], [3.0, 0.0, 1.0, 2.5], [0.2, 0.7, 5.0, 1.0]]

    def _handles(self):
        return [
            (DirectedCutOracle(4, self.ARCS), lambda q: reference_cut_value(4, self.ARCS, q)),
            (FacilityLocationOracle(self.VALUES), lambda q: reference_facility_value(self.VALUES, q)),
        ]

    def test_bad_prefix_id_leaves_the_cache_sound(self):
        for f, reference in self._handles():
            assert f.evaluate([0, 1]) == reference([0, 1])
            for bad in (4, -1):
                with pytest.raises(InvalidInputError, match=f"element id {bad} outside"):
                    f.evaluate([0, bad, 2])
                # the rejected prefix was not cached
                with pytest.raises(InvalidInputError, match=f"element id {bad} outside"):
                    f.evaluate([0, bad, 3])
            assert f.evaluate([0, 2]) == reference([0, 2])
            assert f.evaluate([0, 3]) == reference([0, 3])
            assert f.evaluate([0]) == reference([0])

    def test_a_clone_keeps_the_shared_cache_when_the_original_grows(self):
        for f, reference in self._handles():
            f.evaluate([0, 1])
            clone = f.with_ledger(QueryLedger())
            # the original grows the shared cache of [0] to [0, 2]; the clone
            # still answers from the cache of [0]
            assert f.evaluate([0, 2, 3]) == reference([0, 2, 3])
            for query in ([0, 1], [0, 2], [0, 3]):
                assert clone.evaluate(query) == reference(query)

    def test_prefix_member_and_repeat_answer_the_prefix_value(self):
        for f, reference in self._handles():
            f.evaluate([3, 1, 2])
            for query in ([3, 1], [3, 1, 3], [3, 1, 1], [3, 1, 1, 3]):
                assert f.evaluate(query) == reference(query)

    def test_non_dyadic_weights_give_the_correctly_rounded_sum(self):
        arcs = [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)]
        f = DirectedCutOracle(4, arcs)
        # 0.1 + 0.2 + 0.3 in float order is 0.6000000000000001
        assert f.evaluate([0]) == _exact_cut(arcs, [0]) == 0.6
        assert f.evaluate([0, 1]) == _exact_cut(arcs, [0, 1])


@pytest.mark.parametrize(
    "f",
    [
        CoverageOracle([[0], [1]], 2),
        DirectedCutOracle(2, [(0, 1, 1.0)]),
        FacilityLocationOracle([[1.0, 2.0]]),
        ModularOracle([1.0, 2.0]),
    ],
    ids=["coverage", "cut", "facility", "modular"],
)
def test_fractional_id_is_named(f):
    for query in ([0.5], [0, 0.5], [1, 0.5, 0]):
        for given in (query, iter(query)):
            with pytest.raises(InvalidInputError, match=r"element id 0\.5 is not an integer"):
                f.evaluate(given)
    assert f.evaluate([0, 1]) == f.uncounted().evaluate([1, 0])


@pytest.mark.parametrize(
    "handle",
    [
        CoverageOracle([[0], [1], [0, 2], [3]], 4),
        DirectedCutOracle(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 0, 1.0), (0, 3, 4.0)]),
        FacilityLocationOracle([[1.0, 4.0, 2.0, 0.5], [3.0, 0.0, 1.0, 2.5]]),
        ModularOracle([1.0, 2.0, 3.0, 4.0]),
        GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        PartitionMatroid([[0, 1], [2, 3]], [2, 2]),
    ],
    ids=["coverage", "cut", "facility", "modular", "graphic", "partition"],
)
def test_an_array_id_is_named(handle):
    # an array compares elementwise, so neither its range test nor its
    # compare with a cached id has a truth value
    method = "is_independent" if isinstance(handle, Matroid) else "evaluate"
    ask = getattr(handle, method)
    bad = np.array([1, 2])
    message = re.escape(f"element id {bad!r} is not an integer")
    for cached, query in (
        ([], [bad]),
        ([], [0, bad, 1]),
        ([0, 1], [bad]),
        ([0, 1], [bad, 1]),
        ([0, 1, 2], [bad, 1, 2, 3]),
        ([0, 1, 2], [0, 1, bad, 3]),
        ([0, 1, 2], [0, 1, 2, bad]),
    ):
        ask(cached)
        with pytest.raises(InvalidInputError, match=message):
            ask(query)
    assert ask([0, 1]) == getattr(handle.uncounted(), method)([1, 0])


class _IndexOnly:
    """An integer known only through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "handle",
    [
        CoverageOracle([[0], [1], [0, 2], [3]], 4),
        DirectedCutOracle(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 0, 1.0), (0, 3, 4.0), (3, 1, 5.0)]),
        FacilityLocationOracle([[1.0, 4.0, 2.0, 0.5], [3.0, 0.0, 1.0, 2.5]]),
        GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ],
    ids=["coverage", "cut", "facility", "graphic"],
)
def test_a_grown_prefix_reads_every_id_as_its_rebuild_does(handle):
    # a query whose members-but-last are the cached prefix with one id
    # inserted or appended raises and answers exactly as a rebuild of those
    # ids would
    method = "is_independent" if isinstance(handle, Matroid) else "evaluate"
    ask = getattr(handle, method)

    def reference(query):
        return getattr(handle.uncounted(), method)(query)

    for bad in (0.0, np.float64(0.0)):
        ask([0, 1])
        message = re.escape(f"element id {bad!r} is not an integer")
        with pytest.raises(InvalidInputError, match=message):
            ask([bad, 1, 2])
    ask([0, 1])
    with pytest.raises(InvalidInputError, match=r"element id 1\.0 is not an integer"):
        ask([0, 1.0, 2])
    for inserted in (True, _IndexOnly(1), np.int64(1)):
        ask([0, 3])
        assert ask([0, inserted, 3]) == reference([0, 1, 3])
        ask([0, 2, 3])
        assert ask([0, inserted, 2, 3]) == reference([0, 1, 2, 3])
        ask([0, 2, 3])
        assert ask([0, 2, inserted, 3]) == reference([0, 2, 1, 3])
    assert ask([0, 2, 1]) == reference([0, 2, 1])
