from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax import (
    InvalidInputError,
    QueryLedger,
    ValueOracle,
    check_monotone,
    check_submodular,
    make_coverage,
    make_directed_cut,
    make_facility_location,
    make_modular,
    make_table,
    marginal,
    sample_correlated_subset,
    standard_greedy,
)

from .conftest import coverage4, exact_all_values, mean_and_se, zoo_functions


class TestEvaluate:
    def test_coverage_union(self):
        f = coverage4()
        assert f.evaluate({0, 2}) == 4.0  # {a,b} | {c,d}

    def test_empty_set_is_zero_for_all_zoo_functions(self):
        for name, factory in zoo_functions():
            assert factory().evaluate(set()) == 0.0, name

    def test_modular_additivity(self):
        f = make_modular((3.0, 1.0, 2.0))
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
        f = make_modular((3.0, 1.0, 2.0))
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


class TestConstructors:
    def test_modular_two_elements(self):
        assert make_modular((1.0, 1.0)).evaluate({0, 1}) == 2.0

    def test_directed_cut_both_endpoints_inside(self):
        f = make_directed_cut(2, [(0, 1, 5.0)])
        assert f.evaluate({0}) == 5.0
        assert f.evaluate({0, 1}) == 0.0

    def test_coverage_full_union(self):
        assert coverage4().evaluate({0, 1, 2, 3}) == 4.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            make_modular((1.0, -2.0))
        with pytest.raises(InvalidInputError):
            make_coverage([[0]], 1, weights=[-1.0])
        with pytest.raises(InvalidInputError):
            make_directed_cut(2, [(0, 1, -3.0)])

    def test_modular_nan_weight_rejected(self):
        with pytest.raises(InvalidInputError, match="modular weights"):
            make_modular((1.0, math.nan))

    def test_coverage_inf_weight_rejected(self):
        with pytest.raises(InvalidInputError, match="coverage weights"):
            make_coverage([[0], [1]], 2, weights=[1.0, math.inf])

    def test_facility_nan_value_rejected(self):
        with pytest.raises(InvalidInputError, match="facility values"):
            make_facility_location([[1.0, math.nan], [0.5, 2.0]])

    def test_cut_nan_weight_rejected(self):
        with pytest.raises(InvalidInputError, match="arc weights"):
            make_directed_cut(2, [(0, 1, math.nan)])

    def test_table_inf_value_rejected(self):
        entries = {frozenset(): 0.0, frozenset({0}): math.inf}
        with pytest.raises(InvalidInputError, match="table values"):
            make_table(1, entries)

    def test_monotone_flags(self):
        assert coverage4().monotone
        assert make_modular((1.0,)).monotone
        assert not make_directed_cut(2, [(0, 1, 1.0)]).monotone


class TestChecks:
    def test_coverage_is_monotone_submodular(self):
        f = coverage4()
        assert check_submodular(f) and check_monotone(f)

    def test_cut_is_submodular_not_monotone(self):
        f = make_directed_cut(3, [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 3.0)])
        assert check_submodular(f)
        assert not check_monotone(f)

    def test_supermodular_table_detected(self):
        entries = {
            frozenset(): 0.0,
            frozenset({0}): 0.0,
            frozenset({1}): 0.0,
            frozenset({0, 1}): 1.0,
        }
        f = make_table(2, entries)
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
        self.n_real = inner.n_real
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
        ledger = QueryLedger()
        with pytest.raises(ValueError):
            ledger.charge_value(-1)


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
        f = make_directed_cut(4, [(0, 1, 2.0), (1, 2, 3.0), (3, 0, 1.0), (2, 3, 2.0)])
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
    f = make_modular(weights)
    members = data.draw(st.sets(st.integers(min_value=0, max_value=len(weights) - 1)))
    assert math.isclose(
        f.uncounted().evaluate(members), sum(weights[u] for u in members), abs_tol=1e-9
    )
