from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax import (
    CoverageOracle,
    FillState,
    InvalidInputError,
    ModularOracle,
    QueryLedger,
    TableOracle,
    brute_force_opt,
    draw_rank,
    lazy_greedy_improved,
    lazy_greedy_simple,
    random_greedy,
    random_sampling,
    random_sampling_monotone,
    random_sampling_nonmonotone,
    standard_greedy,
)
from submax.cardinality import _sample_without_replacement
from submax.harness import RunConfig, generate_instance, run_experiment

from .conftest import coverage4, cut14, mean_and_se, wilson_halfwidth


def coverage16(ledger=None, seed=21):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(16):
        items = np.flatnonzero(rng.random(40) < 0.12).tolist()
        if not items:
            items = [int(rng.integers(40))]
        sets.append(items)
    return CoverageOracle(sets, 40, ledger=ledger)


def declining_table():
    """f(S) = 2 - |S| on two elements: submodular, non-negative, all
    marginals negative."""
    entries = {
        frozenset(): 2.0,
        frozenset({0}): 1.0,
        frozenset({1}): 1.0,
        frozenset({0, 1}): 0.0,
    }
    return TableOracle(2, entries)


@pytest.mark.parametrize("run", [
    lambda f, k, rng: standard_greedy(f, k),
    lambda f, k, rng: random_greedy(f, k, rng),
    lambda f, k, rng: random_sampling(f, k, 0.5, 1.0, rng),
    lambda f, k, rng: random_sampling_monotone(f, k, 0.25, rng),
    lambda f, k, rng: random_sampling_nonmonotone(f, k, 0.25, rng),
    lambda f, k, rng: lazy_greedy_simple(f, k, 0.2, rng),
    lambda f, k, rng: lazy_greedy_improved(f, k, 0.2, rng),
])
def test_non_integer_k_named_before_any_query(run, rng):
    f = ModularOracle([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InvalidInputError, match=r"^k must be an integer, got 2\.5$"):
        run(f, 2.5, rng)
    with pytest.raises(InvalidInputError, match=r"^cardinality bound must satisfy 1 <= k <= n$"):
        run(f, 5, rng)
    assert f.ledger.snapshot() == (0, 0)


class TestStandardGreedy:
    def test_modular_exact_top_k(self):
        weights = (3.0, 9.0, 1.0, 7.0, 5.0)
        assert standard_greedy(ModularOracle(weights), 3) == {1, 3, 4}

    def test_coverage4_reaches_optimum(self):
        f = coverage4()
        S = standard_greedy(f, 2)
        opt, _ = brute_force_opt(f, 2)
        assert f.uncounted().evaluate(S) == opt == 4.0

    def test_exact_query_tally(self):
        ledger = QueryLedger()
        f = coverage16(ledger)
        k = 4
        standard_greedy(f, k)
        n = 16
        assert ledger.value_queries == 1 + sum(n - i for i in range(k))

    def test_stops_on_all_negative_marginals(self):
        f = declining_table()
        assert standard_greedy(f, 2) == set()


class TestFacilityLocationEndToEnd:
    def test_standard_greedy_meets_the_classic_bound(self):
        from .conftest import facility6

        f = facility6()
        opt, _ = brute_force_opt(f, 2)
        S = standard_greedy(f, 2)
        assert f.uncounted().evaluate(S) >= (1 - 1 / math.e) * opt


class TestRandomGreedy:
    def test_distribution_matches_exact_chain(self):
        # weights (4,3,2,1), k=2: outcome law {0,1}: 1/2, {0,2}: 1/4, {1,2}: 1/4
        f = ModularOracle((4.0, 3.0, 2.0, 1.0))
        counts = Counter()
        trials = 10 ** 4
        for seed in range(trials):
            S = random_greedy(f, 2, np.random.default_rng(seed))
            counts[frozenset(S)] += 1
        expected = {
            frozenset({0, 1}): 0.5,
            frozenset({0, 2}): 0.25,
            frozenset({1, 2}): 0.25,
        }
        assert set(counts) == set(expected)
        for outcome, prob in expected.items():
            se = math.sqrt(prob * (1 - prob) / trials)
            assert abs(counts[outcome] / trials - prob) <= 4 * se

    def test_never_adds_negative_marginals(self):
        f = declining_table()
        for seed in range(50):
            assert random_greedy(f, 2, np.random.default_rng(seed)) == set()

    def test_solution_size_bounded(self, rng):
        f = cut14()
        S = random_greedy(f, 5, rng)
        assert len(S) <= 5


class TestDrawRank:
    def test_fractional_s_rank_probabilities(self, rng):
        s = 2.5
        draws = 10 ** 5
        counts = Counter(draw_rank(s, rng) for _ in range(draws))
        assert set(counts) <= {1, 2, 3}
        for rank, prob in [(1, 1 / s), (2, 1 / s), (3, 0.5 / s)]:
            se = math.sqrt(prob * (1 - prob) / draws)
            assert abs(counts[rank] / draws - prob) <= 4 * se

    def test_integral_s_is_uniform(self, rng):
        counts = Counter(draw_rank(3.0, rng) for _ in range(3 * 10 ** 4))
        for rank in (1, 2, 3):
            assert abs(counts[rank] / (3 * 10 ** 4) - 1 / 3) < 0.02


class TestRandomSampling:
    def test_full_sample_top_rank_equals_standard_greedy(self, rng):
        f = coverage16()
        S_sampling = random_sampling(f, 4, 1.0, 1.0, rng)
        S_standard = standard_greedy(f, 4)
        assert S_sampling == S_standard
        assert f.uncounted().evaluate(S_sampling) == f.uncounted().evaluate(S_standard)

    def test_negative_marginal_guard(self, rng):
        f = declining_table()
        assert random_sampling(f, 2, 1.0, 1.0, rng) == set()

    def test_query_ceiling(self):
        ledger = QueryLedger()
        f = coverage16(ledger)
        k, p = 4, 0.6
        random_sampling(f, k, p, 2.0, np.random.default_rng(0))
        assert ledger.value_queries <= k * (math.ceil(p * 16) + 1)

    def test_per_iteration_inclusion_probability(self):
        # with s = k ceil(pn) / n each element joins with probability <= 1/k
        rng_inst = np.random.default_rng(55)
        sets = [np.flatnonzero(rng_inst.random(30) < 0.2).tolist() or [0] for _ in range(12)]
        f = CoverageOracle(sets, 30)
        n, k, p = 12, 3, 0.5
        s = k * math.ceil(p * n) / n
        runs = 6000
        inclusion = Counter()
        iterations = 0
        for seed in range(runs):
            # k iterations per run; each member joined in exactly one of them
            iterations += k
            inclusion.update(random_sampling(f, k, p, s, np.random.default_rng(seed)))
        for u, count in inclusion.items():
            rate = count / iterations
            assert rate <= 1.0 / k + 3 * wilson_halfwidth(count, iterations)

    def test_parameter_validation(self, rng):
        f = coverage4()
        with pytest.raises(InvalidInputError):
            random_sampling(f, 2, 0.0, 1.0, rng)
        with pytest.raises(InvalidInputError):
            random_sampling(f, 2, 0.5, 9.0, rng)  # s above ceil(pn)
        with pytest.raises(InvalidInputError):
            random_sampling(f, 0, 0.5, 1.0, rng)


def _scalar_sample(n, size, rng):
    # the reference draw: one scalar integers(j, n) call per swap target
    arr = list(range(n))
    for j in range(size):
        r = int(rng.integers(j, n))
        arr[j], arr[r] = arr[r], arr[j]
    return arr[:size]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 600), st.integers(0, 2 ** 64 - 1))
def test_sample_draw_equals_the_scalar_loop(data, n, seed):
    # two rounds with a float draw between them, as random_sampling makes:
    # the samples and the generator state (buffered half-word included) match
    sizes = [data.draw(st.integers(0, n)) for _ in range(2)]
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in sizes:
        assert _sample_without_replacement(n, size, fast) == _scalar_sample(n, size, slow)
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.random() == slow.random()
    assert fast.bit_generator.state == slow.bit_generator.state


class TestRandomSamplingMonotone:
    def test_tiny_eps_delegates_to_standard_greedy(self, rng):
        f = coverage16()
        eps = math.exp(-4)  # boundary: eps <= e^{-k}
        assert random_sampling_monotone(f, 4, eps, rng) == standard_greedy(f, 4)

    def test_rejects_nonmonotone_objective(self, rng):
        with pytest.raises(InvalidInputError):
            random_sampling_monotone(cut14(), 3, 0.2, rng)

    def test_query_ceiling(self):
        ledger = QueryLedger()
        f = coverage16(ledger)
        k, eps = 4, 0.1
        random_sampling_monotone(f, k, eps, np.random.default_rng(1))
        assert ledger.value_queries <= k * (math.ceil(16 * math.log(1 / eps) / k) + 1)

    def test_solution_size(self, rng):
        f = coverage16()
        assert len(random_sampling_monotone(f, 4, 0.1, rng)) <= 4


class TestRandomSamplingNonmonotone:
    def test_small_eps_delegates_to_random_greedy(self):
        f = cut14()
        for seed in (0, 1, 2):
            got = random_sampling_nonmonotone(f, 4, 0.3, np.random.default_rng(seed))
            want = random_greedy(f, 4, np.random.default_rng(seed))
            assert got == want

    def test_nan_eps_rejected(self, rng):
        with pytest.raises(InvalidInputError, match="eps must be positive, got nan"):
            random_sampling_nonmonotone(cut14(), 4, float("nan"), rng)

    @pytest.mark.parametrize(
        "k, eps",
        [
            # 8 ln(2/eps) exceeds 101 eps^2 by about 1e-12 (relative): p would
            # reach one, and sampling every element is the greedy
            (101, 0.3665905859718576),
            # k eps^2 underflows to zero, so the regime test must not divide
            (20, 1e-200),
        ],
    )
    def test_regime_boundary_runs_random_greedy(self, k, eps):
        f = ModularOracle([1 + i % 7 for i in range(120)])
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = random_sampling_nonmonotone(f, k, eps, got_rng)
        assert got == random_greedy(f, k, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_nan_eps_rejected_by_run_experiment(self):
        config = RunConfig(
            algo="random_sampling_nonmonotone",
            instance=generate_instance("cut", 8, 1, density=0.3),
            k=4,
            epsilon=float("nan"),
        )
        # the harness names the config's field
        with pytest.raises(InvalidInputError, match="^epsilon must be positive, got nan$"):
            run_experiment(config)

    def test_sampling_regime_runs_for_large_k(self, rng):
        # k = 150 puts the regime threshold below 1/e, activating the sampler
        n = 200
        weights = [float(1 + (i % 7)) for i in range(n)]
        f = ModularOracle(weights)
        assert 8.0 * math.log(2.0 / 0.35) < 150 * 0.35 ** 2
        S = random_sampling_nonmonotone(f, 150, 0.35, rng)
        assert len(S) <= 150
        assert f.uncounted().evaluate(S) > 0

    @pytest.mark.parametrize("eps", [0.4, 1.0, 5.0])
    def test_eps_at_or_above_one_over_e_is_clamped_below_it(self, eps):
        # k = 150 (threshold 0.314): the clamped eps still samples, with the
        # p and s of 1/e - 1e-6; k = 20 (threshold 0.664): it falls to random greedy
        n = 200
        f = ModularOracle([float(i % 7) for i in range(n)])
        clamped = 1.0 / math.e - 1e-6
        p = min(1.0, 8.0 * math.log(2.0 / clamped) / (150 * clamped * clamped))
        size = math.ceil(p * n)
        s = min(max(150 * size / n, 1.0), float(size))
        for k, reference in [
            (150, lambda rng: random_sampling(f, 150, p, s, rng)),
            (20, lambda rng: random_greedy(f, 20, rng)),
        ]:
            got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
            assert random_sampling_nonmonotone(f, k, eps, got_rng) == reference(want_rng)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestFillState:
    def test_pool_always_filled_to_k(self, rng):
        f = coverage16()
        k = 4
        filler = FillState(f, k, 0.2)
        pool = filler.pool
        solution: list[int] = []
        value = 0.0
        for _ in range(12):
            filler.fill(solution, value)
            assert len(pool) + filler.dummies == k
            pool.discard(min(pool))  # simulate a removal between calls
        # exhaust the sweep: dummies must top up the pool forever after
        filler.level = filler.num_levels
        pool.clear()
        added, gains = filler.fill(solution, value)
        assert len(pool) + filler.dummies == k
        assert added == [None] * k
        assert gains == [0.0] * k

    def test_resumption_preserves_scan_position(self):
        f = coverage16()
        k = 3
        filler = FillState(f, k, 0.2)
        filler.fill([], 0.0)
        level, pos = filler.level, filler.pos
        filler.pool.discard(min(filler.pool))
        filler.fill([], 0.0)
        assert (filler.level, filler.pos) >= (level, pos)

    def test_inserted_elements_clear_the_threshold(self):
        f = coverage16()
        k = 4
        filler = FillState(f, k, 0.25)
        added, gains = filler.fill([], 0.0)
        bar = filler.bar()
        for u, g in zip(added, gains):
            if u is not None:
                assert g > bar or filler.level > 0  # cleared its insertion level


class TestLazyGreedySimple:
    def test_k1_returns_unique_max_for_small_delta(self, rng):
        f = ModularOracle((1.0, 5.0, 2.0))
        assert lazy_greedy_simple(f, 1, 0.1, rng) == {1}

    def test_all_zero_function_returns_nothing_real(self, rng):
        f = ModularOracle((0.0, 0.0, 0.0, 0.0))
        S = lazy_greedy_simple(f, 2, 0.2, rng)
        assert S == set()
        assert f.uncounted().evaluate(S) == 0.0

    def test_delta_range_enforced(self, rng):
        f = coverage4()
        with pytest.raises(InvalidInputError):
            lazy_greedy_simple(f, 2, 0.5, rng)  # >= 1/e

    def test_asks_nothing_about_a_dummy(self, rng):
        # the sweep has no level, so every round's pool is k dummies: the 6
        # singletons, f(empty) and one f(S) per round, no rescan query
        f = ModularOracle([0.0] * 6)
        assert lazy_greedy_simple(f, 3, 0.2, rng) == set()
        assert f.ledger.snapshot() == (10, 0)

    def test_solution_bounded_and_nonnegative_value(self):
        f = cut14()
        for seed in range(10):
            S = lazy_greedy_simple(f, 4, 0.15, np.random.default_rng(seed))
            assert len(S) <= 4
            assert f.uncounted().evaluate(S) >= 0.0

    def test_query_ceiling_lemma_order(self):
        # value queries <= A (k^2 + n/d ln(k/d)) with A frozen at 8
        A = 8.0
        ledger = QueryLedger()
        f = coverage16(ledger)
        k, delta = 4, 0.2
        lazy_greedy_simple(f, k, delta, np.random.default_rng(0))
        bound = A * (k ** 2 + 16 / delta * math.log(k / delta))
        assert ledger.value_queries <= bound
        assert ledger.independence_queries == 0


class TestLazyGreedyImproved:
    def test_modular_rescans_only_from_repicked_elements(self):
        f = ModularOracle((8.0, 7.5, 7.0, 6.5, 6.0, 5.5))
        for seed in range(30):
            trace: dict = {}
            lazy_greedy_improved(f, 3, 0.1, np.random.default_rng(seed), trace=trace)
            for candidate, was_in_solution in trace.get("rescans", []):
                assert was_in_solution  # marginals never decay for modular f

    def test_per_iteration_inclusion_probability(self):
        f = cut14()
        k = 4
        runs = 3000
        inclusion = Counter()
        iterations = 0
        for seed in range(runs):
            trace: dict = {}
            lazy_greedy_improved(f, k, 0.15, np.random.default_rng(seed), trace=trace)
            picks = trace.get("picks", [])
            iterations += len(picks)
            for u in picks:
                inclusion[u] += 1
        for u, count in inclusion.items():
            if u is None:
                continue  # dummies are unconstrained
            rate = count / iterations
            assert rate <= 1.0 / k + 3 * wilson_halfwidth(count, iterations)

    def test_mean_matches_simple_variant(self):
        f = cut14()
        probe = f.uncounted()
        k, delta = 4, 0.15
        simple_vals, improved_vals = [], []
        for seed in range(400):
            simple_vals.append(
                probe.evaluate(lazy_greedy_simple(f, k, delta, np.random.default_rng(seed)))
            )
            improved_vals.append(
                probe.evaluate(lazy_greedy_improved(f, k, delta, np.random.default_rng(seed)))
            )
        m1, se1 = mean_and_se(simple_vals)
        m2, se2 = mean_and_se(improved_vals)
        assert abs(m1 - m2) <= 3 * math.hypot(se1, se2)

    def test_query_ceiling_lemma_order(self):
        # expected value queries <= A (k sqrt(n/d ln(k/d)) + n/d ln(k/d)), A = 8
        A = 8.0
        totals = []
        for seed in range(20):
            ledger = QueryLedger()
            f = coverage16(ledger)
            lazy_greedy_improved(f, 4, 0.2, np.random.default_rng(seed))
            totals.append(ledger.value_queries)
        k, n, delta = 4, 16, 0.2
        log_term = n / delta * math.log(k / delta)
        bound = A * (k * math.sqrt(log_term) + log_term)
        assert sum(totals) / len(totals) <= bound
