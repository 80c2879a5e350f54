from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submax import (
    DirectedCutOracle,
    InvalidInputError,
    LazyGreedyState,
    ModularOracle,
    PartitionMatroid,
    QueryLedger,
    UniformMatroid,
    brute_force_opt,
    choose_lambda,
    combined_algorithm,
    combined_parameters,
    continuous_greedy,
    crude_opt_estimate,
    linear_greedy,
    matroid_rank,
    random_lazy_greedy,
    thresholding_greedy,
)
from submax.harness import generate_matroid, matroid_from_dict
from submax.matroid_algos import _thresholding_greedy_value, geometric_level_count
from submax.matroids import independence_test

from .conftest import (
    compose_views,
    coverage12,
    cut14,
    draw_coverage,
    enumerate_independent,
    partition12,
    small_base_matroids,
    small_partitions,
    zoo_functions,
)


def make_state(f, M, delta, k=None):
    probe_m = M.uncounted()
    if k is None:
        basis: list[int] = []
        for u in range(M.n):
            if probe_m.is_independent(basis + [u]):
                basis.append(u)
        k = len(basis)
    probe = f.uncounted()
    W = max((probe.evaluate([u]) for u in range(f.n)), default=0.0)
    state = LazyGreedyState(list(range(f.n)), W, delta, k)
    state.solution_value = f.evaluate([])
    return state


class _RecordingUniform(UniformMatroid):
    """Uniform matroid that records the members of every independence query.

    It reports no partition structure, so its questions reach the oracle.
    """

    def __init__(self, n, k):
        super().__init__(n, k)
        self.queries = []

    def partition_structure(self):
        return None

    def is_independent(self, members):
        self.queries.append(list(members))
        return super().is_independent(members)


class _RecordingModular(ModularOracle):
    """Modular oracle that records the members of every value query."""

    def __init__(self, weights):
        super().__init__(weights)
        self.queries = []

    def evaluate(self, members):
        self.queries.append(list(members))
        return super().evaluate(members)


class TestThresholdingGreedy:
    def test_makes_no_query_for_a_member_of_its_solution(self):
        # equal weights: level 0 takes ids 0..r-1, and no later level can add one
        n, r, eps = 8, 3, 0.25
        f = ModularOracle([1.0] * n)
        M = _RecordingUniform(n, r)
        matroid_rank(M)
        M.queries.clear()
        S = thresholding_greedy(f, M, eps)
        assert S == set(range(r))
        assert geometric_level_count(eps, eps / r) > 1
        # level 0 asks about ids 0..r-1, each once before it joins; then the
        # solution is a base and the scan stops
        assert [q[-1] for q in M.queries] == list(range(r))
        # f(empty), the n singletons, and the r acceptances of level 0
        assert f.ledger.value_queries == 1 + n + r

    def test_modular_uniform_near_top_k(self):
        weights = (9.0, 7.0, 5.0, 3.0, 1.0, 8.0)
        f = ModularOracle(weights)
        M = UniformMatroid(6, 3)
        eps = 0.05
        S = thresholding_greedy(f, M, eps)
        top3 = sum(sorted(weights)[-3:])
        assert f.uncounted().evaluate(S) >= (1 - eps) * top3

    def test_one_third_of_optimum_on_coverage_fixtures(self):
        f = coverage12()
        M = partition12()
        opt, _ = brute_force_opt(f, M)
        S = thresholding_greedy(f, M, 1.0 / 6.0)
        assert f.uncounted().evaluate(S) >= opt / 3.0

    def test_single_positive_element_is_taken(self):
        f = ModularOracle((2.0,))
        assert thresholding_greedy(f, UniformMatroid(1, 1), 0.2) == {0}

    def test_deterministic(self):
        f = coverage12()
        M = partition12()
        assert thresholding_greedy(f, M, 0.3) == thresholding_greedy(f, M, 0.3)

    def test_output_independent(self):
        f = coverage12()
        M = partition12()
        S = thresholding_greedy(f, M, 0.25)
        assert M.uncounted().is_independent(S)

    def test_zero_function_returns_empty(self):
        f = ModularOracle((0.0, 0.0, 0.0))
        assert thresholding_greedy(f, UniformMatroid(3, 2), 0.2) == set()

    def test_all_loops_returns_empty(self):
        from submax import ExplicitMatroid

        f = ModularOracle((1.0, 2.0))
        M = ExplicitMatroid(2, [[]])  # every singleton is a loop
        assert thresholding_greedy(f, M, 0.2) == set()

    @pytest.mark.parametrize("eps", [1.0 / 6.0, 0.05, 0.3])
    def test_query_ceilings(self, eps):
        for name, factory in zoo_functions():
            f0 = factory()
            if not f0.monotone:
                continue
            ledger = QueryLedger()
            f = f0.with_ledger(ledger)
            k = max(1, f.n // 3)
            M = UniformMatroid(f.n, k, ledger)
            thresholding_greedy(f, M, eps)
            cap = f.n * (math.ceil(math.log(k / eps) / eps) + 2)
            assert ledger.value_queries <= cap, name
            assert ledger.independence_queries <= cap, name


def _reference_thresholding_greedy(f, M, eps):
    """The threshold loop without known answers: one query per non-member per level."""
    ground = list(M.ground())
    if not ground:
        return set(), f.evaluate([])
    f_empty = f.evaluate([])
    w_max = max(f.evaluate([u]) for u in ground)
    if w_max <= 0.0:
        return set(), f_empty
    rank = matroid_rank(M)
    if rank == 0:
        return set(), f_empty
    solution: set[int] = set()
    ordered: list[int] = []
    current = f_empty
    w = w_max
    floor = eps * w_max / rank
    while w > floor:
        for u in ground:
            if u in solution:
                continue
            members = ordered + [u]
            if not M.is_independent(members):
                continue
            gain = f.evaluate(members) - current
            if gain >= w:
                solution.add(u)
                ordered.append(u)
                current += gain
        w *= 1.0 - eps
    return solution, current


@settings(max_examples=80, deadline=None)
@given(
    base=small_base_matroids(),
    eps=st.sampled_from([0.05, 1.0 / 6.0, 0.3, 0.6]),
    data=st.data(),
)
def test_known_answers_change_only_the_independence_bill(base, eps, data):
    M = compose_views(data, base, ["contract", "cap"])
    f = draw_coverage(data, M.n)
    runs = []
    for algorithm in (_reference_thresholding_greedy, _thresholding_greedy_value):
        ledger = QueryLedger()
        result = algorithm(f.with_ledger(ledger), M.with_ledger(ledger), eps)
        runs.append((result, ledger))
    (ref_result, ref_ledger), (result, ledger) = runs
    assert result == ref_result
    assert ledger.value_queries == ref_ledger.value_queries
    assert ledger.independence_queries <= ref_ledger.independence_queries
    assert thresholding_greedy(f, M.uncounted(), eps) == ref_result[0]


class TestLinearGreedy:
    def test_modular_first_call_matches_max_weight_basis(self):
        weights = (9.0, 3.0, 7.0, 5.0, 1.0, 8.0)
        f = ModularOracle(weights)
        M = PartitionMatroid([[0, 1, 2], [3, 4, 5]], [1, 2])
        delta = 0.2
        state = make_state(f, M, delta)
        chosen = linear_greedy(state, f, M.is_independent)
        got = sum(weights[u] for u in chosen)
        # exact max-weight basis by sorted greedy (independent oracle)
        best = 0.0
        members: list[int] = []
        probe = M.uncounted()
        for u in sorted(range(6), key=lambda v: -weights[v]):
            if probe.is_independent(members + [u]):
                members.append(u)
                best += weights[u]
        assert got >= (1 - delta) * best - delta * best

    def test_all_zero_function_returns_nothing(self):
        f = ModularOracle((0.0, 0.0, 0.0))
        M = UniformMatroid(3, 2)
        state = make_state(f, M, 0.3)
        assert linear_greedy(state, f, M.is_independent) == set()

    def test_residual_quality_vs_brute_force(self):
        # the per-call guarantee f(M_i : S) >= (1-d) f(OPT' : S) - d f(OPT)
        rng = np.random.default_rng(4)
        sets = [np.flatnonzero(rng.random(24) < 0.2).tolist() or [0] for _ in range(10)]
        from submax import CoverageOracle

        f = CoverageOracle(sets, 24)
        M = PartitionMatroid([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, 1, 1])
        delta = 0.2
        opt, _ = brute_force_opt(f, M)
        state = make_state(f, M, delta)
        probe = f.uncounted()
        for _ in range(2):
            chosen = linear_greedy(state, f, M.is_independent)
            S = set(state.solution)
            fS = probe.evaluate(sorted(S))
            got = sum(probe.evaluate(sorted(S | {u})) - fS for u in chosen)
            best_resid = 0.0
            for T in enumerate_independent(contracted(M, S)):
                total = sum(probe.evaluate(sorted(S | {u})) - fS for u in T)
                best_resid = max(best_resid, total)
            assert got >= (1 - delta) * best_resid - delta * opt - 1e-9
            if chosen:
                u = min(chosen)
                state.solution.add(u)
                state.solution_value += state.accept_marginals[u]

    def test_weight_bounds_dominate_marginals(self):
        f = coverage12()
        M = partition12()
        state = make_state(f, M, 0.4)
        probe = f.uncounted()
        for _ in range(2):
            chosen = linear_greedy(state, f, M.is_independent)
            S = set(state.solution)
            fS = probe.evaluate(sorted(S))
            for u in range(f.n):
                gain = probe.evaluate(sorted(S | {u})) - fS
                assert state.weight_of(u) >= gain - 1e-9
            if chosen:
                u = min(chosen)
                state.solution.add(u)
                state.solution_value += state.accept_marginals[u]

    def test_every_value_query_is_an_add_or_decay(self):
        for question in (lambda M: M.is_independent, independence_test):
            ledger = QueryLedger()
            f = coverage12(ledger)
            M = partition12(ledger)
            state = make_state(f, M, 0.5)
            state.solution_value = 0.0
            # the second call starts from a non-empty solution
            for _ in range(2):
                before, levels = ledger.value_queries, sum(state.level.values())
                chosen = linear_greedy(state, f, question(M))
                # each decay lifts one level by one; each acceptance joins ``chosen``
                decays = sum(state.level.values()) - levels
                assert ledger.value_queries - before == len(chosen) + decays
                u = min(chosen)
                state.solution.add(u)
                state.solution_value += state.accept_marginals[u]
            assert len(state.solution) == 2

    def test_a_solution_whose_dummies_fill_the_rank_asks_nothing(self):
        # every answer is "dependent" by count once S plus the dummies hold k
        ledger = QueryLedger()
        f = ModularOracle([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], ledger)
        M = UniformMatroid(6, 3, ledger)
        state = LazyGreedyState(list(range(6)), 6.0, 0.5, 3)
        state.solution, state.dummies, state.solution_value = {0, 1}, 1, 11.0
        levels = dict(state.level)
        assert linear_greedy(state, f, M.is_independent) == set()
        assert ledger.snapshot() == (0, 0)
        assert state.level == levels

    @pytest.mark.parametrize(
        "on_blocks", [False, True], ids=["linear_greedy-general", "linear_greedy-partition"]
    )
    def test_asks_no_question_about_a_solution_member(self, on_blocks):
        # a member of S is a loop of M/S with marginal 0: every answer about it is known
        f = _RecordingModular([float(12 - u) for u in range(12)])
        if not on_blocks:
            M = _RecordingUniform(12, 4)
            asked = M.queries
            independent = M.is_independent
        else:
            M, asked = partition12(), []
            test = independence_test(M)

            def independent(members):
                asked.append(list(members))
                return test(members)

        state = make_state(f, M, 0.5)
        state.solution = {1, 6}
        state.solution_value = f.uncounted().evaluate([1, 6])
        f.queries.clear()
        asked.clear()
        linear_greedy(state, f, independent)
        assert f.queries and asked
        for q in f.queries + asked:
            assert q[:2] == [1, 6] and q[-1] not in state.solution


def contracted(M, S):
    from submax import ContractedMatroid

    return ContractedMatroid(M.uncounted(), S)


class TestLinearGreedyPartition:
    def test_matches_general_variant_on_tie_free_instance(self):
        weights = (9.0, 3.5, 7.0, 5.0, 1.0, 8.0, 6.0, 2.0)
        f = ModularOracle(weights)
        M = PartitionMatroid([[0, 1, 2, 3], [4, 5, 6, 7]], [2, 1])
        delta = 0.3
        s_gen = make_state(f, M, delta)
        s_par = make_state(f, M, delta)
        s_par.solution_value = 0.0
        s_gen.solution_value = 0.0
        for _ in range(2):
            general = linear_greedy(s_gen, f, M.is_independent)
            fast = linear_greedy(s_par, f, independence_test(M))
            assert general == fast
            assert s_gen.level == s_par.level
            if general:
                u = min(general)
                for s in (s_gen, s_par):
                    s.solution.add(u)
                    s.solution_value += s.accept_marginals[u]

    def test_zero_capacities_give_empty_set(self):
        f = ModularOracle((1.0, 2.0))
        M = PartitionMatroid([[0], [1]], [0, 0])
        state = LazyGreedyState([0, 1], 2.0, 0.3, 0)
        state.solution_value = 0.0
        assert linear_greedy(state, f, independence_test(M)) == set()

    def test_uses_zero_independence_queries(self):
        ledger = QueryLedger()
        f = coverage12(ledger)
        M = partition12(ledger)
        state = LazyGreedyState(list(range(M.n)), 4.0, 0.4, 4)
        state.solution_value = 0.0
        before = ledger.independence_queries
        linear_greedy(state, f, independence_test(M))
        assert ledger.independence_queries == before

    def test_residual_quality_vs_brute_force(self):
        rng = np.random.default_rng(9)
        sets = [np.flatnonzero(rng.random(30) < 0.18).tolist() or [1] for _ in range(12)]
        from submax import CoverageOracle

        f = CoverageOracle(sets, 30)
        M = partition12()
        delta = 0.2
        opt, _ = brute_force_opt(f, M)
        state = make_state(f, M, delta)
        state.solution_value = 0.0
        probe = f.uncounted()
        chosen = linear_greedy(state, f, independence_test(M))
        got = sum(probe.evaluate([u]) for u in chosen)
        best_resid = 0.0
        for T in enumerate_independent(M):
            best_resid = max(best_resid, sum(probe.evaluate([u]) for u in T))
        assert got >= (1 - delta) * best_resid - delta * opt - 1e-9


@st.composite
def linear_greedy_calls(draw):
    """A partition matroid, a coverage function on its ids, delta, and a state
    partway through a run: an independent solution and dummies that fill
    part of the remaining rank."""
    structure = draw(small_partitions())
    probe = PartitionMatroid(*structure).uncounted()
    f = draw_coverage(draw(st.data()), probe.n)
    solution: list[int] = []
    for u in draw(st.lists(st.integers(min_value=0, max_value=probe.n - 1), unique=True)):
        if probe.is_independent(solution + [u]):
            solution.append(u)
    spare = matroid_rank(probe) - len(solution)
    dummies = draw(st.integers(min_value=0, max_value=spare))
    return structure, f, draw(st.sampled_from([0.2, 0.5, 0.7])), solution, dummies


@settings(max_examples=150, deadline=None)
@given(call=linear_greedy_calls())
# block 0 is scanned first, but the shared allowance of 2 belongs to block 1's weights
@example(call=(
    ([[0, 1, 2, 3], [4, 5, 6, 7]], [2, 2]),
    ModularOracle([1.0, 1.0, 0.9, 0.9, 10.0, 9.0, 8.0, 7.0]),
    0.5,
    [],
    2,
))
def test_one_partition_linear_greedy_call_matches_the_general_one(call):
    structure, f, delta, solution, dummies = call
    runs = []
    for question in (independence_test, lambda M: M.is_independent):
        ledger = QueryLedger()
        fc, M = f.with_ledger(ledger), PartitionMatroid(*structure, ledger)
        state = make_state(fc, M, delta)
        state.solution, state.dummies = set(solution), dummies
        state.solution_value = f.uncounted().evaluate(solution)
        chosen = linear_greedy(state, fc, question(M))
        assert M.uncounted().is_independent(sorted(state.solution | chosen))
        assert len(state.solution) + len(chosen) + dummies <= state.k
        runs.append((chosen, state.accept_marginals, state.level, ledger.value_queries))
    assert runs[0] == runs[1]


@settings(max_examples=150, deadline=None)
@given(
    structure=small_partitions(),
    delta=st.sampled_from([0.2, 0.5, 0.7]),
    B=st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_partition_fast_path_matches_the_general_path(structure, delta, B, seed, data):
    M = PartitionMatroid(*structure)
    f = draw_coverage(data, M.n)
    I = data.draw(st.integers(min_value=0, max_value=matroid_rank(M) // 2))
    fast, general = (
        random_lazy_greedy(f, M, delta, B, I, np.random.default_rng(seed), use_partition=flag)
        for flag in (True, False)
    )
    assert fast == general


_GROUND_SET_ENTRY_POINTS = {
    "thresholding_greedy": lambda f, M, rng: thresholding_greedy(f, M, 0.25),
    "crude_opt_estimate": lambda f, M, rng: crude_opt_estimate(f, M),
    "continuous_greedy": lambda f, M, rng: continuous_greedy(f, M, 2.0, 0.25, rng),
    "random_lazy_greedy": lambda f, M, rng: random_lazy_greedy(f, M, 0.5, 0.3, 1, rng),
    "random_lazy_greedy-partition": lambda f, M, rng: random_lazy_greedy(
        f, M, 0.5, 0.3, 1, rng, use_partition=True
    ),
    "combined_algorithm": lambda f, M, rng: combined_algorithm(f, M, 0.25, 1.0, rng),
}


@pytest.mark.parametrize("entry", sorted(_GROUND_SET_ENTRY_POINTS))
def test_matroid_over_another_ground_set_refused_before_any_query(entry, rng):
    # ids 24-29 carry all the weight, and M cannot see them
    ledger = QueryLedger()
    f = ModularOracle([1.0] * 24 + [100.0] * 6, ledger)
    M = UniformMatroid(24, 3, ledger)
    with pytest.raises(
        InvalidInputError, match=r"^matroid ground set size 24 differs from .* size 30$"
    ):
        _GROUND_SET_ENTRY_POINTS[entry](f, M, rng)
    assert ledger.snapshot() == (0, 0)


@pytest.mark.parametrize("entry", sorted(_GROUND_SET_ENTRY_POINTS))
def test_non_monotone_objective_refused_before_any_query(entry):
    ledger = QueryLedger()
    f = cut14(ledger)
    M = UniformMatroid(14, 4, ledger)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidInputError, match=r"requires a monotone objective$"):
        _GROUND_SET_ENTRY_POINTS[entry](f, M, rng)
    assert ledger.snapshot() == (0, 0)
    assert rng.bit_generator.state == state


class TestRandomLazyGreedy:
    def test_zero_b_always_fails(self, rng):
        f = coverage12()
        M = partition12()
        outcome = random_lazy_greedy(f, M, 0.5, 0.0, 2, rng)
        assert outcome.failed and outcome.iterations == 2

    def test_huge_b_stops_immediately(self, rng):
        f = coverage12()
        M = partition12()
        outcome = random_lazy_greedy(f, M, 0.5, 1e6, 2, rng)
        assert not outcome.failed
        assert outcome.iterations == 0
        assert outcome.solution == frozenset()

    def test_partition_path_refused_before_any_query(self, rng):
        from submax import GraphicMatroid

        ledger = QueryLedger()
        f = coverage12(ledger)
        M = GraphicMatroid(13, [(u, u + 1) for u in range(12)], ledger)
        with pytest.raises(InvalidInputError, match="needs a partition matroid"):
            random_lazy_greedy(f, M, 0.5, 0.3, 2, rng, use_partition=True)
        assert ledger.snapshot() == (0, 0)

    def test_nan_b_rejected(self, rng):
        with pytest.raises(InvalidInputError, match="^B must be non-negative"):
            random_lazy_greedy(coverage12(), partition12(), 0.5, float("nan"), 2, rng)

    def test_non_integer_iteration_bound_rejected(self, rng):
        with pytest.raises(InvalidInputError, match="^iteration bound must be an integer"):
            random_lazy_greedy(coverage12(), partition12(), 0.5, 1.0, 1.5, rng)

    def test_iteration_bound_above_half_rank_rejected(self, rng):
        f = coverage12()
        M = partition12()  # rank 4
        with pytest.raises(InvalidInputError):
            random_lazy_greedy(f, M, 0.5, 1.0, 3, rng)

    def test_active_runs_respect_solution_budget(self, rng):
        f = coverage12()
        M = partition12()
        for seed in range(20):
            outcome = random_lazy_greedy(
                f, M, 0.5, 0.05, 2, np.random.default_rng(seed)
            )
            if not outcome.failed:
                assert len(outcome.solution) + outcome.dummies_used <= 2
                assert M.uncounted().is_independent(outcome.solution)

    def test_add_then_exit_on_collapsing_residual(self):
        # identical sets: after one pick every other marginal is zero, so the
        # run adds exactly one element and then hits the stopping test
        from submax import CoverageOracle

        f = CoverageOracle([[0, 1, 2]] * 6, 3)
        M = UniformMatroid(6, 4)
        picks = set()
        for seed in range(60):
            outcome = random_lazy_greedy(f, M, 0.5, 0.2, 2, np.random.default_rng(seed))
            assert not outcome.failed
            assert outcome.iterations == 1
            assert len(outcome.solution) == 1
            picks |= set(outcome.solution)
        assert picks == {0, 1, 2, 3}  # uniform over the level-0 acceptances

    def test_opt_estimate_brackets_true_optimum(self, rng):
        f = coverage12()
        M = partition12()
        opt, _ = brute_force_opt(f, M)
        outcome = random_lazy_greedy(f, M, 0.5, 4.0, 2, rng)
        assert opt <= outcome.opt_estimate <= 3 * opt + 1e-9

    def test_query_counts_within_lemma_orders(self):
        # value: O(Ik + n/d ln(k/d)); independence: O(In/d ln(k/d)); A frozen at 6
        A = 6.0
        ledger = QueryLedger()
        f = coverage12(ledger)
        M = partition12(ledger)
        delta, I = 0.5, 2
        random_lazy_greedy(f, M, delta, 4.0, I, np.random.default_rng(0))
        k, n = 4, 12
        log_term = math.log(k / delta) / delta
        # crude estimate + W scan are part of the measured run; the lemma
        # absorbs them into the same order
        value_bound = A * (I * k + n * log_term + n * math.log(k) * 6 + n)
        indep_bound = A * (I * n * log_term + n * math.log(k) * 6 + n)
        assert ledger.value_queries <= value_bound
        assert ledger.independence_queries <= indep_bound


class TestCombinedAlgorithm:
    def test_prescribed_parameters(self):
        params = combined_parameters(100, 0.1, 30.0)
        assert params.delta == 0.5
        assert params.B == pytest.approx(2000.0 / 3.0)
        assert params.I == 10
        assert params.c == pytest.approx(8002.0)
        assert params.cg_delta == pytest.approx(0.025)

    def test_rank_one_bypass_scans_for_the_best_singleton(self, rng):
        weights = (2.0, 7.0, 5.0)
        f = ModularOracle(weights)
        M = UniformMatroid(3, 1)
        result = combined_algorithm(f, M, 0.25, 1.0, rng)
        assert result.solution == frozenset({1})

    def test_failure_path_returns_empty(self, rng):
        f = coverage12()
        M = partition12()
        result = combined_algorithm(
            f, M, 0.25, 2.0, rng, sample_scale=1e-6, B_override=0.0
        )
        assert result.failed and result.solution == frozenset()

    @pytest.mark.parametrize(
        "vertices, edges", [(2, [(0, 1)] * 4), (3, [(0, 1), (1, 2), (0, 2), (0, 1)])]
    )
    def test_partition_path_refused_before_any_query(self, vertices, edges):
        # rank 1 takes the single-element shortcut and rank 2 scans for the
        # rank; neither may run before the refusal
        from submax import GraphicMatroid

        ledger = QueryLedger()
        f = ModularOracle([1.0, 2.0, 3.0, 4.0], ledger)
        M = GraphicMatroid(vertices, edges, ledger)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match="^partition fast path needs a partition"):
            combined_algorithm(f, M, 0.25, 1.0, rng, use_partition=True)
        assert ledger.snapshot() == (0, 0)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("graphic", [False, True], ids=["uniform", "graphic"])
    def test_nan_lam_refused_on_rank_zero_before_any_query(self, graphic):
        # the graphic matroid's three self-loops would cost a 3-query rank scan
        ledger = QueryLedger()
        if graphic:
            f = ModularOracle([1.0, 2.0, 3.0], ledger)
            M = matroid_from_dict(generate_matroid("graphic", 3, 0, 1), ledger)
        else:
            f, M = ModularOracle([], ledger), UniformMatroid(0, 0, ledger)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match="^lam must be "):
            combined_algorithm(f, M, 0.25, float("nan"), rng)
        assert ledger.snapshot() == (0, 0)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_bad_b_override_refused_on_rank_one_before_any_query(self, bad):
        ledger = QueryLedger()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match="^B must be non-negative"):
            combined_algorithm(
                ModularOracle([2.0, 7.0], ledger), UniformMatroid(2, 1, ledger), 0.25, 1.0, rng,
                B_override=bad,
            )
        assert ledger.snapshot() == (0, 0)
        assert rng.bit_generator.state == state

    def test_rank_zero_returns_empty_for_any_valid_lam(self, rng):
        # lam = 5 exceeds the rank, but a rank-0 matroid has nothing to trade
        result = combined_algorithm(ModularOracle([]), UniformMatroid(0, 0), 0.25, 5.0, rng)
        assert result.solution == frozenset() and not result.failed

    def test_nan_b_override_rejected(self, rng):
        with pytest.raises(InvalidInputError, match="^B must be non-negative"):
            combined_algorithm(
                coverage12(), partition12(), 0.25, 2.0, rng, sample_scale=1e-6,
                B_override=float("nan"),
            )

    def test_parameter_validation(self, rng):
        f = coverage12()
        M = partition12()
        with pytest.raises(InvalidInputError):
            combined_algorithm(f, M, 0.9, 2.0, rng)
        with pytest.raises(InvalidInputError):
            combined_algorithm(f, M, 0.25, 99.0, rng)
        cut = DirectedCutOracle(3, [(0, 1, 1.0)])
        with pytest.raises(InvalidInputError):
            combined_algorithm(cut, UniformMatroid(3, 2), 0.25, 1.0, rng)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bad_sample_scale_named_before_any_query(self, scale):
        ledger = QueryLedger()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match=r"^sample_scale\b"):
            combined_algorithm(
                coverage12(ledger), partition12(ledger), 0.25, 2.0, rng, sample_scale=scale
            )
        assert ledger.snapshot() == (0, 0)
        assert rng.bit_generator.state == state

    def test_solution_is_independent(self):
        f = coverage12()
        M = partition12()
        for seed in range(5):
            result = combined_algorithm(
                f, M, 0.25, 2.0, np.random.default_rng(seed), sample_scale=1e-5
            )
            assert M.uncounted().is_independent(result.solution)

    def test_partition_mode_with_active_lazy_phase(self):
        # identical sets collapse the residual after one pick, so a small B
        # makes the lazy phase add exactly one element; the continuous phase
        # then runs on the reduced-capacity residual partition
        from submax import CoverageOracle

        f = CoverageOracle([[0, 1, 2]] * 6, 3)
        M = PartitionMatroid([[0, 1, 2], [3, 4, 5]], [2, 2])
        for seed in range(8):
            # lambda = 4 gives I = 2, leaving room for add-then-exit
            result = combined_algorithm(
                f,
                M,
                0.25,
                4.0,
                np.random.default_rng(seed),
                sample_scale=1e-4,
                use_partition=True,
                B_override=0.2,
            )
            assert not result.failed
            assert len(result.lazy_solution) == 1
            assert M.uncounted().is_independent(result.solution)
            assert f.uncounted().evaluate(result.solution) == 3.0

    def test_graphic_matroid_pipeline(self):
        # exercises contraction + rank-cap views and the exchange-search
        # rounding path on a non-partition matroid
        from submax import CoverageOracle, GraphicMatroid

        rng_inst = np.random.default_rng(12)
        sets = [np.flatnonzero(rng_inst.random(20) < 0.3).tolist() or [0] for _ in range(8)]
        f = CoverageOracle(sets, 20)
        M = GraphicMatroid(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4), (0, 4)])
        for seed in range(5):
            result = combined_algorithm(
                f, M, 0.25, 2.0, np.random.default_rng(seed), sample_scale=1e-4
            )
            assert not result.failed
            assert M.uncounted().is_independent(result.solution)
            assert len(result.solution) == 4  # spanning tree rank

    def test_partition_mode_matches_contract(self):
        f = coverage12()
        M = partition12()
        result = combined_algorithm(
            f,
            M,
            0.25,
            4.0,
            np.random.default_rng(3),
            sample_scale=1e-5,
            use_partition=True,
        )
        assert M.uncounted().is_independent(result.solution)
        assert not result.failed


class TestChooseLambda:
    def test_small_rank_keeps_lambda_equal_k(self):
        # threshold ~ 8.2e4 for n=1e6, eps=0.5, far above k=10
        assert choose_lambda(10 ** 6, 10, 0.5) == 10.0

    @pytest.mark.parametrize("n", [0, 2])
    def test_constant_size_ground_set_refused(self, n):
        with pytest.raises(InvalidInputError, match="^n must be at least 3$"):
            choose_lambda(n, 1, 0.5)

    def test_large_rank_takes_threshold_value(self):
        n, eps = 100, 0.5
        threshold = math.sqrt(n * eps ** -5) * math.log(n / eps)
        lam = choose_lambda(n, 10 ** 6, eps)
        assert lam == pytest.approx(threshold)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=10 ** 7),
        k=st.integers(min_value=1, max_value=10 ** 7),
        eps=st.floats(min_value=1e-3, max_value=0.99),
    )
    # the smallest threshold, about 1.97, still at least 1
    @example(n=3, k=10 ** 7, eps=0.99)
    def test_always_in_valid_range(self, n, k, eps):
        lam = choose_lambda(n, k, eps)
        assert 1.0 <= lam <= k


class TestGeometricLevels:
    def test_count_matches_direct_enumeration(self):
        for delta in (0.5, 0.25, 1.0 / 6.0):
            for ratio_den in (4, 12, 40):
                ratio = delta / ratio_den
                expected = 0
                w = 1.0
                while w > ratio:
                    expected += 1
                    w *= 1.0 - delta
                assert geometric_level_count(delta, ratio) == expected

    @pytest.mark.parametrize("ratio", [1.0, 2.0])
    def test_no_level_lies_above_a_ratio_of_one_or_more(self, ratio):
        assert geometric_level_count(0.5, ratio) == 0
