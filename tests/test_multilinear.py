from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax import (
    CoverageOracle,
    DirectedCutOracle,
    FractionalPoint,
    GraphicMatroid,
    InvalidInputError,
    ModularOracle,
    PartitionMatroid,
    QueryLedger,
    ResidualOracle,
    UniformMatroid,
    brute_force_opt,
    combined_algorithm,
    continuous_greedy,
    crude_opt_estimate,
    estimate_marginal_F,
    estimator_sample_count,
    matroid_rank,
    swap_round,
    thresholding_greedy,
)
from submax import matroids, multilinear

from .conftest import (
    compose_views,
    coverage4,
    coverage12,
    draw_coverage,
    draw_independent,
    exact_marginal_F,
    exact_multilinear,
    mean_and_se,
    partition12,
    reference_estimate,
    small_base_matroids,
    small_partitions,
    small_value_oracles,
    zoo_matroids,
)


class TestEstimateMarginalF:
    def test_modular_every_sample_is_exact(self, rng):
        f = ModularOracle((3.0, 1.0, 2.0))
        x = FractionalPoint(n=3, weights=[0.5], bases=[frozenset({0, 1})])
        for u, w in enumerate((3.0, 1.0, 2.0)):
            assert estimate_marginal_F(f, x, u, 7, rng) == pytest.approx(w)

    def test_all_zero_point_gives_singleton_gain(self, rng):
        f = coverage4()
        x = np.zeros(4)
        probe = f.uncounted()
        expected = probe.evaluate({2}) - probe.evaluate(set())
        assert estimate_marginal_F(f, x, 2, 5, rng) == pytest.approx(expected)

    def test_costs_exactly_2m_value_queries(self, rng):
        ledger = QueryLedger()
        f = coverage4(ledger)
        estimate_marginal_F(f, np.array([0.5, 0.2, 0.1, 0.9]), 1, 13, rng)
        assert ledger.value_queries == 26

    def test_pair_asks_the_query_then_its_prefix(self):
        """f(R + u) first, then f(R): the coverage cache rebuilds at most once per pair."""
        m, u = 60, 5
        x = np.linspace(0.05, 0.95, 12)
        base = coverage12()
        view = ResidualOracle(base, [0, 3])
        rebuild = base._cache
        rebuilds = []
        base._cache = lambda prefix: rebuilds.append(len(prefix)) or rebuild(prefix)
        ref = ResidualOracle(coverage12(), [0, 3])
        got = estimate_marginal_F(view, x, u, m, np.random.default_rng(4))
        assert view.ledger.value_queries == 1 + 2 * m
        assert 0 < len(rebuilds) <= m
        assert got == reference_estimate(ref, x, u, m, np.random.default_rng(4))

    def test_unbiased_against_enumeration(self, rng):
        f = coverage4()
        x = np.array([0.5, 0.5, 0.0, 0.0])
        exact = exact_marginal_F(f, x, 2)
        runs = [estimate_marginal_F(f, x, 2, 8, rng) for _ in range(200)]
        mean, se = mean_and_se(runs)
        assert abs(mean - exact) <= 3 * max(se, 1e-12)

    def test_unbiased_on_nonmonotone_fixture(self, rng):
        f = DirectedCutOracle(5, [(0, 1, 2.0), (1, 2, 1.0), (3, 0, 4.0), (2, 4, 2.0)])
        x = np.array([0.3, 0.6, 0.2, 0.8, 0.5])
        exact = exact_marginal_F(f, x, 0)
        runs = [estimate_marginal_F(f, x, 0, 8, rng) for _ in range(200)]
        mean, se = mean_and_se(runs)
        assert abs(mean - exact) <= 3 * max(se, 1e-12)


class TestEstimatorInputContract:
    """Bad input fails before any draw or query, naming the field."""

    @pytest.mark.parametrize(
        "x, u, field",
        [
            ([0.5, 0.5, 0.5], 3, "u"),
            ([0.5, 0.5, 0.5], -1, "u"),
            ([0.5, 0.5, 0.5], 1.7, "u"),
            ([0.5, 0.5], 2, "x"),
            ([0.5, float("nan"), 0.5], 0, "x"),
            ([0.5, 2.0, 0.5], 0, "x"),
            ([0.5, -0.1, 0.5], 0, "x"),
            ([[0.5, 0.5, 0.5]], 0, "x"),
            (["a", 0.5, 0.5], 0, "x"),
        ],
    )
    def test_rejects_bad_u_or_x(self, x, u, field):
        f = CoverageOracle([[0], [1], [2]], 3)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match=rf"^{field}\b"):
            estimate_marginal_F(f, x, u, 4, rng)
        assert f.ledger.value_queries == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("m", [2.5, float("nan"), "3", None, 0, -1])
    def test_rejects_bad_m(self, m):
        f = CoverageOracle([[0], [1], [2]], 3)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match=r"^m\b"):
            estimate_marginal_F(f, [0.5, 0.5, 0.5], 0, m, rng)
        assert f.ledger.value_queries == 0
        assert rng.bit_generator.state == state

    def test_fractional_point_of_another_size_rejected(self, rng):
        f = CoverageOracle([[0], [1], [2]], 3)
        x = FractionalPoint(n=2, weights=[1.0], bases=[frozenset({0})])
        with pytest.raises(InvalidInputError, match=r"^x\b"):
            estimate_marginal_F(f, x, 0, 4, rng)

    def test_bool_and_numpy_ids_accepted(self):
        f = CoverageOracle([[0], [1], [2]], 3)
        x = [1.0, 0.0, 1.0]
        assert estimate_marginal_F(f, x, True, 2, np.random.default_rng(0)) == 1.0
        assert estimate_marginal_F(f, x, np.int64(1), 2, np.random.default_rng(0)) == 1.0


@settings(max_examples=150, deadline=None)
@given(f=small_value_oracles(), data=st.data())
def test_estimator_matches_the_reference_loop(f, data):
    """Same float, same 2m ledger charge and same RNG state as the reference."""
    view = compose_views(data, f, ["residual", "dummy_value"])
    ref = view.with_ledger(QueryLedger())
    coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    x = np.array(data.draw(st.lists(coord, min_size=view.n, max_size=view.n)))
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    # several estimates in a row, so each meets the oracles' state the last one left
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        u = data.draw(st.integers(min_value=0, max_value=view.n - 1))
        m = data.draw(st.integers(min_value=1, max_value=9))
        before, ref_before = view.ledger.value_queries, ref.ledger.value_queries
        got = estimate_marginal_F(view, x, u, m, rng)
        assert got == reference_estimate(ref, x, u, m, ref_rng)
        assert view.ledger.value_queries - before == 2 * m
        assert ref.ledger.value_queries - ref_before == 2 * m
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestContinuousGreedy:
    def test_modular_uniform_concentrates_on_top_elements(self, rng):
        weights = (5.0, 1.0, 4.0, 2.0, 3.0)
        f = ModularOracle(weights)
        M = UniformMatroid(5, 2)
        delta = 0.1
        point = continuous_greedy(f, M, c=2.0, delta=delta, rng=rng, sample_scale=0.05)
        rounded = swap_round(M, point, rng)
        top2 = sum(sorted(weights)[-2:])
        value = f.uncounted().evaluate(rounded)
        assert value >= (1 - delta) * top2

    def test_free_matroid_saturates(self, rng):
        f = ModularOracle((2.0, 2.0, 2.0))
        M = UniformMatroid(3, 3)
        point = continuous_greedy(f, M, c=2.0, delta=0.25, rng=rng, sample_scale=0.2)
        coords = point.coords()
        assert np.allclose(coords, 1.0)
        assert exact_multilinear(f, coords) == pytest.approx(f.uncounted().evaluate({0, 1, 2}))

    def test_output_stays_in_polytope(self, rng):
        f = coverage12()
        M = partition12()
        point = continuous_greedy(f, M, c=3.0, delta=0.2, rng=rng, sample_scale=0.01)
        assert point.total_weight() <= 1.0 + 1e-9
        probe = M.uncounted()
        for base in point.bases:
            assert probe.is_independent(base)

    def test_rejects_nonmonotone_objective(self, rng):
        f = DirectedCutOracle(3, [(0, 1, 1.0)])
        with pytest.raises(InvalidInputError):
            continuous_greedy(f, UniformMatroid(3, 1), c=2.0, delta=0.3, rng=rng)

    def test_approximation_on_small_coverage(self, rng):
        # 100 seeded runs against the exhaustive C(8,3) optimum
        rng_inst = np.random.default_rng(77)
        sets = []
        for _ in range(8):
            items = np.flatnonzero(rng_inst.random(20) < 0.25).tolist() or [0]
            sets.append(items)
        from submax import CoverageOracle

        f = CoverageOracle(sets, 20)
        M = UniformMatroid(8, 3)
        opt, _ = brute_force_opt(f, M)
        delta = 0.1
        values = []
        for seed in range(100):
            run_rng = np.random.default_rng(1000 + seed)
            point = continuous_greedy(f, M, c=3.0, delta=delta, rng=run_rng, sample_scale=0.013)
            rounded = swap_round(M, point, run_rng)
            values.append(f.uncounted().evaluate(rounded))
        mean, se = mean_and_se(values)
        assert mean >= (1 - 1 / math.e - delta) * opt - 3 * se

    def test_value_query_ceiling_at_faithful_budget(self):
        # calibrated constant, frozen; checked at sample_scale = 1
        A = 3.0
        for (n, k, c, delta) in [(6, 2, 2.0, 0.30), (8, 3, 3.0, 0.25), (5, 2, 1.5, 0.40)]:
            ledger = QueryLedger()
            rng = np.random.default_rng(n * 17 + k)
            weights = [float(w) for w in range(1, n + 1)]
            f = ModularOracle(weights).with_ledger(ledger)
            M = UniformMatroid(n, k, ledger)
            continuous_greedy(f, M, c=c, delta=delta, rng=rng)
            bound = A * c * n * delta ** -4 * math.log(n / delta) ** 2
            assert ledger.value_queries <= bound


class TestContinuousGreedyInputContract:
    """Bad input fails before any draw or query, naming the field."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"sample_scale": float("nan")}, "sample_scale"),
            ({"sample_scale": float("inf")}, "sample_scale"),
            ({"sample_scale": -1.0}, "sample_scale"),
            ({"sample_scale": 0.0}, "sample_scale"),
            ({"c": float("nan")}, "c"),
            ({"c": float("inf")}, "c"),
            ({"ground": [0, 5]}, "ground"),
            ({"ground": [-1, 0]}, "ground"),
            ({"ground": [0.5, 1]}, "ground"),
            ({"ground": ["0"]}, "ground"),
            ({"ground": [0, 0, 1]}, "ground"),
        ],
    )
    def test_rejects_bad_field(self, kwargs, field):
        ledger = QueryLedger()
        f = ModularOracle((3.0, 1.0, 2.0)).with_ledger(ledger)
        M = UniformMatroid(3, 2, ledger)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        args = {"c": 2.0, "delta": 0.25, "sample_scale": 0.05, **kwargs}
        with pytest.raises(InvalidInputError, match=rf"^{field}\b"):
            continuous_greedy(f, M, rng=rng, **args)
        assert ledger.snapshot() == (0, 0)
        assert rng.bit_generator.state == state

    def test_ground_of_numpy_ids_in_any_order(self):
        f = ModularOracle((3.0, 1.0, 2.0))
        M = UniformMatroid(3, 2)
        runs = [
            continuous_greedy(f, M, 2.0, 0.25, np.random.default_rng(5), ground=ground,
                              sample_scale=0.05)
            for ground in ([0, 1, 2], np.array([2, 0, 1]))
        ]
        assert runs[0] == runs[1]


def _reference_continuous_greedy(f, M, c, delta, rng, sample_scale):
    """The sweep without known answers: one query per non-member per level."""
    ground_ids = list(M.ground())
    n_eff = max(len(ground_ids), 2)
    m = estimator_sample_count(c, n_eff, delta, sample_scale)
    steps = math.ceil(1.0 / delta)
    rank = matroid_rank(M)
    x = np.zeros(f.n)
    point = FractionalPoint(n=f.n)
    for t in range(steps):
        step_weight = delta if t < steps - 1 else 1.0 - delta * (steps - 1)
        base: set[int] = set()
        estimates = {u: max(0.0, reference_estimate(f, x, u, m, rng)) for u in ground_ids}
        d_max = max(estimates.values(), default=0.0)
        if d_max > 0.0 and rank > 0:
            floor = delta * d_max / n_eff
            w = d_max
            members: list[int] = []
            while w > floor and len(base) < rank:
                for u in ground_ids:
                    if len(base) >= rank:
                        break
                    if u in base:
                        continue
                    members.append(u)
                    if not M.is_independent(members):
                        members.pop()
                        continue
                    members.pop()
                    if max(0.0, reference_estimate(f, x, u, m, rng)) >= w:
                        base.add(u)
                        members.append(u)
                w *= 1.0 - delta
        point.weights.append(step_weight)
        point.bases.append(frozenset(base))
        for u in base:
            x[u] += step_weight
    return point


@settings(max_examples=60, deadline=None)
@given(
    base=small_base_matroids(),
    delta=st.sampled_from([0.2, 0.35, 0.6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_known_answers_change_only_the_independence_bill(base, delta, seed, data):
    M = compose_views(data, base, ["contract", "cap"])
    f = draw_coverage(data, M.n)
    runs = []
    for algorithm in (_reference_continuous_greedy, continuous_greedy):
        ledger = QueryLedger()
        rng = np.random.default_rng(seed)
        point = algorithm(
            f.with_ledger(ledger), M.with_ledger(ledger), 2.0, delta, rng, sample_scale=0.05
        )
        runs.append((point, ledger, rng.bit_generator.state))
    (ref_point, ref_ledger, ref_state), (point, ledger, state) = runs
    assert point == ref_point
    assert ledger.value_queries == ref_ledger.value_queries
    assert state == ref_state
    assert ledger.independence_queries <= ref_ledger.independence_queries


BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


def _generator(name, seed):
    return np.random.Generator(getattr(np.random, name)(seed))


def _state(rng):
    """The bit generator's state in a form ``==`` compares; some states hold arrays."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(
    base=small_base_matroids(),
    bit_generator=st.sampled_from(BIT_GENERATORS),
    delta=st.sampled_from([0.2, 0.35, 0.6]),
    sample_scale=st.sampled_from([0.05, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_block_rows_leave_every_bit_generator_where_per_estimate_draws_do(
    base, bit_generator, delta, sample_scale, seed, data
):
    """Point, value bill, final generator state and the next draw all match."""
    f = draw_coverage(data, base.n)
    runs = []
    for algorithm in (_reference_continuous_greedy, continuous_greedy):
        ledger = QueryLedger()
        rng = _generator(bit_generator, seed)
        point = algorithm(
            f.with_ledger(ledger), base.with_ledger(ledger), 2.0, delta, rng,
            sample_scale=sample_scale,
        )
        runs.append((point, ledger.value_queries, _state(rng), rng.random()))
    assert runs[1] == runs[0]


class TestSampleRows:
    """The row source against one ``rng.random((m, len(support)))`` call per estimate."""

    N = 128  # a power of two, so a full block holds BLOCK_DOUBLES // N rows

    def _check(self, bit_generator, estimates, m):
        x = np.linspace(0.0, 1.0, self.N)  # x[0] = 0: the support leaves id 0 out
        cols = np.flatnonzero(x)
        rng, ref_rng = _generator(bit_generator, 9), _generator(bit_generator, 9)
        with multilinear._SampleRows(x, rng) as rows:
            for _ in range(estimates):
                ref = ref_rng.random((m, len(cols))) < x[cols]
                assert rows.take(m) == [cols[np.flatnonzero(row)].tolist() for row in ref]
        assert _state(rng) == _state(ref_rng)
        assert rng.random() == ref_rng.random()
        return rows

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_estimate_counts_around_block_ends(self, bit_generator):
        block = multilinear.BLOCK_DOUBLES // self.N
        # blocks of 1, 2, 4, ... rows, then full blocks: the first full one
        # ends after 2 * block - 1 one-row estimates
        first_full_end = 2 * block - 1
        for estimates in (0, 1, first_full_end - 1, first_full_end, first_full_end + 1):
            rows = self._check(bit_generator, estimates, 1)
            if estimates == first_full_end:
                assert (rows.size, rows.next) == (block, block)
            if estimates == first_full_end + 1:
                assert (rows.size, rows.next) == (block, 1)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_estimate_larger_than_one_block(self, bit_generator):
        block = multilinear.BLOCK_DOUBLES // self.N
        m = block + block // 2
        assert m * self.N > multilinear.BLOCK_DOUBLES
        self._check(bit_generator, 3, m)

    # estimates of 1 to 80 rows across block ends, and one of 1.5 full blocks
    ROW_COUNTS = [1, 3, 2, 7, 1, 50, 80, 33] * 3 + [384, 5, 1, 200, 9]

    def test_every_row_handed_out_is_a_list_of_its_own(self):
        block = multilinear.BLOCK_DOUBLES // self.N
        assert max(self.ROW_COUNTS) > block
        x = np.linspace(0.0, 1.0, self.N)
        taken = []
        with multilinear._SampleRows(x, np.random.default_rng(4)) as rows:
            for m in self.ROW_COUNTS:
                taken.extend(rows.take(m))
        assert len(taken) == sum(self.ROW_COUNTS)
        assert len({id(row) for row in taken}) == len(taken)
        assert all(type(row) is list for row in taken)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_changing_a_taken_row_leaves_the_later_rows_and_the_generator(self, bit_generator):
        x = np.linspace(0.0, 1.0, self.N)
        runs = []
        for change in (False, True):
            rng = _generator(bit_generator, 3)
            drawn = []
            with multilinear._SampleRows(x, rng) as rows:
                for m in self.ROW_COUNTS:
                    taken = rows.take(m)
                    drawn.append([list(row) for row in taken])
                    if change:
                        # as the estimator does: drop an id, append one, pop it
                        for row in taken:
                            if row:
                                del row[len(row) // 2]
                            row.append(self.N)
                            row.append(self.N + 1)
                            row.pop()
            runs.append((drawn, _state(rng), rng.random()))
        assert runs[1] == runs[0]

    def test_zero_coordinates_never_join_a_row(self):
        x = np.zeros(40)
        x[1::3] = 0.5
        x[[4, 22]] = 1e-3
        x[[7, 31]] = 1.0
        with multilinear._SampleRows(x, np.random.default_rng(6)) as rows:
            drawn = rows.take(3000)
        seen = set().union(*drawn)
        assert seen == set(np.flatnonzero(x).tolist())
        assert all(row == sorted(row) for row in drawn)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_estimate_at_zero_leaves_the_generator_untouched(self, bit_generator):
        f = coverage4()
        rng = _generator(bit_generator, 8)
        state = _state(rng)
        probe = f.uncounted()
        for u in range(4):
            assert estimate_marginal_F(f, np.zeros(4), u, 9, rng) == probe.evaluate([u])
        assert _state(rng) == state
        assert f.ledger.value_queries == 4 * 2 * 9
        with multilinear._SampleRows(np.zeros(4), rng) as rows:
            drawn = rows.take(5)
        assert drawn == [[]] * 5 and len({id(row) for row in drawn}) == 5
        assert _state(rng) == state

    def test_inclusion_frequencies_match_x(self):
        """Over 24,000 rows of seed 10, taken in estimates of 1 to 50 rows
        across block ends, each frequency is within 4.5 binomial standard
        errors of x_j (exactly 0 or 1 at x_j = 0 or 1)."""
        x = np.array([0.0, 0.01, 0.1, 0.25, 0.5, 0.0, 0.75, 0.9, 0.99, 1.0, 0.33, 0.0])
        counts = np.zeros(x.shape[0])
        total = 0
        with multilinear._SampleRows(x, np.random.default_rng(10)) as rows:
            while total < 24_000:
                m = 1 + total % 50
                for row in rows.take(m):
                    counts[row] += 1
                total += m
        freq = counts / total
        tolerance = 4.5 * np.sqrt(x * (1.0 - x) / total)
        assert (np.abs(freq - x) <= tolerance).all(), (freq, x)

    def test_oracle_error_leaves_the_generator_past_the_failed_estimate(self):
        """As one draw per estimate would: all m rows of the failed estimate are used."""

        class Failing(ModularOracle):
            def evaluate(self, members):
                self.asked = getattr(self, "asked", 0) + 1
                if self.asked == 25:  # inside the second estimate of 9 pairs
                    raise RuntimeError("oracle down")
                return super().evaluate(members)

        runs = []
        for algorithm in (_reference_continuous_greedy, continuous_greedy):
            rng = np.random.default_rng(2)
            with pytest.raises(RuntimeError):
                algorithm(Failing((1.0, 2.0, 3.0, 4.0)), UniformMatroid(4, 2), 2.0, 0.25, rng,
                          sample_scale=0.2)
            runs.append((_state(rng), rng.random()))
        assert estimator_sample_count(2.0, 4, 0.25, 0.2) == 9
        assert runs[1] == runs[0]


class _RecordingPartition(PartitionMatroid):
    """Partition matroid that records every independence query and its answer.

    It reports no partition structure, so its questions reach the oracle.
    """

    def __init__(self, blocks, caps):
        super().__init__(blocks, caps)
        self.queries = []

    def partition_structure(self):
        return None

    def is_independent(self, members):
        members = list(members)
        answer = super().is_independent(members)
        self.queries.append((members[:-1], members[-1], answer))
        return answer


def test_sweep_never_asks_again_about_an_element_found_dependent():
    # distinct modular weights: every step takes the top element first, so a
    # step's first query is the only one whose prefix shrinks
    f = ModularOracle([float(w) for w in (9, 4, 7, 1, 8, 2, 6, 3, 5)])
    M = _RecordingPartition([[0, 1, 2], [3, 4, 5], [6, 7, 8]], [1, 1, 2])
    matroid_rank(M)
    M.queries.clear()
    continuous_greedy(f, M, c=2.0, delta=0.25, rng=np.random.default_rng(3), sample_scale=0.05)
    steps: list[list] = []
    for prefix, u, answer in M.queries:
        if not steps or len(prefix) < len(steps[-1][-1][0]):
            steps.append([])
        steps[-1].append((prefix, u, answer))
    assert len(steps) == math.ceil(1 / 0.25)
    dependent = 0
    for queries in steps:
        blocked: set[int] = set()
        asked: set[tuple] = set()
        for prefix, u, answer in queries:
            assert u not in blocked
            assert (tuple(prefix), u) not in asked
            asked.add((tuple(prefix), u))
            if not answer:
                blocked.add(u)
                dependent += 1
    assert dependent > 0


class TestSwapRound:
    def test_single_base_returned_unchanged(self, rng):
        M = UniformMatroid(5, 2)
        point = FractionalPoint(n=5, weights=[1.0], bases=[frozenset({1, 3})])
        assert swap_round(M, point, rng) == {1, 3}

    def test_two_singleton_bases_frequencies(self, rng):
        M = UniformMatroid(2, 1)
        point = FractionalPoint(
            n=2, weights=[0.3, 0.7], bases=[frozenset({0}), frozenset({1})]
        )
        hits = 0
        trials = 10 ** 5
        for _ in range(trials):
            if swap_round(M, point, rng) == {0}:
                hits += 1
        assert abs(hits / trials - 0.3) < 0.01

    def test_modular_expectation_preserved(self, rng):
        weights = (4.0, 1.0, 3.0, 2.0)
        f = ModularOracle(weights)
        M = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        point = FractionalPoint(
            n=4,
            weights=[0.4, 0.35, 0.25],
            bases=[frozenset({0, 2}), frozenset({1, 3}), frozenset({0, 3})],
        )
        x = point.coords()
        target = float(sum(x[u] * weights[u] for u in range(4)))
        probe = f.uncounted()
        values = [probe.evaluate(swap_round(M, point, rng)) for _ in range(10 ** 4)]
        mean, se = mean_and_se(values)
        assert abs(mean - target) <= 3 * se

    def test_partition_path_uses_no_queries_at_all(self):
        ledger = QueryLedger()
        M = PartitionMatroid([[0, 1], [2, 3]], [1, 1], ledger)
        point = FractionalPoint(
            n=4, weights=[0.5, 0.5], bases=[frozenset({0, 2}), frozenset({1, 3})]
        )
        swap_round(M, point, np.random.default_rng(0))
        assert ledger.snapshot() == (0, 0)

    def test_general_path_uses_no_value_queries(self):
        ledger = QueryLedger()
        M = GraphicLike = UniformMatroid(4, 2, ledger)
        # force the general path by hiding the partition structure
        M.partition_structure = lambda: None  # type: ignore[method-assign]
        point = FractionalPoint(
            n=4, weights=[0.5, 0.5], bases=[frozenset({0, 2}), frozenset({1, 3})]
        )
        swap_round(M, point, np.random.default_rng(0))
        assert ledger.value_queries == 0
        assert ledger.independence_queries > 0

    def test_independence_across_zoo_matroids(self, rng):
        for name, factory in zoo_matroids():
            M = factory()
            probe = M.uncounted()
            bases = []
            basis: list[int] = []
            for u in range(M.n):
                if probe.is_independent(basis + [u]):
                    basis.append(u)
            bases.append(frozenset(basis))
            other: list[int] = []
            for u in reversed(range(M.n)):
                if probe.is_independent(other + [u]):
                    other.append(u)
            bases.append(frozenset(other))
            point = FractionalPoint(n=M.n, weights=[0.6, 0.4], bases=bases)
            for _ in range(1000):
                assert probe.is_independent(swap_round(probe, point, rng)), name

    def test_weights_below_one_still_round_proportionally(self, rng):
        M = UniformMatroid(2, 1)
        point = FractionalPoint(
            n=2, weights=[0.3, 0.3], bases=[frozenset({0}), frozenset({1})]
        )
        hits = sum(1 for _ in range(20000) if swap_round(M, point, rng) == {0})
        assert abs(hits / 20000 - 0.5) < 0.02

    def test_rank_zero_matroid_rounds_to_empty(self, rng):
        M = UniformMatroid(3, 0)
        point = FractionalPoint(n=3, weights=[1.0], bases=[frozenset()])
        assert swap_round(M, point, rng) == set()

    def test_dependent_base_rejected(self, rng):
        M = UniformMatroid(3, 1)
        point = FractionalPoint(n=3, weights=[1.0], bases=[frozenset({0, 1})])
        with pytest.raises(InvalidInputError):
            swap_round(M, point, rng)

    def test_partition_path_checks_bases_without_calling_the_oracle(self, rng):
        calls: list[list[int]] = []

        class Recording(PartitionMatroid):
            # clones share ``calls``, so uncounted probes are recorded too
            def _indep(self, members):
                calls.append(list(members))
                return super()._indep(members)

        M = Recording([[0, 1], [2, 3]], [1, 1])
        point = FractionalPoint(
            n=4, weights=[0.5, 0.5], bases=[frozenset({0, 2}), frozenset({1, 3})]
        )
        assert M.uncounted().is_independent(swap_round(M, point, rng))
        calls.clear()
        for bases in ([frozenset({0, 1})], [frozenset({0, 2}), frozenset({2, 3})]):
            with pytest.raises(InvalidInputError, match="dependent base"):
                swap_round(M, FractionalPoint(n=4, weights=[0.5] * len(bases), bases=bases), rng)
        with pytest.raises(InvalidInputError, match="element id 7"):
            swap_round(M, FractionalPoint(n=4, weights=[1.0], bases=[frozenset({0, 7})]), rng)
        swap_round(M, point, rng)
        assert calls == []

    def test_short_bases_padded_before_merging(self, rng):
        M = UniformMatroid(4, 2)
        point = FractionalPoint(
            n=4, weights=[0.5, 0.5], bases=[frozenset({0}), frozenset({1, 2})]
        )
        out = swap_round(M, point, rng)
        assert len(out) == 2

    def test_short_graphic_base_completed_to_the_rank(self, rng):
        # a triangle 0-1-2 with a pendant edge 3: rank 3; edge 2 closes the cycle
        M = GraphicMatroid(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        point = FractionalPoint(n=4, weights=[1.0], bases=[frozenset({1})])
        assert swap_round(M, point, rng) == {0, 1, 3}
        point = FractionalPoint(n=4, weights=[0.5, 0.5], bases=[frozenset({1}), frozenset({2})])
        out = swap_round(M, point, rng)
        assert len(out) == 3 and M.uncounted().is_independent(sorted(out))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("a", "element id 'a' is not an integer"),
            (1.5, "element id 1.5 is not an integer"),
            (7, "element id 7 outside ground set of size 3"),
        ],
    )
    @pytest.mark.parametrize("kind", ["partition", "graphic"])
    def test_malformed_base_id_named_before_any_sort(self, kind, bad, message, rng):
        ledger = QueryLedger()
        if kind == "partition":
            M = PartitionMatroid([[0, 1], [2]], [1, 1], ledger)
        else:
            M = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)], ledger)
        point = FractionalPoint(n=3, weights=[0.5, 0.5], bases=[frozenset({0}), frozenset({0, bad})])
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            swap_round(M, point, rng)
        assert ledger.value_queries == 0
        if kind == "partition":
            assert ledger.independence_queries == 0


_BLOCK_COUNT_RUNS = {
    "swap_round": lambda f, M, rng, lam, point: swap_round(M, point, rng),
    "thresholding_greedy": lambda f, M, rng, lam, point: thresholding_greedy(f, M, 0.25),
    "continuous_greedy": lambda f, M, rng, lam, point: continuous_greedy(
        f, M, 2.0, 0.25, rng, sample_scale=0.05
    ),
    "combined": lambda f, M, rng, lam, point: combined_algorithm(
        f, M, 0.25, lam, rng, sample_scale=1e-6
    ),
    "combined_partition": lambda f, M, rng, lam, point: combined_algorithm(
        f, M, 0.25, lam, rng, sample_scale=1e-6, use_partition=True
    ),
}


@settings(max_examples=150, deadline=None)
@given(structure=small_partitions(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       algo=st.sampled_from(sorted(_BLOCK_COUNT_RUNS)), data=st.data())
def test_block_counts_round_like_the_oracle(structure, seed, algo, data):
    """The free block-count answers change the independence bill, nothing else.

    Each run is repeated with the structure hidden from the rule in
    ``matroids``, so the rank is a scan and every question is an oracle
    query; the partition lazy phase still reads the blocks it needs.
    """
    M = PartitionMatroid(*structure)
    f = draw_coverage(data, M.n)
    lam = float(data.draw(st.integers(min_value=1, max_value=max(1, M.uncounted().rank()))))
    point = None
    if algo == "swap_round":
        ids = list(range(M.n))
        bases = [
            frozenset(draw_independent(data, M, ids))
            for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
        ]
        weights = [data.draw(st.floats(min_value=0.05, max_value=1.0)) for _ in bases]
        point = FractionalPoint(n=M.n, weights=weights, bases=bases)
    runs = []
    for hidden in (False, True):
        ledger = QueryLedger()
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            if hidden:
                mp.setattr(matroids, "_block_counts", lambda M: None)
            out = _BLOCK_COUNT_RUNS[algo](
                f.with_ledger(ledger), M.with_ledger(ledger), rng, lam, point
            )
        runs.append((out, rng.bit_generator.state, ledger.snapshot()))
    (free, free_state, free_bill), (asked, asked_state, asked_bill) = runs
    assert free == asked
    assert free_state == asked_state
    assert free_bill[0] == asked_bill[0]
    assert free_bill[1] <= asked_bill[1]
    if algo in ("swap_round", "thresholding_greedy", "continuous_greedy"):
        assert free_bill[1] == 0
    if algo == "swap_round":
        assert free_bill == (0, 0)
        assert asked_bill[0] == 0 and asked_bill[1] > 0


class TestCrudeOptEstimate:
    def test_modular_uniform_bracket(self):
        weights = (6.0, 5.0, 1.0, 3.0, 2.0)
        f = ModularOracle(weights)
        M = UniformMatroid(5, 2)
        opt = sum(sorted(weights)[-2:])
        est = crude_opt_estimate(f, M)
        assert opt <= est <= 3 * opt + 1e-9

    def test_single_element_ground_set(self):
        f = ModularOracle((4.0,))
        est = crude_opt_estimate(f, UniformMatroid(1, 1))
        assert est == pytest.approx(12.0)
        assert 4.0 <= est <= 12.0

    def test_coverage_fixture_brackets(self):
        f = coverage12()
        M = partition12()
        opt, _ = brute_force_opt(f, M)
        est = crude_opt_estimate(f, M)
        assert opt <= est <= 3 * opt + 1e-9

    def test_sample_count_formula(self):
        assert estimator_sample_count(2.0, 8, 0.5) == math.ceil(2.0 * math.log(8) / 0.25)
        assert estimator_sample_count(2.0, 8, 0.5, sample_scale=1e-9) == 1
