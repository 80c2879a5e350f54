from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from submax import (
    InstanceTooLargeError,
    InvalidInputError,
    ModularOracle,
    RunConfig,
    UniformMatroid,
    brute_force_opt,
    generate_instance,
    generate_matroid,
    run_experiment,
    summarize,
)
from submax import cardinality, harness, matroid_algos, matroids, multilinear, oracles
from submax.cli import main as cli_main
from submax.harness import (
    ALGORITHMS,
    CSV_COLUMNS,
    matroid_from_dict,
    oracle_from_dict,
    records_to_csv_bytes,
    save_json,
)
from submax.ledger import checked_real
from submax.matroids import matroid_rank

from .conftest import COVERAGE4_SETS, coverage4, coverage12, partition12


COV4_SPEC = {"kind": "coverage", "sets": COVERAGE4_SETS, "universe": 4}


class TestBruteForce:
    def test_coverage4_cardinality(self):
        value, witness = brute_force_opt(coverage4(), 2)
        assert value == 4.0
        assert witness == {0, 2}

    def test_modular_uniform_top_k(self):
        weights = (9.0, 2.0, 7.0, 5.0)
        f = ModularOracle(weights)
        value, witness = brute_force_opt(f, UniformMatroid(4, 2))
        assert value == 16.0 and witness == {0, 2}

    def test_empty_ground_set(self):
        f = ModularOracle(())
        value, witness = brute_force_opt(f, 0)
        assert value == 0.0 and witness == set()

    def test_nonmonotone_checks_all_sizes(self):
        # taking fewer than k elements can win for a cut objective
        from submax import DirectedCutOracle

        f = DirectedCutOracle(3, [(0, 1, 5.0), (1, 0, 1.0)])
        value, witness = brute_force_opt(f, 3)
        assert value == 5.0 and witness == {0}

    def test_refuses_oversized_cardinality_instance(self):
        f = ModularOracle(tuple(float(i) for i in range(25)))
        with pytest.raises(InstanceTooLargeError):
            brute_force_opt(f, 3)

    def test_ledger_untouched(self, ledger):
        f = coverage4(ledger)
        M = UniformMatroid(4, 2, ledger)
        brute_force_opt(f, M)
        assert ledger.snapshot() == (0, 0)

    @pytest.mark.parametrize("bound", [2.5, "x", -1, None])
    def test_bad_cardinality_bound_named(self, bound):
        with pytest.raises(InvalidInputError, match=r"^k must be"):
            brute_force_opt(coverage4(), bound)

    def test_numpy_integer_bound_is_k(self):
        assert brute_force_opt(coverage4(), np.int64(2)) == brute_force_opt(coverage4(), 2)

    @pytest.mark.parametrize(
        "M",
        [
            UniformMatroid(4, 2),
            matroids.PartitionMatroid([[0, 1], [2, 3]], [1, 1]),
            matroids.GraphicMatroid(3, [[0, 1], [1, 2], [0, 2]]),
        ],
        ids=["uniform", "partition", "graphic"],
    )
    def test_set_limit_counts_every_independent_set(self, monkeypatch, M):
        probe = M.uncounted()
        family = sum(
            probe.is_independent(combo)
            for r in range(M.n + 1)
            for combo in itertools.combinations(range(M.n), r)
        )
        f = ModularOracle(tuple(float(u + 1) for u in range(M.n)))
        monkeypatch.setattr(harness, "BRUTE_FORCE_MAX_SETS", family)
        assert brute_force_opt(f, M)[0] > 0
        monkeypatch.setattr(harness, "BRUTE_FORCE_MAX_SETS", family - 1)
        with pytest.raises(
            InstanceTooLargeError, match="^independence family too large for brute force$"
        ):
            brute_force_opt(f, M)

    def test_size_limit_is_the_largest_n_enumerated(self, monkeypatch):
        monkeypatch.setattr(harness, "BRUTE_FORCE_MAX_N", 3)
        assert brute_force_opt(ModularOracle((1.0, 2.0, 3.0)), 2) == (5.0, {1, 2})
        with pytest.raises(InstanceTooLargeError, match=r"^brute force limited to n <= 3$"):
            brute_force_opt(ModularOracle((1.0, 2.0, 3.0, 4.0)), 2)


class TestGeneration:
    def test_instances_are_deterministic(self):
        a = generate_instance("coverage", 20, seed=7, density=0.05)
        b = generate_instance("coverage", 20, seed=7, density=0.05)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_partition_capacities_sum_to_k(self):
        spec = generate_matroid("partition", 30, 7, seed=3, blocks=4)
        assert sum(spec["capacities"]) == 7
        ids = sorted(u for blk in spec["blocks"] for u in blk)
        assert ids == list(range(30))

    def test_graphic_rank_is_vertices_minus_one(self):
        spec = generate_matroid("graphic", 24, 6, seed=5)
        M = matroid_from_dict(spec)
        assert matroid_rank(M) == spec["vertices"] - 1

    def test_every_family_round_trips(self, tmp_path):
        for family in ("coverage", "cut", "facility", "modular"):
            spec = generate_instance(family, 8, seed=1)
            path = tmp_path / f"{family}.json"
            save_json(spec, path)
            oracle = oracle_from_dict(json.loads(path.read_text()))
            assert oracle.evaluate(set()) >= 0.0

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_instance("mystery", 5, seed=0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: generate_matroid("mystery", 4, 2, seed=0), "unknown matroid kind 'mystery'"),
            (lambda: matroid_from_dict({"kind": "mystery"}), "unknown matroid kind 'mystery'"),
            (lambda: matroid_from_dict({"kind": "uniform", "k": 2}), "uniform matroid needs n"),
        ],
        ids=["generate", "spec", "uniform_without_n"],
    )
    def test_bad_matroid_spec_named(self, build, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            build()

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidInputError, match="n must be non-negative"):
            generate_instance("coverage", -2, seed=0)
        for n, k, field in ((-2, 1, "n"), (4, -1, "k")):
            for kind in ("uniform", "partition", "graphic"):
                with pytest.raises(InvalidInputError, match=f"{field} must be non-negative"):
                    generate_matroid(kind, n, k, seed=0)

    @pytest.mark.parametrize(
        "generate, field",
        [
            (lambda: generate_instance("coverage", 2.5, 1), "n"),
            (lambda: generate_matroid("graphic", 4, 1.5, 0), "k"),
            (lambda: generate_matroid("uniform", 2.5, 1, 0), "n"),
            (lambda: generate_matroid("partition", 4, 1.5, 0), "k"),
        ],
        ids=["coverage_n", "graphic_k", "uniform_n", "partition_k"],
    )
    def test_fractional_size_rejected(self, generate, field):
        with pytest.raises(InvalidInputError, match=rf"^{field} must be an integer, got \d\.5$"):
            generate()

    @pytest.mark.parametrize("blocks", [0, -1, 5])
    def test_block_count_outside_one_to_n_rejected(self, blocks):
        with pytest.raises(InvalidInputError, match=f"blocks must be between 1 and n=4, got {blocks}"):
            generate_matroid("partition", 4, 2, seed=0, blocks=blocks)

    @pytest.mark.parametrize("blocks", [1.5, "2", [2]])
    def test_non_integer_block_count_named(self, blocks):
        with pytest.raises(InvalidInputError, match=r"^blocks must be an integer, got "):
            generate_matroid("partition", 4, 2, seed=0, blocks=blocks)

    @pytest.mark.parametrize("kind", ["partition", "graphic"])
    def test_rank_above_n_rejected(self, kind):
        with pytest.raises(InvalidInputError, match="k=9 exceeds the ground set size n=4"):
            generate_matroid(kind, 4, 9, seed=0)

    def test_rank_zero_partition_has_one_block(self):
        spec = generate_matroid("partition", 8, 0, seed=0)
        assert spec["capacities"] == [0] and spec["blocks"] == [list(range(8))]
        assert matroid_rank(matroid_from_dict(spec)) == 0

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_rank_zero_graphic_has_one_vertex_and_self_loops(self, n):
        spec = generate_matroid("graphic", n, 0, seed=0)
        assert spec == {"kind": "graphic", "vertices": 1, "edges": [[0, 0]] * n}
        M = matroid_from_dict(spec)
        assert M.n == n and matroid_rank(M) == 0

    # SHA-256 of the file save_json writes, as written by the streaming
    # json.dump form it replaced
    @pytest.mark.parametrize(
        "spec, digest",
        [
            (lambda: generate_instance("coverage", 12, 3, universe=20, density=0.3),
             "9ab51371e1e8bb2aa4c42b6e045c1907d81001b3fc68e59bd885769feddd9053"),
            (lambda: generate_instance("coverage", 12, 3),
             "18f13405760841dea8c35b22c51b1e5d499bcbb582802338befe37175698d7ae"),
            (lambda: generate_instance("cut", 10, 3, density=0.3),
             "774aa0f3fbe65bc8e3661839753dd2cc74de7aaf936c55a7192240722f6a3ab9"),
            (lambda: generate_instance("facility", 8, 3, clients=5),
             "e9973ee0d0ae0fb9534b35883a033434874d494ba575a883e00d1a546e84b99b"),
            (lambda: generate_instance("modular", 10, 3),
             "2e95d86e9ca2900d9b602773af748142525edab45e34c94ec72cec55782f8eb9"),
            (lambda: generate_matroid("uniform", 12, 4, 3),
             "241be5b25d57e3f3ab4ccb9a720a3a168d2b27191ba114b761d6f6919c0389b7"),
            (lambda: generate_matroid("partition", 12, 4, 3, blocks=3),
             "af3de70510162a6ce53e4093796a81a1c13d1251dfb9d403f6db265e06eab965"),
            (lambda: generate_matroid("graphic", 12, 4, 3),
             "ab4979f0b0185bb35ceef394cfe1830b58b37948a3afb05728033709e2e6e550"),
        ],
        ids=["coverage", "coverage_default", "cut", "facility", "modular",
             "uniform", "partition", "graphic"],
    )
    def test_saved_bytes_are_pinned(self, tmp_path, spec, digest):
        path = tmp_path / "spec.json"
        save_json(spec(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_saved_format_is_compact_sorted_with_a_newline(self, tmp_path):
        path = tmp_path / "spec.json"
        save_json({"b": [1, 2.5], "a": {"d": "x", "c": None}}, path)
        assert path.read_bytes() == b'{"a":{"c":null,"d":"x"},"b":[1,2.5]}\n'

    @pytest.mark.parametrize(
        "family, kwargs, field",
        [
            ("coverage", {"universe": 0}, "universe"),
            ("coverage", {"universe": -3}, "universe"),
            ("coverage", {"universe": 2.5}, "universe"),
            ("facility", {"clients": 0}, "clients"),
            ("facility", {"clients": -2}, "clients"),
            ("coverage", {"density": float("nan")}, "density"),
            ("cut", {"density": float("nan")}, "density"),
            ("coverage", {"density": -0.1}, "density"),
            ("cut", {"density": 1.5}, "density"),
            ("coverage", {"density": "x"}, "density"),
            ("facility", {"clients": 2.5}, "clients"),
            ("facility", {"clients": "3"}, "clients"),
            ("coverage", {"universe": "3"}, "universe"),
            ("coverage", {"universe": [4]}, "universe"),
            ("coverage", {"density": float("inf")}, "density"),
            ("cut", {"density": float("-inf")}, "density"),
            ("coverage", {"density": None}, "density"),
            ("cut", {"density": True}, "density"),
            # every field is checked, also on a family that does not read it
            ("facility", {"density": 2.0}, "density"),
            ("modular", {"density": -1.0}, "density"),
            ("modular", {"universe": 0}, "universe"),
            ("cut", {"clients": 0}, "clients"),
        ],
    )
    def test_bad_generator_field_named(self, family, kwargs, field):
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            generate_instance(family, 5, seed=0, **kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, "2", None])
    def test_bad_seed_named(self, seed):
        with pytest.raises(InvalidInputError, match="^seed must be"):
            generate_instance("coverage", 5, seed)
        with pytest.raises(InvalidInputError, match="^seed must be"):
            generate_matroid("partition", 8, 2, seed)

    def test_numpy_seed_keeps_the_bytes(self):
        assert generate_instance("cut", 6, np.int64(3)) == generate_instance("cut", 6, 3)
        assert generate_matroid("partition", 8, 3, np.int64(3)) == generate_matroid(
            "partition", 8, 3, 3
        )

    @pytest.mark.parametrize("family", ["cut", "facility", "modular"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_lie_in_one_to_ten(self, family, seed):
        spec = generate_instance(family, 6, seed, density=1.0)
        if family == "cut":
            weights = [w for _, _, w in spec["arcs"]]
        elif family == "facility":
            weights = [v for row in spec["values"] for v in row]
        else:
            weights = spec["weights"]
        assert weights and all(1 <= w <= 10 for w in weights)
        # cut arcs and modular elements draw integers; facility values lie between
        assert family == "facility" or all(type(w) is int for w in weights)

    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_density_bounds_accepted(self, density):
        spec = generate_instance("coverage", 6, 2, universe=4, density=density)
        assert len(spec["sets"]) == 6


class TestGraphicSpecValidation:
    def test_edge_with_one_endpoint_rejected(self):
        spec = {"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1]]}
        with pytest.raises(InvalidInputError, match=r"edges\[1\]"):
            matroid_from_dict(spec)

    def test_edge_with_three_endpoints_rejected(self):
        spec = {"kind": "graphic", "vertices": 3, "edges": [[0, 1, 2]]}
        with pytest.raises(InvalidInputError, match=r"edges\[0\]"):
            matroid_from_dict(spec)

    def test_non_integer_vertex_count_rejected(self):
        spec = {"kind": "graphic", "vertices": 2.5, "edges": [[0, 1]]}
        with pytest.raises(InvalidInputError, match="vertices"):
            matroid_from_dict(spec)


class TestSizeValidation:
    def test_fractional_partition_capacity_rejected(self):
        spec = {"kind": "partition", "blocks": [[0, 1], [2]], "capacities": [1.5, 1]}
        with pytest.raises(InvalidInputError, match=r"capacities\[0\]"):
            matroid_from_dict(spec)

    def test_fractional_uniform_rank_rejected(self):
        spec = {"kind": "uniform", "n": 4, "k": 2.5}
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            matroid_from_dict(spec)

    def test_fractional_uniform_size_rejected(self):
        spec = {"kind": "uniform", "n": 4.5, "k": 2}
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            matroid_from_dict(spec)

    def test_fractional_explicit_size_rejected(self):
        spec = {"kind": "explicit", "n": 2.5, "independent": [[], [0]]}
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            matroid_from_dict(spec)


# Each entry point with valid arguments for the real parameters it takes.
# Its call gets a coverage oracle and a partition matroid over 12 ids that
# share one ledger (the partition rank is read from its blocks, for free).
_REAL_PARAMETER_CALLS = {
    "thresholding_greedy": (
        lambda f, M, rng, a: matroid_algos.thresholding_greedy(f, M, **a), {"eps": 0.25},
    ),
    "random_lazy_greedy": (
        lambda f, M, rng, a: matroid_algos.random_lazy_greedy(f, M, I=1, rng=rng, **a),
        {"delta": 0.5, "B": 1.0},
    ),
    "combined_algorithm": (
        lambda f, M, rng, a: matroid_algos.combined_algorithm(f, M, rng=rng, **a),
        {"eps": 0.25, "lam": 2.0, "sample_scale": 1e-3, "B_override": 1.0},
    ),
    "choose_lambda": (lambda f, M, rng, a: matroid_algos.choose_lambda(400, 60, **a), {"eps": 0.25}),
    "continuous_greedy": (
        lambda f, M, rng, a: multilinear.continuous_greedy(f, M, rng=rng, **a),
        {"c": 2.0, "delta": 0.25, "sample_scale": 1e-3},
    ),
    "random_sampling": (
        lambda f, M, rng, a: cardinality.random_sampling(f, 3, rng=rng, **a), {"p": 0.5, "s": 2.0},
    ),
    "random_sampling_monotone": (
        lambda f, M, rng, a: cardinality.random_sampling_monotone(f, 3, rng=rng, **a),
        {"eps": 0.25},
    ),
    "random_sampling_nonmonotone": (
        lambda f, M, rng, a: cardinality.random_sampling_nonmonotone(f, 3, rng=rng, **a),
        {"eps": 0.25},
    ),
    "lazy_greedy_simple": (
        lambda f, M, rng, a: cardinality.lazy_greedy_simple(f, 3, rng=rng, **a), {"delta": 0.25},
    ),
    "lazy_greedy_improved": (
        lambda f, M, rng, a: cardinality.lazy_greedy_improved(f, 3, rng=rng, **a), {"delta": 0.25},
    ),
    "generate_instance": (
        lambda f, M, rng, a: generate_instance("coverage", 5, 0, **a), {"density": 0.1},
    ),
    "estimator_sample_count": (
        lambda f, M, rng, a: multilinear.estimator_sample_count(n=10, **a),
        {"c": 2.0, "delta": 0.5, "sample_scale": 1.0},
    ),
    "combined_parameters": (
        lambda f, M, rng, a: matroid_algos.combined_parameters(10, **a), {"eps": 0.25, "lam": 2.0},
    ),
}


class TestRealParameters:
    """Every real parameter goes through ``checked_real``: one rule, one message shape."""

    @pytest.mark.parametrize(
        "entry, name, bad",
        [
            (entry, name, bad)
            for entry, (_, valid) in _REAL_PARAMETER_CALLS.items()
            for name in valid
            for bad in ["0.25", None, True, float("nan"), float("inf")]
            # None is B_override's default, the prescribed B
            if (name, bad) != ("B_override", None)
        ],
    )
    def test_bad_value_named_before_any_query_or_draw(self, entry, name, bad):
        call, valid = _REAL_PARAMETER_CALLS[entry]
        f = coverage12()
        M = partition12(f.ledger)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        field = "B" if name == "B_override" else name
        with pytest.raises(InvalidInputError, match=rf"^{field} must be "):
            call(f, M, rng, {**valid, name: bad})
        assert f.ledger.snapshot() == (0, 0)
        assert rng.bit_generator.state == state

    # at or below these, 1 - delta rounds to 1 and a threshold never falls;
    # the combined algorithm's continuous-greedy delta is eps/4
    @pytest.mark.parametrize(
        "entry, name, bound",
        [
            ("thresholding_greedy", "eps", 2.0 ** -54),
            ("random_lazy_greedy", "delta", 2.0 ** -54),
            ("lazy_greedy_simple", "delta", 2.0 ** -54),
            ("lazy_greedy_improved", "delta", 2.0 ** -54),
            ("continuous_greedy", "delta", 2.0 ** -54),
            ("estimator_sample_count", "delta", 2.0 ** -54),
            ("combined_algorithm", "eps", 2.0 ** -52),
            ("combined_parameters", "eps", 2.0 ** -52),
        ],
    )
    def test_a_value_too_small_to_lower_a_threshold_is_named_before_any_query(
        self, entry, name, bound
    ):
        call, valid = _REAL_PARAMETER_CALLS[entry]
        for bad in (bound, 1e-17, 1e-200):
            f = coverage12()
            M = partition12(f.ledger)
            rng = np.random.default_rng(5)
            state = rng.bit_generator.state
            with pytest.raises(InvalidInputError, match=rf"^{name} must be above "):
                call(f, M, rng, {**valid, name: bad})
            assert f.ledger.snapshot() == (0, 0)
            assert rng.bit_generator.state == state

    def test_a_finite_but_astronomically_long_run_is_accepted(self):
        params = matroid_algos.combined_parameters(10, 1e-15, 2.0)
        assert params.cg_delta == 2.5e-16
        assert multilinear.estimator_sample_count(params.c, 10, params.cg_delta) > 10 ** 30
        # nothing is worth taking, so the run ends after its singleton values
        f = oracles.ModularOracle([0.0] * 3)
        assert matroid_algos.thresholding_greedy(f, matroids.UniformMatroid(3, 1), 1e-15) == set()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: multilinear.estimator_sample_count("2", 10, 0.5), "c must be a real number"),
            (lambda: multilinear.estimator_sample_count(0.5, 10, 0.5), "c must be at least 1"),
            (lambda: multilinear.estimator_sample_count(2, 10, float("nan")), "delta must be in (0, 1)"),
            (lambda: multilinear.estimator_sample_count(2, 10, 1.0), "delta must be in (0, 1)"),
            (lambda: multilinear.estimator_sample_count(2, 10.5, 0.5), "n must be an integer"),
            (lambda: multilinear.estimator_sample_count(2, 10, 0.5, 0.0), "sample_scale must be positive"),
            (lambda: matroid_algos.combined_parameters(10, 0.25, float("nan")), "lam must be at least 1"),
            (lambda: matroid_algos.combined_parameters(10, 0.25, 0.5), "lam must be at least 1"),
            (lambda: matroid_algos.combined_parameters(10, "0.25", 2), "eps must be a real number"),
            (lambda: matroid_algos.combined_parameters(10, 0.7, 2), "eps must be in (0, 0.632121)"),
            (lambda: matroid_algos.combined_parameters(0, 0.25, 2), "k must be at least 1"),
            (lambda: matroid_algos.combined_parameters(10.0, 0.25, 2), "k must be an integer"),
        ],
    )
    def test_parameter_helpers_check_their_bounds(self, call, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            call()

    def test_b_of_infinity_refused(self, rng):
        with pytest.raises(InvalidInputError, match=r"^B must be finite, got inf$"):
            matroid_algos.random_lazy_greedy(coverage12(), partition12(), 0.5, np.inf, 1, rng)

    @pytest.mark.parametrize(
        "value, bounds, message",
        [
            ("0.5", {}, "must be a real number, got '0.5'"),
            (None, {}, "must be a real number, got None"),
            (False, {}, "must be a real number, got False"),
            (1j, {}, "must be a real number, got 1j"),
            (float("-inf"), {}, "must be finite, got -inf"),
            (float("nan"), {}, "must be finite, got nan"),
            (float("nan"), {"low": 0.0, "open_low": True}, "must be positive, got nan"),
            (float("inf"), {"low": 0.0}, "must be finite, got inf"),
            (0.0, {"low": 0.0, "open_low": True}, "must be positive, got 0.0"),
            (-1, {"low": 0.0}, "must be non-negative, got -1"),
            (0.5, {"low": 1.0}, "must be at least 1, got 0.5"),
            (2, {"low": 2.0, "open_low": True}, "must be above 2, got 2"),
            (1.0, {"low": 0.0, "high": 1.0, "open_low": True, "open_high": True},
             "must be in (0, 1), got 1.0"),
            (6, {"low": 1.0, "high": 5}, "must be in [1, 5], got 6"),
        ],
    )
    def test_refusal_names_the_field_and_the_rule(self, value, bounds, message):
        with pytest.raises(InvalidInputError, match=f"^x {re.escape(message)}$"):
            checked_real(value, "x", **bounds)

    @pytest.mark.parametrize(
        "value, bounds",
        [(2, {}), (np.float64(0.5), {"low": 0.0, "high": 1.0}), (1, {"low": 1.0, "high": 1.0}),
         (0.0, {"low": 0.0})],
    )
    def test_accepted_value_returned_as_a_float(self, value, bounds):
        out = checked_real(value, "x", **bounds)
        assert out.__class__ is float and out == value


class TestInstanceSpecValidation:
    def test_cut_arc_without_weight_rejected(self):
        spec = {"kind": "cut", "n": 3, "arcs": [[0, 2, 1.0], [0, 1]]}
        with pytest.raises(InvalidInputError, match=r"arcs\[1\]"):
            oracle_from_dict(spec)

    def test_fractional_coverage_item_rejected(self):
        spec = {"kind": "coverage", "sets": [[0], [0.5]], "universe": 2}
        with pytest.raises(InvalidInputError, match=r"sets\[1\]"):
            oracle_from_dict(spec)

    def test_non_numeric_facility_value_rejected(self):
        spec = {"kind": "facility", "values": [[1.0, "a"]]}
        with pytest.raises(InvalidInputError, match="values"):
            oracle_from_dict(spec)

    def test_non_numeric_coverage_weight_rejected(self):
        spec = {"kind": "coverage", "sets": [[0], [1]], "universe": 2, "weights": [1.0, "a"]}
        with pytest.raises(InvalidInputError, match="weights"):
            oracle_from_dict(spec)

    def test_missing_universe_rejected(self):
        spec = {"kind": "coverage", "sets": [[0], [1]]}
        with pytest.raises(InvalidInputError, match="universe"):
            oracle_from_dict(spec)

    def test_string_coverage_universe_rejected(self):
        spec = {"kind": "coverage", "sets": [[0], [1]], "universe": "9"}
        with pytest.raises(InvalidInputError, match="universe"):
            oracle_from_dict(spec)

    def test_fractional_cut_size_rejected(self):
        spec = {"kind": "cut", "n": 3.5, "arcs": [[0, 1, 1.0]]}
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            oracle_from_dict(spec)

    def test_non_numeric_table_value_rejected(self):
        spec = {"kind": "table", "n": 1, "entries": [[[], 0], [[0], "a"]]}
        with pytest.raises(InvalidInputError, match=r"entries\[1\]"):
            oracle_from_dict(spec)

    def test_table_entry_without_value_rejected(self):
        spec = {"kind": "table", "n": 1, "entries": [[0], [[0], 1]]}
        with pytest.raises(InvalidInputError, match=r"entries\[0\]"):
            oracle_from_dict(spec)

    def test_fractional_table_id_rejected(self):
        spec = {"kind": "table", "n": 1, "entries": [[[], 0], [[0.5], 1]]}
        with pytest.raises(InvalidInputError, match=r"entries\[1\]"):
            oracle_from_dict(spec)

    def test_repeated_table_entry_named_by_spec_position(self):
        spec = {"kind": "table", "n": 1, "entries": [[[], 0], [[0], 1], [[0], 2]]}
        with pytest.raises(InvalidInputError, match=r"entries\[2\] repeats .*entries\[1\]"):
            oracle_from_dict(spec)

    def test_entry_after_a_repeat_named_by_spec_position(self):
        spec = {"kind": "table", "n": 1, "entries": [[[0], 1], [[0, 0], 1], [[], "a"]]}
        with pytest.raises(InvalidInputError, match=r"entries\[1\] repeats .*entries\[0\]"):
            oracle_from_dict(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"kind": "coverage", "sets": 5, "universe": 2}, "sets"),
            ({"kind": "coverage", "sets": [[0]], "universe": 2, "weights": 5}, "weights"),
            ({"kind": "coverage", "sets": "ab", "universe": 2}, "sets"),
            ({"kind": "cut", "n": 2, "arcs": 5}, "arcs"),
            ({"kind": "modular", "weights": 5}, "weights"),
            ({"kind": "modular", "weights": None}, "weights"),
            ({"kind": "table", "n": 1, "entries": 5}, "entries"),
            ({"kind": "partition", "blocks": 5, "capacities": [1]}, "blocks"),
            ({"kind": "partition", "blocks": [[0]], "capacities": 5}, "capacities"),
            ({"kind": "graphic", "vertices": 2, "edges": 5}, "edges"),
            ({"kind": "explicit", "n": 2, "independent": 5}, "independent"),
        ],
    )
    def test_scalar_where_a_list_belongs_named(self, spec, key):
        matroid = spec["kind"] in ("partition", "graphic", "explicit")
        load = matroid_from_dict if matroid else oracle_from_dict
        with pytest.raises(
            InvalidInputError, match=rf"^{spec['kind']} spec key '{key}' must be a list, got "
        ):
            load(spec)

    def test_null_coverage_weights_mean_unit_weights(self):
        spec = {**COV4_SPEC, "weights": None}
        assert oracle_from_dict(spec).evaluate([0, 1]) == oracle_from_dict(COV4_SPEC).evaluate([0, 1])

    def test_fractional_explicit_id_rejected(self):
        spec = {"kind": "explicit", "n": 2, "independent": [[], [0.5]]}
        with pytest.raises(InvalidInputError, match=r"independent\[1\]"):
            matroid_from_dict(spec)


# Tiny configs that reach every view (residual, dummy value, contraction,
# rank cap, dummy augmentation, the zero-capacity partition residual) and
# both swap-rounding paths. B=0.3 and B=0.25 make the lazy phase add one
# element, so the contraction anchor and the partition residual are non-empty.
_GOLDEN_COV = generate_instance("coverage", 24, 7, universe=60, density=0.1)
_GOLDEN_PART = generate_matroid("partition", 24, 6, 7, blocks=3)
_GOLDEN_GRAPHIC = generate_matroid("graphic", 24, 6, 7)
# the cut and facility oracles answer "previous prefix + one id" from a cache
_GOLDEN_CUT = generate_instance("cut", 40, 7, density=0.1)
_GOLDEN_FACILITY = generate_instance("facility", 30, 7, clients=12)
# dense coverage: the pool variants' sweeps run dry, so dummies top up the pool
_GOLDEN_DENSE = generate_instance("coverage", 24, 7, universe=8, density=0.6)
# three valued ids of rank 8: the lazy phase pads its pool and draws dummies;
# at B = 0.01 the combined goldens fail in the lazy phase, and at B = 0.15
# (the dummy-residual pair) each trial ends it with one id and one dummy, so
# continuous greedy runs on the rank-capped residual
_GOLDEN_PADDED = {"kind": "coverage", "sets": [[0, 1, 2], [3, 4], [5]] + [[]] * 9, "universe": 6}
_GOLDEN_PADDED_PART = {
    "kind": "partition",
    "blocks": [[0, 3, 4, 5, 6, 7], [1, 2, 8, 9, 10, 11]],
    "capacities": [4, 4],
}


def _golden(algo, matroid=None, instance=_GOLDEN_COV, **params):
    return RunConfig(
        algo=algo, instance=instance, matroid=matroid, record_wall_time=False, **params
    )


# Per config: the SHA-256 of its CSV bytes with the two query columns
# blanked, and each row's (value_queries, independence_queries). Together
# they fix every byte of the CSV. A change that alters the query bill on
# purpose updates only the count tables and says so in CHANGES.md.
GOLDEN_CSV = {
    "combined-partition": (
        _golden("combined", _GOLDEN_PART, epsilon=0.25, lam=2.0, trials=2, sample_scale=1e-6),
        "bf7e702ac79c3cc8ab87970940fd667eb4bef160de803c847f45db2b342048ab",
        [(3321, 370), (3660, 290)],
    ),
    "combined-partition-contracted": (
        _golden("combined", _GOLDEN_PART, epsilon=0.25, lam=6.0, B=0.3, trials=2,
                sample_scale=1e-6),
        "f1da8d55b406328ed5df8cb48db6ef9c0112b597a5701221e9c48b236b85a4b4",
        [(1106, 491), (1094, 441)],
    ),
    "combined-graphic": (
        _golden("combined", _GOLDEN_GRAPHIC, epsilon=0.25, lam=2.0, trials=2, sample_scale=1e-6),
        "33314eebb2212e603aa1e82d8f2bde69bfb1d85ef68c8e663d0c39d5c73a7fc2",
        [(3935, 540), (3867, 654)],
    ),
    "combined-graphic-contracted": (
        _golden("combined", _GOLDEN_GRAPHIC, epsilon=0.25, lam=6.0, B=0.25, trials=2,
                sample_scale=1e-6),
        "882fa8ba7f117a8d38635c0ede541d8498a046d1323c23e2a36b4755f6e4d76c",
        [(1189, 435), (1218, 455)],
    ),
    "combined_partition-residual": (
        _golden("combined_partition", _GOLDEN_PART, epsilon=0.25, lam=6.0, B=0.3, trials=2,
                sample_scale=1e-6),
        "a19ec07d8d6efa95544e586f70d798eeb8934b908989b3bd3b1bab6f9d900ab2",
        [(1106, 0), (1094, 0)],
    ),
    "continuous_greedy-partition": (
        _golden("continuous_greedy", _GOLDEN_PART, epsilon=0.25, sample_scale=0.05),
        "1046055b238154b00f776032c347f59a14f233ad52b825ca87998fc0802169ba",
        [(1117, 0)],
    ),
    "continuous_greedy-graphic": (
        _golden("continuous_greedy", _GOLDEN_GRAPHIC, epsilon=0.25, sample_scale=0.05),
        "1046055b238154b00f776032c347f59a14f233ad52b825ca87998fc0802169ba",
        [(1309, 211)],
    ),
    "thresholding_greedy": (
        _golden("thresholding_greedy", _GOLDEN_GRAPHIC, epsilon=0.25),
        "a9cc3d691a55c16714edcb0a304dfa0823c09607125c2a867572f7fdb1f20d7a",
        [(146, 119)],
    ),
    "random_lazy_greedy": (
        _golden("random_lazy_greedy", _GOLDEN_PART, delta=0.5, B=0.3, I=2, trials=2),
        "9c13d08622e4f87ee58a83c3858a594b7178cc8854ad3808aa10d6ed7cc96094",
        [(202, 48), (199, 38)],
    ),
    "lazy_greedy_improved": (
        _golden("lazy_greedy_improved", k=6, delta=0.2, trials=2),
        "8a32401a8113169e448bb04c397ea13486796c1787ec134b8c77a0fccd0f2130",
        [(189, 0), (213, 0)],
    ),
    "lazy_greedy_simple": (
        _golden("lazy_greedy_simple", k=6, delta=0.2, trials=2),
        "4f4abc14c21370c9e1f5dcddcaf19e3e8091768580662f8186d2912919ed18a0",
        [(265, 0), (267, 0)],
    ),
    "standard_greedy": (
        _golden("standard_greedy", k=6),
        "a715feb355a01b3f6354e9ea93f1d17cd1f926f4e5afec2db5f57317b6019497",
        [(130, 0)],
    ),
    "random_greedy": (
        _golden("random_greedy", k=6, trials=2),
        "8d3a7850bdbe4f444d57b2ae571487fd171cf1e6ac56fa2701f1695c4abfb9a9",
        [(130, 0), (130, 0)],
    ),
    "random_sampling": (
        _golden("random_sampling", k=6, p=0.25, s=2.0, trials=2),
        "b055e540a2f54e40be5525b87b5aa9f30349e562afd739bfd27904b01e5a9b71",
        [(37, 0), (37, 0)],
    ),
    "random_sampling_monotone": (
        _golden("random_sampling_monotone", k=6, epsilon=0.25, trials=2),
        "54e4a8a89794f91887487338cf890b82c4fe1aa338e9994de4cee9f7ec574636",
        [(37, 0), (37, 0)],
    ),
    "random_sampling_nonmonotone": (
        _golden("random_sampling_nonmonotone", k=6, epsilon=0.25, trials=2),
        "3dd8f8c2b6bcbf71d1db3590d0ca6b8a63b7c69ed04e43fe3bd69c25078e1916",
        [(130, 0), (130, 0)],
    ),
    "lazy_greedy_improved-cut": (
        _golden("lazy_greedy_improved", instance=_GOLDEN_CUT, k=8, delta=0.2, trials=3),
        "f8723050133ba523eaa6bfba42f97b36a7ce273d5e102ee36c7ec31787979678",
        [(221, 0), (272, 0), (165, 0)],
    ),
    "lazy_greedy_simple-cut": (
        _golden("lazy_greedy_simple", instance=_GOLDEN_CUT, k=8, delta=0.2, trials=3),
        "03d040b132c9462ba69955fd3d00771aedc6c178caf72692efbd2ed10b6f1915",
        [(298, 0), (269, 0), (293, 0)],
    ),
    "random_sampling_monotone-facility": (
        _golden("random_sampling_monotone", instance=_GOLDEN_FACILITY, k=6, epsilon=0.25,
                trials=3),
        "f6f6d626e5fcc5c6ea24b9e5ff6811bcaf839044d2fbe267e8c5dd7fbb0a5c1e",
        [(43, 0), (43, 0), (43, 0)],
    ),
    "lazy_greedy_improved-dummies": (
        _golden("lazy_greedy_improved", instance=_GOLDEN_DENSE, k=8, delta=0.2, trials=3),
        "ee01973f3d4dfd493e08d4c05b3bcb7ea3ef097b80853f02c532b43769a1c3d3",
        [(452, 0), (452, 0), (452, 0)],
    ),
    "lazy_greedy_simple-dummies": (
        _golden("lazy_greedy_simple", instance=_GOLDEN_DENSE, k=8, delta=0.2, trials=3),
        "08254842bc4dce19dd41ae9fe7df8f9120e4ac6200d665c596832e94672090cc",
        [(457, 0), (457, 0), (457, 0)],
    ),
    "random_lazy_greedy-dummies": (
        _golden("random_lazy_greedy", _GOLDEN_PADDED_PART, instance=_GOLDEN_PADDED, delta=0.5,
                B=0.01, I=4, trials=4),
        "5e59dbe212365526827e25b8a2f289a0d3386a1e9b3e87bbdb90919902969bf8",
        [(286, 49), (286, 49), (283, 46), (283, 46)],
    ),
    "combined-dummies": (
        _golden("combined", _GOLDEN_PADDED_PART, instance=_GOLDEN_PADDED, epsilon=0.25, lam=8.0,
                B=0.01, sample_scale=1e-4, trials=4),
        "c418ac98b94dd30afa99eb5559dca83ae09ebe3c49c3c9cb5277e259a83f3840",
        [(283, 46), (283, 46), (282, 45), (282, 45)],
    ),
    "combined_partition-dummies": (
        _golden("combined_partition", _GOLDEN_PADDED_PART, instance=_GOLDEN_PADDED, epsilon=0.25,
                lam=8.0, B=0.01, sample_scale=1e-4, trials=4),
        "d6a49094e5a161078b7a593f2dfb558ff3817d7e59903736e9212fbed7c8f7fb",
        [(283, 0), (283, 0), (282, 0), (282, 0)],
    ),
    "combined-dummy-residual": (
        _golden("combined", _GOLDEN_PADDED_PART, instance=_GOLDEN_PADDED, epsilon=0.25, lam=8.0,
                B=0.15, seed=2, sample_scale=1e-6, trials=2),
        "0a4c19500f17c19f78a503ae476ad55b1a5d63da58c7888c7cf1d4416c658931",
        [(560, 178), (568, 178)],
    ),
    "combined_partition-dummy-residual": (
        _golden("combined_partition", _GOLDEN_PADDED_PART, instance=_GOLDEN_PADDED, epsilon=0.25,
                lam=8.0, B=0.15, seed=2, sample_scale=1e-6, trials=2),
        "c660ad5c8be64912519e77229c2d3074f70372bea6469164b7572904760ee123",
        [(560, 132), (568, 132)],
    ),
    # rank 1 takes the combined algorithm's single-element shortcut
    "combined-rank1": (
        _golden("combined", {"kind": "uniform", "n": 24, "k": 1}, epsilon=0.25, lam=1.0,
                trials=2),
        "53087e8cae153f4e281b835d5ad499eda3dba2a440c6ad4488792f2f29e037d3",
        [(24, 0), (24, 0)],
    ),
}


def _blanked_csv_and_bill(records):
    blanked = [dataclasses.replace(r, value_queries="", independence_queries="") for r in records]
    bill = [(r.value_queries, r.independence_queries) for r in records]
    return hashlib.sha256(records_to_csv_bytes(blanked)).hexdigest(), bill


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_golden_csv_bytes(name):
    config, expected_digest, expected_bill = GOLDEN_CSV[name]
    digest, bill = _blanked_csv_and_bill(run_experiment(config))
    assert bill == expected_bill
    assert digest == expected_digest


@pytest.mark.parametrize(
    "name, scans_per_trial",
    [("combined-graphic", 1), ("combined-partition", 0), ("combined_partition-residual", 0)],
)
def test_combined_scans_for_the_rank_once_per_trial(monkeypatch, name, scans_per_trial):
    # the lazy phase, the crude OPT estimate, continuous greedy, swap rounding
    # and the CSV's k all read the one rank kept on the trial's handle; a
    # partition matroid and its residual sum their blocks instead of scanning
    scans = []
    scan = matroids.greedy_basis

    def counting_scan(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(matroids, "greedy_basis", counting_scan)
    config = GOLDEN_CSV[name][0]
    run_experiment(config)
    assert len(scans) == scans_per_trial * config.trials


@pytest.mark.parametrize(
    "name, capped",
    [
        ("combined-partition", False),
        ("combined-partition-contracted", False),
        ("combined-graphic", False),
        ("combined-graphic-contracted", False),
        ("combined-dummy-residual", True),
        ("combined_partition-dummy-residual", True),
    ],
)
def test_the_residual_is_rank_capped_only_when_dummies_take_rank(monkeypatch, name, capped):
    # without dummies the cap is the contraction's rank, and neither
    # continuous greedy nor swap rounding asks about a longer set
    calls = []
    ask = matroids.RankCappedMatroid.is_independent

    def counting(self, members):
        calls.append(members)
        return ask(self, members)

    monkeypatch.setattr(matroids.RankCappedMatroid, "is_independent", counting)
    config, _, expected_bill = GOLDEN_CSV[name]
    assert _blanked_csv_and_bill(run_experiment(config))[1] == expected_bill
    assert bool(calls) == capped


def _one_id_inserted(prefix: list, grown: list) -> bool:
    """Whether ``grown`` is a non-empty ``prefix`` with one id inserted, the order kept."""
    return len(grown) == len(prefix) + 1 > 1 and any(
        grown[:i] + grown[i + 1 :] == prefix for i in range(len(grown))
    )


@pytest.mark.parametrize(
    "name, kind",
    [
        ("lazy_greedy_improved-cut", oracles.DirectedCutOracle),
        ("lazy_greedy_simple-cut", oracles.DirectedCutOracle),
        ("random_sampling_monotone-facility", oracles.FacilityLocationOracle),
        ("combined-graphic", matroids.GraphicMatroid),
    ],
)
def test_a_prefix_one_id_longer_than_the_cached_one_grows_it(monkeypatch, name, kind):
    # the cardinality algorithms and continuous greedy grow their solution one
    # id at a time; each such step derives the cache instead of rebuilding it
    rebuild, grow = kind._cache, kind._grow
    rebuilt_grown, grown, not_appended = [], [], []

    def counting_rebuild(self, prefix):
        cached = getattr(self, "_prefix", None)
        if cached is not None and _one_id_inserted(cached[0], prefix):
            rebuilt_grown.append(prefix)
        return rebuild(self, prefix)

    def counting_grow(self, cache, prefix, v):
        grown.append(prefix)
        # the one grow shape: the cached P plus one appended id
        if prefix[:-1] != cache[0] or prefix[-1] != v:
            not_appended.append((cache[0], prefix))
        return grow(self, cache, prefix, v)

    monkeypatch.setattr(kind, "_cache", counting_rebuild)
    monkeypatch.setattr(kind, "_grow", counting_grow)
    config, _, expected_bill = GOLDEN_CSV[name]
    assert _blanked_csv_and_bill(run_experiment(config))[1] == expected_bill
    assert rebuilt_grown == []
    assert grown
    assert not_appended == []


@pytest.mark.parametrize("name", ["lazy_greedy_improved-cut", "lazy_greedy_simple-cut"])
def test_a_pool_variant_rebuilds_the_cut_cache_at_most_once_per_trial(monkeypatch, name):
    # a pool variant keeps its picks in order, so each query is the cached
    # prefix, plus at most the latest pick, plus the id asked about; only the
    # first pick is rebuilt, as the one-id prefix grown from the empty one
    config, _, expected_bill = GOLDEN_CSV[name]
    kind, algo = oracles.DirectedCutOracle, getattr(cardinality, config.algo)
    rebuild = kind._cache
    per_trial: list[list] = []
    running = []

    def counting_rebuild(self, prefix):
        if running and prefix:
            per_trial[-1].append(list(prefix))
        return rebuild(self, prefix)

    def tracked(*args, **kwargs):
        # run_trial's f_value, on an uncounted clone, is asked outside this
        per_trial.append([])
        running.append(True)
        try:
            return algo(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(kind, "_cache", counting_rebuild)
    monkeypatch.setattr(cardinality, config.algo, tracked)
    assert _blanked_csv_and_bill(run_experiment(config))[1] == expected_bill
    assert len(per_trial) == config.trials
    for rebuilt in per_trial:
        assert len(rebuilt) <= 1
        assert all(len(prefix) == 1 for prefix in rebuilt)


@pytest.mark.parametrize(
    "name", sorted(name for name in GOLDEN_CSV if name.startswith("combined_partition-"))
)
def test_partition_golden_moves_only_the_independence_column(monkeypatch, name):
    # its twin is the combined golden of the same config: the structure rule
    # and the partition lazy phase change no solution and no value query
    config = GOLDEN_CSV[name][0]
    (twin,) = [
        other for other, _, _ in GOLDEN_CSV.values()
        if other == dataclasses.replace(config, algo="combined")
    ]
    solutions = []
    combined = matroid_algos.combined_algorithm

    def recording(*args, **kwargs):
        result = combined(*args, **kwargs)
        solutions.append(result.solution)
        return result

    monkeypatch.setattr(matroid_algos, "combined_algorithm", recording)
    fast, general = run_experiment(config), run_experiment(twin)
    assert solutions[: config.trials] == solutions[config.trials :]
    for row, twin_row in zip(fast, general, strict=True):
        assert row.f_value == twin_row.f_value
        assert row.value_queries == twin_row.value_queries
        assert row.independence_queries <= twin_row.independence_queries


_MODULAR12 = generate_instance("modular", 12, 3)


@pytest.mark.parametrize(
    "algo, params, matroid",
    [
        ("thresholding_greedy", {"epsilon": 0.25}, {"kind": "uniform", "k": 3}),
        ("standard_greedy", {"k": 3}, None),
    ],
    ids=["matroid", "cardinality"],
)
@pytest.mark.parametrize("compute_opt", [False, True], ids=["no_opt", "opt"])
def test_handles_are_built_once_per_experiment(monkeypatch, algo, params, matroid, compute_opt):
    # the trials and the brute force query clones of the one oracle and matroid
    calls = []
    for name in ("oracle_from_dict", "matroid_from_dict"):
        def counting(*args, _build=getattr(harness, name), _name=name, **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    config = RunConfig(algo=algo, instance=_MODULAR12, matroid=matroid, trials=3,
                       compute_opt=compute_opt, **params)
    records = run_experiment(config)
    assert calls == ["oracle_from_dict"] + (["matroid_from_dict"] if matroid else [])
    top3 = float(sum(sorted(_MODULAR12["weights"])[-3:]))
    assert [r.f_value for r in records] == [top3] * 3
    assert [r.opt_value for r in records] == [top3 if compute_opt else None] * 3


def test_every_registered_algorithm_has_a_golden_config():
    assert {config.algo for config, _, _ in GOLDEN_CSV.values()} == set(ALGORITHMS)


def test_readme_lists_the_registered_algorithms():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Algorithms:.*?(?=\n\n)", readme, re.S | re.M).group(0)
    assert set(re.findall(r"`([^`]+)`", paragraph)) == set(ALGORITHMS)


class TestConfigCheck:
    """The registry check runs before any file, oracle or brute force."""

    _MODULAR25 = {"kind": "modular", "weights": list(range(1, 26))}

    def test_unknown_algorithm_named_before_brute_force(self):
        config = RunConfig(algo="bogus", instance=self._MODULAR25, k=3, compute_opt=True)
        with pytest.raises(InvalidInputError, match="unknown algorithm 'bogus'"):
            run_experiment(config)

    def test_missing_parameter_named_before_brute_force(self):
        config = RunConfig(
            algo="random_sampling", instance=self._MODULAR25, k=3, s=1.0, compute_opt=True
        )
        with pytest.raises(InvalidInputError, match="needs the parameter 'p'"):
            run_experiment(config)

    def test_cardinality_algorithm_rejects_a_matroid(self):
        config = RunConfig(
            algo="standard_greedy",
            instance={"kind": "modular", "weights": [1, 2, 3]},
            matroid={"kind": "uniform", "k": 1},
            k=3,
        )
        with pytest.raises(InvalidInputError, match="algorithm 'standard_greedy' takes no matroid"):
            run_experiment(config)

    def test_matroid_algorithm_needs_a_matroid(self):
        config = RunConfig(algo="thresholding_greedy", instance=COV4_SPEC, epsilon=0.2)
        with pytest.raises(InvalidInputError, match="needs a matroid"):
            run_experiment(config)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bad_sample_scale_named_before_any_file(self, tmp_path, scale):
        config = RunConfig(
            algo="combined", instance=tmp_path / "missing.json", matroid=tmp_path / "m.json",
            epsilon=0.25, lam=1.0, sample_scale=scale,
        )
        with pytest.raises(InvalidInputError, match=r"^sample_scale\b"):
            run_experiment(config)

    @pytest.mark.parametrize("algo", ["thresholding_greedy", "continuous_greedy", "combined"])
    def test_matroid_over_another_ground_set_refused_before_brute_force(self, monkeypatch, algo):
        def no_brute_force(*args, **kwargs):
            raise AssertionError("brute force ran")

        monkeypatch.setattr(harness, "brute_force_opt", no_brute_force)
        config = RunConfig(
            algo=algo, instance=generate_instance("coverage", 30, 7, universe=60, density=0.1),
            matroid=_GOLDEN_PART, epsilon=0.25, lam=2.0, compute_opt=True,
        )
        with pytest.raises(InvalidInputError, match=r"matroid ground set size 24 .* size 30$"):
            run_experiment(config)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("trials", 0), ("trials", 1.5), ("trials", "2"),
    ])
    def test_bad_seed_or_trials_named_before_any_file(self, tmp_path, field, value):
        config = RunConfig(
            algo="standard_greedy", instance=tmp_path / "missing.json", k=2, **{field: value}
        )
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            run_experiment(config)

    @pytest.mark.parametrize("compute_opt", [False, True])
    def test_non_integer_k_named_before_any_file(self, tmp_path, compute_opt):
        for instance in (tmp_path / "missing.json", {"kind": "modular", "weights": [1, 2, 3, 4]}):
            config = RunConfig(
                algo="standard_greedy", instance=instance, k=2.5, compute_opt=compute_opt
            )
            with pytest.raises(InvalidInputError, match=r"^k must be an integer, got 2\.5$"):
                run_experiment(config)

    def test_instance_file_not_read_for_a_bad_config(self, tmp_path):
        config = RunConfig(algo="bogus", instance=tmp_path / "missing.json", k=3)
        with pytest.raises(InvalidInputError, match="unknown algorithm"):
            run_experiment(config)


class TestRunExperiment:
    def test_csv_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            config = RunConfig(
                algo="standard_greedy",
                instance=COV4_SPEC,
                k=2,
                trials=3,
                seed=11,
                out=out,
                compute_opt=True,
                record_wall_time=False,
            )
            run_experiment(config)
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_and_column_order(self, tmp_path):
        out = tmp_path / "r.csv"
        run_experiment(
            RunConfig(
                algo="random_greedy",
                instance=COV4_SPEC,
                k=2,
                trials=1,
                seed=0,
                out=out,
            )
        )
        header = out.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == (
            "algo,n,k,epsilon,lambda,seed,trial,f_value,opt_value,"
            "value_queries,independence_queries,failed,wall_ms"
        )

    def test_combined_failure_rows_with_diagnostic_b(self):
        matroid_spec = {
            "kind": "partition",
            "blocks": [[0, 1], [2, 3]],
            "capacities": [1, 1],
        }
        records = run_experiment(
            RunConfig(
                algo="combined",
                instance=COV4_SPEC,
                matroid=matroid_spec,
                epsilon=0.25,
                lam=1.0,
                B=0.0,  # failure-inducing diagnostic override
                trials=3,
                seed=5,
                sample_scale=1e-6,
            )
        )
        assert all(r.failed for r in records)
        assert all(r.f_value == 0.0 for r in records)

    def test_trial_seeds_are_base_plus_index(self):
        records = run_experiment(
            RunConfig(algo="random_greedy", instance=COV4_SPEC, k=2, trials=3, seed=40)
        )
        assert [r.seed for r in records] == [40, 41, 42]

    def test_lambda_sweep_groups(self, tmp_path):
        matroid_spec = {
            "kind": "partition",
            "blocks": [[0, 1], [2, 3]],
            "capacities": [1, 1],
        }
        rows = []
        for lam in (1.0, 2.0):
            rows.extend(
                run_experiment(
                    RunConfig(
                        algo="combined",
                        instance=COV4_SPEC,
                        matroid=matroid_spec,
                        epsilon=0.25,
                        lam=lam,
                        trials=2,
                        seed=0,
                        sample_scale=1e-6,
                    )
                )
            )
        grouped = summarize(rows)
        assert len(grouped) == 2
        assert sorted(e["lambda"] for e in grouped) == ["1.0", "2.0"]


class TestSummarize:
    def test_single_record_mean_is_value(self):
        records = run_experiment(
            RunConfig(algo="standard_greedy", instance=COV4_SPEC, k=2, trials=1, seed=0)
        )
        entry = summarize(records)[0]
        assert entry["f_mean"] == records[0].f_value

    def test_mean_of_two_values(self):
        rows = [
            {
                "algo": "x", "n": 4, "k": 2, "epsilon": "", "lambda": "",
                "f_value": 2.0, "value_queries": 1, "independence_queries": 0,
                "failed": "False", "opt_value": "",
            },
            {
                "algo": "x", "n": 4, "k": 2, "epsilon": "", "lambda": "",
                "f_value": 4.0, "value_queries": 3, "independence_queries": 0,
                "failed": "False", "opt_value": "",
            },
        ]
        entry = summarize(rows)[0]
        assert entry["f_mean"] == 3.0

    def test_failure_rate_column(self):
        matroid_spec = {"kind": "uniform", "n": 4, "k": 2}
        records = run_experiment(
            RunConfig(
                algo="combined",
                instance=COV4_SPEC,
                matroid=matroid_spec,
                epsilon=0.25,
                lam=1.0,
                B=0.0,
                trials=4,
                seed=0,
                sample_scale=1e-6,
            )
        )
        assert summarize(records)[0]["failure_rate"] == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            summarize([])

    _ROW = {
        "algo": "x", "n": "4", "k": "2", "epsilon": "", "lambda": "",
        "f_value": "2.0", "opt_value": "4.0", "value_queries": "1",
        "independence_queries": "0", "failed": "False",
    }

    @pytest.mark.parametrize(
        "column,bad",
        [
            ("value_queries", "abc"),
            ("value_queries", "1.5"),
            ("independence_queries", ""),
            ("independence_queries", None),
            ("f_value", "abc"),
            ("f_value", None),
            ("opt_value", "abc"),
            ("f_value", "nan"),
            ("f_value", "inf"),
            ("opt_value", "-inf"),
            ("failed", "1"),
            ("failed", "yes"),
            ("failed", ""),
        ],
    )
    def test_malformed_column_named(self, column, bad):
        row = dict(self._ROW, **{column: bad})
        with pytest.raises(InvalidInputError, match=f"column '{column}'"):
            summarize([dict(self._ROW), row])

    def test_failed_flag_is_case_insensitive(self):
        rows = [dict(self._ROW, failed=flag) for flag in ("TRUE", "false", "True", True)]
        assert summarize(rows)[0]["failure_rate"] == 0.75


class TestCli:
    def test_gen_run_summarize_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        mat = tmp_path / "mat.json"
        out = tmp_path / "runs.csv"
        assert cli_main([
            "gen", "--family", "coverage", "--n", "10", "--seed", "4",
            "--out", str(inst), "--matroid-kind", "partition", "--k", "3",
            "--matroid-out", str(mat),
        ]) == 0
        assert cli_main([
            "run", "--algo", "thresholding_greedy", "--instance", str(inst),
            "--matroid", str(mat), "--epsilon", "0.2", "--trials", "2",
            "--seed", "1", "--out", str(out), "--opt",
        ]) == 0
        assert cli_main(["summarize", "--input", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "thresholding_greedy" in captured

    def test_sweep_lambda_writes_all_groups(self, tmp_path):
        inst = tmp_path / "inst.json"
        mat = tmp_path / "mat.json"
        out = tmp_path / "sweep.csv"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "partition", "blocks": [[0, 1], [2, 3]], "capacities": [1, 1]}, mat)
        assert cli_main([
            "sweep-lambda", "--instance", str(inst), "--matroid", str(mat),
            "--epsilon", "0.25", "--lambdas", "1,2", "--trials", "2",
            "--seed", "0", "--out", str(out), "--sample-scale", "1e-6",
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4  # header + 2 lambdas x 2 trials

    def test_missing_instance_file_is_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli_main([
            "run", "--algo", "standard_greedy", "--instance", str(missing), "--k", "2",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("submax: error: ") and str(missing) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_nan_lambda_on_rank_zero_is_one_line_error(self, tmp_path, capsys):
        inst, mat, out = tmp_path / "inst.json", tmp_path / "mat.json", tmp_path / "r.csv"
        assert cli_main([
            "gen", "--family", "modular", "--n", "0", "--out", str(inst),
            "--matroid-kind", "uniform", "--k", "0", "--matroid-out", str(mat),
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "run", "--algo", "combined", "--instance", str(inst), "--matroid", str(mat),
            "--epsilon", "0.25", "--lambda", "nan", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("submax: error: lam") and err.count("\n") == 1
        assert not out.exists()

    def test_matroid_over_another_ground_set_is_one_line_error(self, tmp_path, capsys):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "uniform", "n": 3, "k": 2}, mat)
        assert cli_main([
            "run", "--algo", "thresholding_greedy", "--instance", str(inst),
            "--matroid", str(mat), "--epsilon", "0.2", "--out", str(tmp_path / "r.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("submax: error: ") and "size 3" in err and "size 4" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text", ['{"kind": "mystery"}', '{"kind": "coverage", "sets": ['])
    def test_malformed_instance_is_one_line_error(self, tmp_path, capsys, text):
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        assert cli_main([
            "run", "--algo", "standard_greedy", "--instance", str(inst), "--k", "2",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("submax: error: ") and err.count("\n") == 1

    def _one_line_error(self, capsys, field):
        err = capsys.readouterr().err
        assert err.startswith("submax: error: ") and field in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--n", "8", "--matroid-kind", "partition", "--k", "2", "--blocks", "0"], "blocks"),
            (["--n", "8", "--matroid-kind", "partition", "--k", "2", "--blocks", "-1"], "blocks"),
            (["--n", "4", "--matroid-kind", "graphic", "--k", "9"], "k=9"),
            (["--n", "-2"], "n must be non-negative"),
            (["--n", "4", "--matroid-kind", "uniform", "--k", "-1"], "k must be non-negative"),
            (["--n", "4", "--matroid-kind", "uniform"], "--k is required with --matroid-kind"),
        ],
    )
    def test_bad_gen_sizes_are_one_line_errors(self, tmp_path, capsys, flags, field):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--family", "coverage", "--out", str(inst), *flags]) == 2
        self._one_line_error(capsys, field)
        # neither spec is written when one of them is refused
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--family", "coverage", "--universe", "0"], "universe"),
            (["--family", "coverage", "--universe", "-3"], "universe"),
            (["--family", "facility", "--clients", "-2"], "clients"),
            (["--family", "coverage", "--density", "nan"], "density"),
            (["--family", "cut", "--density", "1.5"], "density"),
        ],
    )
    def test_bad_gen_instance_fields_are_one_line_errors(self, tmp_path, capsys, flags, field):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--n", "5", "--out", str(inst), *flags]) == 2
        self._one_line_error(capsys, field)
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_one_line_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        assert cli_main([
            "gen", "--family", "coverage", "--n", "5", "--seed", "-1", "--out", str(inst),
        ]) == 2
        self._one_line_error(capsys, "seed")
        assert list(tmp_path.iterdir()) == []
        save_json(COV4_SPEC, inst)
        assert cli_main([
            "run", "--algo", "standard_greedy", "--instance", str(inst), "--k", "2",
            "--seed", "-1", "--out", str(tmp_path / "r.csv"),
        ]) == 2
        self._one_line_error(capsys, "seed")
        assert not (tmp_path / "r.csv").exists()

    def test_nan_b_is_one_line_error(self, tmp_path, capsys):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "uniform", "n": 4, "k": 4}, mat)
        assert cli_main([
            "run", "--algo", "random_lazy_greedy", "--instance", str(inst),
            "--matroid", str(mat), "--delta", "0.5", "--B", "nan", "--I", "1",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2
        self._one_line_error(capsys, "B must be non-negative")

    @pytest.mark.parametrize(
        "vertices, edges", [(2, [[0, 1]] * 4), (3, [[0, 1], [1, 2], [0, 2], [0, 1]])]
    )
    def test_partition_path_on_a_graphic_matroid_is_one_line_error(
        self, tmp_path, capsys, vertices, edges
    ):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "graphic", "vertices": vertices, "edges": edges}, mat)
        assert cli_main([
            "run", "--algo", "combined_partition", "--instance", str(inst),
            "--matroid", str(mat), "--epsilon", "0.25", "--lambda", "1",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2
        self._one_line_error(capsys, "partition fast path needs a partition matroid")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "algo, flags",
        [
            ("thresholding_greedy", ["--epsilon", "0.25"]),
            ("random_lazy_greedy", ["--delta", "0.5", "--B", "0.3", "--I", "1"]),
            ("combined", ["--epsilon", "0.25", "--lambda", "1"]),
        ],
    )
    def test_monotone_only_algorithm_on_a_cut_is_one_line_error(
        self, tmp_path, capsys, algo, flags
    ):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        save_json(generate_instance("cut", 12, 0, density=0.3), inst)
        save_json({"kind": "uniform", "n": 12, "k": 3}, mat)
        assert cli_main([
            "run", "--algo", algo, "--instance", str(inst), "--matroid", str(mat), *flags,
            "--out", str(tmp_path / "r.csv"),
        ]) == 2
        self._one_line_error(capsys, "requires a monotone objective")
        assert not (tmp_path / "r.csv").exists()

    def test_scalar_spec_field_is_one_line_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        save_json({"kind": "coverage", "sets": 5, "universe": 3}, inst)
        assert cli_main([
            "run", "--algo", "standard_greedy", "--instance", str(inst), "--k", "1",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2
        self._one_line_error(capsys, "coverage spec key 'sets' must be a list")
        assert not (tmp_path / "r.csv").exists()

    def test_rank_zero_graphic_gen_writes_both_specs(self, tmp_path):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        assert cli_main([
            "gen", "--family", "coverage", "--n", "5", "--out", str(inst),
            "--matroid-kind", "graphic", "--k", "0", "--matroid-out", str(mat),
        ]) == 0
        assert json.loads(mat.read_text())["edges"] == [[0, 0]] * 5
        assert matroid_rank(matroid_from_dict(json.loads(mat.read_text()))) == 0

    def test_non_numeric_lambda_is_one_line_error(self, tmp_path, capsys):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "partition", "blocks": [[0, 1], [2, 3]], "capacities": [1, 1]}, mat)
        for lambdas in ("1,x", ","):
            assert cli_main([
                "sweep-lambda", "--instance", str(inst), "--matroid", str(mat),
                "--epsilon", "0.25", "--lambdas", lambdas, "--out", str(tmp_path / "s.csv"),
            ]) == 2
            self._one_line_error(capsys, "--lambdas")

    @pytest.mark.parametrize(
        "algo, flags, field",
        [
            ("thresholding_greedy", ["--epsilon", "1e-17"], "epsilon"),
            ("combined", ["--epsilon", "1e-17", "--lambda", "1"], "epsilon"),
            ("random_lazy_greedy", ["--delta", "1e-17", "--B", "0", "--I", "1"], "delta"),
            ("lazy_greedy_simple", ["--delta", "1e-17", "--k", "2"], "delta"),
            ("continuous_greedy", ["--epsilon", "1e-200"], "epsilon"),
        ],
    )
    def test_a_value_too_small_to_lower_a_threshold_is_one_line_error(
        self, tmp_path, capsys, algo, flags, field
    ):
        inst, mat, out = tmp_path / "inst.json", tmp_path / "mat.json", tmp_path / "r.csv"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "uniform", "n": 4, "k": 2}, mat)
        matroid = [] if algo == "lazy_greedy_simple" else ["--matroid", str(mat)]
        assert cli_main([
            "run", "--algo", algo, "--instance", str(inst), *matroid, *flags, "--out", str(out),
        ]) == 2
        self._one_line_error(capsys, f"{field} must be ")
        assert not out.exists()

    # per entry that requires --epsilon, the values it refuses beyond 0, NaN and inf
    EPSILON_REFUSALS = {
        "combined": ["2e-16", "0.64", "1"],
        "combined_partition": ["2e-16", "0.64", "1"],
        "continuous_greedy": ["1e-17", "1", "1.5"],
        "random_sampling_monotone": ["1", "1.5"],
        "random_sampling_nonmonotone": ["-1"],
        "thresholding_greedy": ["1e-17", "1", "1.5"],
    }

    def test_the_epsilon_table_covers_every_entry_that_requires_it(self):
        assert set(self.EPSILON_REFUSALS) == {
            name for name, entry in ALGORITHMS.items() if "epsilon" in entry.requires
        }

    @pytest.mark.parametrize(
        "algo, epsilon",
        [
            (algo, epsilon)
            for algo, refused in sorted(EPSILON_REFUSALS.items())
            for epsilon in ["0", "nan", "inf", *refused]
        ],
    )
    def test_every_entry_names_the_epsilon_it_refuses(self, tmp_path, capsys, algo, epsilon):
        # the instance and matroid files do not exist: the config is refused first
        flags = {
            "combined": ["--lambda", "1"], "combined_partition": ["--lambda", "1"],
            "random_sampling_monotone": ["--k", "2"], "random_sampling_nonmonotone": ["--k", "2"],
        }.get(algo, [])
        matroid = [] if algo.startswith("random_sampling") else ["--matroid", str(tmp_path / "m")]
        out = tmp_path / "r.csv"
        assert cli_main([
            "run", "--algo", algo, "--instance", str(tmp_path / "i"), *matroid, *flags,
            "--epsilon", epsilon, "--out", str(out),
        ]) == 2
        self._one_line_error(capsys, "submax: error: epsilon must be ")
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["1.5", "0", "nan"])
    def test_continuous_greedy_names_its_epsilon(self, tmp_path, capsys, epsilon):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "uniform", "n": 4, "k": 2}, mat)
        assert cli_main([
            "run", "--algo", "continuous_greedy", "--instance", str(inst), "--matroid", str(mat),
            "--epsilon", epsilon, "--out", str(tmp_path / "r.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("submax: error: epsilon must be in (0, 1), got ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_bad_sample_scale_is_one_line_error(self, tmp_path, capsys, scale):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "partition", "blocks": [[0, 1], [2, 3]], "capacities": [1, 1]}, mat)
        assert cli_main([
            "sweep-lambda", "--instance", str(inst), "--matroid", str(mat),
            "--epsilon", "0.25", "--lambdas", "1,2", "--sample-scale", scale,
            "--out", str(tmp_path / "s.csv"),
        ]) == 2
        self._one_line_error(capsys, "sample_scale")

    def test_instance_file_holding_a_list_is_one_line_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text("[[0, 1], [1, 2]]")
        assert cli_main([
            "run", "--algo", "standard_greedy", "--instance", str(inst), "--k", "2",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2
        self._one_line_error(capsys, "instance spec")

    def test_summarize_without_k_column_is_one_line_error(self, tmp_path, capsys):
        columns = [c for c in CSV_COLUMNS if c != "k"]
        row = ["x", "4", "", "", "0", "0", "1.0", "", "3", "0", "False", "0.0"]
        path = tmp_path / "r.csv"
        path.write_text(",".join(columns) + "\n" + ",".join(row) + "\n")
        assert cli_main(["summarize", "--input", str(path)]) == 2
        self._one_line_error(capsys, "'k'")

    def test_summarize_non_integer_count_is_one_line_error(self, tmp_path, capsys):
        row = ["x", "4", "2", "", "", "0", "0", "1.0", "", "abc", "0", "False", "0.0"]
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        assert cli_main(["summarize", "--input", str(path)]) == 2
        self._one_line_error(capsys, "'value_queries'")

    @pytest.mark.parametrize("column,bad", [("f_value", "nan"), ("failed", "1")])
    def test_summarize_meaningless_row_is_one_line_error(self, tmp_path, capsys, column, bad):
        row = ["x", "4", "2", "", "", "0", "0", "1.0", "", "3", "0", "False", "0.0"]
        row[CSV_COLUMNS.index(column)] = bad
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        assert cli_main(["summarize", "--input", str(path)]) == 2
        self._one_line_error(capsys, f"'{column}'")

    def test_summarize_zero_optimum_writes_strict_json(self, tmp_path, capsys):
        row = ["x", "4", "2", "", "", "0", "0", "0.0", "0.0", "3", "0", "False", "0.0"]
        path, sidecar = tmp_path / "r.csv", tmp_path / "s.json"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        assert cli_main(["summarize", "--input", str(path), "--json-out", str(sidecar)]) == 0
        strict = dict(parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
        [entry] = json.loads(sidecar.read_text(), **strict)
        assert entry["opt_value"] == 0.0 and "ratio_mean" not in entry

    def test_summarize_mean_past_float_range_is_one_line_error(self, tmp_path, capsys):
        row = ",".join(["x", "4", "2", "", "", "0", "0", "1e308", "", "3", "0", "False", "0.0"])
        path, sidecar = tmp_path / "r.csv", tmp_path / "s.json"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n" + row + "\n")
        assert cli_main(["summarize", "--input", str(path), "--json-out", str(sidecar)]) == 2
        self._one_line_error(capsys, str(sidecar))
        assert not sidecar.exists()

    def test_summarize_spread_past_float_range_is_exact(self, tmp_path):
        rows = [
            ",".join(["x", "4", "2", "", "", "0", str(t), f, "", "3", "0", "False", "0.0"])
            for t, f in enumerate(["1e300", "0"])
        ]
        path, sidecar = tmp_path / "r.csv", tmp_path / "s.json"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        assert cli_main(["summarize", "--input", str(path), "--json-out", str(sidecar)]) == 0
        [entry] = json.loads(sidecar.read_text())
        assert entry["f_std"] == 5e299

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe", b"x" * 131_073, b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "field-over-csv-limit", "nested-past-recursion-limit"],
    )
    def test_unreadable_files_are_one_line_errors(self, tmp_path, capsys, data):
        bad = tmp_path / "bad"
        bad.write_bytes(data)
        assert cli_main(["summarize", "--input", str(bad)]) == 2
        self._one_line_error(capsys, str(bad))
        assert cli_main([
            "run", "--algo", "standard_greedy", "--instance", str(bad), "--k", "2",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2
        self._one_line_error(capsys, str(bad))

    def test_unknown_algo_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "run", "--algo", "bogus", "--instance", str(tmp_path / "i.json"),
                "--out", str(tmp_path / "r.csv"),
            ])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
