from __future__ import annotations

import dataclasses
import hashlib
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
from submax import harness, matroids, multilinear
from submax.cli import main as cli_main
from submax.harness import (
    ALGORITHMS,
    CSV_COLUMNS,
    matroid_from_dict,
    oracle_from_dict,
    records_to_csv_bytes,
    save_json,
)
from submax.matroids import matroid_rank

from .conftest import COVERAGE4_SETS, coverage4


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

    @pytest.mark.parametrize("kind", ["partition", "graphic"])
    def test_rank_above_n_rejected(self, kind):
        with pytest.raises(InvalidInputError, match="k=9 exceeds the ground set size n=4"):
            generate_matroid(kind, 4, 9, seed=0)

    def test_rank_zero_partition_has_one_block(self):
        spec = generate_matroid("partition", 8, 0, seed=0)
        assert spec["capacities"] == [0] and spec["blocks"] == [list(range(8))]
        assert matroid_rank(matroid_from_dict(spec)) == 0


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
# three valued ids of rank 8: the lazy phase pads its pool and draws dummies
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
        [(20192, 1707), (20102, 1649)],
    ),
    "combined-partition-contracted": (
        _golden("combined", _GOLDEN_PART, epsilon=0.25, lam=6.0, B=0.3, trials=2,
                sample_scale=1e-6),
        "f1da8d55b406328ed5df8cb48db6ef9c0112b597a5701221e9c48b236b85a4b4",
        [(5175, 1400), (4893, 1513)],
    ),
    "combined-graphic": (
        _golden("combined", _GOLDEN_GRAPHIC, epsilon=0.25, lam=2.0, trials=2, sample_scale=1e-6),
        "bf7e702ac79c3cc8ab87970940fd667eb4bef160de803c847f45db2b342048ab",
        [(28557, 1786), (26355, 1725)],
    ),
    "combined-graphic-contracted": (
        _golden("combined", _GOLDEN_GRAPHIC, epsilon=0.25, lam=6.0, B=0.25, trials=2,
                sample_scale=1e-6),
        "8cc78e5e8621641737bf520c7085388cc6c4ab71fec4499889d4601dc306c1ff",
        [(8721, 1586), (7637, 1466)],
    ),
    "combined_partition-residual": (
        _golden("combined_partition", _GOLDEN_PART, epsilon=0.25, lam=6.0, B=0.3, trials=2,
                sample_scale=1e-6),
        "a19ec07d8d6efa95544e586f70d798eeb8934b908989b3bd3b1bab6f9d900ab2",
        [(5172, 1309), (4890, 1414)],
    ),
    "continuous_greedy-partition": (
        _golden("continuous_greedy", _GOLDEN_PART, epsilon=0.25, sample_scale=0.05),
        "1046055b238154b00f776032c347f59a14f233ad52b825ca87998fc0802169ba",
        [(4272, 304)],
    ),
    "continuous_greedy-graphic": (
        _golden("continuous_greedy", _GOLDEN_GRAPHIC, epsilon=0.25, sample_scale=0.05),
        "2d4986a4d153b12774431acdf384c77f2f13d9786e319c4f33c21dc784c83ad5",
        [(4680, 330)],
    ),
    "thresholding_greedy": (
        _golden("thresholding_greedy", _GOLDEN_GRAPHIC, epsilon=0.25),
        "a9cc3d691a55c16714edcb0a304dfa0823c09607125c2a867572f7fdb1f20d7a",
        [(146, 119)],
    ),
    "random_lazy_greedy": (
        _golden("random_lazy_greedy", _GOLDEN_PART, delta=0.5, B=0.3, I=2, trials=2),
        "9c13d08622e4f87ee58a83c3858a594b7178cc8854ad3808aa10d6ed7cc96094",
        [(206, 171), (202, 167)],
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
        [(505, 0), (505, 0), (505, 0)],
    ),
    "random_lazy_greedy-dummies": (
        _golden("random_lazy_greedy", _GOLDEN_PADDED_PART, instance=_GOLDEN_PADDED, delta=0.5,
                B=0.01, I=4, trials=4),
        "5e59dbe212365526827e25b8a2f289a0d3386a1e9b3e87bbdb90919902969bf8",
        [(286, 92), (286, 92), (291, 97), (290, 96)],
    ),
    "combined-dummies": (
        _golden("combined", _GOLDEN_PADDED_PART, instance=_GOLDEN_PADDED, epsilon=0.25, lam=8.0,
                B=0.01, sample_scale=1e-4, trials=4),
        "c418ac98b94dd30afa99eb5559dca83ae09ebe3c49c3c9cb5277e259a83f3840",
        [(283, 89), (283, 89), (286, 92), (286, 92)],
    ),
    "combined_partition-dummies": (
        _golden("combined_partition", _GOLDEN_PADDED_PART, instance=_GOLDEN_PADDED, epsilon=0.25,
                lam=8.0, B=0.01, sample_scale=1e-4, trials=4),
        "d6a49094e5a161078b7a593f2dfb558ff3817d7e59903736e9212fbed7c8f7fb",
        [(283, 43), (283, 43), (286, 43), (286, 43)],
    ),
    # rank 1 takes the combined algorithm's single-element shortcut
    "combined-rank1": (
        _golden("combined", {"kind": "uniform", "n": 24, "k": 1}, epsilon=0.25, lam=1.0,
                trials=2),
        "53087e8cae153f4e281b835d5ad499eda3dba2a440c6ad4488792f2f29e037d3",
        [(24, 48), (24, 48)],
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


class _PerEstimateRows:
    """Sample rows with one ``rng.random((m, len(support)))`` call per estimate:
    no blocks and no rewind."""

    def __init__(self, x, rng):
        self.cols = np.flatnonzero(x)
        self.p = x[self.cols]
        self.rng = rng

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def take(self, m):
        inclusion = self.rng.random((m, len(self.cols))) < self.p
        return [self.cols[np.flatnonzero(row)].tolist() for row in inclusion]


@pytest.mark.parametrize(
    "name", sorted(name for name in GOLDEN_CSV if name.startswith(("combined", "continuous")))
)
def test_golden_csv_bytes_with_per_estimate_rows(monkeypatch, name):
    # the goldens hold for the estimator's stream, not only for its block draws
    monkeypatch.setattr(multilinear, "_SampleRows", _PerEstimateRows)
    config, expected_digest, expected_bill = GOLDEN_CSV[name]
    assert _blanked_csv_and_bill(run_experiment(config)) == (expected_digest, expected_bill)


def test_combined_scans_for_the_rank_once_per_trial(monkeypatch):
    # the lazy phase, the crude OPT estimate, continuous greedy, swap rounding
    # and the CSV's k all read the one rank kept on the trial's handle
    scans = []
    scan = matroids.greedy_basis

    def counting_scan(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(matroids, "greedy_basis", counting_scan)
    config = GOLDEN_CSV["combined-graphic"][0]
    run_experiment(config)
    assert len(scans) == config.trials


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
        ],
    )
    def test_bad_gen_sizes_are_one_line_errors(self, tmp_path, capsys, flags, field):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--family", "coverage", "--out", str(inst), *flags]) == 2
        self._one_line_error(capsys, field)
        # neither spec is written when one of them is refused
        assert list(tmp_path.iterdir()) == []

    def test_non_numeric_lambda_is_one_line_error(self, tmp_path, capsys):
        inst, mat = tmp_path / "inst.json", tmp_path / "mat.json"
        save_json(COV4_SPEC, inst)
        save_json({"kind": "partition", "blocks": [[0, 1], [2, 3]], "capacities": [1, 1]}, mat)
        assert cli_main([
            "sweep-lambda", "--instance", str(inst), "--matroid", str(mat),
            "--epsilon", "0.25", "--lambdas", "1,x", "--out", str(tmp_path / "s.csv"),
        ]) == 2
        self._one_line_error(capsys, "--lambdas")

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

    def test_unknown_algo_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "run", "--algo", "bogus", "--instance", str(tmp_path / "i.json"),
                "--out", str(tmp_path / "r.csv"),
            ])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
