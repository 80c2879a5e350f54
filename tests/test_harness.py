from __future__ import annotations

import json

import pytest

from submax import (
    InstanceTooLargeError,
    InvalidInputError,
    RunConfig,
    UniformMatroid,
    brute_force_opt,
    generate_instance,
    generate_matroid,
    make_modular,
    run_experiment,
    summarize,
)
from submax.cli import main as cli_main
from submax.harness import (
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
        f = make_modular(weights)
        value, witness = brute_force_opt(f, UniformMatroid(4, 2))
        assert value == 16.0 and witness == {0, 2}

    def test_empty_ground_set(self):
        f = make_modular(())
        value, witness = brute_force_opt(f, 0)
        assert value == 0.0 and witness == set()

    def test_nonmonotone_checks_all_sizes(self):
        # taking fewer than k elements can win for a cut objective
        from submax import make_directed_cut

        f = make_directed_cut(3, [(0, 1, 5.0), (1, 0, 1.0)])
        value, witness = brute_force_opt(f, 3)
        assert value == 5.0 and witness == {0}

    def test_refuses_oversized_cardinality_instance(self):
        f = make_modular(tuple(float(i) for i in range(25)))
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

    def test_parallel_trials_match_sequential(self, tmp_path, monkeypatch):
        def run(workers: str) -> bytes:
            monkeypatch.setenv("SUBMAX_THREADS", workers)
            records = run_experiment(
                RunConfig(
                    algo="lazy_greedy_simple",
                    instance=COV4_SPEC,
                    k=2,
                    delta=0.2,
                    trials=6,
                    seed=3,
                    record_wall_time=False,
                )
            )
            return records_to_csv_bytes(records)

        assert run("1") == run("4")

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
