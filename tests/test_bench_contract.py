"""What the benchmark in ``bench/`` needs from the library.

``bench/spans.py`` and ``bench/workloads.py`` patch named classes, methods
and functions of ``submax``, and the traced run checks that every charged
query falls inside an outermost oracle span of a listed kind. A library
change that renames a patched name or routes a query around the listed
kinds breaks every benchmark run; these tests make it fail here instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from submax import harness, run_experiment

from .test_harness import GOLDEN_CSV

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Golden configs whose lazy phase or pool variants draw dummies, one whose
# lazy phase asks its questions of the charged oracle, two that round on a
# partition structure, where swap rounding answers from block counts, four
# whose continuous greedy runs on the residual and contraction views, over a
# partition matroid (the path of the lambda-sweep workload) or a graphic one
# (that of closing-lambda-graphic), each with an empty anchor and with an
# anchor of one id (the "-contracted" configs), and the cut and facility
# runs of the cardinality-short-trials workload's algorithms; all on oracle
# and matroid kinds the tracer lists.
DUMMY_CONFIGS = sorted(name for name in GOLDEN_CSV if name.endswith("-dummies"))
PARTITION_ROUNDING = ["combined_partition-residual", "continuous_greedy-partition"]
RESIDUAL = [
    "combined-partition", "combined-partition-contracted",
    "combined-graphic", "combined-graphic-contracted",
]
CARDINALITY = {
    "lazy_greedy_improved-cut": "oracles.cut",
    "lazy_greedy_simple-cut": "oracles.cut",
    "random_sampling_monotone-facility": "oracles.facility",
}
TRACED_CONFIGS = (
    DUMMY_CONFIGS + ["random_lazy_greedy"] + PARTITION_ROUNDING + RESIDUAL
    + sorted(CARDINALITY)
)


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spans = importlib.import_module("spans")
        workloads = importlib.import_module("workloads")
    return spans, workloads


def test_every_patched_name_resolves(bench):
    spans, workloads = bench
    targets = [(cls, "evaluate") for cls, _ in spans.VALUE_ORACLES]
    targets += [(cls, "is_independent") for cls, _ in spans.INDEPENDENCE_ORACLES]
    targets += [(owner, attr) for owner, attr, *_ in spans.PHASES]
    targets += [(owner, attr) for owner, attr, _ in spans.PLAIN]
    targets += [(harness, "run_trial")]
    targets += [(owner, attr) for owner, attr, _ in workloads.ALGORITHMS]
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_dummy_configs_are_present():
    assert len(DUMMY_CONFIGS) == 5


@pytest.mark.parametrize("name", TRACED_CONFIGS)
def test_traced_run_matches_the_ledger(bench, name):
    spans, workloads = bench
    config = GOLDEN_CSV[name][0]
    tracer = spans.Tracer()
    solutions: list = []
    with spans.install(tracer), workloads.capture_solutions(solutions):
        records = run_experiment(config)
    problems: list[str] = []
    result = spans.analyse(tracer, records, problems)
    assert problems == []
    if name in PARTITION_ROUNDING:
        # block counts answer every rounding question; the bench wraps
        # swap_round where the combined algorithm calls it, not in the harness
        traced = config.algo.startswith("combined")
        assert result["calls"].get("multilinear.swap_round", 0) == (config.trials if traced else 0)
        assert result["independence_queries"].get("multilinear.swap_round", 0) == 0
    if name == "combined_partition-residual":
        # the lazy phase's LinearGreedy is traced on the partition path too:
        # one call per lazy iteration and one more per trial, answered by
        # block counts
        assert result["calls"]["matroid_algos.linear_greedy"] == 4
        assert result["independence_queries"]["matroid_algos.linear_greedy"] == 0
    if name in RESIDUAL:
        # every estimator query reaches the base through the anchored residual,
        # as a call of the base's evaluate, so that its per-call time reads
        # every query (an empty anchor forwards the caller's list)
        residual = result["calls"]["oracles.residual"]
        assert residual == result["value_queries"]["multilinear.continuous_greedy"] > 0
        assert result["calls"]["oracles.coverage"] >= residual
        assert result["calls"]["matroids.contracted"] > 0
    if name in CARDINALITY:
        # every value query of the run is one call of the instance's oracle;
        # the one call more per trial is run_trial's f_value, asked of an
        # uncounted clone
        queries = sum(record.value_queries for record in records)
        assert queries > 0
        assert result["calls"][CARDINALITY[name]] == queries + config.trials
    # one captured solution per trial of the entry points the bench wraps
    captured = {attr for _, attr, _ in workloads.ALGORITHMS}
    wrapped = config.algo.startswith("combined") or config.algo in captured
    assert len(solutions) == (config.trials if wrapped else 0)
