"""submax benchmark command.

    python3 bench/run.py --workload lambda-sweep --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and the README) in one process, one
trial after another, through ``harness.run_experiment``. It repeats full
passes of the workload for ``--seconds`` seconds, checks every output
outside the timed region, prints every metric by name and unit, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced passes; timings
are scaled to a reference host speed (see ``speed.py``). ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (see ``spans.py``). The exit code is 0 only when every check
passed; results and span files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
# set-ups per run: at least this many, and until they took this long
SETUP_MIN_REPEATS = 7
SETUP_MIN_S = 0.5

# (name, unit) of the metrics printed in the final JSON line
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("value_queries", "count"),
    ("oracle_queries", "count"),
    ("f_mean", "objective"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
UNITS = {
    "calls": "count",
    "self_s": "s",
    "us_per_call": "us",
    "value_queries": "count",
    "independence_queries": "count",
    "iterations": "count",
}
# (span name, fields) of the per-layer metrics; queries are those charged
# in the span itself, not in a nested phase span
LAYERS = [
    ("multilinear.continuous_greedy", ("calls", "self_s", "value_queries", "independence_queries")),
    ("multilinear.crude_opt_estimate", ("self_s", "value_queries", "independence_queries")),
    ("multilinear.swap_round", ("calls", "self_s", "independence_queries")),
    ("oracles.coverage", ("calls", "self_s", "us_per_call")),
    ("oracles.residual", ("calls", "self_s")),
    ("oracles.cut", ("calls", "self_s", "us_per_call")),
    ("oracles.facility", ("calls", "self_s", "us_per_call")),
    ("oracles.dummy", ("calls", "self_s", "us_per_call")),
    ("matroids.partition", ("calls", "self_s", "us_per_call")),
    ("matroids.graphic", ("calls", "self_s", "us_per_call")),
    ("matroids.contracted", ("calls", "self_s", "us_per_call")),
    ("matroids.rank_capped", ("calls", "self_s", "us_per_call")),
    ("matroids.dummy_augmented", ("calls", "self_s", "us_per_call")),
    ("matroids.matroid_rank", ("calls", "self_s", "independence_queries")),
    ("matroid_algos.combined_algorithm", ("value_queries", "independence_queries")),
    ("matroid_algos.random_lazy_greedy",
     ("self_s", "value_queries", "independence_queries", "iterations")),
    ("matroid_algos.linear_greedy", ("calls", "self_s", "value_queries", "independence_queries")),
    ("cardinality.lazy_greedy_improved", ("self_s", "value_queries")),
    ("cardinality.lazy_greedy_simple", ("self_s", "value_queries")),
    ("cardinality.random_sampling_monotone", ("self_s", "value_queries")),
    ("cardinality.FillState.fill", ("calls", "self_s", "value_queries")),
    ("harness.run_trial", ("self_s",)),
    ("harness.build", ("calls", "self_s")),
    ("harness.run_experiment", ("self_s",)),
]
# whole-call query bill of the combined algorithm, per lambda
COMBINED_LAMBDAS = (1, 5, 20, 60)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


@dataclasses.dataclass
class Pass:
    """One full pass of a workload: per job, its records (None if it raised)
    and the solutions its trials returned."""

    wall: float
    jobs: list


def run_pass(jobs, harness, capture_solutions, probe=None) -> Pass:
    """Run every job once; with a speed probe, calibrate after each job."""
    solutions: list = []
    results = []
    wall = 0.0
    with capture_solutions(solutions):
        for job in jobs:
            mark = len(solutions)
            started = time.perf_counter()
            try:
                records = harness.run_experiment(job.config)
            except Exception:
                traceback.print_exc()
                records = None
            took = time.perf_counter() - started
            wall += took
            if probe is not None:
                probe.follow(took)
            results.append((job, records, solutions[mark:]))
    return Pass(wall, results)


def records_of(p: Pass) -> list:
    return [r for _, records, _ in p.jobs if records for r in records]


def check_pass(p: Pass, check_solution, problems: list) -> tuple[int, int]:
    """Attempted and failed trials of a pass; output mismatches go to ``problems``."""
    attempted = failed = 0
    for job, records, solutions in p.jobs:
        attempted += job.config.trials
        if records is None:
            failed += job.config.trials
            continue
        if len(solutions) != len(records):
            problems.append(f"{job.config.algo}: {len(solutions)} solutions for {len(records)} trials")
            failed += job.config.trials
            continue
        for rec, sol in zip(records, solutions):
            why = check_solution(job, sol, rec.f_value)
            if why is not None:
                problems.append(f"{job.config.algo} seed {rec.seed}: {why}")
            if why is not None or rec.failed:
                failed += 1
    return attempted, failed


def bill(p: Pass) -> tuple:
    """The pass's exact outputs: query totals and every trial's value."""
    recs = records_of(p)
    return (
        sum(r.value_queries for r in recs),
        sum(r.independence_queries for r in recs),
        tuple(r.f_value for r in recs),
    )


def reproduces(reference: Pass, timed: Pass) -> bool:
    """Trial 0 of the first job gave the same bill, value and solution twice."""
    _, ref_records, ref_solutions = reference.jobs[0]
    _, records, solutions = timed.jobs[0]
    if not ref_records or not records:
        return False

    def key(r):
        return (r.value_queries, r.independence_queries, r.f_value, r.failed)

    return key(ref_records[0]) == key(records[0]) and ref_solutions[:1] == solutions[:1]


def lambda_tradeoff(records: list) -> dict:
    """Median value queries per lambda, in increasing lambda order."""
    by_lam: dict[float, list[int]] = {}
    for r in records:
        by_lam.setdefault(r.lam, []).append(r.value_queries)
    return {lam: statistics.median(v) for lam, v in sorted(by_lam.items())}


def tail(values: list[float]) -> tuple | None:
    """(percentile, value): the highest integer percentile, p50 to p99, with
    at least ten of the values above it (nearest-rank definition)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        idx = math.ceil(pct / 100 * n) - 1
        if n - (idx + 1) >= 10:
            return pct, ordered[idx]
    return None


def host_context(args, passes: int, trials_per_pass: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "trials_per_pass": trials_per_pass,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "SUBMAX_THREADS": os.environ.get("SUBMAX_THREADS"),
    }


def per_layer(stats: list[dict], overhead: float) -> dict:
    """Per-pass per-layer metrics from the ``spans.analyse`` results of the
    traced passes; counts are exact, times are means over the passes."""
    first = stats[0]

    def mean_time(name):
        return statistics.fmean(s["self_s"].get(name, 0.0) for s in stats)

    out = {}
    for name, fields in LAYERS:
        calls = first["calls"].get(name, 0)
        for field in fields:
            if field == "calls":
                value = calls
            elif field == "self_s":
                value = mean_time(name)
            elif field == "us_per_call":
                value = mean_time(name) / calls * 1e6 if calls else 0.0
            elif field == "iterations":
                value = first["lazy_iterations"]
            else:
                value = sum(v for n, v in first[field].items()
                            if n == name or n.startswith(name + ".lam"))
            out[f"{name}.{field}"] = (value, UNITS[field])
    for lam in COMBINED_LAMBDAS:
        span = f"matroid_algos.combined_algorithm.lam{lam}"
        for field in ("value_queries", "independence_queries"):
            value = first[field + ".inclusive"].get(span, 0)
            out[f"matroid_algos.combined_algorithm.{field}.lam{lam}"] = (value, "count")
    out["other.value_queries"] = (first["other.value_queries"], "count")
    out["other.independence_queries"] = (first["other.independence_queries"], "count")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def comparable(stats: dict) -> dict:
    """The parts of an analysis that must repeat exactly between passes."""
    return {k: v for k, v in stats.items() if k != "self_s"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "submax" / "__init__.py").is_file():
        print(f"error: the submax sources are missing ({SRC / 'submax'})", file=sys.stderr)
        return 2
    os.environ["SUBMAX_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    from submax import harness
    import spans
    from speed import SpeedProbe
    from workloads import WORKLOADS, capture_solutions, check_solution

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)

    # ---- set-up, repeated; a speed probe runs after each
    setup_times: list[float] = []
    setup_probe = SpeedProbe()
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S:
        started = time.perf_counter()
        jobs = workload.setup(out_dir, args.seed)
        setup_times.append(time.perf_counter() - started)
        setup_probe.follow(setup_times[-1])

    # Trial 0 of the first job, run before timing: it warms the process and
    # is the reference bill that the timed pass must reproduce.
    first = jobs[0]
    reference = run_pass(
        [dataclasses.replace(first, config=dataclasses.replace(first.config, trials=1))],
        harness, capture_solutions,
    )

    # ---- timed passes
    problems: list[str] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    layer_stats: list[dict] = []
    if args.trace:
        for old in out_dir.glob("spans-*.npz"):
            old.unlink()
    probe, traced_probe = SpeedProbe(), SpeedProbe()
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(run_pass(jobs, harness, capture_solutions, probe))
        if args.trace:
            tracer = spans.Tracer()
            with spans.install(tracer):
                traced.append(run_pass(jobs, harness, capture_solutions, traced_probe))
            layer_stats.append(spans.analyse(tracer, records_of(traced[-1]), problems))
            tracer.save(out_dir / f"spans-{len(traced) - 1}.npz")
            del tracer
        now = time.perf_counter()
        if now - started + (now - round_start) > args.seconds:
            break

    # ---- output checks, outside the timed region
    attempted = failed = 0
    for p in untraced + traced:
        a, f = check_pass(p, check_solution, problems)
        attempted += a
        failed += f
    check_pass(reference, check_solution, problems)
    if not reproduces(reference, untraced[0]):
        problems.append("re-running trial 0 with its seed did not reproduce its bill")
        failed += 1
    if len({bill(p) for p in untraced + traced}) != 1:
        problems.append("passes with one seed gave different query bills")
    if len({json.dumps(comparable(s), sort_keys=True) for s in layer_stats}) > 1:
        problems.append("traced passes gave different per-layer counts")
    records = records_of(untraced[0])
    tradeoff = lambda_tradeoff(records) if workload.tradeoff else None
    if tradeoff is not None:
        medians = list(tradeoff.values())
        if not all(a > b for a, b in zip(medians, medians[1:])):
            problems.append(f"median value queries do not fall strictly with lambda: {tradeoff}")

    # ---- metrics
    vq, iq, _ = bill(untraced[0])
    walls = [p.wall for p in untraced]
    trial_ms = [r.wall_ms for p in untraced for r in records_of(p)]
    report = {
        "wall_s": (statistics.fmean(walls) * probe.scale(), "s"),
        "wall_s.raw": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times) * setup_probe.median_scale(), "s"),
        "setup_s.raw": (statistics.median(setup_times), "s"),
        "trial_ms.p50": (statistics.median(trial_ms), "ms"),
        "value_queries": (vq, "count"),
        "independence_queries": (iq, "count"),
        "oracle_queries": (vq + iq, "count"),
        "f_mean": (statistics.fmean(r.f_value for r in records), "objective"),
        "failed_frac": (failed / attempted, "ratio"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail_ms = tail(trial_ms)
    if args.trace:
        overhead = (statistics.fmean(p.wall for p in traced) * traced_probe.scale()
                    / (statistics.fmean(walls) * probe.scale())) - 1.0
        metrics = per_layer(layer_stats, overhead)
    else:
        metrics = {name: report[name] for name, _ in END_TO_END}
    context = host_context(args, len(untraced), sum(j.config.trials for j in jobs))

    for name, (value, unit) in report.items():
        print(f"{name:<24} {value} {unit}")
    if tail_ms is None:
        print(f"{'trial_ms.tail':<24} not reported: no percentile of {len(trial_ms)} trials "
              "has ten trials beyond it")
    else:
        print(f"{'trial_ms.tail':<24} {tail_ms[1]} ms (p{tail_ms[0]} of {len(trial_ms)} trials)")
    if tradeoff is not None:
        print(f"{'tradeoff':<24} median value queries by lambda {tradeoff}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<60} {value} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("context " + json.dumps(context, sort_keys=True))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    full = dict(
        result, context=context, report={k: v for k, (v, _) in report.items()},
        trial_ms_tail=tail_ms, tradeoff=tradeoff, problems=problems, pass_walls=walls,
        traced_pass_walls=[p.wall for p in traced], setup_times=setup_times,
        speed_loops=probe.samples, setup_speed_loops=setup_probe.samples,
    )
    with open(out_dir / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
