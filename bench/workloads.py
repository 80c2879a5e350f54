"""The benchmark's workloads: inputs, trial configs and output checks.

Each workload's set-up generates its instance and matroid specs, writes them
as JSON files, reads them back and builds the oracle and matroid handles that
the output checks use. The trials themselves receive only the file paths,
through the ``RunConfig`` that the CLI also builds.

The instances come from a fixed generator seed per workload; ``--seed`` sets
the trials' base seed. The README gives the measurement behind this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from submax import cardinality, matroid_algos
from submax.harness import (
    RunConfig,
    generate_instance,
    generate_matroid,
    load_json,
    matroid_from_dict,
    oracle_from_dict,
    save_json,
)
from submax.matroid_algos import choose_lambda
from submax.matroids import Matroid
from submax.oracles import ValueOracle

from spans import patched

# Generator seed of every instance: 42 gives the acceptance suite's
# COV400/PART400 pair.
INSTANCE_SEED = 42
EPS = 0.25
SAMPLE_SCALE = 2.377e-7
SWEEP_LAMBDAS = (1.0, 5.0, 20.0)
# Trials per pass. Each trial is its own run_experiment call (trial t with
# seed seed + t, as the CLI would number it), so that speed calibration can
# run between them.
SWEEP_TRIALS = 2
GRAPHIC_TRIALS = 4


@dataclass
class Job:
    """One ``run_experiment`` call of a pass, with handles for its checks."""

    config: RunConfig
    f: ValueOracle
    matroid: Optional[Matroid]
    k: int


@dataclass
class Workload:
    name: str
    setup: Callable[[Path, int], list[Job]]
    # the lambda tradeoff is checked on this workload
    tradeoff: bool = False


def _files(out: Path, instance: dict, matroid: Optional[dict] = None):
    """Write the specs, read them back and build counted handles."""
    inst_path = out / "instance.json"
    save_json(instance, inst_path)
    f = oracle_from_dict(load_json(inst_path))
    if matroid is None:
        return str(inst_path), f, None, None
    mat_path = out / "matroid.json"
    save_json(matroid, mat_path)
    M = matroid_from_dict(load_json(mat_path), default_n=f.n)
    return str(inst_path), f, str(mat_path), M


def _coverage400() -> dict:
    return generate_instance("coverage", 400, INSTANCE_SEED, universe=1200, density=0.01)


def lambda_sweep(out: Path, seed: int) -> list[Job]:
    k = 20
    inst, f, mat, M = _files(
        out, _coverage400(), generate_matroid("partition", 400, k, INSTANCE_SEED, blocks=10)
    )
    return [
        Job(
            RunConfig(algo="combined", instance=inst, matroid=mat, epsilon=EPS, lam=lam,
                      trials=1, seed=seed + t, sample_scale=SAMPLE_SCALE),
            f, M, k,
        )
        for t in range(SWEEP_TRIALS)
        for lam in SWEEP_LAMBDAS
    ]


def closing_lambda_graphic(out: Path, seed: int) -> list[Job]:
    n, k = 400, 60
    inst, f, mat, M = _files(out, _coverage400(), generate_matroid("graphic", n, k, INSTANCE_SEED))
    lam = choose_lambda(n, k, EPS)
    return [
        Job(
            RunConfig(algo="combined", instance=inst, matroid=mat, epsilon=EPS, lam=lam,
                      trials=1, seed=seed + t, sample_scale=SAMPLE_SCALE),
            f, M, k,
        )
        for t in range(GRAPHIC_TRIALS)
    ]


def cardinality_short_trials(out: Path, seed: int) -> list[Job]:
    k, trials = 30, 30
    cut_dir, fac_dir = out / "cut", out / "facility"
    cut_dir.mkdir(exist_ok=True)
    fac_dir.mkdir(exist_ok=True)
    cut, f_cut, _, _ = _files(cut_dir, generate_instance("cut", 300, INSTANCE_SEED, density=0.05))
    fac, f_fac, _, _ = _files(
        fac_dir, generate_instance("facility", 500, INSTANCE_SEED, clients=100)
    )
    return [
        Job(RunConfig(algo="lazy_greedy_improved", instance=cut, k=k, delta=0.1,
                      trials=trials, seed=seed), f_cut, None, k),
        Job(RunConfig(algo="lazy_greedy_simple", instance=cut, k=k, delta=0.1,
                      trials=trials, seed=seed), f_cut, None, k),
        Job(RunConfig(algo="random_sampling_monotone", instance=fac, k=k, epsilon=0.1,
                      trials=trials, seed=seed), f_fac, None, k),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lambda-sweep", lambda_sweep, tradeoff=True),
        Workload("closing-lambda-graphic", closing_lambda_graphic),
        Workload("cardinality-short-trials", cardinality_short_trials),
    )
}


def check_solution(job: Job, solution, f_value: float) -> Optional[str]:
    """Why a returned solution is wrong, or None; uses uncounted clones."""
    members = sorted(solution)
    if any(not 0 <= u < job.f.n for u in members):
        return "solution holds an id outside the ground set"
    if job.matroid is not None:
        if not job.matroid.uncounted().is_independent(members):
            return "solution is not independent"
    elif len(members) > job.k:
        return f"solution has {len(members)} elements, more than k={job.k}"
    value = job.f.uncounted().evaluate(members)
    if value != f_value:
        return f"recomputed value {value!r} differs from recorded f_value {f_value!r}"
    return None


# Algorithm entry points the workloads reach, and how to read a solution
# from what each returns.
ALGORITHMS = [
    (matroid_algos, "combined_algorithm", lambda result: result.solution),
    (cardinality, "lazy_greedy_improved", lambda solution: solution),
    (cardinality, "lazy_greedy_simple", lambda solution: solution),
    (cardinality, "random_sampling_monotone", lambda solution: solution),
]


def capture_solutions(sink: list):
    """Context manager appending every returned solution to ``sink``, in call order."""

    def recorder(fn, extract):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(frozenset(extract(result)))
            return result

        return wrapper

    return patched(
        [(owner, attr, recorder(getattr(owner, attr), extract)) for owner, attr, extract in ALGORITHMS]
    )
