"""Benchmark harness: instances on disk, brute-force optima, seeded trials.

Instance files are JSON objects with a ``kind`` discriminator:

* ``{"kind": "coverage", "sets": [[item, ...], ...], "universe": U,
  "weights": [...]?}`` - weighted coverage, one entry per ground element.
* ``{"kind": "cut", "n": N, "arcs": [[a, b, w], ...]}`` - directed cut.
* ``{"kind": "facility", "values": [[...], ...]}`` - clients x facilities
  value matrix.
* ``{"kind": "modular", "weights": [...]}`` - additive weights.
* ``{"kind": "table", "n": N, "entries": [[[id, ...], value], ...]}`` -
  explicit function table over all subsets.

Matroid files: ``{"kind": "uniform", "n": N, "k": K}``,
``{"kind": "partition", "blocks": [[id, ...], ...], "capacities": [...]}``,
``{"kind": "graphic", "vertices": V, "edges": [[a, b], ...]}`` and, for test
fixtures, ``{"kind": "explicit", "n": N, "independent": [[id, ...], ...]}``.

One CSV row is written per trial with the fixed column order
``algo,n,k,epsilon,lambda,seed,trial,f_value,opt_value,value_queries,``
``independence_queries,failed,wall_ms``. Trial t runs with seed
``base_seed + t`` and a fresh ledger, so a re-run of the same config is
byte-identical (disable wall-clock recording for strict reproducibility).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from . import cardinality as card
from . import matroid_algos as malg
from .errors import InstanceTooLargeError, InvalidInputError
from .ledger import QueryLedger
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    matroid_rank,
)
from .multilinear import continuous_greedy, swap_round
from .oracles import (
    CoverageOracle,
    DirectedCutOracle,
    FacilityLocationOracle,
    ModularOracle,
    TableOracle,
    ValueOracle,
)

CSV_COLUMNS = [
    "algo",
    "n",
    "k",
    "epsilon",
    "lambda",
    "seed",
    "trial",
    "f_value",
    "opt_value",
    "value_queries",
    "independence_queries",
    "failed",
    "wall_ms",
]


# ---------------------------------------------------------------------------
# instance (de)serialization and generation


def oracle_from_dict(spec: dict, ledger: Optional[QueryLedger] = None) -> ValueOracle:
    kind = spec.get("kind")
    if kind == "coverage":
        return CoverageOracle(spec["sets"], spec["universe"], spec.get("weights"), ledger)
    if kind == "cut":
        arcs = [(a, b, w) for a, b, w in spec["arcs"]]
        return DirectedCutOracle(spec["n"], arcs, ledger)
    if kind == "facility":
        return FacilityLocationOracle(spec["values"], ledger)
    if kind == "modular":
        return ModularOracle(spec["weights"], ledger)
    if kind == "table":
        entries = {frozenset(members): value for members, value in spec["entries"]}
        return TableOracle(spec["n"], entries, ledger)
    raise InvalidInputError(f"unknown instance kind {kind!r}")


def matroid_from_dict(
    spec: dict, ledger: Optional[QueryLedger] = None, default_n: Optional[int] = None
) -> Matroid:
    kind = spec.get("kind")
    if kind == "uniform":
        n = spec.get("n", default_n)
        if n is None:
            raise InvalidInputError("uniform matroid needs n (or an instance to infer it)")
        return UniformMatroid(n, spec["k"], ledger)
    if kind == "partition":
        return PartitionMatroid(spec["blocks"], spec["capacities"], ledger)
    if kind == "graphic":
        return GraphicMatroid(spec["vertices"], spec["edges"], ledger)
    if kind == "explicit":
        return ExplicitMatroid(spec["n"], spec["independent"], ledger)
    raise InvalidInputError(f"unknown matroid kind {kind!r}")


def load_json(path: Union[str, Path]) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(obj: dict, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def generate_instance(
    family: str,
    n: int,
    seed: int,
    *,
    universe: Optional[int] = None,
    density: float = 0.1,
    clients: Optional[int] = None,
    weight_range: tuple[int, int] = (1, 10),
) -> dict:
    """Deterministic instance spec for a family; same arguments, same bytes."""
    rng = np.random.default_rng(seed)
    if family == "coverage":
        m = universe if universe is not None else 3 * n
        sets = []
        for _ in range(n):
            mask = rng.random(m) < density
            items = np.flatnonzero(mask).tolist()
            if not items:
                items = [int(rng.integers(m))]
            sets.append([int(x) for x in items])
        return {"kind": "coverage", "sets": sets, "universe": m}
    if family == "cut":
        lo, hi = weight_range
        arcs = []
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < density:
                    arcs.append([a, b, int(rng.integers(lo, hi + 1))])
        return {"kind": "cut", "n": n, "arcs": arcs}
    if family == "facility":
        m = clients if clients is not None else 2 * n
        values = np.round(rng.random((m, n)) * (weight_range[1] - weight_range[0]) + weight_range[0], 6)
        return {"kind": "facility", "values": values.tolist()}
    if family == "modular":
        lo, hi = weight_range
        return {"kind": "modular", "weights": [int(x) for x in rng.integers(lo, hi + 1, size=n)]}
    raise InvalidInputError(f"unknown instance family {family!r}")


def generate_matroid(
    kind: str,
    n: int,
    k: int,
    seed: int,
    *,
    blocks: Optional[int] = None,
) -> dict:
    """Deterministic matroid spec; partition capacities always sum to k."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return {"kind": "uniform", "n": n, "k": k}
    if kind == "partition":
        h = blocks if blocks is not None else min(k, max(1, n // 4))
        if h > n:
            raise InvalidInputError("more blocks than elements")
        if k > n:
            raise InvalidInputError("rank cannot exceed the ground set size")
        ids = list(rng.permutation(n))
        cut_points = sorted(rng.choice(np.arange(1, n), size=h - 1, replace=False).tolist()) if h > 1 else []
        pieces = []
        prev = 0
        for c in cut_points + [n]:
            pieces.append(sorted(int(x) for x in ids[prev:c]))
            prev = c
        # capacities sum to k and never exceed the block size, so rank == k
        caps = [0] * h
        remaining = k
        j = 0
        while remaining > 0:
            if caps[j] < len(pieces[j]):
                caps[j] += 1
                remaining -= 1
            j = (j + 1) % h
        return {"kind": "partition", "blocks": pieces, "capacities": caps}
    if kind == "graphic":
        v = k + 1  # spanning-tree rank is v - 1 = k
        edges = [[int(a), int(a + 1)] for a in range(v - 1)]
        while len(edges) < n:
            a = int(rng.integers(v))
            b = int(rng.integers(v))
            if a != b:
                edges.append(sorted([a, b]))
        return {"kind": "graphic", "vertices": v, "edges": edges[:n]}
    raise InvalidInputError(f"unknown matroid kind {kind!r}")


# ---------------------------------------------------------------------------
# brute force


def brute_force_opt(
    f: ValueOracle,
    constraint: Union[Matroid, int],
    *,
    max_n: int = 20,
    max_sets: int = 10 ** 6,
) -> tuple[float, set[int]]:
    """Exact optimum by enumeration, on uncounted oracle clones.

    ``constraint`` is either a matroid handle or a cardinality bound k.
    Cardinality instances are limited to n <= max_n; matroid search walks the
    independence DFS tree and refuses after max_sets sets.
    """
    probe = f.uncounted()
    if isinstance(constraint, int):
        n = f.n
        if n > max_n:
            raise InstanceTooLargeError(f"brute force limited to n <= {max_n}")
        k = constraint
        best_v, best_s = probe.evaluate([]), set()
        sizes = [k] if (probe.monotone and k <= n) else range(1, min(k, n) + 1)
        for r in sizes:
            for combo in itertools.combinations(range(n), r):
                v = probe.evaluate(combo)
                if v > best_v:
                    best_v, best_s = v, set(combo)
        return best_v, best_s

    m_probe = constraint.uncounted()
    n = constraint.n
    best_v, best_s = probe.evaluate([]), set()
    seen = 0
    stack: list[tuple[list[int], int]] = [([], 0)]
    while stack:
        members, start = stack.pop()
        seen += 1
        if seen > max_sets:
            raise InstanceTooLargeError("independence family too large for brute force")
        if members:
            v = probe.evaluate(members)
            if v > best_v:
                best_v, best_s = v, set(members)
        for u in range(start, n):
            cand = members + [u]
            if m_probe.is_independent(cand):
                stack.append((cand, u + 1))
    return best_v, best_s


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class RunConfig:
    algo: str
    instance: Union[str, Path, dict]
    matroid: Optional[Union[str, Path, dict]] = None
    k: Optional[int] = None
    epsilon: Optional[float] = None
    lam: Optional[float] = None
    delta: Optional[float] = None
    p: Optional[float] = None
    s: Optional[float] = None
    B: Optional[float] = None
    I: Optional[int] = None
    trials: int = 1
    seed: int = 0
    out: Optional[Union[str, Path]] = None
    compute_opt: bool = False
    sample_scale: float = 1.0
    use_partition: bool = False
    record_wall_time: bool = True


@dataclass
class RunRecord:
    algo: str
    n: int
    k: Optional[int]
    epsilon: Optional[float]
    lam: Optional[float]
    seed: int
    trial: int
    f_value: float
    opt_value: Optional[float]
    value_queries: int
    independence_queries: int
    failed: bool
    wall_ms: float

    def row(self) -> list[str]:
        def fmt(x: Any) -> str:
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return [
            self.algo,
            str(self.n),
            fmt(self.k),
            fmt(self.epsilon),
            fmt(self.lam),
            str(self.seed),
            str(self.trial),
            fmt(self.f_value),
            fmt(self.opt_value),
            str(self.value_queries),
            str(self.independence_queries),
            str(self.failed),
            fmt(self.wall_ms),
        ]


def _resolve(spec: Union[str, Path, dict, None]) -> Optional[dict]:
    if spec is None:
        return None
    if isinstance(spec, (str, Path)):
        return load_json(spec)
    return spec


def _needs_matroid(algo: str) -> bool:
    return algo in {
        "thresholding_greedy",
        "random_lazy_greedy",
        "combined",
        "combined_partition",
        "continuous_greedy",
    }


def run_trial(
    config: RunConfig,
    instance_spec: dict,
    matroid_spec: Optional[dict],
    trial: int,
    opt_value: Optional[float],
) -> RunRecord:
    ledger = QueryLedger()
    oracle = oracle_from_dict(instance_spec, ledger)
    matroid = (
        matroid_from_dict(matroid_spec, ledger, default_n=oracle.n)
        if matroid_spec
        else None
    )
    seed = config.seed + trial
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    solution, failed = _dispatch(config, oracle, matroid, rng)
    wall_ms = (time.perf_counter() - started) * 1000.0 if config.record_wall_time else 0.0
    f_value = oracle.uncounted().evaluate(sorted(solution))
    if matroid is not None:
        k = matroid_rank(matroid.uncounted())
    else:
        k = config.k
    return RunRecord(
        algo=config.algo,
        n=oracle.n,
        k=k,
        epsilon=config.epsilon,
        lam=config.lam,
        seed=seed,
        trial=trial,
        f_value=f_value,
        opt_value=opt_value,
        value_queries=ledger.value_queries,
        independence_queries=ledger.independence_queries,
        failed=failed,
        wall_ms=round(wall_ms, 3),
    )


def _dispatch(
    config: RunConfig,
    oracle: ValueOracle,
    matroid: Optional[Matroid],
    rng: np.random.Generator,
) -> tuple[set[int], bool]:
    algo = config.algo
    if _needs_matroid(algo) and matroid is None:
        raise InvalidInputError(f"algorithm {algo!r} needs a matroid")
    if algo == "standard_greedy":
        return card.standard_greedy(oracle, _req(config.k, "k")), False
    if algo == "random_greedy":
        return card.random_greedy(oracle, _req(config.k, "k"), rng), False
    if algo == "random_sampling":
        return (
            card.random_sampling(
                oracle, _req(config.k, "k"), _req(config.p, "p"), _req(config.s, "s"), rng
            ),
            False,
        )
    if algo == "random_sampling_monotone":
        return (
            card.random_sampling_monotone(
                oracle, _req(config.k, "k"), _req(config.epsilon, "epsilon"), rng
            ),
            False,
        )
    if algo == "random_sampling_nonmonotone":
        return (
            card.random_sampling_nonmonotone(
                oracle, _req(config.k, "k"), _req(config.epsilon, "epsilon"), rng
            ),
            False,
        )
    if algo == "lazy_greedy_simple":
        return (
            card.lazy_greedy_simple(oracle, _req(config.k, "k"), _req(config.delta, "delta"), rng),
            False,
        )
    if algo == "lazy_greedy_improved":
        return (
            card.lazy_greedy_improved(oracle, _req(config.k, "k"), _req(config.delta, "delta"), rng),
            False,
        )
    if algo == "thresholding_greedy":
        return malg.thresholding_greedy(oracle, matroid, _req(config.epsilon, "epsilon")), False
    if algo == "random_lazy_greedy":
        outcome = malg.random_lazy_greedy(
            oracle,
            matroid,
            _req(config.delta, "delta"),
            _req(config.B, "B"),
            _req(config.I, "I"),
            rng,
            use_partition=config.use_partition,
        )
        return set(outcome.solution), outcome.failed
    if algo in ("combined", "combined_partition"):
        result = malg.combined_algorithm(
            oracle,
            matroid,
            _req(config.epsilon, "epsilon"),
            _req(config.lam, "lambda"),
            rng,
            sample_scale=config.sample_scale,
            use_partition=(algo == "combined_partition") or config.use_partition,
            B_override=config.B,
        )
        return set(result.solution), result.failed
    if algo == "continuous_greedy":
        eps = _req(config.epsilon, "epsilon")
        point = continuous_greedy(
            oracle,
            matroid,
            c=2.0,
            delta=eps,
            rng=rng,
            sample_scale=config.sample_scale,
        )
        return swap_round(matroid, point, rng), False
    raise InvalidInputError(f"unknown algorithm {algo!r}")


def _req(value, name: str):
    if value is None:
        raise InvalidInputError(f"missing required parameter --{name}")
    return value


def run_experiment(config: RunConfig) -> list[RunRecord]:
    """Run all trials of a config; trial t uses seed = base seed + t.

    Trials run in a worker pool capped by SUBMAX_THREADS (default 1); each
    trial owns its ledger and generator, and records land in trial order.
    """
    if config.trials < 1:
        raise InvalidInputError("need at least one trial")
    instance_spec = _resolve(config.instance)
    matroid_spec = _resolve(config.matroid)
    opt_value = None
    if config.compute_opt:
        probe_oracle = oracle_from_dict(instance_spec)
        if matroid_spec is not None and _needs_matroid(config.algo):
            opt_value, _ = brute_force_opt(
                probe_oracle, matroid_from_dict(matroid_spec, default_n=probe_oracle.n)
            )
        else:
            opt_value, _ = brute_force_opt(probe_oracle, _req(config.k, "k"))

    workers = max(1, int(os.environ.get("SUBMAX_THREADS", "1")))
    if workers == 1:
        records = [
            run_trial(config, instance_spec, matroid_spec, t, opt_value)
            for t in range(config.trials)
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_trial, config, instance_spec, matroid_spec, t, opt_value)
                for t in range(config.trials)
            ]
            records = [fut.result() for fut in futures]
    if config.out is not None:
        write_csv(records, config.out)
    return records


def write_csv(records: list[RunRecord], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())


def records_to_csv_bytes(records: list[RunRecord]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.row())
    return buf.getvalue().encode("utf-8")


def read_csv(path: Union[str, Path]) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# aggregation


def summarize(rows: list[dict]) -> list[dict]:
    """Group rows by (algo, n, k, epsilon, lambda) and aggregate.

    Accepts either RunRecord objects or dict rows read back from CSV.
    """
    if not rows:
        raise InvalidInputError("nothing to summarize")
    dict_rows = [r if isinstance(r, dict) else _record_as_dict(r) for r in rows]
    groups: dict[tuple, list[dict]] = {}
    for row in dict_rows:
        key = (row["algo"], row["n"], row["k"], row["epsilon"], row["lambda"])
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda t: tuple(str(x) for x in t)):
        rows_g = groups[key]
        values = [float(r["f_value"]) for r in rows_g]
        vq = [int(r["value_queries"]) for r in rows_g]
        iq = [int(r["independence_queries"]) for r in rows_g]
        failures = [str(r["failed"]).lower() == "true" for r in rows_g]
        entry = {
            "algo": key[0],
            "n": key[1],
            "k": key[2],
            "epsilon": key[3],
            "lambda": key[4],
            "trials": len(rows_g),
            "f_mean": _mean(values),
            "f_median": _median(values),
            "f_std": _std(values),
            "value_queries_mean": _mean(vq),
            "value_queries_median": _median(vq),
            "independence_queries_mean": _mean(iq),
            "independence_queries_median": _median(iq),
            "failure_rate": sum(failures) / len(rows_g),
        }
        opts = [float(r["opt_value"]) for r in rows_g if str(r["opt_value"]) not in ("", "None")]
        if opts:
            entry["opt_value"] = opts[0]
            entry["ratio_mean"] = entry["f_mean"] / opts[0] if opts[0] else math.nan
        out.append(entry)
    return out


def format_summary(entries: list[dict]) -> str:
    cols = [
        "algo", "n", "k", "epsilon", "lambda", "trials",
        "f_mean", "f_median", "value_queries_median",
        "independence_queries_median", "failure_rate", "ratio_mean",
    ]
    lines = ["\t".join(cols)]
    for e in entries:
        lines.append(
            "\t".join(
                f"{e[c]:.6g}" if isinstance(e.get(c), float) else str(e.get(c, ""))
                for c in cols
            )
        )
    return "\n".join(lines)


def _record_as_dict(rec: RunRecord) -> dict:
    return dict(zip(CSV_COLUMNS, rec.row()))


def _mean(xs) -> float:
    return float(sum(xs) / len(xs))


def _median(xs) -> float:
    ordered = sorted(xs)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _std(xs) -> float:
    mu = _mean(xs)
    return float(math.sqrt(sum((x - mu) ** 2 for x in xs) / len(xs)))
