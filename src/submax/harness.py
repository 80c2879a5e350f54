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
import statistics
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np

from . import cardinality as card
from . import matroid_algos as malg
from .errors import InstanceTooLargeError, InvalidInputError
from .ledger import QueryLedger, checked_int, checked_real
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    check_same_ground,
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


# ---------------------------------------------------------------------------
# instance (de)serialization and generation


def _field(spec: dict, key: str):
    try:
        return spec[key]
    except KeyError:
        raise InvalidInputError(f"{spec.get('kind')} spec needs the key {key!r}") from None


def _list_field(spec: dict, key: str, optional: bool = False):
    """``spec[key]`` once it is a list or tuple (or, if ``optional``, absent or null)."""
    value = spec.get(key) if optional else _field(spec, key)
    if isinstance(value, (list, tuple)) or (optional and value is None):
        return value
    raise InvalidInputError(f"{spec.get('kind')} spec key {key!r} must be a list, got {value!r}")


def _kind(spec: dict, what: str):
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{what} spec must be a JSON object, got {type(spec).__name__}")
    return spec.get("kind")


def oracle_from_dict(spec: dict, ledger: Optional[QueryLedger] = None) -> ValueOracle:
    kind = _kind(spec, "instance")
    if kind == "coverage":
        return CoverageOracle(
            _list_field(spec, "sets"), _field(spec, "universe"),
            _list_field(spec, "weights", optional=True), ledger,
        )
    if kind == "cut":
        return DirectedCutOracle(_field(spec, "n"), _list_field(spec, "arcs"), ledger)
    if kind == "facility":
        return FacilityLocationOracle(_field(spec, "values"), ledger)
    if kind == "modular":
        return ModularOracle(_list_field(spec, "weights"), ledger)
    if kind == "table":
        entries = {}
        for i, entry in enumerate(_list_field(spec, "entries")):
            try:
                members, value = entry
                key = frozenset(members)
                value = float(value)
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"entries[{i}] must be [[id, ...], value], got {entry!r}"
                ) from None
            if key in entries:
                # no repeat so far, so dict positions are spec positions
                first = list(entries).index(key)
                raise InvalidInputError(f"entries[{i}] repeats the member set of entries[{first}]")
            entries[key] = value
        return TableOracle(_field(spec, "n"), entries, ledger)
    raise InvalidInputError(f"unknown instance kind {kind!r}")


def matroid_from_dict(
    spec: dict, ledger: Optional[QueryLedger] = None, default_n: Optional[int] = None
) -> Matroid:
    kind = _kind(spec, "matroid")
    if kind == "uniform":
        n = spec.get("n", default_n)
        if n is None:
            raise InvalidInputError("uniform matroid needs n (or an instance to infer it)")
        return UniformMatroid(n, _field(spec, "k"), ledger)
    if kind == "partition":
        return PartitionMatroid(
            _list_field(spec, "blocks"), _list_field(spec, "capacities"), ledger
        )
    if kind == "graphic":
        return GraphicMatroid(_field(spec, "vertices"), _list_field(spec, "edges"), ledger)
    if kind == "explicit":
        return ExplicitMatroid(_field(spec, "n"), _list_field(spec, "independent"), ledger)
    raise InvalidInputError(f"unknown matroid kind {kind!r}")


def load_json(path: Union[str, Path]) -> dict:
    """The JSON value in ``path``; InvalidInputError names a file that is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidInputError(f"{path} is not a UTF-8 JSON file: {exc}") from None


def save_json(obj: dict, path: Union[str, Path]) -> None:
    """Write ``obj`` with sorted keys, compact separators and a trailing newline.

    ``json.dumps`` builds the text with the C encoder; ``json.dump`` would
    stream it through the pure-Python one. The bytes are the same.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def generate_instance(
    family: str,
    n: int,
    seed: int,
    *,
    universe: Optional[int] = None,
    density: float = 0.1,
    clients: Optional[int] = None,
) -> dict:
    """Deterministic instance spec for a family; same arguments, same bytes."""
    n = checked_int(n, "n")
    if universe is not None:
        universe = checked_int(universe, "universe", least=1)
    if clients is not None:
        clients = checked_int(clients, "clients", least=1)
    density = checked_real(density, "density", 0.0, 1.0)
    # integer weights of cut arcs and modular elements; facility values lie between
    lo, hi = 1, 10
    rng = np.random.default_rng(checked_int(seed, "seed"))
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
        arcs = []
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < density:
                    arcs.append([a, b, int(rng.integers(lo, hi + 1))])
        return {"kind": "cut", "n": n, "arcs": arcs}
    if family == "facility":
        m = clients if clients is not None else 2 * n
        values = np.round(rng.random((m, n)) * (hi - lo) + lo, 6)
        return {"kind": "facility", "values": values.tolist()}
    if family == "modular":
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
    n = checked_int(n, "n")
    k = checked_int(k, "k")
    rng = np.random.default_rng(checked_int(seed, "seed"))
    if kind == "uniform":
        return {"kind": "uniform", "n": n, "k": k}
    if kind in ("partition", "graphic") and k > n:
        raise InvalidInputError(f"k={k} exceeds the ground set size n={n}")
    if kind == "partition":
        h = blocks if blocks is not None else max(1, min(k, n // 4))
        # the integer rule reads the type; the range test below names the bounds
        h = checked_int(h, "blocks", least=-math.inf)
        if not 1 <= h <= n:
            raise InvalidInputError(f"blocks must be between 1 and n={n}, got {h}")
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
        if k == 0:
            # one vertex, so every drawn edge would be a self-loop the draw skips
            return {"kind": "graphic", "vertices": 1, "edges": [[0, 0] for _ in range(n)]}
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


BRUTE_FORCE_MAX_N = 20
BRUTE_FORCE_MAX_SETS = 10 ** 6


def brute_force_opt(f: ValueOracle, constraint: Union[Matroid, int]) -> tuple[float, set[int]]:
    """Exact optimum by enumeration, on uncounted oracle clones.

    ``constraint`` is either a matroid handle or a cardinality bound k >= 0.
    Cardinality instances are limited to n <= ``BRUTE_FORCE_MAX_N``; matroid
    search walks the independence DFS tree and refuses after
    ``BRUTE_FORCE_MAX_SETS`` sets.
    """
    probe = f.uncounted()
    if not isinstance(constraint, Matroid):
        k = checked_int(constraint, "k")
        n = f.n
        if n > BRUTE_FORCE_MAX_N:
            raise InstanceTooLargeError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}")
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
        if seen > BRUTE_FORCE_MAX_SETS:
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
    record_wall_time: bool = True


# slots: no per-record dict, which callers that keep many runs' records pay for
@dataclass(slots=True)
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

        return [fmt(getattr(self, field.name)) for field in fields(self)]


CSV_COLUMNS = ["lambda" if field.name == "lam" else field.name for field in fields(RunRecord)]


def _resolve(spec: Union[str, Path, dict]) -> dict:
    if isinstance(spec, (str, Path)):
        return load_json(spec)
    return spec


# ---------------------------------------------------------------------------
# algorithm registry

Runner = Callable[..., tuple[set[int], bool]]


@dataclass(frozen=True)
class Algorithm:
    """One registry entry: the config fields it needs, and how to run one trial.

    ``run(config, f, M, rng)`` returns ``(solution, failed)``. Entries look
    their function up in its module at call time, so patching the module
    (as tracing does) reaches the harness too.
    """

    requires: tuple[str, ...]
    matroid: bool
    run: Runner


def _combined(use_partition: bool) -> Runner:
    def run(c: RunConfig, f, M, rng):
        result = malg.combined_algorithm(
            f, M, c.epsilon, c.lam, rng,
            sample_scale=c.sample_scale, use_partition=use_partition, B_override=c.B,
        )
        return set(result.solution), result.failed

    return run


def _random_lazy_greedy(c: RunConfig, f, M, rng):
    outcome = malg.random_lazy_greedy(f, M, c.delta, c.B, c.I, rng)
    return set(outcome.solution), outcome.failed


def _continuous_greedy(c: RunConfig, f, M, rng):
    # checked here, so an error names the field the config sets, not delta
    epsilon = checked_real(c.epsilon, "epsilon", 0.0, 1.0, open_low=True, open_high=True)
    # continuous greedy's delta; at or below 2**-54 its threshold never falls
    checked_real(c.epsilon, "epsilon", 2.0 ** -54, open_low=True)
    point = continuous_greedy(f, M, c=2.0, delta=epsilon, rng=rng, sample_scale=c.sample_scale)
    return swap_round(M, point, rng), False


ALGORITHMS: dict[str, Algorithm] = {
    "standard_greedy": Algorithm(
        ("k",), False, lambda c, f, M, rng: (card.standard_greedy(f, c.k), False)
    ),
    "random_greedy": Algorithm(
        ("k",), False, lambda c, f, M, rng: (card.random_greedy(f, c.k, rng), False)
    ),
    "random_sampling": Algorithm(
        ("k", "p", "s"), False,
        lambda c, f, M, rng: (card.random_sampling(f, c.k, c.p, c.s, rng), False),
    ),
    "random_sampling_monotone": Algorithm(
        ("k", "epsilon"), False,
        lambda c, f, M, rng: (card.random_sampling_monotone(f, c.k, c.epsilon, rng), False),
    ),
    "random_sampling_nonmonotone": Algorithm(
        ("k", "epsilon"), False,
        lambda c, f, M, rng: (card.random_sampling_nonmonotone(f, c.k, c.epsilon, rng), False),
    ),
    "lazy_greedy_simple": Algorithm(
        ("k", "delta"), False,
        lambda c, f, M, rng: (card.lazy_greedy_simple(f, c.k, c.delta, rng), False),
    ),
    "lazy_greedy_improved": Algorithm(
        ("k", "delta"), False,
        lambda c, f, M, rng: (card.lazy_greedy_improved(f, c.k, c.delta, rng), False),
    ),
    "thresholding_greedy": Algorithm(
        ("epsilon",), True,
        lambda c, f, M, rng: (malg.thresholding_greedy(f, M, c.epsilon), False),
    ),
    "random_lazy_greedy": Algorithm(("delta", "B", "I"), True, _random_lazy_greedy),
    "combined": Algorithm(("epsilon", "lam"), True, _combined(use_partition=False)),
    "combined_partition": Algorithm(("epsilon", "lam"), True, _combined(use_partition=True)),
    "continuous_greedy": Algorithm(("epsilon",), True, _continuous_greedy),
}


def _check_config(config: RunConfig) -> Algorithm:
    """The registry entry of ``config.algo``, once the config fits it."""
    algorithm = ALGORITHMS.get(config.algo)
    if algorithm is None:
        raise InvalidInputError(f"unknown algorithm {config.algo!r}")
    for name in algorithm.requires:
        if getattr(config, name) is None:
            raise InvalidInputError(f"algorithm {config.algo!r} needs the parameter {name!r}")
    if algorithm.matroid and config.matroid is None:
        raise InvalidInputError(f"algorithm {config.algo!r} needs a matroid")
    if not algorithm.matroid and config.matroid is not None:
        raise InvalidInputError(f"algorithm {config.algo!r} takes no matroid")
    if config.k is not None:
        checked_int(config.k, "k", least=1)
    checked_int(config.trials, "trials", least=1)
    checked_int(config.seed, "seed")
    checked_real(config.sample_scale, "sample_scale", 0.0, open_low=True)
    return algorithm


def run_trial(
    config: RunConfig,
    oracle: ValueOracle,
    matroid: Optional[Matroid],
    trial: int,
    opt_value: Optional[float],
) -> RunRecord:
    """Run one trial on clones of the handles bound to a fresh ledger.

    The handles must never have been queried, so each trial starts from a
    fresh handle's state and measures its own rank: a scan on a handle
    without a partition structure, the block sum on one with it.
    """
    ledger = QueryLedger()
    oracle = oracle.with_ledger(ledger)
    matroid = None if matroid is None else matroid.with_ledger(ledger)
    seed = config.seed + trial
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    solution, failed = ALGORITHMS[config.algo].run(config, oracle, matroid, rng)
    wall_ms = (time.perf_counter() - started) * 1000.0 if config.record_wall_time else 0.0
    f_value = oracle.uncounted().evaluate(sorted(solution))
    # a rank the run measured is kept on the handle; otherwise an uncounted clone measures it
    k = config.k if matroid is None else matroid_rank(matroid.uncounted())
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


def run_experiment(config: RunConfig) -> list[RunRecord]:
    """Run all trials of a config; trial t uses seed = base seed + t.

    The oracle and matroid are built once. The trials and the brute force
    query only clones of them. A matroid over another ground set than the
    instance's is refused before either runs.
    """
    algorithm = _check_config(config)
    oracle = oracle_from_dict(_resolve(config.instance))
    matroid = (
        matroid_from_dict(_resolve(config.matroid), default_n=oracle.n)
        if algorithm.matroid
        else None
    )
    if matroid is not None:
        check_same_ground(oracle, matroid)
    opt_value = None
    if config.compute_opt:
        opt_value, _ = brute_force_opt(oracle, config.k if matroid is None else matroid)

    records = [run_trial(config, oracle, matroid, t, opt_value) for t in range(config.trials)]
    if config.out is not None:
        write_csv(records, config.out)
    return records


def write_csv(records: list[RunRecord], path: Union[str, Path]) -> None:
    Path(path).write_bytes(records_to_csv_bytes(records))


def records_to_csv_bytes(records: list[RunRecord]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.row())
    return buf.getvalue().encode("utf-8")


def read_csv(path: Union[str, Path]) -> list[dict]:
    """The rows of ``path``; InvalidInputError names a file that is not a UTF-8 CSV."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return list(csv.DictReader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InvalidInputError(f"{path} is not a UTF-8 CSV file: {exc}") from None


# ---------------------------------------------------------------------------
# aggregation

_SUMMARY_COLUMNS = (
    "algo", "n", "k", "epsilon", "lambda", "f_value", "opt_value",
    "value_queries", "independence_queries", "failed",
)


def summarize(rows: list[dict]) -> list[dict]:
    """Group rows by (algo, n, k, epsilon, lambda) and aggregate.

    Accepts either RunRecord objects or dict rows read back from CSV.
    """
    if not rows:
        raise InvalidInputError("nothing to summarize")
    dict_rows = [r if isinstance(r, dict) else _record_as_dict(r) for r in rows]
    groups: dict[tuple, list[dict]] = {}
    for row in dict_rows:
        missing = [c for c in _SUMMARY_COLUMNS if c not in row]
        if missing:
            raise InvalidInputError(f"rows to summarize need the column {missing[0]!r}")
        key = (row["algo"], row["n"], row["k"], row["epsilon"], row["lambda"])
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda t: tuple(str(x) for x in t)):
        rows_g = groups[key]
        values = _column(rows_g, "f_value", _finite)
        vq = _column(rows_g, "value_queries", int)
        iq = _column(rows_g, "independence_queries", int)
        failures = _column(rows_g, "failed", _flag)
        entry = {
            "algo": key[0],
            "n": key[1],
            "k": key[2],
            "epsilon": key[3],
            "lambda": key[4],
            "trials": len(rows_g),
            "f_mean": _mean(values),
            "f_median": float(statistics.median(values)),
            "f_std": float(statistics.pstdev(values)),
            "value_queries_mean": _mean(vq),
            "value_queries_median": float(statistics.median(vq)),
            "independence_queries_mean": _mean(iq),
            "independence_queries_median": float(statistics.median(iq)),
            "failure_rate": sum(failures) / len(rows_g),
        }
        opts = _column(
            [r for r in rows_g if str(r["opt_value"]) not in ("", "None")], "opt_value", _finite
        )
        if opts:
            entry["opt_value"] = opts[0]
            if opts[0]:
                entry["ratio_mean"] = entry["f_mean"] / opts[0]
        out.append(entry)
    return out


def _finite(x: Any) -> float:
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(x)
    return value


def _flag(x: Any) -> bool:
    flag = str(x).lower()
    if flag not in ("true", "false"):
        raise ValueError(x)
    return flag == "true"


_KINDS = {int: "an integer", _finite: "a finite number", _flag: "true or false"}


def _column(rows: list[dict], name: str, convert: Callable[[Any], Any]) -> list:
    """``convert`` applied to column ``name`` of every row, else an error naming it."""
    out = []
    for r in rows:
        try:
            out.append(convert(r[name]))
        except (TypeError, ValueError, OverflowError):
            raise InvalidInputError(
                f"column {name!r} must hold {_KINDS[convert]}, got {r[name]!r}"
            ) from None
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
