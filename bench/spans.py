"""Span tracing from outside the library.

The traced run replaces public layer functions and oracle methods of
``submax`` with wrappers that record one span per call. A span has a name,
a start and an end (``time.perf_counter`` seconds), the index of the span
that was open when it started (its parent) and the id of the harness trial
it belongs to (-1 outside trials). Phase spans also record the change of
their trial ledger's two counters. Spans are kept in typed arrays in memory
and written out as one ``.npz`` file when the traced pass ends.

Nothing is traced in the untraced run: :func:`install` patches the layers
only for the duration of a traced pass and restores every original after it.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from submax import cardinality, harness, matroid_algos, matroids, oracles

# Oracle kinds the workloads use. An outermost oracle call (one not made
# from inside another oracle call) charges exactly one ledger tick.
VALUE_ORACLES = [
    (oracles.CoverageOracle, "oracles.coverage"),
    (oracles.DirectedCutOracle, "oracles.cut"),
    (oracles.FacilityLocationOracle, "oracles.facility"),
    (oracles.ResidualOracle, "oracles.residual"),
    (matroids.DummyValueOracle, "oracles.dummy"),
]
INDEPENDENCE_ORACLES = [
    (matroids.PartitionMatroid, "matroids.partition"),
    (matroids.GraphicMatroid, "matroids.graphic"),
    (matroids.ContractedMatroid, "matroids.contracted"),
    (matroids.RankCappedMatroid, "matroids.rank_capped"),
    (matroids.DummyAugmentedMatroid, "matroids.dummy_augmented"),
]


def _first_ledger(args: tuple):
    for a in args:
        ledger = getattr(a, "ledger", None)
        if ledger is not None:
            return ledger
    raise TypeError("phase span found no ledger among its arguments")


def _fill_ledger(args: tuple):
    return args[0].f.ledger


def _lam_label(args: tuple) -> str:
    return f"lam{args[3]:g}"


def _count_iterations(tracer: "Tracer", outcome) -> None:
    tracer.lazy_iterations += outcome.iterations


# Phase spans: (owner, attribute, span name, ledger of the call, name suffix,
# result hook). Functions are patched in the namespace that calls them.
PHASES = [
    (matroid_algos, "combined_algorithm", "matroid_algos.combined_algorithm", _first_ledger, _lam_label),
    (matroid_algos, "random_lazy_greedy", "matroid_algos.random_lazy_greedy", _first_ledger, None,
     _count_iterations),
    (matroid_algos, "linear_greedy", "matroid_algos.linear_greedy", _first_ledger, None),
    (matroid_algos, "matroid_rank", "matroids.matroid_rank", _first_ledger, None),
    (matroids, "matroid_rank", "matroids.matroid_rank", _first_ledger, None),
    (matroid_algos, "crude_opt_estimate", "multilinear.crude_opt_estimate", _first_ledger, None),
    (matroid_algos, "continuous_greedy", "multilinear.continuous_greedy", _first_ledger, None),
    (matroid_algos, "swap_round", "multilinear.swap_round", _first_ledger, None),
    (cardinality, "lazy_greedy_improved", "cardinality.lazy_greedy_improved", _first_ledger, None),
    (cardinality, "lazy_greedy_simple", "cardinality.lazy_greedy_simple", _first_ledger, None),
    (cardinality, "random_sampling_monotone", "cardinality.random_sampling_monotone", _first_ledger, None),
    (cardinality.FillState, "fill", "cardinality.FillState.fill", _fill_ledger, None),
]
# Plain spans without ledger deltas.
PLAIN = [
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "oracle_from_dict", "harness.build"),
    (harness, "matroid_from_dict", "harness.build"),
]


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        # phase spans only: span index and ledger deltas
        self.phase_span = array("i")
        self.phase_dv = array("q")
        self.phase_di = array("q")
        self.stack = [-1]
        self.current_trial = -1
        self.trials_started = 0
        self.lazy_iterations = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def leaf(self, fn: Callable, name: str) -> Callable:
        """Wrapper for oracle methods: the hot path, kept minimal."""
        nid = self.name_id(name)
        name_a, parent_a, trial_a = self.name.append, self.parent.append, self.trial.append
        start_a, end_a, end = self.start.append, self.end.append, self.end
        stack, perf = self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(end)
            name_a(nid)
            parent_a(stack[-1])
            trial_a(tracer.current_trial)
            end_a(0.0)
            stack.append(i)
            start_a(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()

        return wrapper

    def phase(
        self,
        fn: Callable,
        name: str,
        ledger_of: Optional[Callable] = None,
        label: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            full = name if label is None else f"{name}.{label(args)}"
            ledger = ledger_of(args) if ledger_of is not None else None
            if ledger is not None:
                v0, i0 = ledger.value_queries, ledger.independence_queries
            i = len(tracer.end)
            tracer.name.append(tracer.name_id(full))
            tracer.parent.append(tracer.stack[-1])
            tracer.trial.append(tracer.current_trial)
            tracer.end.append(0.0)
            tracer.stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.perf_counter()
                tracer.stack.pop()
                if ledger is not None:
                    tracer.phase_span.append(i)
                    tracer.phase_dv.append(ledger.value_queries - v0)
                    tracer.phase_di.append(ledger.independence_queries - i0)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def trial_span(self, fn: Callable) -> Callable:
        """Wrapper for ``harness.run_trial``: opens a new trial id."""
        inner = self.phase(fn, "harness.run_trial")
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.current_trial = tracer.trials_started
            tracer.trials_started += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.current_trial = -1

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "phase_span": np.frombuffer(self.phase_span, dtype=np.int32),
            "phase_dv": np.frombuffer(self.phase_dv, dtype=np.int64),
            "phase_di": np.frombuffer(self.phase_di, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attr = new`` for each entry; restore all originals on exit."""
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def install(tracer: Tracer):
    """Context manager that traces every layer for the duration of the block."""
    wrappers = []
    for cls, name in VALUE_ORACLES:
        wrappers.append((cls, "evaluate", tracer.leaf(cls.evaluate, name)))
    for cls, name in INDEPENDENCE_ORACLES:
        wrappers.append((cls, "is_independent", tracer.leaf(cls.is_independent, name)))
    for owner, attr, name, ledger_of, label, *hook in PHASES:
        wrappers.append((owner, attr, tracer.phase(getattr(owner, attr), name, ledger_of, label, *hook)))
    for owner, attr, name in PLAIN:
        wrappers.append((owner, attr, tracer.phase(getattr(owner, attr), name)))
    wrappers.append((harness, "run_trial", tracer.trial_span(harness.run_trial)))
    return patched(wrappers)


def _nearest_phase(parent: np.ndarray, is_phase: np.ndarray) -> np.ndarray:
    """For every span, the nearest phase span at or above it (-1 if none)."""
    anc = np.where(is_phase, np.arange(len(parent), dtype=np.int32), parent)
    pending = np.flatnonzero(anc >= 0)
    while pending.size:
        up = anc[pending]
        climb = ~is_phase[up]
        pending, up = pending[climb], up[climb]
        anc[pending] = parent[up]
        pending = pending[anc[pending] >= 0]
    return anc


def analyse(tracer: Tracer, records: list, problems: list) -> dict:
    """Per-name totals of one traced pass, checked against the trial ledgers.

    ``records`` are the pass's ``RunRecord`` objects in trial order. Returns
    ``calls`` and ``self_s`` keyed by span name; ``value_queries`` and
    ``independence_queries``, the queries charged inside a phase span but not
    inside a nested phase span, and their ``.inclusive`` forms, keyed by phase
    name; and the ``other`` bucket: per trial, the ledger total minus the
    queries of its outermost phase spans, summed over the trials. Every
    disagreement between spans and ledgers is appended to ``problems``.
    """
    if len(records) != tracer.trials_started:
        problems.append(f"trace: {len(records)} records for {tracer.trials_started} traced trials")
        records = records[: tracer.trials_started]
    a = tracer.arrays()
    names = tracer.names
    name, parent, trial = a["name"], a["parent"], a["trial"]
    n, k = len(name), len(names)
    has_parent = parent >= 0
    parent_or_0 = np.where(has_parent, parent, 0)

    self_time = a["end"] - a["start"]
    self_time -= np.bincount(parent[has_parent], weights=self_time[has_parent], minlength=n)
    result = {
        "calls": dict(zip(names, np.bincount(name, minlength=k).tolist())),
        "self_s": dict(zip(names, np.bincount(name, weights=self_time, minlength=k).tolist())),
    }
    del self_time

    phase_span = a["phase_span"]
    is_phase = np.zeros(n, dtype=bool)
    is_phase[phase_span] = True
    anc = _nearest_phase(parent, is_phase)
    # position of each phase span in phase_span, and of its enclosing phase
    position = np.full(n, -1, dtype=np.int32)
    position[phase_span] = np.arange(len(phase_span), dtype=np.int32)
    p_parent = parent[phase_span]
    enclosing = np.where(p_parent >= 0, position[anc[np.maximum(p_parent, 0)]], -1)
    inner = enclosing >= 0
    phase_name = name[phase_span]
    phase_trial = trial[phase_span]
    top = ~inner & (phase_trial >= 0)

    for key, deltas, oracle_kinds in (
        ("value_queries", a["phase_dv"], VALUE_ORACLES),
        ("independence_queries", a["phase_di"], INDEPENDENCE_ORACLES),
    ):
        own = deltas - np.bincount(enclosing[inner], weights=deltas[inner],
                                   minlength=len(deltas)).astype(np.int64)

        # one outermost oracle span per charged query
        kind = np.zeros(k, dtype=bool)
        for _, nm in oracle_kinds:
            if nm in tracer._ids:
                kind[tracer._ids[nm]] = True
        is_kind = kind[name]
        outer = is_kind & ~(has_parent & is_kind[parent_or_0]) & (anc >= 0)
        counted = np.bincount(position[anc[outer]], minlength=len(deltas))
        for j in np.flatnonzero(counted != own)[:1].tolist():
            problems.append(
                f"trace: {names[phase_name[j]]}: {int(own[j])} {key} in the ledger, "
                f"{int(counted[j])} oracle spans"
            )
        result[key] = dict(zip(names, np.bincount(phase_name, weights=own, minlength=k).astype(int).tolist()))
        result[key + ".inclusive"] = dict(
            zip(names, np.bincount(phase_name, weights=deltas, minlength=k).astype(int).tolist())
        )

        # other bucket: ledger total minus the outermost phases, per trial
        charged = np.bincount(phase_trial[top], weights=deltas[top], minlength=len(records))
        owned = np.bincount(phase_trial[phase_trial >= 0], weights=own[phase_trial >= 0],
                            minlength=len(records))
        other = 0
        for t, rec in enumerate(records):
            total = getattr(rec, key)
            rest = total - int(charged[t])
            if rest < 0 or int(owned[t]) + rest != total:
                problems.append(
                    f"trace: trial {t}: phases own {int(owned[t])} {key}, other {rest}, "
                    f"ledger {total}"
                )
            other += rest
        result["other." + key] = other
    result["lazy_iterations"] = tracer.lazy_iterations
    result["spans"] = n
    return result
