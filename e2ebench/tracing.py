"""Outside-in layer tracing for the end-to-end benchmark.

The program is not edited: :func:`install` wraps the public functions of
each layer (the ``LAYERS`` table) and rebinds every name a ``repro``
module imported from them, so a call from anywhere in the package lands
in a wrapper.  A wrapper records one span (key, start, end) per call, or
per ``next()`` for functions that return iterators, into a flat
in-memory array; :meth:`Recorder.dump` writes the array out once, when
the process ends.  Counts are taken at the same boundaries by small
hooks that read arguments, results, or the state of the object a method
was called on.

A layer is named after its module; a span key is ``layer:function``.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
from array import array
from collections import Counter

CALL = "call"
ITER = "iter"

#: (layer, module, function or Class.method, kind).  ITER functions are
#: timed inside every ``next()`` on the iterator they return.
LAYERS = (
    ("skeletons", "repro.synth.skeletons", "enumerate_programs", ITER),
    ("skeletons", "repro.synth.skeletons", "enumerate_programs_with_order", ITER),
    ("witnesses", "repro.synth.witnesses", "enumerate_witnesses", ITER),
    ("witnesses", "repro.synth.witnesses", "enumerate_witnesses_constrained", ITER),
    ("models", "repro.models.base", "MemoryModel.check", CALL),
    ("models", "repro.models.base", "Axiom.holds", CALL),
    ("models", "repro.models.compare", "PairClassifier.verdicts", CALL),
    ("relax", "repro.synth.relax", "is_minimal", CALL),
    ("relax", "repro.synth.relax", "cached_is_minimal", CALL),
    ("relax", "repro.synth.relax", "relaxation_becomes_permitted", CALL),
    ("symmetry", "repro.symmetry.groups", "program_symmetry", CALL),
    ("symmetry", "repro.symmetry.witnesses", "prune_weighted", ITER),
    ("canon", "repro.synth.canon", "canonical_program_key", CALL),
    ("canon", "repro.synth.canon", "canonical_execution_key", CALL),
    ("sat_backend", "repro.synth.sat_backend", "WitnessSessionCache.weighted_witnesses", CALL),
    ("sat_backend", "repro.synth.sat_backend", "WitnessSessionCache.witnesses", CALL),
    ("sat_backend", "repro.synth.sat_backend", "WitnessSessionCache.get", CALL),
    ("sat_backend", "repro.synth.sat_backend", "enumerate_witnesses_sat", ITER),
    ("relational", "repro.relational.translate", "Problem.session", CALL),
    ("relational", "repro.relational.translate", "Problem.solve", CALL),
    ("relational", "repro.relational.translate", "Problem.iter_instances", ITER),
    ("relational", "repro.relational.translate", "ProblemSession.add_group", CALL),
    ("relational", "repro.relational.translate", "ProblemSession.solve", CALL),
    ("relational", "repro.relational.translate", "ProblemSession.iter_instances", ITER),
    ("relational", "repro.relational.translate", "ProblemSession.iter_base_instances", ITER),
    ("sat", "repro.sat.core", "CdclCore.solve", CALL),
    ("sat", "repro.sat.core", "CdclCore.iter_solutions", ITER),
    ("conformance", "repro.conformance.runner", "run_diff", CALL),
    ("conformance", "repro.conformance.diff", "run_multi_diff_pipeline", CALL),
    ("fuzz", "repro.fuzz.generators", "random_program", CALL),
    ("fuzz", "repro.fuzz.generators", "build_program", CALL),
    ("fuzz", "repro.fuzz.oracle", "DifferentialOracle.classify", CALL),
    ("fuzz", "repro.fuzz.oracle", "DifferentialOracle.judge", CALL),
    ("fuzz", "repro.fuzz.shrink", "shrink", CALL),
    ("fuzz", "repro.fuzz.coverage", "CoverageMap.observe_attempt", CALL),
    ("fuzz", "repro.fuzz.coverage", "CoverageMap.finish_round", CALL),
    ("fuzz", "repro.fuzz.coverage", "CoverageMap.allocate", CALL),
    ("orchestrate", "repro.orchestrate.runner", "run_sharded", CALL),
    ("orchestrate", "repro.orchestrate.worker", "run_shard", CALL),
    ("orchestrate", "repro.orchestrate.merge", "merge_shards", CALL),
    ("resilience", "repro.resilience.scheduler", "run_resilient_tasks", CALL),
    ("litmus", "repro.litmus.suitefile", "suite_from_synthesis", CALL),
    ("litmus", "repro.litmus.suitefile", "suite_from_diff", CALL),
    ("litmus", "repro.litmus.suitefile", "suite_from_fuzz", CALL),
    ("litmus", "repro.litmus.suitefile", "EltSuite.save", CALL),
)

#: Span key of the main process's import of ``repro.cli`` plus argv parsing.
CLI_KEY = "cli:import"


class Recorder:
    """Spans and counts of one process, kept in memory until :meth:`dump`."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.keys: list[str] = []
        self._index: dict[str, int] = {}
        #: Flat (key index, start, end) triples, perf_counter seconds.
        self.spans = array("d")
        #: Live call count per key index (hooks compare them).
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        #: pid -> perf_counter just before ``Process.start`` (parent side).
        self.process_starts: dict[int, float] = {}
        self.clock = time.perf_counter

    def key(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.keys)
            self.keys.append(name)
            self.calls.append(0)
        return index

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.extend((self.key(name), start, end))

    def snapshot(self) -> dict:
        return {
            "role": self.role,
            "pid": os.getpid(),
            "keys": list(self.keys),
            "spans": self.spans.tobytes(),
            "calls": {name: self.calls[i] for i, name in enumerate(self.keys)},
            "counts": dict(self.counts),
            "process_starts": dict(self.process_starts),
            "end": self.clock(),
        }

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"{self.role}-{os.getpid()}.pickle")
        with open(path, "wb") as handle:
            pickle.dump(self.snapshot(), handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_spans(keys, flat) -> list:
    """(start, end, key) tuples from a flat (key index, start, end) array."""
    return [(flat[i + 1], flat[i + 2], keys[int(flat[i])]) for i in range(0, len(flat), 3)]


def load(path: str) -> dict:
    """A dumped recorder with ``spans`` decoded by :func:`load_spans`."""
    with open(path, "rb") as handle:
        data = pickle.load(handle)
    flat = array("d")
    flat.frombytes(data["spans"])
    data["spans"] = load_spans(data["keys"], flat)
    return data


# ----------------------------------------------------------------------
# Count hooks: (enter(rec, args) -> state, exit(rec, args, result, state)).
# They run outside their own span, so their cost is never charged to the
# function they count (it lands in the enclosing span, if any).
# ----------------------------------------------------------------------
def _no_enter(rec, args):
    return None


def _orbit_pruned(rec, args, item, state):
    if item is not None:
        rec.counts["symmetry.orbit_pruned"] += item[1] - 1


def _minimal(rec, args, result, state):
    if result:
        rec.counts["relax.minimal"] += 1


def _is_minimal_calls(rec, args):
    return rec.calls[rec.key("relax:is_minimal")]


def _cache_miss(rec, args, result, state):
    if rec.calls[rec.key("relax:is_minimal")] > state:
        rec.counts["relax.cache_misses"] += 1


def _session_hit(rec, args, result, state):
    if result[1]:
        rec.counts["sat_backend.session_hits"] += 1


def _solver_counters(rec, args):
    stats = args[0].stats
    return stats.conflicts, stats.propagations


def _solver_delta(rec, args, result, state):
    stats = args[0].stats
    rec.counts["sat.conflicts"] += stats.conflicts - state[0]
    rec.counts["sat.propagations"] += stats.propagations - state[1]


def _memo_hits(rec, args):
    return args[0].stats.oracle_memo_hits


def _classified(rec, args, result, state):
    if args[0].stats.oracle_memo_hits > state:
        rec.counts["fuzz.memo_hits"] += 1
    if result.discriminating:
        rec.counts["fuzz.discriminating"] += 1


def _retries(rec, args, result, state):
    rec.counts["resilience.retries"] += result.stats.retries


def _shard_bytes(rec, args, result, state):
    rec.counts["orchestrate.task_bytes"] += len(pickle.dumps(args[0]))
    rec.counts["orchestrate.result_bytes"] += len(pickle.dumps(result))


HOOKS = {
    "prune_weighted": (_no_enter, _orbit_pruned),
    "is_minimal": (_no_enter, _minimal),
    "cached_is_minimal": (_is_minimal_calls, _cache_miss),
    "WitnessSessionCache.get": (_no_enter, _session_hit),
    "CdclCore.solve": (_solver_counters, _solver_delta),
    "CdclCore.iter_solutions": (_solver_counters, _solver_delta),
    "DifferentialOracle.classify": (_memo_hits, _classified),
    "run_resilient_tasks": (_no_enter, _retries),
    "run_shard": (_no_enter, _shard_bytes),
}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_call(rec: Recorder, fn, index: int, hook):
    spans, clock, calls = rec.spans, rec.clock, rec.calls

    if hook is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[index] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.extend((index, start, clock()))

        return wrapper
    enter, leave = hook

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        calls[index] += 1
        state = enter(rec, args)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.extend((index, start, clock()))
        leave(rec, args, result, state)
        return result

    return hooked


def _wrap_iter(rec: Recorder, fn, index: int, hook):
    spans, clock, calls = rec.spans, rec.clock, rec.calls
    items = rec.counts
    item_key = rec.keys[index] + "#items"
    enter, leave = hook if hook is not None else (None, None)

    def spanned(iterator, args):
        while True:
            state = enter(rec, args) if enter else None
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                spans.extend((index, start, clock()))
                if leave:
                    leave(rec, args, None, state)
                return
            except BaseException:
                spans.extend((index, start, clock()))
                raise
            spans.extend((index, start, clock()))
            items[item_key] += 1
            if leave:
                leave(rec, args, item, state)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[index] += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.extend((index, start, clock()))
        return spanned(iter(result), args)

    return wrapper


def _resolve(qualname: str, module):
    owner, _, attr = qualname.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


def install(rec: Recorder) -> None:
    """Wrap every ``LAYERS`` entry and rebind the names ``repro`` modules
    imported from them."""
    for layer, module_name, qualname, kind in LAYERS:
        module = importlib.import_module(module_name)
        owner, attr = _resolve(qualname, module)
        original = getattr(owner, attr)
        index = rec.key(f"{layer}:{qualname}")
        factory = _wrap_iter if kind == ITER else _wrap_call
        wrapper = factory(rec, original, index, HOOKS.get(qualname))
        setattr(owner, attr, wrapper)
        if owner is module:
            for name, other in list(sys.modules.items()):
                if not name.startswith("repro") or other is None:
                    continue
                for binding, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, binding, wrapper)


def track_process_starts(rec: Recorder) -> None:
    """Record when each worker process is started (parent side)."""
    from multiprocessing.process import BaseProcess

    original = BaseProcess.start

    @functools.wraps(original)
    def start(process):
        began = rec.clock()
        original(process)
        rec.process_starts[process.pid] = began

    BaseProcess.start = start


def install_worker(directory: str) -> Recorder:
    """Tracing in a spawned pool worker; its spans are written when the
    worker exits (multiprocessing runs its finalizers on a clean exit)."""
    from multiprocessing import util

    rec = Recorder("worker")
    install(rec)
    util.Finalize(None, rec.dump, args=(directory,), exitpriority=100)
    return rec
