"""Span tracer that measures hsplab's eight modules from outside the package.

`install` replaces every public function of each module with a wrapper that
records a span (layer, name, thread, start, end, parent) in memory, in every
hsplab namespace that imported the function, so that calls between modules
are seen no matter which module they were imported through.  A handful of
per-element methods are not wrapped; their cost shows in the self time of
their callers.  Three of them carry plain counters instead of spans:
`OracleInstance.evaluate`, `OracleInstance.shift_permutation` and the
construction of a `QuantumState`.

A span's parent is the innermost open span on the same thread.  A span that
opens on a thread with no open span (a CLI worker thread) hangs off the
innermost open span of the thread that installed the tracer, which is the
operation that started the worker.

`layer_metrics` turns the recorded spans into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the part of its
interval covered by the union of its children's intervals, so children that
run in parallel on two threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "amplitudes", "groups", "oracles", "qft", "estimation", "algorithms", "postprocess", "cli",
)

# Span names grouped into the named per-layer metrics.
LAW = frozenset({"control_distribution", "hsp_control_distribution"})
APPLY = frozenset({"apply_oracle", "apply_shift"})
BUILD = frozenset({
    "make_order_instance", "make_period_instance", "make_hidden_subgroup_instance",
    "make_simon_instance", "make_dlog_instance", "make_deutsch_instance",
    "make_stabiliser_instance", "wrap_many_to_one", "instance_from_json",
})
REFERENCE = frozenset({"classical_order", "classical_least_period", "classical_invariance_subgroup"})
KERNEL = frozenset({"character_kernel"})
CANON = frozenset({"SubgroupGenerators.of"})
ENUMERATE = frozenset({"subgroup_enumerate"})
SPLIT_JOIN = frozenset({"coprime_split", "split_subgroup", "join_subgroups", "crt_recombine"})
ALL_SUBGROUPS = frozenset({"all_subgroups"})
# Circuit draws: an `evaluate` under one of these is part of a draw, any other
# `evaluate` is a classical verification query.
DRAWS = frozenset({
    "phase_estimate_register", "phase_estimate_semiclassical", "sample_control", "hsp_sample_batch",
})
CF = frozenset({"continued_fractions"})


class Span:
    __slots__ = ("id", "parent", "layer", "name", "thread", "op", "phase", "start", "end", "attrs")

    def __init__(self, id, parent, layer, name, thread, op, phase, start, end=None, attrs=None):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.thread = thread
        self.op = op
        self.phase = phase
        self.start = start
        self.end = end
        self.attrs = attrs

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span and counter store; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (phase, counter name) -> total
        self.peak_dim: dict[str, int] = {}  # phase -> largest state dimension
        self.phase: str | None = None
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor: list[Span] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def anchor_here(self) -> None:
        """Make this thread's open spans the parents of other threads' roots."""
        self._anchor = self._stack()

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._anchor:
            parent = self._anchor[-1].id
        else:
            parent = None
        span = Span(next(self._ids), parent, layer, name, threading.get_ident(),
                    self.op, self.phase, perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def in_span(self, names: frozenset) -> bool:
        return any(s.name in names for s in self._stack())

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += amount

    def state_created(self, dim: int) -> None:
        with self._lock:
            self.counts[(self.phase, "state_amplitudes")] += dim
            if dim > self.peak_dim.get(self.phase, 0):
                self.peak_dim[self.phase] = dim

    @contextmanager
    def operation(self, index: int):
        """Root span of one benchmark operation; every span below it carries
        the operation's index."""
        self.op = index
        span = self.open("bench", "operation")
        try:
            yield
        finally:
            self.close(span)
            self.op = None

    def dump(self, path) -> None:
        """Write every span, one JSON object a line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# --- wrapping ---------------------------------------------------------------


def _fourier_points(args, kwargs, result) -> dict:
    return {"points": args[0].layout.total_dimension}


def _trials(args, kwargs, result) -> dict:
    trials = getattr(result, "trials_used", None)
    return {} if trials is None else {"trials": int(trials)}


def _span_wrapper(tracer: Tracer, layer: str, name: str, fn):
    measure = _trials if layer == "algorithms" else _fourier_points if name == "apply_fourier" else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if measure is not None:
            span.attrs = measure(args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap hsplab's public functions; returns a function that undoes it."""
    package = importlib.import_module("hsplab")
    modules = {layer: importlib.import_module(f"hsplab.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, new) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer, module in modules.items():
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapped = _span_wrapper(tracer, layer, name, fn)
            for ns in namespaces:
                if ns.__dict__.get(name) is fn:
                    patch(ns, name, wrapped)

    groups, oracles, amplitudes = modules["groups"], modules["oracles"], modules["amplitudes"]
    canon = groups.SubgroupGenerators.__dict__["of"].__func__
    patch(groups.SubgroupGenerators, "of",
          classmethod(_span_wrapper(tracer, "groups", "SubgroupGenerators.of", canon)))

    evaluate = oracles.OracleInstance.evaluate

    def counted_evaluate(self, x):
        tracer.count("evaluate.draw" if tracer.in_span(DRAWS) else "evaluate.verify")
        return evaluate(self, x)

    shift_permutation = oracles.OracleInstance.shift_permutation

    def counted_shift_permutation(self, g):
        tracer.count("shift_maps")
        return shift_permutation(self, g)

    post_init = amplitudes.QuantumState.__post_init__

    def counted_post_init(self):
        post_init(self)
        tracer.state_created(self.layout.total_dimension)

    patch(oracles.OracleInstance, "evaluate", counted_evaluate)
    patch(oracles.OracleInstance, "shift_permutation", counted_shift_permutation)
    patch(amplitudes.QuantumState, "__post_init__", counted_post_init)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# --- analysis ---------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span's own interval."""
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def _ancestor(span, by_id, pred):
    parent = by_id.get(span.parent)
    while parent is not None and not pred(parent):
        parent = by_id.get(parent.parent)
    return parent


def _outermost(spans, by_id, pred):
    """Spans matching `pred` with no ancestor that also matches."""
    return [s for s in spans if pred(s) and _ancestor(s, by_id, pred) is None]


def _inclusive(spans, by_id, names: frozenset) -> float:
    return sum(s.end - s.start for s in _outermost(spans, by_id, lambda s: s.name in names))


def layer_metrics(tracer: Tracer, loop_ops: int, checked_ops: int, setups: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Loop-phase figures are per operation of the traced loop.  The brute-force
    reference time is per checked operation, wherever the references ran:
    in the benchmark's own reference pass or inside a CLI operation.
    `all_subgroups_s` is per set-up.
    """
    by_id = {s.id: s for s in tracer.spans}
    phase_spans = defaultdict(list)
    for s in tracer.spans:
        phase_spans[s.phase].append(s)
    loop = phase_spans["loop"]
    selfs = self_times(tracer.spans)
    per_op = 1.0 / max(1, loop_ops)

    def counted(name: str) -> float:
        return tracer.counts[("loop", name)] * per_op

    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in loop if s.layer == layer]
        out[f"{layer}.self_s"] = sum(selfs[s.id] for s in mine) * per_op
        out[f"{layer}.calls"] = len(mine) * per_op

    out["amplitudes.peak_dim"] = float(tracer.peak_dim.get("loop", 0))
    out["amplitudes.state_bytes"] = 16.0 * counted("state_amplitudes")

    out["groups.kernel_s"] = _inclusive(loop, by_id, KERNEL) * per_op
    out["groups.canon_s"] = _inclusive(loop, by_id, CANON) * per_op
    out["groups.enumerate_s"] = _inclusive(loop, by_id, ENUMERATE) * per_op
    out["groups.split_join_s"] = _inclusive(loop, by_id, SPLIT_JOIN) * per_op
    out["groups.all_subgroups_s"] = _inclusive(phase_spans["setup"], by_id, ALL_SUBGROUPS) / max(1, setups)

    out["oracles.apply_s"] = _inclusive(loop, by_id, APPLY) * per_op
    out["oracles.shift_maps"] = counted("shift_maps")
    out["oracles.build_s"] = _inclusive(loop, by_id, BUILD) * per_op
    out["oracles.reference_s"] = (
        _inclusive(phase_spans["reference"], by_id, REFERENCE) / max(1, checked_ops)
        + _inclusive(loop, by_id, REFERENCE) * per_op
    )

    out["qft.fourier_points"] = sum(
        s.attrs["points"] for s in loop if s.name == "apply_fourier" and s.attrs
    ) * per_op

    children = Counter(s.parent for s in loop)
    laws = [s for s in loop if s.name in LAW]
    out["estimation.law_s"] = _inclusive(loop, by_id, LAW) * per_op
    out["estimation.law_requests"] = len(laws) * per_op
    out["estimation.law_computes"] = sum(1 for s in laws if children[s.id]) * per_op

    solves = _outermost(loop, by_id, lambda s: s.layer == "algorithms" and "trials" in (s.attrs or ()))
    out["algorithms.trials_per_solve"] = sum(s.attrs["trials"] for s in solves) * per_op
    out["algorithms.verify_evals_per_solve"] = counted("evaluate.verify")

    out["postprocess.cf_calls"] = sum(1 for s in loop if s.name in CF) * per_op

    def is_cli_main(s) -> bool:
        return s.layer == "cli" and s.name == "main"

    solver_spans = defaultdict(list)  # cli.main span id -> its outermost solver intervals
    for s in _outermost(loop, by_id, lambda s: s.layer == "algorithms"):
        owner = _ancestor(s, by_id, is_cli_main)
        if owner is not None:
            solver_spans[owner.id].append((s.start, s.end))
    overhead = sum(
        (s.end - s.start) - _union_length(
            (max(a, s.start), min(b, s.end)) for a, b in solver_spans.get(s.id, ())
        )
        for s in loop if is_cli_main(s)
    )
    out["cli.overhead_s"] = overhead * per_op
    return out
