"""In-memory span recorder and the wrappers that time calls into repro's layers.

The benchmark measures each layer from outside: :func:`install` replaces a
fixed set of public entry points of ``repro.whynot``, ``repro.engine``,
``repro.api``, ``repro.wire`` and ``repro.lang`` with wrappers that record a
span per call.  Nothing under ``src/`` changes; the wrappers are installed
only in traced runs (``--trace 1``), in the benchmark process and, for
serve-mixed, in the server process through ``launcher.py``.

A span is ``(id, parent, name, start, end, op)``: ``parent`` is the id of
the span open in the same thread when the call began (``None`` at top
level), ``op`` the id of the timed operation the thread was working on
(``None`` during set-up).  A layer's self time is its span's duration minus
the durations of its direct children.  Garbage collections are recorded
through ``gc.callbacks`` as ``(start, end, generation, op)``.  Everything
stays in memory until :meth:`Recorder.dump` writes it out.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter

#: Request header that carries the client's op id to a traced server.
OP_HEADER = "X-Perfbench-Op"

#: Span names whose per-op self time is reported as ``<name>.ms``.
LAYER_SPANS = (
    "whynot.validate",
    "whynot.backtrace",
    "whynot.alternatives",
    "whynot.tracing",
    "whynot.approximate",
    "whynot.summarize",
    "engine.execute",
    "engine.optimize",
    "engine.mutate",
    "api.service",
    "wire.decode",
    "wire.encode",
    "lang.compile",
)


class Recorder:
    """Collects spans, per-op counts and GC pauses of one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []
        self.gc_events: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_started: "float | None" = None

    # -- recording ------------------------------------------------------------

    def set_op(self, op) -> None:
        """Attribute this thread's following spans and counts to *op*."""
        self._local.op = op

    def op(self):
        """The op id this thread is working on (``None`` outside ops)."""
        return getattr(self._local, "op", None)

    def count(self, name: str, value: float) -> None:
        """Record one counter value for the current op."""
        self.counts.append((self.op(), name, value))

    def wrap(self, name: str, fn, counter=None):
        """Return *fn* wrapped so each call records a span called *name*.

        ``counter(result, args)`` may return ``{count name: value}``; it runs
        after the span closes, so its cost is not charged to the layer.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, name, start, end, getattr(local, "op", None))
                )
            if counter is not None:
                for key, value in counter(result, args).items():
                    recorder.count(key, value)
            return result

        return wrapper

    def watch_gc(self) -> None:
        """Record every garbage collection's pause through ``gc.callbacks``."""
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        # Collections run to completion under the interpreter lock, so one
        # start slot serves every thread.
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_events.append(
                (self._gc_started, perf_counter(), info["generation"], self.op())
            )
            self._gc_started = None

    def dump(self, path) -> None:
        """Write every recorded span, count and collection as JSON."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "gc": self.gc_events}, out
            )


# -- wrappers -----------------------------------------------------------------


def _patch_method(recorder: Recorder, cls, attr: str, name: str, counter=None):
    setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), counter))


def _patch_classmethod(recorder: Recorder, cls, attr: str, name: str):
    setattr(cls, attr, classmethod(recorder.wrap(name, getattr(cls, attr).__func__)))


def _patch_function(recorder: Recorder, modules, attr: str, name: str, counter=None):
    """Wrap one function once and rebind it in every module that looks it up."""
    wrapped = recorder.wrap(name, getattr(modules[0], attr), counter)
    for module in modules:
        setattr(module, attr, wrapped)


def _trace_counts(result, _args) -> dict:
    return {"whynot.rows_traced": result.total_rows()}


def _sa_counts(result, _args) -> dict:
    return {"whynot.sas": len(result)}


def _execute_counts(_result, args) -> dict:
    metrics = args[0].last_metrics
    counts = {"engine.shuffled_rows": metrics.total_shuffled_rows()}
    if metrics.kernels is not None:  # the columnar engine ran
        hits, misses = metrics.kernels.get("hits", 0), metrics.kernels.get("misses", 0)
        counts["engine.kernel_hits"] = hits
        counts["engine.kernel_lookups"] = hits + misses
    return counts


def install(recorder: Recorder, server: bool = False) -> None:
    """Wrap the layer entry points the benchmark attributes time to.

    With ``server=True`` the HTTP handler's ``do_POST``/``do_PUT`` are
    wrapped too: they read the client's op id from :data:`OP_HEADER` and
    record an ``api.http`` span around the whole request.
    """
    from repro import lang
    from repro.api import http, service
    from repro.engine import executor, optimizer
    from repro.engine.database import Database
    from repro.whynot import summarize
    from repro.whynot.question import WhyNotQuestion

    # The package-level ``explain`` function shadows the submodule of the
    # same name, so fetch the module itself.
    explain_module = importlib.import_module("repro.whynot.explain")

    _patch_method(recorder, WhyNotQuestion, "validate", "whynot.validate")
    _patch_function(recorder, [explain_module], "backtrace", "whynot.backtrace")
    _patch_function(
        recorder,
        [explain_module],
        "enumerate_schema_alternatives",
        "whynot.alternatives",
        _sa_counts,
    )
    _patch_function(recorder, [explain_module], "trace", "whynot.tracing", _trace_counts)
    _patch_function(recorder, [explain_module], "approximate_msrs", "whynot.approximate")
    _patch_function(
        recorder, [summarize, service], "attach_summaries", "whynot.summarize"
    )

    _patch_method(
        recorder, executor.Executor, "execute", "engine.execute", _execute_counts
    )
    _patch_function(recorder, [optimizer, executor], "optimize_query", "engine.optimize")
    _patch_method(recorder, Database, "apply_mutations", "engine.mutate")

    for method in ("explain", "query", "mutate_database", "register_database"):
        _patch_method(recorder, service.ExplanationService, method, "api.service")
    _patch_classmethod(recorder, service.ExplainRequest, "from_json", "wire.decode")
    _patch_method(recorder, service.ExplainResponse, "to_json", "wire.encode")
    _patch_function(recorder, [lang], "compile_program", "lang.compile")

    if server:
        _patch_function(recorder, [http], "database_from_json", "wire.database_decode")
        for attr in ("query_from_json", "mutation_from_json"):
            _patch_function(recorder, [http], attr, "wire.decode")
        for attr in ("relation_to_json", "metrics_to_json"):
            _patch_function(recorder, [http], attr, "wire.encode")
        for attr in ("do_POST", "do_PUT"):
            _patch_handler(recorder, http._Handler, attr)


def _patch_handler(recorder: Recorder, cls, attr: str) -> None:
    span = recorder.wrap("api.http", getattr(cls, attr))

    def handle(handler):
        op = handler.headers.get(OP_HEADER)
        recorder.set_op(int(op) if op is not None else None)
        return span(handler)

    setattr(cls, attr, handle)


# -- aggregation --------------------------------------------------------------


def self_times(spans) -> "dict[int, dict[str, float]]":
    """Per op, the summed self time (seconds) of each span name."""
    children: "dict[int, float]" = defaultdict(float)
    for _id, parent, _name, start, end, _op in spans:
        if parent is not None:
            children[parent] += end - start
    per_op: "dict[int, dict[str, float]]" = defaultdict(lambda: defaultdict(float))
    for span_id, _parent, name, start, end, op in spans:
        if op is not None:
            per_op[op][name] += (end - start) - children[span_id]
    return per_op


def counts_by_op(counts) -> "dict[int, dict[str, float]]":
    """Per op, the summed value of each counter."""
    per_op: "dict[int, dict[str, float]]" = defaultdict(lambda: defaultdict(float))
    for op, name, value in counts:
        if op is not None:
            per_op[op][name] += value
    return per_op


def median_over(per_op: dict, ops, name: str, scale: float = 1.0) -> float:
    """Median of *name* over the *ops* that recorded it (0 when none did)."""
    values = [per_op[op][name] * scale for op in ops if name in per_op.get(op, {})]
    return statistics.median(values) if values else 0.0


def layer_metrics(per_op: dict, counts: dict, gc_events, ops) -> dict:
    """The per-layer metrics both library and server traces yield.

    ``<layer>.ms`` is the median, over the ops that entered the layer, of its
    self time in the op; counts are medians over the ops that recorded them.
    """
    layers = {f"{name}.ms": median_over(per_op, ops, name, 1000.0) for name in LAYER_SPANS}
    for name in ("whynot.rows_traced", "whynot.sas", "engine.shuffled_rows"):
        layers[name] = median_over(counts, ops, name)
    lookups = sum(counts[op].get("engine.kernel_lookups", 0) for op in ops)
    hits = sum(counts[op].get("engine.kernel_hits", 0) for op in ops)
    layers["engine.kernel_hit_ratio"] = hits / lookups if lookups else 0.0
    layers.update(gc_metrics(gc_events, ops))
    return layers


def gc_metrics(gc_events, ops) -> dict:
    """Mean GC pause and gen-2 collections per op, over the given ops."""
    wanted = set(ops)
    pauses = [(end - start, gen) for start, end, gen, op in gc_events if op in wanted]
    n = max(len(wanted), 1)
    return {
        "gc.pause.ms": 1000.0 * sum(p for p, _ in pauses) / n,
        "gc.gen2": sum(1 for _, gen in pauses if gen == 2) / n,
    }
