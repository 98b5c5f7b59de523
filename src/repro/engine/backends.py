"""Pluggable execution backends: serial (in-process) and multi-core (process).

The partitioned executor (:mod:`repro.engine.executor`) and the SA-shared
tracer (:mod:`repro.whynot.tracing`) both decompose their work into *tasks* —
pure functions of (operator id, row payload) that can run anywhere.  A
backend decides where:

* :class:`SerialBackend` runs every task inline in the driver process.  It is
  the default and the correctness oracle: the process backend must produce
  exactly its results for every plan and every partitioning.
* :class:`ProcessBackend` fans tasks out to a pool of worker processes
  (``concurrent.futures.ProcessPoolExecutor``).  Workers receive a pickled
  :class:`TaskContext` (query plan, database, and — for tracing — the per-SA
  reparameterized queries) once per context and cache it; closures are *not*
  shipped.  Compiled expressions, key functions and interned layouts are
  re-derived lazily on the worker: unpickling strips ``_compiled_*`` caches
  (see ``Operator.__getstate__``) and re-interns tuple layouts (see
  ``Layout.__reduce__``), so a worker's first touch of an operator compiles
  exactly what the driver would have compiled.

Task shapes understood by :func:`run_task`:

``("chain", op_ids, rows)``
    Run a fused chain of narrow operators over one partition through one
    generated-and-cached kernel when possible, with a per-partition
    row-path fallback (see :mod:`repro.engine.columnar`); returns the final
    rows, per-operator ``(op_id, rows_in, rows_out, seconds)`` stats so the
    driver can merge metrics across workers, and the kernel counters.
``("rows", op_id, child_rows)``
    Generic ``eval_rows`` call (deduplication, difference, global
    aggregation).
``("join_keyed", op_id, left_pairs, right_pairs)`` / ``("group_keyed",
op_id, pairs)``
    Per-partition evaluation of a shuffled wide operator with precomputed
    keys.
``("trace_narrow" | "trace_flatten" | "trace_join" | "trace_group", sa, op_id,
...)``
    One schema-alternative group's share of a traced operator, evaluated
    over the group's whole input column (see the columnar-snapshot notes in
    :mod:`repro.whynot.tracing`); the driver merges the per-group results
    into mask columns.
``("trace_run", sa, op_ids, parent_vals, nips, checks)``
    One SA group's share of a whole narrow run through one relaxed trace
    kernel (:func:`repro.engine.kernels.trace_kernel`): the last operator's
    column plus retained and NIP-hit row indices, or None when the run must
    be traced operator by operator.

Select a backend with ``Executor(backend="process", workers=4)``,
``explain(..., backend="process")``, the CLI's ``--backend/--workers`` flags,
or globally via the ``REPRO_BACKEND`` / ``REPRO_WORKERS`` environment
variables (used by CI to run the tier-1 suite on both backends).
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Optional, Sequence

from repro.algebra.operators import EvalContext, Query, RelationNesting
from repro.engine.columnar import task_kernel_chain
from repro.engine.kernels import trace_kernel
from repro.nested.values import NAN, Bag, Layout, Tup

#: Environment variables consulted when no explicit backend/workers is given.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"

BACKEND_NAMES = ("serial", "process")

_context_ids = itertools.count(1)


def default_backend_name() -> str:
    """The backend used when none is requested (``REPRO_BACKEND`` or serial)."""
    name = os.environ.get(BACKEND_ENV, "serial")
    if name not in BACKEND_NAMES:
        raise ValueError(f"{BACKEND_ENV}={name!r}; expected one of {BACKEND_NAMES}")
    return name


def default_workers() -> int:
    """Worker count used when none is requested (``REPRO_WORKERS`` or #cores)."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


class TaskContext:
    """Everything workers need for one execution: query, db, SA queries.

    The pickled payload is built once and cached; workers cache the unpacked
    :class:`WorkerState` keyed by ``ctx_id``, so repeated task batches for the
    same execution ship only their row payloads.
    """

    __slots__ = ("ctx_id", "query", "db", "sa_queries", "_payload", "_state")

    def __init__(self, query: Query, db, sa_queries: Optional[Sequence[Query]] = None):
        self.ctx_id = f"{os.getpid()}-{next(_context_ids)}"
        self.query = query
        self.db = db
        self.sa_queries = tuple(sa_queries) if sa_queries is not None else None
        self._payload: Optional[bytes] = None
        self._state: Optional[WorkerState] = None

    def payload(self) -> bytes:
        """The pickled ``(query, db, sa_queries)`` blob shipped to workers (cached)."""
        if self._payload is None:
            try:
                self._payload = pickle.dumps(
                    (self.query, self.db, self.sa_queries),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception as exc:  # e.g. a Map operator holding a lambda
                raise ValueError(
                    "query/database cannot be shipped to worker processes "
                    f"({exc}); use backend='serial' for plans with "
                    "unpicklable parameters"
                ) from exc
        return self._payload

    def local_state(self) -> "WorkerState":
        """The driver-side :class:`WorkerState` for inline (serial) evaluation."""
        if self._state is None:
            self._state = WorkerState(self.query, self.db, self.sa_queries)
            self._state.local = True
        return self._state


class WorkerState:
    """Per-process view of a :class:`TaskContext` with lazy eval contexts.

    ``local`` is True only for the driver-side state of the serial backend:
    its task payloads never cross a pickle boundary, so NaN re-canonical-
    ization of driver-computed keys can be skipped (the value model keeps
    in-process NaNs canonical by construction).
    """

    def __init__(self, query: Query, db, sa_queries: Optional[Sequence[Query]] = None):
        self.query = query
        self.db = db
        self.sa_queries = sa_queries
        self.local = False
        self._ctx: Optional[EvalContext] = None
        self._sa_ctxs: dict[int, EvalContext] = {}

    def rebind(self, db) -> None:
        """Evaluate against *db* from now on and drop the contexts built
        over the previous database.  *db* must hold the same relations
        wherever the plans read (a later version that changed none of
        them), so every task still returns what it did."""
        self.db = db
        self._ctx = None
        self._sa_ctxs = {}

    def ctx(self) -> EvalContext:
        """Lazily built evaluation context for the main query."""
        if self._ctx is None:
            self._ctx = EvalContext(self.db, self.query.infer_schemas(self.db))
        return self._ctx

    def op(self, op_id: int):
        """The main query's operator with the given id."""
        return self.query.op(op_id)

    def sa_op(self, sa: int, op_id: int):
        """Operator *op_id* as parameterized by schema alternative *sa*."""
        return self.sa_queries[sa].op(op_id)

    def sa_ctx(self, sa: int) -> EvalContext:
        """Lazily built evaluation context for one schema alternative's query."""
        ctx = self._sa_ctxs.get(sa)
        if ctx is None:
            sa_query = self.sa_queries[sa]
            ctx = EvalContext(self.db, sa_query.infer_schemas(self.db))
            self._sa_ctxs[sa] = ctx
        return ctx


# -- task evaluation (identical for every backend) ---------------------------


def _task_rows(state: WorkerState, op_id: int, child_rows: list) -> Any:
    op = state.op(op_id)
    started = time.perf_counter()
    out = op.eval_rows(child_rows, state.ctx())
    n_in = sum(len(rows) for rows in child_rows)
    return out, [(op_id, n_in, len(out), time.perf_counter() - started)]


def _canonicalize_key_nans(pairs: list) -> None:
    """Re-canonicalize NaNs inside precomputed join-key tuples, in place.

    Rows re-canonicalize their NaNs on unpickle (``Tup._unpickle``), but the
    driver-computed shuffle keys for joins are plain Python tuples, which
    unpickle natively — so a canonical NaN key arrives as a fresh float per
    task and would no longer match its partner side's key (found by the
    differential fuzzer, seed 9: NaN equi-join keys matched on the serial
    backend but not on the process backend).
    """
    for i, (key, row) in enumerate(pairs):
        if key is not None and any(type(v) is float and v != v for v in key):
            pairs[i] = (
                tuple(NAN if (type(v) is float and v != v) else v for v in key),
                row,
            )


def _task_join_keyed(state: WorkerState, op_id: int, left_pairs: list, right_pairs: list) -> Any:
    op = state.op(op_id)
    started = time.perf_counter()
    if not state.local:
        _canonicalize_key_nans(left_pairs)
        _canonicalize_key_nans(right_pairs)
    out = op.eval_keyed(left_pairs, right_pairs, state.ctx())
    n_in = len(left_pairs) + len(right_pairs)
    return out, [(op_id, n_in, len(out), time.perf_counter() - started)]


def _task_group_keyed(state: WorkerState, op_id: int, pairs: list) -> Any:
    op = state.op(op_id)
    started = time.perf_counter()
    out = op.eval_keyed(pairs, state.ctx())
    return out, [(op_id, len(pairs), len(out), time.perf_counter() - started)]


def _task_trace_narrow(state: WorkerState, sa: int, op_id: int, parent_vals: list) -> Any:
    """One SA group's output column for a non-filtering 1:1 unary operator.

    The parent tuples that exist under this group's representative SA go
    through the SA's operator in one ``eval_rows`` batch; missing parents
    stay missing, so the returned column is aligned with *parent_vals*.
    """
    present = [v for v in parent_vals if v is not None]
    produced = state.sa_op(sa, op_id).eval_rows([present], state.sa_ctx(sa))
    if len(present) == len(parent_vals):
        return produced
    outputs = iter(produced)
    return [None if v is None else next(outputs) for v in parent_vals]


def _task_trace_run(
    state: WorkerState,
    sa: int,
    op_ids: "tuple[int, ...]",
    parent_vals: list,
    nips: tuple,
    checks: tuple,
) -> Any:
    """One SA group's narrow run through one relaxed trace kernel.

    ``checks[j]`` lists the ``(strict, relaxed)`` indices into *nips* tested
    after operator j (relaxed None: equal to strict).  Returns ``(column,
    flags, hits)`` aligned with *parent_vals* — the run's last column, the
    retained row indices of each selection and, per operator, the
    consistent row indices of each check — or None when the run has to be
    traced operator by operator: no present row, rows of more than one
    layout, an unsupported operator or NIP, a bailout, or any error.
    """
    from repro.whynot.matching import nip_shape

    present = [v for v in parent_vals if v is not None]
    if not present:
        return None
    layout = present[0]._layout
    if any(v._layout is not layout for v in present):
        return None
    parts = [nip_shape(nip, row=True) for nip in nips]
    if any(shape != "?" and shape[0] != "tup" for shape, _ in parts):
        return None
    try:
        ops = [state.sa_op(sa, op_id) for op_id in op_ids]
        kernel = trace_kernel(
            ops, layout, state.sa_ctx(sa), [shape for shape, _ in parts], checks
        )
        if kernel is None:
            return None
        column, flags, hits = kernel.fn(present, [a for _, args in parts for a in args])
    except Exception:
        # Any failure, bailout or genuine error: the per-operator path
        # reruns the run and raises errors in the row path's order and text.
        return None
    if len(present) == len(parent_vals):
        return column, flags, hits
    index = [k for k, v in enumerate(parent_vals) if v is not None]
    values = iter(column)
    return (
        [None if v is None else next(values) for v in parent_vals],
        [[index[k] for k in flag] for flag in flags],
        [[[index[k] for k in hit] for hit in op_hits] for op_hits in hits],
    )


def _task_trace_flatten(state: WorkerState, sa: int, op_id: int, parent_vals: list) -> Any:
    """One SA group's outer-flatten expansions as ``(tuples, dropped, counts)``.

    ``tuples`` concatenates every parent's expansions, ``counts[p]`` is the
    number parent p contributed (0 when it is missing), and ``dropped`` lists
    the positions in ``tuples`` that are not retained: padded expansions of
    an SA whose own flatten is the inner variant.
    """
    sa_op = state.sa_op(sa, op_id)
    ctx = state.sa_ctx(sa)
    outer = sa_op.outer
    tuples: list = []
    dropped: list = []
    counts: list = []
    for v in parent_vals:
        if v is None:
            counts.append(0)
            continue
        expanded, padded = sa_op.expand(v, ctx)
        if padded and not outer:
            dropped.append(len(tuples))
        tuples += expanded
        counts.append(len(expanded))
    return tuples, dropped, counts


def _task_trace_join(
    state: WorkerState, sa: int, op_id: int, left_vals: list, right_vals: list
) -> Any:
    """One SA group's join matches: {(left_idx, right_idx): combined} plus
    the matched index sets (for outer padding back in the driver)."""
    sa_op = state.sa_op(sa, op_id)
    left_key, right_key = sa_op.key_fns()
    extra = sa_op.extra.compile() if sa_op.extra is not None else None
    combine = sa_op._combine
    index: dict = {}
    for jdx, v in enumerate(right_vals):
        if v is None:
            continue
        key = right_key(v)
        if key is not None:
            index.setdefault(key, []).append(jdx)
    matches: dict = {}
    left_matched: set[int] = set()
    right_matched: set[int] = set()
    empty: tuple[int, ...] = ()
    for ldx, v in enumerate(left_vals):
        if v is None:
            continue
        key = left_key(v)
        if key is None:
            continue
        for jdx in index.get(key, empty):
            combined = combine(v, right_vals[jdx])
            if extra is not None and not extra(combined):
                continue
            matches[(ldx, jdx)] = combined
            left_matched.add(ldx)
            right_matched.add(jdx)
    return matches, left_matched, right_matched


def _task_trace_group(state: WorkerState, sa: int, op_id: int, parent_vals: list) -> Any:
    """One SA group's nesting/aggregation buckets as ``(key, out, indices)``.

    Indices point into *parent_vals*; the driver maps them back to traced-row
    ids when it merges groups full-outer-join-style on the group key.
    """
    sa_op = state.sa_op(sa, op_id)
    nesting = isinstance(sa_op, RelationNesting)
    buckets: dict = {}
    if not nesting and not sa_op.key_specs:
        buckets[Tup()] = [i for i, v in enumerate(parent_vals) if v is not None]
    else:
        key_fn = sa_op.group_key if nesting else sa_op.key_fn()
        for i, v in enumerate(parent_vals):
            if v is None:
                continue
            buckets.setdefault(key_fn(v), []).append(i)
    out = []
    if nesting:
        target_layout = Layout.of((sa_op.target,))
        for key, idxs in buckets.items():
            nested = Bag(parent_vals[i].project(sa_op.attrs) for i in idxs)
            out.append((key, key.concat(Tup.from_layout(target_layout, (nested,))), idxs))
    else:
        for key, idxs in buckets.items():
            out.append(
                (key, key.concat(sa_op.aggregate_tuple([parent_vals[i] for i in idxs])), idxs)
            )
    return out


_TASK_HANDLERS = {
    "chain": task_kernel_chain,
    "rows": _task_rows,
    "join_keyed": _task_join_keyed,
    "group_keyed": _task_group_keyed,
    "trace_narrow": _task_trace_narrow,
    "trace_run": _task_trace_run,
    "trace_flatten": _task_trace_flatten,
    "trace_join": _task_trace_join,
    "trace_group": _task_trace_group,
}


def run_task(state: WorkerState, task: tuple) -> Any:
    """Evaluate one task against a worker state (backend-independent)."""
    return _TASK_HANDLERS[task[0]](state, *task[1:])


# -- backends ----------------------------------------------------------------


class ExecutionBackend:
    """Strategy for evaluating a batch of tasks for one execution context."""

    name = "?"
    workers = 1

    def run(self, context: TaskContext, tasks: "Sequence[tuple]") -> list:
        """Evaluate *tasks* in order; result i corresponds to task i."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (idempotent)."""


class SerialBackend(ExecutionBackend):
    """Runs every task inline — today's behaviour and the correctness oracle."""

    name = "serial"
    workers = 1

    def run(self, context: TaskContext, tasks: "Sequence[tuple]") -> list:
        state = context.local_state()
        return [run_task(state, task) for task in tasks]


# Worker-side cache of unpacked contexts.  Bounded: executions come and go
# (every scenario run builds a fresh database), workers only ever need the
# few most recent.
_WORKER_STATES: "dict[str, WorkerState]" = {}
_WORKER_STATE_LIMIT = 4


class _ContextMiss(Exception):
    """A worker was asked to run a task for a context it has not cached."""


def _worker_run(ctx_id: str, payload: Optional[bytes], task: tuple) -> Any:
    state = _WORKER_STATES.get(ctx_id)
    if state is None:
        if payload is None:
            raise _ContextMiss(ctx_id)
        query, db, sa_queries = pickle.loads(payload)
        state = WorkerState(query, db, sa_queries)
        while len(_WORKER_STATES) >= _WORKER_STATE_LIMIT:
            _WORKER_STATES.pop(next(iter(_WORKER_STATES)))
        _WORKER_STATES[ctx_id] = state
    return run_task(state, task)


class ProcessBackend(ExecutionBackend):
    """Multi-core backend over a long-lived ``ProcessPoolExecutor``.

    The pool is created lazily on first use and reused across executions;
    each task carries the context id plus (cheaply, per chunk) the pickled
    context payload, and workers re-intern/re-compile on first touch.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._pool: Optional[ProcessPoolExecutor] = None
        # Contexts whose payload has been shipped to the pool at least once.
        # Later batches for the same context send only the context id; a
        # worker that never saw the payload raises _ContextMiss and the
        # batch is replayed once with the payload attached (tasks are pure,
        # so a replay is safe).
        self._shipped: dict[str, None] = {}

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._shipped.clear()
        return self._pool

    def run(self, context: TaskContext, tasks: "Sequence[tuple]") -> list:
        if not tasks:
            return []
        pool = self._ensure_pool()
        chunksize = max(1, len(tasks) // (self.workers * 4))
        payload = None if context.ctx_id in self._shipped else context.payload()
        try:
            try:
                fn = partial(_worker_run, context.ctx_id, payload)
                results = list(pool.map(fn, tasks, chunksize=chunksize))
            except _ContextMiss:
                fn = partial(_worker_run, context.ctx_id, context.payload())
                results = list(pool.map(fn, tasks, chunksize=chunksize))
        except BrokenProcessPool:
            self.close()
            raise RuntimeError(
                "worker pool died while evaluating tasks; re-run with "
                "backend='serial' to reproduce the failure in-process"
            ) from None
        while len(self._shipped) >= _WORKER_STATE_LIMIT:
            self._shipped.pop(next(iter(self._shipped)))
        self._shipped[context.ctx_id] = None
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._shipped.clear()


_SERIAL = SerialBackend()
_PROCESS_BACKENDS: "dict[int, ProcessBackend]" = {}


def get_backend(
    backend: "str | ExecutionBackend | None" = None, workers: Optional[int] = None
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` uses ``REPRO_BACKEND`` (default serial).  Process backends are
    cached per worker count so their pools persist across executions.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = backend if backend is not None else default_backend_name()
    if name == "serial":
        return _SERIAL
    if name == "process":
        n = workers if workers is not None else default_workers()
        cached = _PROCESS_BACKENDS.get(n)
        if cached is None:
            cached = ProcessBackend(n)
            _PROCESS_BACKENDS[n] = cached
        return cached
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")


def close_backends() -> None:
    """Shut down all cached process pools (safe to call repeatedly)."""
    for backend in _PROCESS_BACKENDS.values():
        backend.close()
    _PROCESS_BACKENDS.clear()


atexit.register(close_backends)
