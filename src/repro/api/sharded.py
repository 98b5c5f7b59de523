"""Sharded multi-process serving front end (``python -m repro serve --processes N``).

The single-process server (:mod:`repro.api.http`) is GIL-capped at roughly
one core of explain throughput.  This module scales it out while keeping
the stdlib-only contract:

* **Pre-forked workers** — the front end spawns ``processes`` worker
  processes up front; each owns a private
  :class:`~repro.api.service.ExplanationService` (registry, validation,
  LRU result cache) and exchanges length-delimited pickled messages with
  the front end over a :func:`multiprocessing.Pipe`.
* **Consistent-hash routing** — every ``POST /v1/explain`` / ``/v1/query``
  document is reduced to a :func:`routing_key` (a
  :func:`~repro.engine.hashing.stable_hash` of the canonical document with
  display-only and execution-only fields stripped) and dispatched to
  ``workers[key % N]``.  Identical questions therefore always land on the
  same worker, so its LRU cache sees every repeat — cache capacity shards
  across processes instead of being duplicated.
* **Request coalescing** — identical in-flight documents share one
  computation: the first becomes the *leader*, duplicates attach to its
  pending slot and receive the leader's byte-identical response, counted
  in the ``coalesced`` stat.
* **Backpressure** — each worker accepts at most ``queue_depth`` in-flight
  leaders; beyond that the front end sheds load immediately with
  ``503`` + ``Retry-After`` instead of queueing without bound.
* **Fault tolerance** — a crashed worker is respawned automatically; its
  in-flight requests fail with a clean ``503`` (never a hang, never
  partial JSON) and subsequent requests hit the fresh worker.
* **Replicated database registry** — ``PUT /v1/databases/{name}`` and
  ``POST /v1/databases/{name}/mutate`` broadcast to **every** worker under
  the dispatch lock and are recorded in an ordered replay log; a respawned
  worker starts empty and replays the log, so per-worker registries stay
  convergent across crashes (mutate through any worker, read the new
  version through any other).  ``GET /v1/databases[/{name}]`` asks all
  workers and reports per-shard version ids plus a ``converged`` flag.

``GET /v1/health`` reports per-worker liveness and ``GET /v1/stats`` the
full serving metrics (QPS, queue depths, cache hit-rate, coalesce count,
latency percentiles — :mod:`repro.api.stats`, wire-encoded by
:func:`repro.wire.serving_stats_to_json`).  Correctness is gated by
``tests/api/test_sharded.py`` (byte-equality with in-process ``explain()``
under concurrency) and ``tests/api/test_sharded_faults.py`` (crash and
saturation behaviour); ``benchmarks/serve_load.py`` records throughput in
``BENCH_serving.json``.  See ``docs/SERVING.md``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from typing import Any, Optional

from repro import __version__
from repro.api.http import (
    MAX_BODY_BYTES,
    JsonHandler,
    counted_post,
    databases_route,
    error_document,
    run_query_document,
)
from repro.api.service import (
    API_VERSION,
    CLIENT_ERRORS,
    ExplainOptions,
    ExplainRequest,
    ExplanationService,
    UnknownDatabase,
    scenarios_listing,
)
from repro.api.stats import LatencyWindow, ServingCounters
from repro.engine.hashing import stable_hash
from repro.wire import (
    WIRE_VERSION,
    database_from_json,
    mutation_from_json,
    serving_stats_to_json,
)

#: Option fields that change explanation *content*; everything else
#: (backend/workers/partitions/optimize) is execution-only and is
#: stripped from explain routing keys so equivalent requests co-locate.
SEMANTIC_OPTION_FIELDS = ("use_schema_alternatives", "revalidate", "max_sas", "summarize")


class Overloaded(RuntimeError):
    """Raised when the target worker's queue is full (HTTP 503 + Retry-After)."""

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = retry_after


class WorkerCrashed(RuntimeError):
    """Raised into pending requests whose worker process died mid-flight."""


@dataclass
class ShardedConfig:
    """Knobs of the sharded front end (all validated up front).

    ``processes`` is the worker count, ``queue_depth`` the per-worker
    in-flight leader bound before 503 backpressure fires, ``cache_size``
    each worker's LRU capacity, ``request_timeout`` the front-end wait
    bound per request (a stuck worker yields a 503, never a hang), and
    ``retry_after`` the hint sent with every 503.  ``options`` holds the
    default execution knobs each worker's service runs with
    (``backend``/``workers``/``optimize``).
    """

    processes: int = 2
    queue_depth: int = 16
    cache_size: int = 128
    request_timeout: float = 120.0
    retry_after: int = 1
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.processes < 1:
            raise ValueError(f"processes must be positive, got {self.processes}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be positive, got {self.queue_depth}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )


def routing_key(document: dict) -> int:
    """The shard/coalescing key of one ``/v1`` request document.

    Canonicalizes the parsed JSON document (sorted keys), strips the
    display-only ``name`` and — for explain requests — every execution-only
    option (the engine's equivalence guarantees make results independent of
    them), then applies :func:`~repro.engine.hashing.stable_hash`.  Two
    requests that must produce the same explanations therefore always get
    the same key: they route to the same worker (cache locality) and
    coalesce when concurrent.  Query requests keep their options verbatim
    because execution knobs are visible in their metrics payload.
    """
    doc = dict(document)
    doc.pop("name", None)
    if doc.get("kind") == "explain-request":
        options = doc.get("options")
        if isinstance(options, dict):
            doc["options"] = {
                k: options[k] for k in SEMANTIC_OPTION_FIELDS if k in options
            }
    return stable_hash(json.dumps(doc, sort_keys=True, ensure_ascii=True))


# -- worker process -----------------------------------------------------------


def _handle_job(service: ExplanationService, kind: str, document: dict) -> "tuple[int, dict]":
    """Answer one job inside a worker: ``(http status, response document)``.

    Mirrors the in-process handler's error mapping exactly, so a sharded
    server is byte-compatible with the single-process one on every path.
    """
    try:
        if kind == "explain":
            request = ExplainRequest.from_json(document)
            return 200, service.explain(request).to_json()
        if kind == "query":
            return 200, run_query_document(service, document)
        if kind == "register":
            db = database_from_json(document["database"])
            service.register_database(document["name"], db)
            return 200, service.database_info(document["name"])
        if kind in ("mutate", "database-info"):
            try:
                if kind == "mutate":
                    mutation = mutation_from_json(document["mutation"])
                    service.mutate_database(document["name"], mutation)
                return 200, service.database_info(document["name"])
            except UnknownDatabase as exc:
                return 404, error_document(exc)
        if kind == "databases":
            return 200, service.database_listing()
        raise ValueError(f"unknown job kind {kind!r}")
    except CLIENT_ERRORS as exc:
        return 400, error_document(exc)
    except Exception as exc:  # noqa: BLE001 - workers must always answer
        return 500, error_document(exc)


def _worker_main(
    conn, index: int, cache_size: int, options: dict, close_fds: tuple = ()
) -> None:
    """Entry point of one worker process.

    ``close_fds`` holds pipe fds duplicated into this process by ``fork``
    (our own pipe's front-end end, plus earlier-spawned siblings' ends).
    They must be closed first: a worker holding its own front-end end would
    never see EOF when the front-end process dies, and would linger as an
    orphan instead of exiting.

    The main thread reads messages off the pipe: ``stats`` probes are
    answered inline (so health checks never queue behind slow explains)
    while jobs go to a single executor thread — per-worker parallelism
    would only add GIL contention, the front end scales by adding workers.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    options = dict(options)
    if options.get("backend") is None:
        # The sharded front end parallelises across workers; inside one
        # worker the default is serial evaluation regardless of
        # REPRO_BACKEND.  A backend left unset would resolve from the
        # environment and nest a process pool inside a forked, threaded
        # worker — deadlock-prone and never faster than adding workers.
        # An explicitly configured backend (CLI flag or per-request
        # options) is still honoured.
        options["backend"] = "serial"
    service = ExplanationService(
        cache_size=cache_size, options=ExplainOptions(**options)
    )
    send_lock = threading.Lock()
    jobs: "queue.SimpleQueue" = queue.SimpleQueue()
    served = {"explain": 0, "query": 0, "errors": 0}  # registry kinds added lazily

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    def run_jobs() -> None:
        while True:
            item = jobs.get()
            if item is None:
                return
            request_id, kind, document = item
            status, payload = _handle_job(service, kind, document)
            if status == 200:
                served[kind] = served.get(kind, 0) + 1
            else:
                served["errors"] += 1
            try:
                send(("result", request_id, status, payload))
            except (BrokenPipeError, OSError):
                return  # front end is gone; exit quietly

    executor = threading.Thread(target=run_jobs, daemon=True)
    executor.start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "job":
            jobs.put(message[1:])
        elif message[0] == "stats":
            try:
                send(
                    (
                        "stats",
                        message[1],
                        {
                            "pid": os.getpid(),
                            "cache": service.cache_stats(),
                            "state": service.state_stats(),
                            "served": dict(served),
                            "databases": service.databases(),
                        },
                    )
                )
            except (BrokenPipeError, OSError):
                break
        elif message[0] == "shutdown":
            break
    jobs.put(None)
    executor.join(timeout=5.0)
    service.close()  # shut down backend pools so the process can exit
    conn.close()


# -- front end ----------------------------------------------------------------


class _Pending:
    """One in-flight request slot: leader computes, followers wait on it."""

    __slots__ = ("event", "status", "document", "headers")

    def __init__(self):
        self.event = threading.Event()
        self.status: Optional[int] = None
        self.document: Optional[dict] = None
        self.headers: Optional[dict] = None

    def resolve(self, status: int, document: dict, headers: Optional[dict] = None) -> None:
        """Publish the outcome and wake every waiter."""
        self.status = status
        self.document = document
        self.headers = headers
        self.event.set()


class _WorkerHandle:
    """Front-end bookkeeping for one worker process (respawnable)."""

    def __init__(self, index: int, ctx, config: ShardedConfig, leaked_fds=None):
        self.index = index
        self._ctx = ctx
        self._config = config
        self._leaked_fds = leaked_fds or (lambda: [])
        self.restarts = 0
        self.generation = 0
        self.latency = LatencyWindow()
        self.served_total = 0
        #: Monotonic across respawns: a job that raced a crash and reached
        #: the replacement process must never collide with a live request id.
        self.next_id = 0
        self.spawn()

    def spawn(self) -> None:
        """Start a fresh worker process with a fresh pipe and empty state."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        close_fds: "tuple[int, ...]" = ()
        if self._ctx.get_start_method() == "fork":
            # fork copies every front-end pipe end into the child; hand the
            # child the fd numbers to close so EOF-on-parent-death works
            # (a spawn child inherits nothing, so nothing to close there).
            close_fds = tuple([parent_conn.fileno()] + list(self._leaked_fds()))
        # Not a daemon: a worker's service may itself use the process
        # backend (REPRO_BACKEND=process), and daemonic processes cannot
        # have children.  Lifetime is managed explicitly instead — EOF on
        # the pipe (front end gone) makes the worker exit, and
        # ``ShardDispatcher.close`` escalates shutdown → terminate → kill.
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.index, self._config.cache_size,
                  dict(self._config.options), close_fds),
            name=f"repro-shard-{self.index}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.send_lock = threading.Lock()
        #: request_id -> (pending, routing key | None, started, is_stats)
        self.pending: "dict[int, tuple[_Pending, Optional[int], float, bool]]" = {}
        self.inflight = 0
        self.alive = True
        self.generation += 1

    def send(self, message) -> None:
        """Write one message to the worker (serialized against other senders)."""
        with self.send_lock:
            self.conn.send(message)

    def summary(self) -> dict:
        """Liveness snapshot used by ``/v1/health`` (no worker round-trip)."""
        return {
            "index": self.index,
            "pid": self.process.pid,
            "alive": self.alive and self.process.is_alive(),
            "restarts": self.restarts,
            "inflight": self.inflight,
        }


class ShardDispatcher:
    """Routes, coalesces and supervises requests across the worker pool.

    One instance backs one :class:`ShardedApiServer`; its public surface is
    :meth:`dispatch` (used by the HTTP handler), :meth:`health` /
    :meth:`stats` (the observability payloads) and :meth:`close`.
    """

    def __init__(self, config: Optional[ShardedConfig] = None):
        self.config = config or ShardedConfig()
        self.counters = ServingCounters()
        self._lock = threading.Lock()
        self._inflight: "dict[int, _Pending]" = {}
        #: Ordered register/mutate history; replayed into respawned workers
        #: so every worker's registry converges to the same version chain.
        self._replay: "list[tuple[str, dict]]" = []
        self._closed = False
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.workers: "list[_WorkerHandle]" = []
        for i in range(self.config.processes):
            self.workers.append(
                _WorkerHandle(i, self._ctx, self.config, self._open_pipe_fds)
            )
        for worker in self.workers:
            self._start_reader(worker)

    # -- supervision ----------------------------------------------------------

    def _open_pipe_fds(self) -> "list[int]":
        """Front-end pipe fds a forked child would inherit (to close there)."""
        fds = []
        for worker in self.workers:
            conn = getattr(worker, "conn", None)
            if conn is not None:
                try:
                    fds.append(conn.fileno())
                except OSError:
                    pass  # already closed (worker mid-respawn)
        return fds

    def _start_reader(self, worker: _WorkerHandle) -> None:
        thread = threading.Thread(
            target=self._read_loop,
            args=(worker, worker.generation),
            daemon=True,
            name=f"repro-shard-reader-{worker.index}",
        )
        thread.start()

    def _read_loop(self, worker: _WorkerHandle, generation: int) -> None:
        conn = worker.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "result":
                self._complete(worker, generation, message[1], message[2], message[3])
            elif message[0] == "stats":
                self._complete(worker, generation, message[1], 200, message[2])
        self._on_worker_exit(worker, generation)

    def _complete(self, worker, generation, request_id, status, payload) -> None:
        with self._lock:
            if worker.generation != generation:
                return
            entry = worker.pending.pop(request_id, None)
            if entry is None:
                return
            pending, key, started, is_stats = entry
            if not is_stats:
                worker.inflight -= 1
                worker.served_total += 1
                if self._inflight.get(key) is pending:
                    del self._inflight[key]
        if not is_stats:
            elapsed = time.perf_counter() - started
            worker.latency.record(elapsed)
            self.counters.record_outcome(status, elapsed)
        headers = {"Retry-After": self.config.retry_after} if status == 503 else None
        pending.resolve(status, payload, headers)

    def _on_worker_exit(self, worker: _WorkerHandle, generation: int) -> None:
        """Reader saw EOF: fail its in-flight work and respawn (unless closing)."""
        with self._lock:
            if self._closed or worker.generation != generation:
                return
            failures = list(worker.pending.values())
            worker.pending.clear()
            worker.inflight = 0
            for pending, key, _, is_stats in failures:
                if not is_stats and self._inflight.get(key) is pending:
                    del self._inflight[key]
            worker.alive = False
            worker.restarts += 1
            worker.spawn()
            self._replay_registry(worker)
            self._start_reader(worker)
        error = {
            "error": {
                "type": "WorkerCrashed",
                "message": f"worker {worker.index} died; request was not completed",
            }
        }
        headers = {"Retry-After": self.config.retry_after}
        for pending, key, started, is_stats in failures:
            if not is_stats:
                self.counters.record_outcome(503, time.perf_counter() - started)
            pending.resolve(503, error, headers)

    # -- request path ---------------------------------------------------------

    def dispatch(self, kind: str, document: dict) -> "tuple[int, dict, Optional[dict]]":
        """Route one request document; returns ``(status, body, headers)``.

        Raises :class:`Overloaded` when the target worker is saturated.  A
        worker crash or a request-timeout produce a ``503`` return (with
        ``Retry-After``), never an exception or a hang.
        """
        key = routing_key(document)
        leader = False
        worker = None
        request_id = None
        with self._lock:
            if self._closed:
                raise Overloaded("server is shutting down", self.config.retry_after)
            pending = self._inflight.get(key)
            if pending is not None:
                self.counters.record_coalesced()
            else:
                worker = self.workers[key % len(self.workers)]
                if worker.inflight >= self.config.queue_depth:
                    self.counters.record_rejected()
                    raise Overloaded(
                        f"worker {worker.index} is at its queue depth "
                        f"({self.config.queue_depth}); retry shortly",
                        self.config.retry_after,
                    )
                pending = _Pending()
                request_id = worker.next_id
                worker.next_id += 1
                worker.pending[request_id] = (pending, key, time.perf_counter(), False)
                worker.inflight += 1
                self._inflight[key] = pending
                leader = True
        if leader:
            try:
                worker.send(("job", request_id, kind, document))
            except (BrokenPipeError, OSError):
                pass  # the reader thread sees EOF and fails the pending cleanly
        if not pending.event.wait(self.config.request_timeout):
            self.counters.record_timeout()
            with self._lock:
                if self._inflight.get(key) is pending:
                    del self._inflight[key]
            return (
                503,
                {
                    "error": {
                        "type": "Timeout",
                        "message": (
                            f"request did not complete within "
                            f"{self.config.request_timeout}s"
                        ),
                    }
                },
                {"Retry-After": self.config.retry_after},
            )
        return pending.status, pending.document, pending.headers

    # -- database registry -----------------------------------------------------

    def _replay_registry(self, worker: _WorkerHandle) -> None:
        """Rebuild a fresh worker's registry (caller holds the lock).

        A respawned worker starts with an empty service; replaying the
        recorded register/mutate history in order rebuilds exactly the state
        the surviving workers hold.  Entries that failed when first applied
        fail identically on replay (the documents are deterministic), so
        they cannot fork shard state.  Replay answers are discarded.
        """
        for kind, document in self._replay:
            pending = _Pending()
            request_id = worker.next_id
            worker.next_id += 1
            worker.pending[request_id] = (pending, None, time.perf_counter(), True)
            try:
                worker.send(("job", request_id, kind, document))
            except (BrokenPipeError, OSError):
                break  # died again already; the next exit replays afresh

    def _broadcast_registry(
        self, kind: str, document: dict, record: bool = False
    ) -> "list[Optional[tuple[int, dict]]]":
        """Send one registry job to EVERY worker; per-worker ``(status, body)``.

        Holds the dispatcher lock across recording the document in the
        replay log (for ``record=True``, i.e. register/mutate) and writing
        it to every worker pipe.  Log order and pipe order therefore agree:
        a worker that crashes either never saw the job (its respawn replays
        the recorded document) or saw it before dying (its respawn rebuilds
        from the full history) — either way each worker applies the
        operation exactly once and shards converge even across crashes.
        ``None`` entries mark workers that did not answer in time.
        """
        probes: "list[Optional[_Pending]]" = []
        with self._lock:
            if self._closed:
                raise Overloaded("server is shutting down", self.config.retry_after)
            if record:
                self._replay.append((kind, document))
            for worker in self.workers:
                pending = _Pending()
                request_id = worker.next_id
                worker.next_id += 1
                worker.pending[request_id] = (pending, None, time.perf_counter(), True)
                try:
                    worker.send(("job", request_id, kind, document))
                    probes.append(pending)
                except (BrokenPipeError, OSError):
                    worker.pending.pop(request_id, None)
                    probes.append(None)
        deadline = time.monotonic() + self.config.request_timeout
        replies: "list[Optional[tuple[int, dict]]]" = []
        for pending in probes:
            if pending is None:
                replies.append(None)
                continue
            remaining = max(0.0, deadline - time.monotonic())
            if pending.event.wait(remaining):
                replies.append((pending.status, pending.document))
            else:
                replies.append(None)
        return replies

    def _registry_response(
        self, replies: "list[Optional[tuple[int, dict]]]"
    ) -> "tuple[int, dict, Optional[dict]]":
        """Fold per-worker replies into one HTTP answer ``(status, body, headers)``.

        Deterministic worker errors win (404 unknown name, 400 bad
        document — every worker answers them identically); a missing reply
        is a 503 with ``Retry-After``.  On success the body is worker 0's
        document plus per-shard version ids and a ``converged`` flag — the
        cross-worker proof the sharded serving tests assert on.
        """
        for reply in replies:
            if reply is not None and reply[0] != 200:
                status, payload = reply
                headers = (
                    {"Retry-After": self.config.retry_after} if status == 503 else None
                )
                return status, payload, headers
        if any(reply is None for reply in replies):
            return (
                503,
                {"error": {"type": "WorkerCrashed",
                           "message": "a worker did not answer; retry shortly"}},
                {"Retry-After": self.config.retry_after},
            )
        body = dict(replies[0][1])
        if "version_id" in body:
            shards = [
                {"index": worker.index, "version_id": reply[1]["version_id"]}
                for worker, reply in zip(self.workers, replies)
            ]
            body["shards"] = shards
            body["converged"] = len({s["version_id"] for s in shards}) == 1
        elif body.get("kind") == "database-listing":
            views = [
                {d["name"]: d["version_id"] for d in reply[1]["databases"]}
                for reply in replies
            ]
            body["converged"] = all(view == views[0] for view in views[1:])
        return 200, body, None

    def register_database_doc(
        self, name: str, database_doc: dict
    ) -> "tuple[int, dict, Optional[dict]]":
        """``PUT /v1/databases/{name}``: register *database_doc* on every worker."""
        replies = self._broadcast_registry(
            "register", {"name": name, "database": database_doc}, record=True
        )
        return self._registry_response(replies)

    def mutate_database_doc(
        self, name: str, mutation_doc: dict
    ) -> "tuple[int, dict, Optional[dict]]":
        """``POST .../mutate``: apply one mutation document on every worker."""
        replies = self._broadcast_registry(
            "mutate", {"name": name, "mutation": mutation_doc}, record=True
        )
        return self._registry_response(replies)

    def database_info(self, name: str) -> "tuple[int, dict, Optional[dict]]":
        """Convergence-checked ``database-info`` for *name* (asks every worker)."""
        replies = self._broadcast_registry("database-info", {"name": name})
        return self._registry_response(replies)

    def database_listing(self) -> "tuple[int, dict, Optional[dict]]":
        """The ``/v1/databases`` body with a cross-shard ``converged`` flag."""
        replies = self._broadcast_registry("databases", {})
        return self._registry_response(replies)

    # -- observability --------------------------------------------------------

    def _probe_workers(self, timeout: float) -> "list[Optional[dict]]":
        """Ask every worker for its stats; ``None`` where no reply in time."""
        probes: "list[tuple[_WorkerHandle, Optional[_Pending]]]" = []
        for worker in self.workers:
            pending = _Pending()
            with self._lock:
                request_id = worker.next_id
                worker.next_id += 1
                worker.pending[request_id] = (pending, None, time.perf_counter(), True)
            try:
                worker.send(("stats", request_id))
                probes.append((worker, pending))
            except (BrokenPipeError, OSError):
                with self._lock:
                    worker.pending.pop(request_id, None)
                probes.append((worker, None))
        deadline = time.monotonic() + timeout
        replies: "list[Optional[dict]]" = []
        for worker, pending in probes:
            if pending is None:
                replies.append(None)
                continue
            remaining = max(0.0, deadline - time.monotonic())
            if pending.event.wait(remaining) and pending.status == 200:
                replies.append(pending.document)
            else:
                replies.append(None)
        return replies

    def health(self, timeout: float = 2.0) -> dict:
        """The ``/v1/health`` document: ``ok`` only when every worker answers."""
        replies = self._probe_workers(timeout)
        workers = []
        cache = {"hits": 0, "misses": 0, "size": 0}
        databases: "list[str]" = []
        all_up = True
        for worker, reply in zip(self.workers, replies):
            info = worker.summary()
            if reply is None:
                all_up = False
            else:
                info["cache"] = reply["cache"]
                for field_name in cache:
                    cache[field_name] += reply["cache"][field_name]
                for name in reply.get("databases", []):
                    if name not in databases:
                        databases.append(name)
            workers.append(info)
            all_up = all_up and info["alive"]
        return {
            "format": WIRE_VERSION,
            "kind": "health",
            "status": "ok" if all_up else "degraded",
            "version": __version__,
            "api_version": API_VERSION,
            "wire_format": WIRE_VERSION,
            "processes": len(self.workers),
            "cache": cache,
            "workers": workers,
            "databases": databases,
        }

    def stats(self, timeout: float = 2.0) -> dict:
        """The ``/v1/stats`` document (see :func:`serving_stats_to_json`)."""
        replies = self._probe_workers(timeout)
        workers = []
        cache = {"hits": 0, "misses": 0, "size": 0}
        state = {"entries": 0, "rows": 0, "reuses": 0}
        restarts = 0
        for worker, reply in zip(self.workers, replies):
            info = worker.summary()
            info["latency_ms"] = worker.latency.snapshot()
            info["served"] = worker.served_total
            restarts += worker.restarts
            if reply is not None:
                info["cache"] = reply["cache"]
                info["state"] = reply["state"]
                info["served_by_kind"] = reply["served"]
                for field_name in cache:
                    cache[field_name] += reply["cache"][field_name]
                for field_name in state:
                    state[field_name] += reply["state"][field_name]
            workers.append(info)
        lookups = cache["hits"] + cache["misses"]
        serving = {
            "mode": "sharded",
            "processes": len(self.workers),
            "queue_depth": self.config.queue_depth,
            "restarts": restarts,
            "cache": dict(
                cache, hit_rate=(cache["hits"] / lookups if lookups else None)
            ),
            "state": state,
        }
        serving.update(self.counters.snapshot())
        return serving_stats_to_json(serving, workers)

    # -- lifecycle ------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (graceful, then forceful) and fail leftovers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            failures = []
            for worker in self.workers:
                failures.extend(worker.pending.values())
                worker.pending.clear()
                worker.inflight = 0
            self._inflight.clear()
        for pending, _key, _started, _is_stats in failures:
            pending.resolve(
                503,
                {"error": {"type": "ShuttingDown", "message": "server is closing"}},
                {"Retry-After": self.config.retry_after},
            )
        for worker in self.workers:
            try:
                worker.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            worker.process.join(max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
            worker.conn.close()


class ShardedApiServer(ThreadingHTTPServer):
    """A threading HTTP front end bound to one :class:`ShardDispatcher`.

    HTTP threads only parse/relay; every computation happens in a worker
    process, so the front end stays responsive even at saturation.
    """

    daemon_threads = True

    def __init__(
        self,
        address,
        dispatcher: ShardDispatcher,
        quiet: bool = True,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.dispatcher = dispatcher
        self.quiet = quiet
        self.max_body_bytes = max_body_bytes
        super().__init__(address, _ShardedHandler)


class _ShardedHandler(JsonHandler):
    """Routes ``/v1/...`` requests onto the bound dispatcher."""

    server: ShardedApiServer  # narrowed type for the attribute lookups below

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch ``GET /v1/health``, ``/v1/scenarios``, ``/v1/stats`` and
        the convergence-checked ``/v1/databases`` listing/info routes."""
        route = databases_route(self.path)
        try:
            if self.path == f"/{API_VERSION}/health":
                self._send_json(200, self.server.dispatcher.health())
            elif self.path == f"/{API_VERSION}/stats":
                self._send_json(200, self.server.dispatcher.stats())
            elif self.path == f"/{API_VERSION}/scenarios":
                self._send_json(
                    200,
                    {
                        "format": WIRE_VERSION,
                        "kind": "scenarios",
                        "scenarios": scenarios_listing(),
                    },
                )
            elif route is not None and route[0] == "list":
                status, body, headers = self.server.dispatcher.database_listing()
                self._send_json(status, body, headers)
            elif route is not None and route[0] == "info":
                status, body, headers = self.server.dispatcher.database_info(route[1])
                self._send_json(status, body, headers)
            elif route is not None:  # GET on .../mutate
                self._send_json(405, {"error": {"type": "MethodNotAllowed",
                                                "message": "use POST"}})
            elif self.path in (f"/{API_VERSION}/explain", f"/{API_VERSION}/query"):
                self._send_json(405, {"error": {"type": "MethodNotAllowed",
                                                "message": "use POST"}})
            else:
                self._send_json(404, {"error": {"type": "NotFound",
                                                "message": f"no route {self.path}"}})
        except Overloaded as exc:
            self._send_error_json(503, exc, {"Retry-After": exc.retry_after})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, exc)

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        """Broadcast ``PUT /v1/databases/{name}`` to every worker."""
        route = databases_route(self.path)
        try:
            if route is not None and route[0] == "info":
                try:
                    document = self._read_body()
                except ValueError as exc:
                    self._send_error_json(400, exc)
                    return
                status, body, headers = self.server.dispatcher.register_database_doc(
                    route[1], document
                )
                self._send_json(status, body, headers)
            else:
                self._send_json(404, {"error": {"type": "NotFound",
                                                "message": f"no route {self.path}"}})
        except Overloaded as exc:
            self._send_error_json(503, exc, {"Retry-After": exc.retry_after})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, exc)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Relay ``POST /v1/explain`` / ``/v1/query`` to one worker and
        broadcast ``POST /v1/databases/{name}/mutate`` to all of them.

        ``/v1/stats`` counts the same POSTs as the in-process server, each
        before its response goes out: explain and query answers when their
        worker replies, mutates and unparseable bodies here."""
        started = time.perf_counter()
        route = databases_route(self.path)
        try:
            if route is not None and route[0] != "mutate":  # /v1/databases[/{name}]
                self._send_json(405, {"error": {"type": "MethodNotAllowed",
                                                "message": "use GET or PUT"}})
                return
            if self.path in (f"/{API_VERSION}/health", f"/{API_VERSION}/scenarios",
                             f"/{API_VERSION}/stats"):
                self._send_json(405, {"error": {"type": "MethodNotAllowed",
                                                "message": "use GET"}})
                return
            if not counted_post(self.path, route):
                self._send_json(404, {"error": {"type": "NotFound",
                                                "message": f"no route {self.path}"}})
                return
            dispatcher = self.server.dispatcher
            try:
                document = self._read_body()
            except ValueError as exc:
                self._send_counted(started, 400, error_document(exc))
                return
            if route is not None:
                self._send_counted(started, *dispatcher.mutate_database_doc(route[1], document))
                return
            kind = "explain" if self.path == f"/{API_VERSION}/explain" else "query"
            status, body, headers = dispatcher.dispatch(kind, document)
            self._send_json(status, body, headers)
        except Overloaded as exc:
            self._send_error_json(503, exc, {"Retry-After": exc.retry_after})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, exc)

    def _send_counted(
        self, started: float, status: int, body: dict, headers: Optional[dict] = None
    ) -> None:
        """Count one answer the front end gives itself, then send it."""
        self.server.dispatcher.counters.record_outcome(
            status, time.perf_counter() - started
        )
        self._send_json(status, body, headers)


def make_sharded_server(
    config: Optional[ShardedConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> ShardedApiServer:
    """Build a bound sharded server (workers started, HTTP not yet serving).

    ``port=0`` binds an ephemeral free port — read it back from
    ``server.server_address``, as the tests and the load harness do.
    """
    dispatcher = ShardDispatcher(config or ShardedConfig())
    return ShardedApiServer(
        (host, port), dispatcher, quiet=quiet, max_body_bytes=max_body_bytes
    )


def serve_sharded(
    host: str = "127.0.0.1",
    port: int = 8080,
    config: Optional[ShardedConfig] = None,
    quiet: bool = False,
) -> int:
    """Run the sharded front end until interrupted (the CLI entry point)."""
    config = config or ShardedConfig()
    server = make_sharded_server(config, host, port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro api {API_VERSION} (wire format {WIRE_VERSION}) "
        f"listening on http://{bound_host}:{bound_port} "
        f"[{config.processes} worker processes, queue depth {config.queue_depth}]"
    )
    print(f"  POST /{API_VERSION}/explain   POST /{API_VERSION}/query   "
          f"GET /{API_VERSION}/scenarios   GET /{API_VERSION}/health   "
          f"GET /{API_VERSION}/stats")
    print(f"  GET/PUT /{API_VERSION}/databases[/{{name}}]   "
          f"POST /{API_VERSION}/databases/{{name}}/mutate")

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        # SIGTERM (process managers, CI teardown) must shut the worker pool
        # down like Ctrl-C does, not strand orphan worker processes.
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread (embedded use) — skip the handler
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.dispatcher.close()
    return 0
