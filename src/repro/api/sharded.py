"""Sharded multi-process dispatcher (``python -m repro serve --processes N``).

The in-process dispatcher (:class:`repro.api.http.LocalDispatcher`) is
GIL-capped at roughly one core of explain throughput.  This module's
:class:`ShardDispatcher` scales it out behind the same HTTP front end —
the one handler and route table of :mod:`repro.api.http` — while keeping
the stdlib-only contract:

* **Pre-forked workers** — the dispatcher spawns ``processes`` worker
  processes up front; each owns a private
  :class:`~repro.api.service.ExplanationService` (registry, validation,
  LRU result cache), answers jobs through :func:`repro.api.http.answer`
  and exchanges length-delimited pickled messages with the front end over
  a :func:`multiprocessing.Pipe`.
* **Consistent-hash routing** — every ``POST /v1/explain`` / ``/v1/query``
  document is reduced to a :func:`routing_key` (a
  :func:`~repro.engine.hashing.stable_hash` of the canonical document with
  the display-only name and retired options stripped) and dispatched to
  ``workers[key % N]``.  Identical questions therefore always land on the
  same worker, so its LRU cache sees every repeat — cache capacity shards
  across processes instead of being duplicated.
* **Request coalescing** — identical in-flight documents share one
  computation: the first becomes the *leader*, duplicates attach to its
  pending slot and receive the leader's byte-identical response, counted
  in the ``coalesced`` stat.
* **Backpressure** — each worker accepts at most ``queue_depth`` in-flight
  leaders; beyond that the dispatcher sheds load immediately with a
  ``503`` + ``Retry-After`` answer instead of queueing without bound.
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
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.api.http import (
    COUNTED_KINDS,
    MAX_BODY_BYTES,
    ApiServer,
    answer,
    error_body,
    health_document,
)
from repro.api.service import BadRequest, ExplainOptions, ExplanationService
from repro.api.stats import LatencyWindow, ServingCounters
from repro.engine.hashing import stable_hash
from repro.wire import serving_stats_to_json

#: Option fields that change explanation *content*; everything else (the
#: retired engine/backend/workers/optimize/partitions) changes nothing and
#: is stripped from routing keys so equivalent requests co-locate.
SEMANTIC_OPTION_FIELDS = ("use_schema_alternatives", "revalidate", "max_sas", "summarize")

#: The answer to a request that reaches a closed dispatcher.
_SHUTTING_DOWN = (503, error_body("Overloaded", "server is shutting down"))


@dataclass
class ShardedConfig:
    """Knobs of the sharded dispatcher (all validated up front).

    ``processes`` is the worker count, ``queue_depth`` the per-worker
    in-flight leader bound before 503 backpressure fires, ``cache_size``
    each worker's LRU capacity, ``request_timeout`` the front-end wait
    bound per request (a stuck worker yields a 503, never a hang), and
    ``retry_after`` the hint sent with every 503.
    """

    processes: int = 2
    queue_depth: int = 16
    cache_size: int = 128
    request_timeout: float = 120.0
    retry_after: int = 1

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
    display-only ``name`` and every option outside
    :data:`SEMANTIC_OPTION_FIELDS` (retired fields change no answer), then
    applies :func:`~repro.engine.hashing.stable_hash`.  Two requests that
    must produce the same answer therefore always get the same key: they
    route to the same worker (cache locality) and coalesce when concurrent.
    Options that fail :meth:`ExplainOptions.from_json` are kept verbatim,
    so a request that answers 400 never shares a key with a good one.
    """
    doc = dict(document)
    doc.pop("name", None)
    options = doc.get("options")
    if isinstance(options, dict) and _decodes(options):
        doc["options"] = {k: options[k] for k in SEMANTIC_OPTION_FIELDS if k in options}
    return stable_hash(json.dumps(doc, sort_keys=True, ensure_ascii=True))


def _decodes(options: dict) -> bool:
    """Do *options* pass :meth:`ExplainOptions.from_json`?"""
    try:
        ExplainOptions.from_json(options)
    except BadRequest:
        return False
    return True


# -- worker process -----------------------------------------------------------


def _worker_main(conn, index: int, cache_size: int, close_fds: tuple = ()) -> None:
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
    service = ExplanationService(cache_size=cache_size)
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
            status, payload = answer(service, kind, document)
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
    service.close()  # shut down the dispatch pool so the process can exit
    conn.close()


# -- front end ----------------------------------------------------------------


class _Pending:
    """One in-flight request slot: leader computes, followers wait on it."""

    __slots__ = ("event", "status", "document")

    def __init__(self):
        self.event = threading.Event()
        self.status: Optional[int] = None
        self.document: Optional[dict] = None

    def resolve(self, status: int, document: dict) -> None:
        """Publish the outcome and wake every waiter."""
        self.status = status
        self.document = document
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
        # Not a daemon: lifetime is managed explicitly — EOF on the pipe
        # (front end gone) makes the worker exit, and
        # ``ShardDispatcher.close`` escalates shutdown → terminate → kill.
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.index, self._config.cache_size, close_fds),
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

    One instance backs one sharded :class:`~repro.api.http.ApiServer`; its
    public surface is the dispatcher surface the HTTP handler calls, like
    :class:`~repro.api.http.LocalDispatcher`'s: :meth:`handle`,
    :meth:`health` / :meth:`stats` (the observability payloads),
    :meth:`close` and ``counters``.
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
        pending.resolve(status, payload)

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
        error = error_body(
            "WorkerCrashed", f"worker {worker.index} died; request was not completed"
        )
        for pending, key, started, is_stats in failures:
            if not is_stats:
                self.counters.record_outcome(503, time.perf_counter() - started)
            pending.resolve(503, error)

    # -- request path ---------------------------------------------------------

    def handle(self, kind: str, document: dict) -> "tuple[int, dict, Optional[dict]]":
        """Answer one request: ``(status, body, headers)``; never raises.

        Explain and query documents route to one worker; the database
        kinds broadcast to every worker.  Backpressure, shutdown, a worker
        crash and a request timeout all come back as 503 answers with
        ``Retry-After``, never as an exception or a hang.  Counts the
        :data:`~repro.api.http.COUNTED_KINDS` in ``/v1/stats``.
        """
        if kind in ("explain", "query"):
            status, body = self._dispatch(kind, document)
        else:
            started = time.perf_counter()
            replies = self._broadcast_registry(kind, document)
            if replies is None:
                status, body = _SHUTTING_DOWN
            else:
                status, body = self._registry_response(replies)
                if kind in COUNTED_KINDS:
                    self.counters.record_outcome(status, time.perf_counter() - started)
        headers = {"Retry-After": self.config.retry_after} if status == 503 else None
        return status, body, headers

    def _dispatch(self, kind: str, document: dict) -> "tuple[int, dict]":
        """Route one explain or query document to its worker, coalescing it
        with an identical in-flight one; ``(status, body)``."""
        key = routing_key(document)
        leader = False
        worker = None
        request_id = None
        with self._lock:
            if self._closed:
                return _SHUTTING_DOWN
            pending = self._inflight.get(key)
            if pending is not None:
                self.counters.record_coalesced()
            else:
                worker = self.workers[key % len(self.workers)]
                if worker.inflight >= self.config.queue_depth:
                    self.counters.record_rejected()
                    return 503, error_body(
                        "Overloaded",
                        f"worker {worker.index} is at its queue depth "
                        f"({self.config.queue_depth}); retry shortly",
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
            return 503, error_body(
                "Timeout",
                f"request did not complete within {self.config.request_timeout}s",
            )
        return pending.status, pending.document

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
        self, kind: str, document: dict
    ) -> "Optional[list[Optional[tuple[int, dict]]]]":
        """Send one registry job to EVERY worker; per-worker ``(status, body)``,
        or None when the dispatcher is closed.

        Holds the dispatcher lock across recording the document in the
        replay log (register and mutate jobs) and writing it to every worker
        pipe.  Log order and pipe order therefore agree:
        a worker that crashes either never saw the job (its respawn replays
        the recorded document) or saw it before dying (its respawn rebuilds
        from the full history) — either way each worker applies the
        operation exactly once and shards converge even across crashes.
        ``None`` entries mark workers that did not answer in time.
        """
        probes: "list[Optional[_Pending]]" = []
        with self._lock:
            if self._closed:
                return None
            if kind in ("register", "mutate"):
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
    ) -> "tuple[int, dict]":
        """Fold per-worker replies into one answer ``(status, body)``.

        Deterministic worker errors win (404 unknown name, 400 bad
        document — every worker answers them identically); a missing reply
        is a 503.  On success the body is worker 0's document plus
        per-shard version ids and a ``converged`` flag — the cross-worker
        proof the sharded serving tests assert on.
        """
        for reply in replies:
            if reply is not None and reply[0] != 200:
                return reply
        if any(reply is None for reply in replies):
            return 503, error_body("WorkerCrashed", "a worker did not answer; retry shortly")
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
        return 200, body

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
        return health_document(
            "ok" if all_up else "degraded",
            cache,
            databases,
            processes=len(self.workers),
            workers=workers,
        )

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
            pending.resolve(503, error_body("ShuttingDown", "server is closing"))
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


def make_sharded_server(
    config: Optional[ShardedConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> ApiServer:
    """Build a bound sharded server (workers started, HTTP not yet serving).

    ``port=0`` binds an ephemeral free port — read it back from
    ``server.server_address``, as the tests and the load harness do.
    """
    dispatcher = ShardDispatcher(config or ShardedConfig())
    try:
        return ApiServer(
            (host, port), dispatcher, quiet=quiet, max_body_bytes=max_body_bytes
        )
    except BaseException:
        # A failed bind must not strand the workers: the process would
        # hang at exit waiting for them.
        dispatcher.close()
        raise
