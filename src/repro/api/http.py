"""HTTP serving front end over the wire format (stdlib only).

``python -m repro serve --port 8080`` boots a
:class:`http.server.ThreadingHTTPServer` around one
:class:`~repro.api.service.ExplanationService`, so any HTTP client — not
just Python — can submit why-not questions end-to-end:

* ``POST /v1/explain`` — an ``explain-request`` wire document (explicit
  query+nip+database or the ``{"scenario": "Q1"}`` shorthand) →
  ``explain-response`` with the ranked explanations and cache counters;
* ``POST /v1/query`` — a ``query-request`` document → the result relation
  plus execution metrics;
* ``GET /v1/databases`` — every registered database's name, version id and
  per-table row counts; ``GET /v1/databases/{name}`` — one database's info;
* ``PUT /v1/databases/{name}`` — register (or replace) a named database
  from a ``database`` document;
* ``POST /v1/databases/{name}/mutate`` — a ``mutation`` document of
  per-relation inserts/deletes: advances the named database to the next
  version of its chain (``docs/MUTATIONS.md``) and returns the new
  ``database-info``;
* ``GET /v1/scenarios`` — the registered paper scenarios;
* ``GET /v1/health`` — liveness, versions, cache counters;
* ``GET /v1/stats`` — serving metrics (request counters, QPS, latency
  percentiles; see :mod:`repro.api.stats`).

Both POST endpoints also accept the **textual** payload variant: a body
with a ``text`` field carrying an ``.rq`` program (grammar:
``docs/LANGUAGE.md``) plus a ``database``.  ``/v1/query`` evaluates the
program's query pipeline (a trailing ``whynot`` block is ignored there, so
checked-in scenario files run unmodified); ``/v1/explain`` requires the
``whynot`` block and answers it.

Errors come back as JSON ``{"error": {"type", "message"}}`` with 400 for
malformed/ill-posed requests, 404 for unknown routes, 405 for wrong
methods, and 500 for unexpected failures; parse/validation errors from
textual payloads additionally carry ``"position": {"line", "column"}``.
The multi-process variant of this front end (``--processes N``) lives in
:mod:`repro.api.sharded` and reuses :class:`JsonHandler` and
:func:`error_document`.  See ``docs/API.md`` for the endpoint reference
and ``docs/SERVING.md`` for the process model.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Optional

from repro import __version__
from repro.api.service import (
    API_VERSION,
    CLIENT_ERRORS,
    ExplainOptions,
    ExplainRequest,
    ExplanationService,
    UnknownDatabase,
    scenarios_listing,
)
from repro.api.stats import ServingCounters
from repro.wire import (
    WIRE_VERSION,
    check_envelope,
    database_from_json,
    metrics_to_json,
    mutation_from_json,
    query_from_json,
    relation_to_json,
    serving_stats_to_json,
)

#: Default cap on request bodies (64 MiB); servers take it as a knob so the
#: oversized-body 400 path is testable without building a 64 MiB payload.
MAX_BODY_BYTES = 64 * 1024 * 1024


def databases_route(path: str) -> "Optional[tuple[str, Optional[str]]]":
    """Parse a ``/v1/databases...`` path into ``(action, name)``.

    Returns ``("list", None)``, ``("info", name)`` or ``("mutate", name)``
    — or ``None`` when the path is not a databases route.  Shared by both
    front ends so the single-process and sharded servers expose identical
    URLs.
    """
    prefix = f"/{API_VERSION}/databases"
    if path == prefix:
        return ("list", None)
    if path.startswith(prefix + "/"):
        rest = path[len(prefix) + 1 :]
        if rest.endswith("/mutate"):
            name = rest[: -len("/mutate")]
            if name and "/" not in name:
                return ("mutate", name)
        elif rest and "/" not in rest:
            return ("info", rest)
    return None


def error_document(exc: BaseException) -> dict:
    """The JSON error body for one exception (shared by both front ends).

    Language errors (:class:`~repro.lang.errors.LangError`) carry a source
    position; it is surfaced as ``{"line", "column"}`` so HTTP clients get
    the same diagnostics the CLI and REPL render as carets.
    """
    error = {"type": type(exc).__name__, "message": str(exc)}
    position = getattr(exc, "position", None)
    if callable(position):
        error["position"] = position()
    return {"error": error}


class JsonHandler(BaseHTTPRequestHandler):
    """Shared JSON-over-HTTP plumbing for both serving front ends.

    Subclasses implement the routing (``do_GET``/``do_POST``) on top of the
    send/read helpers here; the bound server provides ``quiet`` (access-log
    suppression) and ``max_body_bytes`` (request-body cap) attributes.
    """

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Suppress per-request stderr noise unless the server is verbose."""
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _send_json(
        self, status: int, document: dict, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(document, ensure_ascii=True).encode("ascii")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, exc: BaseException, headers: Optional[dict] = None
    ) -> None:
        self._send_json(status, error_document(exc), headers)

    def _read_body(self) -> dict:
        limit = getattr(self.server, "max_body_bytes", MAX_BODY_BYTES)
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > limit:
            raise ValueError(f"request body exceeds {limit} bytes")
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise ValueError("request body must be a JSON object")
        return document


class ApiServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ExplanationService`."""

    daemon_threads = True

    def __init__(
        self,
        address,
        service: ExplanationService,
        quiet: bool = True,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.service = service
        self.quiet = quiet
        self.max_body_bytes = max_body_bytes
        self.counters = ServingCounters()
        super().__init__(address, _Handler)


class _Handler(JsonHandler):
    """Routes ``/v1/...`` requests onto the bound service."""

    server: ApiServer  # narrowed type for the attribute lookups below

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch ``GET /v1/health``, ``/v1/scenarios``, ``/v1/stats`` and
        the ``/v1/databases`` listing/info routes."""
        route = databases_route(self.path)
        try:
            if self.path == f"/{API_VERSION}/health":
                self._send_json(200, self._health())
            elif self.path == f"/{API_VERSION}/stats":
                self._send_json(200, self._stats())
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
                self._send_json(200, self.server.service.database_listing())
            elif route is not None and route[0] == "info":
                try:
                    self._send_json(200, self.server.service.database_info(route[1]))
                except UnknownDatabase as exc:
                    self._send_error_json(404, exc)
            elif route is not None:  # GET on .../mutate
                self._send_json(405, {"error": {"type": "MethodNotAllowed",
                                                "message": "use POST"}})
            elif self.path in (f"/{API_VERSION}/explain", f"/{API_VERSION}/query"):
                self._send_json(405, {"error": {"type": "MethodNotAllowed",
                                                "message": "use POST"}})
            else:
                self._send_json(404, {"error": {"type": "NotFound",
                                                "message": f"no route {self.path}"}})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, exc)

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch ``PUT /v1/databases/{name}`` (register a database)."""
        route = databases_route(self.path)
        try:
            if route is not None and route[0] == "info":
                db = database_from_json(self._read_body())
                self.server.service.register_database(route[1], db)
                self._send_json(200, self.server.service.database_info(route[1]))
            else:
                self._send_json(404, {"error": {"type": "NotFound",
                                                "message": f"no route {self.path}"}})
        except CLIENT_ERRORS as exc:
            self._send_error_json(400, exc)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, exc)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch ``POST /v1/explain``, ``/v1/query`` and
        ``/v1/databases/{name}/mutate``."""
        started = perf_counter()
        status = 500
        route = databases_route(self.path)
        try:
            if self.path == f"/{API_VERSION}/explain":
                document = self._read_body()
                request = ExplainRequest.from_json(document)
                response = self.server.service.explain(request)
                status = 200
                self._send_json(200, response.to_json())
            elif self.path == f"/{API_VERSION}/query":
                body = self._run_query(self._read_body())
                status = 200
                self._send_json(200, body)
            elif route is not None and route[0] == "mutate":
                mutation = mutation_from_json(self._read_body())
                try:
                    self.server.service.mutate_database(route[1], mutation)
                except UnknownDatabase as exc:
                    status = 404
                    self._send_error_json(404, exc)
                    return
                status = 200
                self._send_json(200, self.server.service.database_info(route[1]))
            elif route is not None:  # POST on /v1/databases[/{name}]
                self._send_json(405, {"error": {"type": "MethodNotAllowed",
                                                "message": "use GET or PUT"}})
                return
            elif self.path in (f"/{API_VERSION}/health", f"/{API_VERSION}/scenarios",
                               f"/{API_VERSION}/stats"):
                self._send_json(405, {"error": {"type": "MethodNotAllowed",
                                                "message": "use GET"}})
                return
            else:
                self._send_json(404, {"error": {"type": "NotFound",
                                                "message": f"no route {self.path}"}})
                return
        except CLIENT_ERRORS as exc:
            status = 400
            self._send_error_json(400, exc)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, exc)
        finally:
            if self.path in (f"/{API_VERSION}/explain", f"/{API_VERSION}/query") or (
                route is not None and route[0] == "mutate"
            ):
                self.server.counters.record_outcome(status, perf_counter() - started)

    def _health(self) -> dict:
        service = self.server.service
        return {
            "format": WIRE_VERSION,
            "kind": "health",
            "status": "ok",
            "version": __version__,
            "api_version": API_VERSION,
            "wire_format": WIRE_VERSION,
            "cache": service.cache_stats(),
            "databases": service.databases(),
        }

    def _stats(self) -> dict:
        cache = self.server.service.cache_stats()
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else None
        serving = {
            "mode": "inprocess",
            "cache": cache,
            "state": self.server.service.state_stats(),
        }
        serving.update(self.server.counters.snapshot())
        return serving_stats_to_json(serving)

    def _run_query(self, document: dict) -> dict:
        return run_query_document(self.server.service, document)


def run_query_document(service: ExplanationService, document: dict) -> dict:
    """Evaluate a ``query-request`` wire document into a ``query-response``.

    Shared by the in-process handler and the sharded workers
    (:mod:`repro.api.sharded`) so both front ends answer ``POST /v1/query``
    identically.
    """
    check_envelope(document, "query-request")
    options = ExplainOptions.from_json(document.get("options"))
    if "text" in document:
        from repro.api.service import BadRequest
        from repro.lang import compile_program

        if not isinstance(document["text"], str):
            raise BadRequest("the 'text' field must be an .rq program string")
        db_field = document.get("database")
        if db_field is None:
            raise BadRequest("text query-request needs a database (name or inline)")
        database = (
            service.database(db_field)
            if isinstance(db_field, str)
            else database_from_json(db_field)
        )
        # A trailing whynot block is legal and ignored here: /v1/query
        # evaluates the query pipeline, /v1/explain answers the question.
        query = compile_program(document["text"], database=database).query
    else:
        query = query_from_json(document["query"])
        db_field = document["database"]
        database = (
            db_field if isinstance(db_field, str) else database_from_json(db_field)
        )
    result, metrics = service.query(query, database, options)
    return {
        "format": WIRE_VERSION,
        "kind": "query-response",
        "result": relation_to_json(result),
        "metrics": metrics_to_json(metrics),
    }


def make_server(
    service: Optional[ExplanationService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> ApiServer:
    """Build a bound (but not yet serving) API server.

    ``port=0`` binds an ephemeral free port — read it back from
    ``server.server_address`` (the pattern the tests and the CI smoke
    script use).
    """
    return ApiServer(
        (host, port),
        service or ExplanationService(),
        quiet=quiet,
        max_body_bytes=max_body_bytes,
    )


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    service: Optional[ExplanationService] = None,
    quiet: bool = False,
) -> int:
    """Run the serving front end until interrupted (the CLI entry point)."""
    server = make_server(service, host, port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro api {API_VERSION} (wire format {WIRE_VERSION}) "
          f"listening on http://{bound_host}:{bound_port}")
    print(f"  POST /{API_VERSION}/explain   POST /{API_VERSION}/query   "
          f"GET /{API_VERSION}/scenarios   GET /{API_VERSION}/health   "
          f"GET /{API_VERSION}/stats")
    print(f"  GET/PUT /{API_VERSION}/databases[/{{name}}]   "
          f"POST /{API_VERSION}/databases/{{name}}/mutate")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.service.close()
    return 0
