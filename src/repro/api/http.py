"""HTTP serving front end over the wire format (stdlib only).

``python -m repro serve --port 8080`` boots a
:class:`http.server.ThreadingHTTPServer` so any HTTP client — not just
Python — can submit why-not questions end-to-end:

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

One handler serves both serving modes.  It resolves each request against
:data:`ROUTES` and hands the request's *kind* and document to the server's
dispatcher: a :class:`LocalDispatcher` answers in this process on one
:class:`~repro.api.service.ExplanationService`; the
:class:`~repro.api.sharded.ShardDispatcher` (``serve --processes N``)
relays to worker processes.  Both answer through :func:`answer`.

Errors come back as JSON ``{"error": {"type", "message"}}`` with 400 for
malformed/ill-posed requests, 404 for unknown routes and databases, 405
(with ``Allow``) for a method a known path does not take, 501 for methods
no path takes, 503 (with ``Retry-After``) when a sharded server sheds or
loses a request, and 500 for unexpected failures; parse/validation errors
from textual payloads additionally carry ``"position": {"line",
"column"}``.  See ``docs/API.md`` for the endpoint reference and
``docs/SERVING.md`` for the process model.
"""

from __future__ import annotations

import json
import re
import signal
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Optional

from repro import __version__
from repro.api.service import (
    API_VERSION,
    CLIENT_ERRORS,
    BadRequest,
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

#: The one route table: per path, the request kind each method asks for.
#: ``{name}`` is one path segment, a database name.
ROUTES = {
    f"/{API_VERSION}/explain": {"POST": "explain"},
    f"/{API_VERSION}/query": {"POST": "query"},
    f"/{API_VERSION}/health": {"GET": "health"},
    f"/{API_VERSION}/stats": {"GET": "stats"},
    f"/{API_VERSION}/scenarios": {"GET": "scenarios"},
    f"/{API_VERSION}/databases": {"GET": "databases"},
    f"/{API_VERSION}/databases/{{name}}": {"GET": "database-info", "PUT": "register"},
    f"/{API_VERSION}/databases/{{name}}/mutate": {"POST": "mutate"},
}

_ROUTE_PATTERNS = [
    (re.compile(path.replace("{name}", "(?P<name>[^/]+)")), methods)
    for path, methods in ROUTES.items()
]

#: Kinds that read a request body, and the field of the dispatched
#: document that holds it (None: the body is the document).
_BODY_FIELD = {"explain": None, "query": None, "register": "database", "mutate": "mutation"}

#: Kinds ``/v1/stats`` counts as requests, whatever their status.
COUNTED_KINDS = frozenset({"explain", "query", "mutate"})


def error_body(error_type: str, message: str) -> dict:
    """The JSON error document ``{"error": {"type", "message"}}``."""
    return {"error": {"type": error_type, "message": message}}


def error_document(exc: BaseException) -> dict:
    """The JSON error body for one exception.

    Language errors (:class:`~repro.lang.errors.LangError`) carry a source
    position; it is surfaced as ``{"line", "column"}`` so HTTP clients get
    the same diagnostics the CLI and REPL render as carets.
    """
    document = error_body(type(exc).__name__, str(exc))
    position = getattr(exc, "position", None)
    if callable(position):
        document["error"]["position"] = position()
    return document


def health_document(status: str, cache: dict, databases: "list[str]", **extra) -> dict:
    """The ``/v1/health`` body; *extra* holds a dispatcher's own fields."""
    return {
        "format": WIRE_VERSION,
        "kind": "health",
        "status": status,
        "version": __version__,
        "api_version": API_VERSION,
        "wire_format": WIRE_VERSION,
        **extra,
        "cache": cache,
        "databases": databases,
    }


def answer(service: ExplanationService, kind: str, document: dict) -> "tuple[int, dict]":
    """Answer one request on *service*: ``(http status, response document)``.

    *kind* is a route's request kind other than ``health``, ``stats`` and
    ``scenarios``.  Explain and query take the request body as *document*;
    the database kinds take ``{"name"}`` plus the body under ``database``
    (register) or ``mutation`` (mutate).  Never raises: client errors map
    to 400, unknown database names to 404, anything else to 500.  Both
    dispatchers answer through here, so both serving modes map errors
    alike.
    """
    try:
        if kind == "explain":
            return 200, service.explain(ExplainRequest.from_json(document)).to_json()
        if kind == "query":
            return 200, _run_query(service, document)
        if kind == "databases":
            return 200, service.database_listing()
        name = document["name"]
        try:
            if kind == "register":
                service.register_database(name, database_from_json(document["database"]))
            elif kind == "mutate":
                service.mutate_database(name, mutation_from_json(document["mutation"]))
            elif kind != "database-info":
                raise ValueError(f"unknown request kind {kind!r}")
            return 200, service.database_info(name)
        except UnknownDatabase as exc:
            return 404, error_document(exc)
    except CLIENT_ERRORS as exc:
        return 400, error_document(exc)
    except Exception as exc:  # noqa: BLE001 - every request gets an answer
        return 500, error_document(exc)


def _run_query(service: ExplanationService, document: dict) -> dict:
    """Evaluate a ``query-request`` wire document into a ``query-response``."""
    check_envelope(document, "query-request")
    options = ExplainOptions.from_json(document.get("options"))
    if "text" in document:
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


class LocalDispatcher:
    """Answers every request in this process, on one :class:`ExplanationService`.

    Offers the dispatcher surface :class:`_Handler` calls —
    :meth:`handle`, :meth:`health`, :meth:`stats`, :meth:`close` and
    ``counters`` — like :class:`~repro.api.sharded.ShardDispatcher`.
    """

    def __init__(self, service: ExplanationService):
        self.service = service
        self.counters = ServingCounters()

    def handle(self, kind: str, document: dict) -> "tuple[int, dict, Optional[dict]]":
        """Answer one request: ``(status, body, headers)``; counts the
        :data:`COUNTED_KINDS` in ``/v1/stats`` before returning."""
        started = perf_counter()
        status, body = answer(self.service, kind, document)
        if kind in COUNTED_KINDS:
            self.counters.record_outcome(status, perf_counter() - started)
        return status, body, None

    def health(self) -> dict:
        """The ``/v1/health`` document."""
        return health_document(
            "ok", self.service.cache_stats(), self.service.databases()
        )

    def stats(self) -> dict:
        """The ``/v1/stats`` document (see :func:`serving_stats_to_json`)."""
        cache = self.service.cache_stats()
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else None
        serving = {"mode": "inprocess", "cache": cache, "state": self.service.state_stats()}
        serving.update(self.counters.snapshot())
        return serving_stats_to_json(serving)

    def close(self) -> None:
        """Shut the service down."""
        self.service.close()


class ApiServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one dispatcher (either mode)."""

    daemon_threads = True

    def __init__(
        self,
        address,
        dispatcher,
        quiet: bool = True,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.dispatcher = dispatcher
        self.quiet = quiet
        self.max_body_bytes = max_body_bytes
        super().__init__(address, _Handler)

    @property
    def service(self) -> ExplanationService:
        """The in-process dispatcher's service (in-process servers only)."""
        return self.dispatcher.service


def _route(path: str) -> "tuple[Optional[dict], Optional[str]]":
    """The :data:`ROUTES` entry matching *path* and the database name in
    it, or ``(None, None)``."""
    for pattern, methods in _ROUTE_PATTERNS:
        match = pattern.fullmatch(path)
        if match is not None:
            return methods, match.groupdict().get("name")
    return None, None


class _Handler(BaseHTTPRequestHandler):
    """Answers ``/v1/...`` requests through :data:`ROUTES` and the server's
    dispatcher."""

    server: ApiServer  # narrowed type for the attribute lookups below

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Answer one GET."""
        self._serve()

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        """Answer one PUT."""
        self._serve()

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Answer one POST."""
        self._serve()

    def _serve(self) -> None:
        try:
            status, body, headers = self._answer()
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, body, headers = 500, error_document(exc), None
        self._send_json(status, body, headers)

    def _answer(self) -> "tuple[int, dict, Optional[dict]]":
        started = perf_counter()
        methods, name = _route(self.path)
        if methods is None:
            return 404, error_body("NotFound", f"no route {self.path}"), None
        kind = methods.get(self.command)
        if kind is None:
            return (
                405,
                error_body("MethodNotAllowed", "use " + " or ".join(methods)),
                {"Allow": ", ".join(methods)},
            )
        dispatcher = self.server.dispatcher
        if kind == "health":
            return 200, dispatcher.health(), None
        if kind == "stats":
            return 200, dispatcher.stats(), None
        if kind == "scenarios":
            listing = {"format": WIRE_VERSION, "kind": "scenarios",
                       "scenarios": scenarios_listing()}
            return 200, listing, None
        document = {} if name is None else {"name": name}
        if kind in _BODY_FIELD:
            try:
                body = self._read_body()
            except ValueError as exc:
                if kind in COUNTED_KINDS:
                    dispatcher.counters.record_outcome(400, perf_counter() - started)
                return 400, error_document(exc), None
            field = _BODY_FIELD[kind]
            document = body if field is None else dict(document, **{field: body})
        return dispatcher.handle(kind, document)

    def send_error(self, code, message=None, explain=None):
        """Answer the errors the stdlib raises itself (an unsupported
        method, a malformed request line) with the JSON error document."""
        phrase = HTTPStatus(code).phrase
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._send_json(
            code,
            error_body(phrase.replace(" ", ""), message or phrase),
            {"Connection": "close"},
        )

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Suppress per-request stderr noise unless the server is verbose."""
        if not self.server.quiet:
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
        if self.command != "HEAD":
            self.wfile.write(body)

    def _read_body(self) -> dict:
        limit = self.server.max_body_bytes
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


def make_server(
    service: Optional[ExplanationService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> ApiServer:
    """Build a bound (but not yet serving) in-process API server.

    ``port=0`` binds an ephemeral free port — read it back from
    ``server.server_address`` (the pattern the tests and the CI smoke
    script use).
    """
    return ApiServer(
        (host, port),
        LocalDispatcher(service or ExplanationService()),
        quiet=quiet,
        max_body_bytes=max_body_bytes,
    )


def serve(server: ApiServer, detail: str = "") -> int:
    """Run *server* until Ctrl-C or SIGTERM, then close it and its
    dispatcher (the CLI entry point of both modes).

    *detail* follows the address on the banner line (the sharded mode's
    worker count and queue depth).
    """
    host, port = server.server_address[:2]
    print(f"repro api {API_VERSION} (wire format {WIRE_VERSION}) "
          f"listening on http://{host}:{port}{detail}")
    print(f"  POST /{API_VERSION}/explain   POST /{API_VERSION}/query   "
          f"GET /{API_VERSION}/scenarios   GET /{API_VERSION}/health   "
          f"GET /{API_VERSION}/stats")
    print(f"  GET/PUT /{API_VERSION}/databases[/{{name}}]   "
          f"POST /{API_VERSION}/databases/{{name}}/mutate")

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        # SIGTERM (process managers, CI teardown) shuts down like Ctrl-C:
        # the service closes and no worker process is stranded.
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
