"""A small HTTP client for the serving front end (stdlib ``urllib`` only).

:class:`Client` speaks the versioned wire format against a running
``python -m repro serve`` instance, so a Python caller on another machine
gets the same typed objects the in-process API returns::

    from repro.api import Client
    client = Client("http://127.0.0.1:8080")
    client.health()["status"]                     # "ok"
    response = client.explain(scenario="Q1", scale=20)
    response.explanation_sets()                   # ranked label sets
    response.cached, response.cache               # LRU serving metadata

``explain`` also accepts a full :class:`~repro.api.service.ExplainRequest`
(inline database and all), and ``query`` evaluates a plain plan remotely,
returning the decoded result bag plus execution metrics.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence

from repro.api.service import API_VERSION, ExplainOptions, ExplainRequest
from repro.engine.metrics import ExecutionMetrics
from repro.nested.values import Bag
from repro.whynot.approximate import Explanation
from repro.wire import (
    check_envelope,
    database_info_from_json,
    database_to_json,
    explanation_from_json,
    metrics_from_json,
    mutation_to_json,
    query_to_json,
    relation_from_json,
    text_query_request,
)


class ApiError(RuntimeError):
    """A non-2xx response from the server (carries status + typed payload).

    ``retry_after`` holds the server's ``Retry-After`` hint in seconds when
    one was sent (backpressure 503s always carry it), else ``None``.
    ``position`` carries the server's ``{"line", "column"}`` source
    position when the error came from parsing/validating a textual ``.rq``
    payload, else ``None``.
    """

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        retry_after: "Optional[float]" = None,
        position: "Optional[dict]" = None,
    ):
        super().__init__(f"HTTP {status} {error_type}: {message}")
        self.status = status
        self.error_type = error_type
        self.retry_after = retry_after
        self.position = position


@dataclass
class RemoteExplainResponse:
    """A decoded ``explain-response`` document (client-side view).

    ``raw`` keeps the full wire document; the accessors decode the parts a
    caller compares against in-process results.
    """

    raw: dict

    @property
    def cached(self) -> bool:
        """True when the server answered from its LRU without re-tracing."""
        return self.raw["cached"]

    @property
    def satisfied(self) -> bool:
        """True for a typed "question satisfied" answer: the request opted
        in via ``satisfied_ok`` and the "missing" tuple is actually present
        (e.g. after a mutation inserted a row answering the question).  Such
        responses carry ``witnesses`` instead of ``result``."""
        return bool(self.raw.get("satisfied", False))

    @property
    def witnesses(self) -> "list[dict]":
        """Matching result tuples of a satisfied answer (wire-encoded)."""
        return self.raw.get("witnesses", [])

    @property
    def cache(self) -> dict:
        """Server-wide cache counters at response time (hits/misses/size)."""
        return self.raw["cache"]

    @property
    def n_sas(self) -> int:
        """Number of schema alternatives the server traced."""
        return self.raw["result"]["n_sas"]

    @property
    def timings(self) -> dict:
        """Per-step timings of the run that produced this result.

        A cache hit returns the stored result unchanged, so these describe
        the original (miss) run — use :attr:`cached` to tell the cases
        apart.
        """
        return self.raw["result"]["timings"]

    def explanations(self) -> "list[Explanation]":
        """The ranked explanations as value objects."""
        return [explanation_from_json(e) for e in self.raw["result"]["explanations"]]

    def explanation_sets(self) -> "list[frozenset[str]]":
        """Ranked explanations as label sets (byte-comparable to in-process)."""
        return [frozenset(e["labels"]) for e in self.raw["result"]["explanations"]]

    def summaries(self) -> "Optional[list]":
        """Decoded summary groups (``options.summarize`` requests them).

        Returns ``None`` when the response carries no ``summaries`` section
        (summarization was not requested), else the decoded
        :class:`~repro.whynot.summarize.ExplanationSummary` list.
        """
        from repro.wire import summary_from_json

        raw = self.raw["result"].get("summaries")
        if raw is None:
            return None
        return [summary_from_json(s) for s in raw]


class Client:
    """Synchronous wire-format client for one serving endpoint.

    ``timeout`` bounds every socket operation (connect + read).  With
    ``retries > 0`` the client re-issues a request after a ``503`` (waiting
    out the server's ``Retry-After`` hint, capped by ``max_retry_wait``) or
    after a transport-level failure (connection refused/reset while a
    sharded worker respawns), sleeping ``retry_backoff`` seconds between
    transport retries.  Anything else — 4xx, 500 — is never retried: those
    are deterministic answers, not transient load.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 120.0,
        retries: int = 0,
        retry_backoff: float = 0.5,
        max_retry_wait: float = 30.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.max_retry_wait = max_retry_wait
        #: Attempts the most recent ``_request`` used (observability/tests).
        self.last_attempts = 0

    # -- transport ------------------------------------------------------------

    def _request_once(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        url = f"{self.base_url}/{API_VERSION}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body, ensure_ascii=True).encode("ascii")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read()).get("error", {})
            except Exception:  # noqa: BLE001 - error body may be anything
                payload = {}
            retry_after = exc.headers.get("Retry-After") if exc.headers else None
            raise ApiError(
                exc.code,
                payload.get("type", "Unknown"),
                payload.get("message", str(exc)),
                retry_after=float(retry_after) if retry_after else None,
                position=payload.get("position"),
            ) from None

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        attempts = self.retries + 1
        for attempt in range(1, attempts + 1):
            self.last_attempts = attempt
            try:
                return self._request_once(method, path, body)
            except ApiError as exc:
                if exc.status != 503 or attempt == attempts:
                    raise
                wait = exc.retry_after if exc.retry_after is not None else self.retry_backoff
                time.sleep(min(wait, self.max_retry_wait))
            except urllib.error.URLError:
                # Connection-level failure (refused/reset) — e.g. the server
                # is still booting or a sharded worker front end restarted.
                if attempt == attempts:
                    raise
                time.sleep(min(self.retry_backoff, self.max_retry_wait))

    # -- endpoints ------------------------------------------------------------

    def health(self) -> dict:
        """``GET /v1/health`` — liveness, versions and cache counters."""
        return self._request("GET", "/health")

    def scenarios(self) -> "list[dict]":
        """``GET /v1/scenarios`` — the server's registered paper scenarios."""
        return self._request("GET", "/scenarios")["scenarios"]

    def explain(
        self,
        request: Optional[ExplainRequest] = None,
        scenario: Optional[str] = None,
        scale: Optional[int] = None,
        options: Optional[ExplainOptions] = None,
        text: Optional[str] = None,
        database: "str | Any | None" = None,
        summarize: Any = None,
    ) -> RemoteExplainResponse:
        """``POST /v1/explain`` — answer a why-not question remotely.

        Pass a full :class:`ExplainRequest`, the scenario shorthand
        (``scenario=`` + optional ``scale=``/``options=``), or the textual
        form (``text=`` an ``.rq`` program with a ``whynot`` block,
        ``database=`` a registered name or inline database).  ``summarize``
        is a shorthand for ``ExplainOptions(summarize=...)`` — ``True`` or a
        spec object requests ontology-aware summary groups, retrievable via
        :meth:`RemoteExplainResponse.summaries`.
        """
        if summarize is not None:
            if request is not None:
                request = replace(
                    request, options=replace(request.options, summarize=summarize)
                )
            else:
                options = replace(options or ExplainOptions(), summarize=summarize)
        if request is None:
            if text is not None:
                if database is None:
                    raise ValueError("explain(text=...) needs a database")
                request = ExplainRequest(
                    text=text, database=database, options=options or ExplainOptions()
                )
            elif scenario is not None:
                request = ExplainRequest(
                    scenario=scenario, scale=scale, options=options or ExplainOptions()
                )
            else:
                raise ValueError(
                    "explain needs a request, a scenario name, or text="
                )
        document = self._request("POST", "/explain", request.to_json())
        check_envelope(document, "explain-response")
        return RemoteExplainResponse(document)

    def query(self, query: Any, database: "str | Any") -> "tuple[Bag, ExecutionMetrics]":
        """``POST /v1/query`` — evaluate a plan remotely.

        ``database`` is a registered name or an inline
        :class:`~repro.engine.database.Database`; returns the decoded
        result bag and the server-side execution metrics.
        """
        body = {
            "format": 2,
            "kind": "query-request",
            "query": query_to_json(query),
            "database": (
                database if isinstance(database, str) else database_to_json(database)
            ),
        }
        document = self._request("POST", "/query", body)
        check_envelope(document, "query-response")
        return (
            relation_from_json(document["result"]),
            metrics_from_json(document["metrics"]),
        )

    def query_text(self, text: str, database: "str | Any") -> "tuple[Bag, ExecutionMetrics]":
        """``POST /v1/query`` with a textual ``.rq`` program body.

        The server parses, validates and lowers *text* against *database*
        and evaluates its query pipeline (a trailing ``whynot`` block is
        ignored — use :meth:`explain` with ``text=`` to answer it).
        Returns the decoded result bag and execution metrics, exactly like
        :meth:`query`.
        """
        body = text_query_request(text, database)
        document = self._request("POST", "/query", body)
        check_envelope(document, "query-response")
        return (
            relation_from_json(document["result"]),
            metrics_from_json(document["metrics"]),
        )

    # -- database registry -----------------------------------------------------

    def databases(self) -> "list[dict]":
        """``GET /v1/databases`` — every registered database's info doc.

        Each entry carries ``name``, ``version_id`` and per-table row counts
        plus relation version stamps (see :func:`database_info_to_json`).
        """
        document = self._request("GET", "/databases")
        check_envelope(document, "database-listing")
        return document["databases"]

    def database(self, name: str) -> dict:
        """``GET /v1/databases/{name}`` — one database's info document."""
        document = self._request("GET", f"/databases/{name}")
        check_envelope(document, "database-info")
        return database_info_from_json(document)

    def register_database(self, name: str, db: Any) -> dict:
        """``PUT /v1/databases/{name}`` — register *db* under *name*.

        Re-registering an existing name replaces its snapshot.  Returns the
        resulting info document.
        """
        document = self._request("PUT", f"/databases/{name}", database_to_json(db))
        check_envelope(document, "database-info")
        return database_info_from_json(document)

    def mutate(
        self,
        name: str,
        inserts: "Optional[dict]" = None,
        deletes: "Optional[dict]" = None,
        mutation: Optional[Any] = None,
    ) -> dict:
        """``POST /v1/databases/{name}/mutate`` — advance *name* one version.

        Pass per-relation row mappings (``inserts``/``deletes`` of plain
        dict rows, exactly like :meth:`Database.apply_mutations`) or a
        prebuilt :class:`~repro.engine.database.Mutation` via ``mutation=``.
        Returns the new version's info document; cached results for queries
        that read an untouched relation of *name* — and for every other
        database — stay warm on the server.
        """
        from repro.engine.database import Mutation

        if mutation is None:
            mutation = Mutation(inserts, deletes)
        document = self._request(
            "POST", f"/databases/{name}/mutate", mutation_to_json(mutation)
        )
        check_envelope(document, "database-info")
        return database_info_from_json(document)
