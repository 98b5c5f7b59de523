"""Stable public API: the request/response layer over the wire format.

Three pieces turn the in-process library into a serveable system:

* :class:`ExplanationService` — a stateful server core owning a database
  registry, request validation, a ``stable_hash``-keyed LRU result cache
  (hit/miss counters surfaced in every response) and concurrent dispatch
  (:mod:`repro.api.service`);
* the HTTP front end — ``python -m repro serve`` exposes
  ``POST /v1/explain``, ``POST /v1/query``, ``GET /v1/scenarios``,
  ``GET /v1/health``, ``GET /v1/stats`` and the ``/v1/databases`` registry
  over the versioned wire format of :mod:`repro.wire`
  (:mod:`repro.api.http`, stdlib ``ThreadingHTTPServer``): one handler
  and one route table over a dispatcher, in-process by default, while
  ``--processes N`` swaps in the sharded multi-process dispatcher
  (:mod:`repro.api.sharded`: consistent-hash routing, request coalescing,
  503 backpressure, crash respawn — see ``docs/SERVING.md``);
* :class:`Client` — a small ``urllib`` client (with 503-aware retries) so
  Python callers on other machines get the same typed objects back
  (:mod:`repro.api.client`).

The in-process entry points (:func:`repro.explain`,
:func:`repro.scenarios.run_scenario`) are unchanged — the service wraps
them, and the differential fuzz oracle cross-checks both paths
(``docs/API.md`` documents the format and its compatibility policy).
"""

from repro.api.client import ApiError, Client, RemoteExplainResponse
from repro.api.service import (
    API_VERSION,
    BadRequest,
    ExplainOptions,
    ExplainRequest,
    ExplainResponse,
    ExplanationService,
    UnknownDatabase,
)
from repro.api.sharded import ShardDispatcher, ShardedConfig, routing_key

__all__ = [
    "API_VERSION",
    "ApiError",
    "BadRequest",
    "Client",
    "ExplainOptions",
    "ExplainRequest",
    "ExplainResponse",
    "ExplanationService",
    "RemoteExplainResponse",
    "ShardDispatcher",
    "ShardedConfig",
    "UnknownDatabase",
    "routing_key",
]
