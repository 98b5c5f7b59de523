"""Request options are checked when they are decoded.

Every ill-typed or out-of-range option answers 400 ``BadRequest`` on
``/v1/explain`` and ``/v1/query`` — on a cold server, and again once the
same request without the bad option has been answered (a warm cache and a
planned query) — in both serving modes.  The retired ``backend`` and
``workers`` fields of format-2 requests are accepted and ignored: they
change neither the routing key, nor the cache entry, nor the explanations.
"""

import http.client
import json
import threading

import pytest

from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.operators import Query, Selection, TableAccess
from repro.api import Client, ExplainRequest, ExplanationService, ShardedConfig
from repro.api.http import make_server
from repro.api.service import MAX_PARTITIONS, BadRequest, ExplainOptions
from repro.api.sharded import make_sharded_server, routing_key
from repro.engine.database import Database
from repro.nested.values import Tup
from repro.wire import WIRE_VERSION, query_to_json, result_to_json, value_to_json

#: One bad value per case; the ids name what is wrong.
BAD_OPTIONS = {
    "backend-unknown": {"backend": "bogus"},
    "backend-number": {"backend": 3},
    "workers-string": {"backend": "process", "workers": "x"},
    "workers-zero": {"workers": 0},
    "workers-bool": {"workers": True},
    "optimize-string": {"optimize": "yes"},
    "optimize-int": {"optimize": 1},
    "revalidate-string": {"revalidate": "no"},
    "revalidate-null": {"revalidate": None},
    "use_schema_alternatives-int": {"use_schema_alternatives": 0},
    "max_sas-zero": {"max_sas": 0},
    "max_sas-string": {"max_sas": "x"},
    "max_sas-bool": {"max_sas": True},
    "max_sas-float": {"max_sas": 2.0},
    "partitions-string": {"partitions": "x"},
    "partitions-zero": {"partitions": 0},
    "partitions-above-cap": {"partitions": MAX_PARTITIONS + 1},
    "partitions-million": {"partitions": 1_000_000},
    "partitions-bool": {"partitions": True},
}
CASES = list(BAD_OPTIONS)

DB = "opts"
QUERY = Query(Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(3))))


def _post(port: int, path: str, document: dict) -> "tuple[int, dict]":
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", path, body=json.dumps(document).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _register(port: int) -> None:
    db = Database({"T": [Tup(a=i, b=f"v{i}") for i in range(8)]})
    Client(f"http://127.0.0.1:{port}", timeout=60).register_database(DB, db)


@pytest.fixture(scope="module", params=["inprocess", "sharded"])
def port(request):
    """A serving port of each mode, with the database ``opts`` registered."""
    if request.param == "inprocess":
        server = make_server()
    else:
        server = make_sharded_server(ShardedConfig(processes=1, cache_size=64))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        _register(server.server_address[1])
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        server.dispatcher.close()


def _explain(index: int, options: dict) -> dict:
    # A NIP constant of its own per case: the first (bad) request meets a
    # cold cache, the good one fills it, the second bad one meets it warm.
    return {"format": WIRE_VERSION, "kind": "explain-request",
            "query": query_to_json(QUERY), "nip": value_to_json(Tup(a=100 + index, b="x")),
            "database": DB, "options": options}


def _query(options: dict) -> dict:
    return {"format": WIRE_VERSION, "kind": "query-request",
            "query": query_to_json(QUERY), "database": DB, "options": options}


def _assert_bad_request(status: int, body: dict, case: str) -> None:
    assert status == 400, (case, status, body)
    assert body["error"]["type"] == "BadRequest", (case, body)


@pytest.mark.parametrize("case", CASES)
def test_bad_explain_option_is_400_cold_and_warm(port, case):
    index = CASES.index(case)
    bad = BAD_OPTIONS[case]
    _assert_bad_request(*_post(port, "/v1/explain", _explain(index, bad)), case)
    status, body = _post(port, "/v1/explain", _explain(index, {}))
    assert status == 200, body
    status, body = _post(port, "/v1/explain", _explain(index, {}))
    assert status == 200 and body["cached"], body
    _assert_bad_request(*_post(port, "/v1/explain", _explain(index, bad)), case)


@pytest.mark.parametrize("case", CASES)
def test_bad_query_option_is_400_cold_and_warm(port, case):
    bad = BAD_OPTIONS[case]
    _assert_bad_request(*_post(port, "/v1/query", _query(bad)), case)
    status, body = _post(port, "/v1/query", _query({}))
    assert status == 200, body
    _assert_bad_request(*_post(port, "/v1/query", _query(bad)), case)


def test_too_many_alternatives_is_400(port):
    """A valid ``max_sas`` that a request's raw SA candidates exceed
    eightfold (Q4 has 12 > 8 for ``max_sas: 1``) is the client's to fix:
    400 ``TooManyAlternatives``, while ``max_sas: 2`` answers 200."""

    def request(max_sas: int) -> dict:
        return ExplainRequest(
            scenario="Q4", scale=10, options=ExplainOptions(max_sas=max_sas)
        ).to_json()

    status, body = _post(port, "/v1/explain", request(1))
    assert status == 400, body
    assert body["error"]["type"] == "TooManyAlternatives", body
    assert "exceed the cap" in body["error"]["message"]
    status, body = _post(port, "/v1/explain", request(2))
    assert status == 200, body


@pytest.mark.parametrize("case", CASES)
def test_from_json_rejects(case):
    with pytest.raises(BadRequest):
        ExplainOptions.from_json(BAD_OPTIONS[case])


@pytest.mark.parametrize(
    "options",
    [
        {"backend": None, "workers": None},
        {"backend": "serial", "workers": 1},
        {"backend": "process", "workers": 4},
        {"partitions": 1, "optimize": None},
        {"partitions": MAX_PARTITIONS, "optimize": False, "max_sas": 1},
    ],
)
def test_good_options_decode(options):
    decoded = ExplainOptions.from_json(options)
    assert decoded.partitions == options.get("partitions")
    assert "backend" not in decoded.to_json() and "workers" not in decoded.to_json()


def test_retired_backend_fields_change_nothing():
    """A format-2 explain that still carries ``{"backend": "process",
    "workers": 4}`` (the API docs' example while that backend existed):
    same routing key, same cache entry, same explanations as without it."""
    plain = ExplainRequest(scenario="Q10", scale=20).to_json()
    retired = json.loads(json.dumps(plain))
    retired["options"].update(backend="process", workers=4)
    assert routing_key(retired) == routing_key(plain)

    service = ExplanationService(cache_size=4)
    first = service.explain(ExplainRequest.from_json(retired))
    second = service.explain(ExplainRequest.from_json(plain))
    assert not first.cached and second.cached
    assert service.cache_stats()["size"] == 1
    fresh = ExplanationService(cache_size=0).explain(ExplainRequest.from_json(plain))
    documents = [result_to_json(r.result) for r in (first, second, fresh)]
    for document in documents:
        document["timings"] = None
    assert documents[0] == documents[1] == documents[2]
