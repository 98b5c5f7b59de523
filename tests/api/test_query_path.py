"""``POST /v1/query`` runs the answer path's one configuration.

Every served query runs like the ``Q(D)`` of a why-not question: the
optimizer's rewrite on the kernel executor, one partition
(``Executor()``), in both serving modes.  The retired ``optimize`` and
``partitions`` options are checked, then ignored: with and without them a
query gets the same rows and the same metrics shape, and an explain the
same routing key, cache entry and result document.
"""

import http.client
import json
import threading

import pytest

from repro.api import ShardedConfig
from repro.api.http import make_server
from repro.api.sharded import make_sharded_server, routing_key
from repro.scenarios import SCENARIOS, get_scenario
from repro.wire import (
    WIRE_VERSION,
    database_to_json,
    query_to_json,
    relation_from_json,
    value_to_json,
)
from repro.wire.payloads import alternatives_to_json

#: Scenario databases are built at this scale (GenTPCH/GenSocial: SF).
SCALE = 3
RETIRED = {"optimize": False, "partitions": 7}


def _call(port: int, method: str, path: str, document=None) -> "tuple[int, dict]":
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        body = None if document is None else json.dumps(document).encode()
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture(scope="module", params=["inprocess", "sharded"])
def port(request):
    """A serving port of each mode, with every scenario database registered
    under the scenario's name."""
    if request.param == "inprocess":
        server = make_server()
    else:
        server = make_sharded_server(ShardedConfig(processes=1, cache_size=64))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    port = server.server_address[1]
    try:
        for name in sorted(SCENARIOS):
            db = get_scenario(name).make_db(SCALE)
            status, body = _call(port, "PUT", f"/v1/databases/{name}", database_to_json(db))
            assert status == 200, body
        yield port
    finally:
        server.shutdown()
        server.server_close()
        server.dispatcher.close()


def _query(name: str, options=None) -> dict:
    document = {
        "format": WIRE_VERSION,
        "kind": "query-request",
        "query": query_to_json(get_scenario(name).make_query()),
        "database": name,
    }
    if options is not None:
        document["options"] = options
    return document


def _shape(metrics: dict) -> tuple:
    """A metrics document without its clocks and cache counters."""
    operators = {
        op: (m["label"], m["rows_in"], m["rows_out"], m["partitions"], m["origins"])
        for op, m in metrics["operators"].items()
    }
    optimizer = {k: v for k, v in metrics["optimizer"].items() if k != "rewrite_seconds"}
    return sorted(metrics), operators, optimizer, sorted(metrics["kernels"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_query_runs_the_answer_path(port, name):
    scenario = get_scenario(name)
    expected = scenario.make_query().evaluate(scenario.make_db(SCALE))
    status, body = _call(port, "POST", "/v1/query", _query(name))
    assert status == 200, body
    assert relation_from_json(body["result"]) == expected
    metrics = body["metrics"]
    assert metrics["optimizer"] is not None and "rule_fires" in metrics["optimizer"]
    assert metrics["operators"]
    assert {m["partitions"] for m in metrics["operators"].values()} == {1}


@pytest.mark.parametrize("name", ["Q3", "T2", "GenTPCH"])
def test_retired_options_change_no_query_answer(port, name):
    answers = []
    for options in (None, {}, RETIRED):
        status, body = _call(port, "POST", "/v1/query", _query(name, options))
        assert status == 200, body
        answers.append((relation_from_json(body["result"]), _shape(body["metrics"])))
    assert answers[0] == answers[1] == answers[2]


def test_retired_options_change_no_explain_answer(port):
    scenario = get_scenario("Q10")
    question = scenario.question(SCALE)
    plain = {
        "format": WIRE_VERSION,
        "kind": "explain-request",
        "query": query_to_json(question.query),
        "nip": value_to_json(question.nip),
        "database": "Q10",
        "alternatives": alternatives_to_json(scenario.alternatives),
        "options": {},
    }
    retired = {**plain, "options": dict(RETIRED)}
    assert routing_key(retired) == routing_key(plain)
    status, first = _call(port, "POST", "/v1/explain", retired)
    assert status == 200, first
    status, second = _call(port, "POST", "/v1/explain", plain)
    assert status == 200, second
    assert not first["cached"] and second["cached"]
    assert second["cache"]["size"] == first["cache"]["size"]
    for document in (first, second):
        document["result"]["timings"] = {}
    assert first["result"] == second["result"]
