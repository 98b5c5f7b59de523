"""Malformed register and mutate bodies answer 400 and change nothing.

A row that does not fit its relation's schema, a row count that is not an
integer and a table schema that is not a type encoding are the client's to
fix: both serving modes answer 400 and leave the registered database at its
version.
"""

import http.client
import json
import threading

import pytest

from repro.api import ShardedConfig
from repro.api.http import make_server
from repro.api.sharded import make_sharded_server
from repro.scenarios import get_scenario
from repro.wire import database_to_json

DB = "db"
DOCUMENT = database_to_json(get_scenario("Q1").make_db(20))
ROW = DOCUMENT["tables"]["nestedOrders"]["rows"][0][0]


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
    """A serving port of each mode, with Q1 at scale 20 registered as ``db``."""
    if request.param == "inprocess":
        server = make_server()
    else:
        server = make_sharded_server(ShardedConfig(processes=1))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    port = server.server_address[1]
    try:
        status, body = _call(port, "PUT", f"/v1/databases/{DB}", DOCUMENT)
        assert status == 200, body
        yield port
    finally:
        server.shutdown()
        server.server_close()
        server.dispatcher.close()


def _mutation(rows) -> dict:
    return {"format": 2, "kind": "mutation", "inserts": {"nestedOrders": rows}}


def _register(**table_fields) -> dict:
    document = json.loads(json.dumps(DOCUMENT))
    document["tables"]["nestedOrders"].update(table_fields)
    return document


#: (method, path suffix, body) per malformed case.
CASES = {
    "mutate-row-off-schema": ("POST", "/mutate", _mutation([[{"tup": [["zzz", 1]]}, 1]])),
    "mutate-count-string": ("POST", "/mutate", _mutation([[ROW, "x"]])),
    "register-count-string": ("PUT", "", _register(rows=[[ROW, "x"]])),
    "register-schema-int": ("PUT", "", _register(schema=7)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_body_is_400_and_changes_nothing(port, case):
    method, suffix, body = CASES[case]
    status, before = _call(port, "GET", f"/v1/databases/{DB}")
    assert status == 200, before
    status, answer = _call(port, method, f"/v1/databases/{DB}{suffix}", body)
    assert status == 400, (case, status, answer)
    assert answer["error"]["type"] == "ValueError", answer
    status, after = _call(port, "GET", f"/v1/databases/{DB}")
    assert status == 200 and after == before
