"""One HTTP front end: the route table answers alike in both serving modes.

Every method × path pair below goes to an in-process server
(``make_server``) and to a one-worker sharded server
(``make_sharded_server``).  Both must give the same status, the same
``Allow`` header and the same error body, and every answer is JSON: a known
path with a wrong method is a 405 naming the methods it takes, an unknown
path a 404, and a method no path takes a JSON 501.  Health and stats differ
by mode, so they are compared on their shared fields only.

``test_taken_port_stops_the_workers``: a sharded server that cannot bind
stops the workers it started, so ``serve --processes N`` on a taken port
exits with the error instead of hanging.

``TestTraceHooks`` keeps live the names that perfbench's ``--trace 1``
mode wraps from outside: the handler's ``do_POST`` / ``do_PUT`` and five
wire functions looked up as globals of :mod:`repro.api.http`.
"""

import http.client
import json
import multiprocessing
import socket
import threading
from collections import Counter

import pytest

from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.operators import Query, Selection, TableAccess
from repro.api import Client, ExplainRequest, ShardedConfig
from repro.api import http as api_http
from repro.api.http import make_server
from repro.api.sharded import make_sharded_server
from repro.engine.database import Database
from repro.nested.values import Tup
from repro.wire import serving_stats_from_json

METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH")
PATHS = (
    "/v1/explain",
    "/v1/query",
    "/v1/health",
    "/v1/stats",
    "/v1/scenarios",
    "/v1/databases",
    "/v1/databases/x",
    "/v1/databases/x/mutate",
    "/v1/nope",
    "/v2/explain",
)
#: The ``Allow`` header of each known path.
ALLOW = {
    "/v1/explain": "POST",
    "/v1/query": "POST",
    "/v1/health": "GET",
    "/v1/stats": "GET",
    "/v1/scenarios": "GET",
    "/v1/databases": "GET",
    "/v1/databases/x": "GET, PUT",
    "/v1/databases/x/mutate": "POST",
}
#: The ``/v1/stats`` serving fields both modes count alike.
SHARED_STATS = (
    "requests", "completed", "errors", "rejected", "coalesced", "timeouts", "cache", "state"
)


def _serving(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def _stop(server):
    server.shutdown()
    server.server_close()
    server.dispatcher.close()


def _call(port: int, method: str, path: str) -> dict:
    """One request (a ``{}`` body on every method but GET) and its answer."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        if method == "GET":
            conn.request(method, path)
        else:
            conn.request(method, path, body=b"{}",
                         headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    return {
        "status": response.status,
        "content_type": response.getheader("Content-Type"),
        "allow": response.getheader("Allow"),
        "body": json.loads(raw),
    }


def _matrix(server) -> dict:
    port = server.server_address[1]
    return {(m, p): _call(port, m, p) for p in PATHS for m in METHODS}


@pytest.fixture(scope="module")
def answers():
    """The matrix's answers from each mode: ``(in-process, sharded)``."""
    inprocess = _serving(make_server())
    try:
        local = _matrix(inprocess)
    finally:
        _stop(inprocess)
    sharded = _serving(make_sharded_server(ShardedConfig(processes=1, cache_size=8)))
    try:
        remote = _matrix(sharded)
    finally:
        _stop(sharded)
    return local, remote


CASES = [(m, p) for p in PATHS for m in METHODS]


@pytest.mark.parametrize("method,path", CASES)
def test_both_modes_answer_alike(answers, method, path):
    local, remote = answers[0][method, path], answers[1][method, path]
    assert local["content_type"] == remote["content_type"] == "application/json"
    assert local["status"] == remote["status"]
    assert local["allow"] == remote["allow"]
    if local["status"] >= 400:
        assert local["body"] == remote["body"]
        assert set(local["body"]) == {"error"} and local["body"]["error"]["type"]
    elif path == "/v1/stats":
        (serving_a, _), (serving_b, _) = (
            serving_stats_from_json(local["body"]),
            serving_stats_from_json(remote["body"]),
        )
        assert {k: serving_a[k] for k in SHARED_STATS} == {
            k: serving_b[k] for k in SHARED_STATS
        }
    else:  # health, scenarios and listings: each mode may add fields
        shared = set(local["body"]) & set(remote["body"])
        assert shared >= {"format", "kind"}
        assert {k: local["body"][k] for k in shared} == {
            k: remote["body"][k] for k in shared
        }


@pytest.mark.parametrize("method,path", CASES)
def test_status_follows_the_route_table(answers, method, path):
    answer = answers[0][method, path]
    if method in ("DELETE", "PATCH"):
        assert answer["status"] == 501
        assert answer["body"]["error"]["type"] == "NotImplemented"
        assert answer["allow"] is None
    elif path not in ALLOW:
        assert answer["status"] == 404
        assert answer["body"]["error"]["type"] == "NotFound"
    elif method not in ALLOW[path].split(", "):
        assert answer["status"] == 405
        assert answer["allow"] == ALLOW[path]
        assert answer["body"]["error"] == {
            "type": "MethodNotAllowed",
            "message": "use " + ALLOW[path].replace(", ", " or "),
        }
    else:
        # Allowed: GETs answer (the database x is unknown: 404); the
        # POSTs and PUTs carry a body that is no valid document: 400.
        expected = {"GET": 404 if path == "/v1/databases/x" else 200}
        assert answer["status"] == expected.get(method, 400)


def test_taken_port_stops_the_workers():
    before = set(multiprocessing.active_children())
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        with pytest.raises(OSError):
            make_sharded_server(ShardedConfig(processes=1), port=taken.getsockname()[1])
    assert set(multiprocessing.active_children()) <= before


class TestTraceHooks:
    def test_requests_pass_through_the_wrapped_names(self, monkeypatch):
        fired: Counter = Counter()

        def wrap(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                fired[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("do_POST", "do_PUT"):
            wrap(api_http._Handler, name)
        wire_names = (
            "database_from_json",
            "query_from_json",
            "mutation_from_json",
            "relation_to_json",
            "metrics_to_json",
        )
        for name in wire_names:
            wrap(api_http, name)

        server = _serving(make_server())
        try:
            client = Client(f"http://127.0.0.1:{server.server_address[1]}", timeout=60)
            db = Database({"T": [Tup(a=1, b="x"), Tup(a=5, b="y")]})
            query = Query(Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(3))))
            client.register_database("hooks", db)
            client.explain(request=ExplainRequest(query=query, nip=Tup(a=1, b="x"),
                                                  database="hooks"))
            client.query(query, "hooks")
            client.mutate("hooks", inserts={"T": [{"a": 9, "b": "z"}]})
        finally:
            _stop(server)
        assert set(fired) == {"do_POST", "do_PUT", *wire_names}, fired
