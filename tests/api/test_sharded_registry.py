"""Sharded database registry: replicated registration, mutation, convergence.

The sharded front end replicates every ``PUT /v1/databases/{name}`` and
``POST /v1/databases/{name}/mutate`` to **all** workers (registry writes are
broadcast, not routed), so a request that lands on any worker sees the same
version chain.  These tests pin:

* register through the front end → every worker holds the database
  (the info response carries a per-worker ``shards`` view and a
  ``converged`` flag that must be true);
* mutate through the front end → each worker advances, reads through any
  worker observe the new version, and version-aware caches invalidate;
* a crashed worker is respawned and the registry **replayed** from the
  dispatcher's log, so convergence survives worker loss;
* error mapping: 404 unknown name, 405 wrong method, client errors don't
  kill workers.

Crash/replay scenarios spawn their own short-lived servers; the happy-path
tests share the module server.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ApiError, Client, ExplainRequest, ShardedConfig
from repro.api.sharded import make_sharded_server
from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.operators import Projection, Query, Selection, TableAccess
from repro.engine.database import Database
from repro.nested.values import Tup


def _small_db():
    return Database({"T": [Tup(a=1, b="x"), Tup(a=5, b="y")],
                     "U": [Tup(c=7)]})


@pytest.fixture(scope="module")
def sharded_server():
    server = make_sharded_server(ShardedConfig(processes=2, cache_size=32))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.dispatcher.close()


@pytest.fixture(scope="module")
def sharded_client(sharded_server):
    host, port = sharded_server.server_address[:2]
    return Client(f"http://{host}:{port}")


class TestReplicatedRegistry:
    def test_register_reaches_every_worker(self, sharded_client):
        info = sharded_client.register_database("alpha", _small_db())
        assert info["version_id"] == 0
        assert info["converged"] is True
        assert len(info["shards"]) == 2
        assert all(s["version_id"] == 0 for s in info["shards"])

    def test_listing_reports_converged_views(self, sharded_client):
        sharded_client.register_database("listed", _small_db())
        document = sharded_client._request("GET", "/databases")
        assert document["converged"] is True
        names = {d["name"] for d in document["databases"]}
        assert "listed" in names

    def test_mutate_advances_all_workers(self, sharded_client):
        sharded_client.register_database("beta", _small_db())
        info = sharded_client.mutate("beta", inserts={"T": [{"a": 9, "b": "z"}]})
        assert info["version_id"] == 1
        assert info["converged"] is True
        assert all(s["version_id"] == 1 for s in info["shards"])
        # A read through the front end (any worker) sees the new version.
        assert sharded_client.database("beta")["version_id"] == 1

    def test_explain_by_name_tracks_mutations(self, sharded_client):
        sharded_client.register_database("gamma", _small_db())
        query = Query(
            Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(3)))
        )
        request = ExplainRequest(
            query=query, nip=Tup(a=1, b="x"), database="gamma"
        )
        sharded_client.explain(request=request)
        warm = sharded_client.explain(request=request)
        assert warm.cached
        # Insert a second passing row; the broadcast mutation must invalidate
        # the cached entry on whichever worker holds it.
        sharded_client.mutate("gamma", inserts={"T": [{"a": 7, "b": "w"}]})
        after = sharded_client.explain(request=request)
        assert not after.cached

    def test_mutate_through_one_worker_read_through_another(self, sharded_client):
        """Registry writes broadcast, so no matter which worker serves the
        follow-up read (forced here by distinct request contents routing to
        different workers), the version matches."""
        sharded_client.register_database("delta", _small_db())
        sharded_client.mutate("delta", deletes={"T": [{"a": 1, "b": "x"}]})
        # database-info requests are broadcast reads: every worker replies,
        # and the response only converges if both applied the mutation.
        info = sharded_client.database("delta")
        assert info["version_id"] == 1
        assert info["converged"] is True
        assert info["tables"]["T"]["rows"] == 1

    def test_health_reports_database_names(self, sharded_client):
        sharded_client.register_database("seen_in_health", _small_db())
        health = sharded_client.health()
        assert "seen_in_health" in health["databases"]

    def test_unknown_database_404(self, sharded_client):
        with pytest.raises(ApiError) as exc_info:
            sharded_client.database("missing")
        assert exc_info.value.status == 404
        with pytest.raises(ApiError) as exc_info:
            sharded_client.mutate("missing", inserts={})
        assert exc_info.value.status == 404

    def test_invalid_mutation_is_400_and_harmless(self, sharded_client):
        sharded_client.register_database("eps", _small_db())
        with pytest.raises(ApiError) as exc_info:
            sharded_client.mutate("eps", deletes={"T": [{"a": 42, "b": "?"}]})
        assert exc_info.value.status == 400
        # The failed mutation left every worker at version 0, still converged.
        info = sharded_client.database("eps")
        assert info["version_id"] == 0 and info["converged"] is True

    def test_wrong_methods(self, sharded_server):
        host, port = sharded_server.server_address[:2]

        def status_of(method, path, body=None):
            request = urllib.request.Request(
                f"http://{host}:{port}{path}",
                data=json.dumps(body).encode() if body is not None else None,
                headers={"Content-Type": "application/json"},
                method=method,
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status
            except urllib.error.HTTPError as exc:
                return exc.code

        assert status_of("GET", "/v1/databases/x/mutate") == 405
        assert status_of("POST", "/v1/databases/x", {}) == 405
        assert status_of("PUT", "/v1/databases", {}) == 404


class TestCrashReplay:
    def test_registry_survives_worker_crash(self):
        """SIGKILL one worker; the dispatcher respawns it and replays the
        registry log, so reads still converge on the pre-crash state."""
        server = make_sharded_server(ShardedConfig(processes=2, cache_size=8))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = Client(f"http://{host}:{port}")
            client.register_database("durable", _small_db())
            client.mutate("durable", inserts={"T": [{"a": 3, "b": "k"}]})

            victim = server.dispatcher.workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    info = client.database("durable")
                    if info["converged"] and len(info["shards"]) == 2:
                        break
                except ApiError:
                    pass
                time.sleep(0.2)
            info = client.database("durable")
            assert info["version_id"] == 1
            assert info["converged"] is True
            assert info["tables"]["T"]["rows"] == 3
        finally:
            server.shutdown()
            server.server_close()
            server.dispatcher.close()


class TestStatsParity:
    def test_identical_traffic_gives_identical_counters(self):
        """Both front ends count the same POSTs (explain, query, mutate —
        unparseable bodies and unknown names included), each before its
        response goes out, so a stats read right after needs no pause."""
        from repro.api.http import make_server
        from repro.engine.database import Mutation
        from repro.wire import database_to_json, mutation_to_json, serving_stats_from_json

        def traffic(base):
            def send(method, path, body):
                data = body if isinstance(body, bytes) else json.dumps(body).encode()
                request = urllib.request.Request(
                    base + path, data=data, method=method,
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request, timeout=30) as response:
                        return response.status
                except urllib.error.HTTPError as exc:
                    return exc.code

            mutation = mutation_to_json(Mutation(inserts={"T": [Tup(a=9, b="z")]}))
            statuses = [
                send("PUT", "/v1/databases/alpha", database_to_json(_small_db())),
                send("POST", "/v1/databases/alpha/mutate", mutation),
                send("POST", "/v1/databases/nope/mutate", mutation),
                send("POST", "/v1/explain", b"not json"),
                send("POST", "/v1/explain",
                     {"format": 2, "kind": "explain-request", "scenario": "NOPE"}),
            ]
            with urllib.request.urlopen(base + "/v1/stats", timeout=30) as response:
                serving, _ = serving_stats_from_json(json.loads(response.read()))
            counters = {k: serving[k] for k in ("requests", "completed", "errors")}
            return statuses, counters

        counters = []
        inprocess = make_server()
        sharded = make_sharded_server(ShardedConfig(processes=1, cache_size=8))
        for server, backend in ((inprocess, inprocess.service), (sharded, sharded.dispatcher)):
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                counters.append(traffic(f"http://{host}:{port}"))
            finally:
                server.shutdown()
                server.server_close()
                backend.close()
        assert counters[0] == counters[1]
        assert counters[0] == (
            [200, 200, 404, 400, 400],
            {"requests": 4, "completed": 1, "errors": 3},
        )
