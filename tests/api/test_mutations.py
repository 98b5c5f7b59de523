"""Serving-layer mutations: versioned registry, cache warmth, HTTP routes.

Pins the tentpole's serving guarantees:

* ``POST /v1/databases/{name}/mutate`` advances a registered database one
  version on both the in-process service and over HTTP;
* the result cache is **version-aware**: a mutation invalidates exactly the
  cached entries whose queries *read* a mutated relation of that database —
  entries for other databases (and for untouched relations of the same
  database) stay warm, proven through hit counters;
* an insert that satisfies a why-not question turns the explain error into
  a typed "question satisfied" response when the request opts in via
  ``satisfied_ok`` (and stays a client error when it does not);
* the ``GET /v1/databases[/{name}]`` listing/info endpoints and their
  error mapping (404 unknown name, 405 wrong method).
"""

import gc
import threading
import weakref

import pytest

from repro.api import ApiError, Client, ExplainRequest, ExplanationService
from repro.api.http import make_server
from repro.api.service import SatisfiedResponse, UnknownDatabase
from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.operators import Projection, Query, Selection, TableAccess
from repro.engine.database import Database, Mutation
from repro.nested.values import Bag, Tup
from repro.whynot.tracing import LazyColumns
from repro.wire import result_to_json


def _db_a():
    return Database({"T": [Tup(a=1, b="x"), Tup(a=5, b="y")],
                     "U": [Tup(c=7)]})


def _db_b():
    return Database({"V": [Tup(d=1), Tup(d=2)]})


def _filter_request(database, nip=None):
    query = Query(Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(3))))
    return ExplainRequest(
        query=query, nip=nip or Tup(a=1, b="x"), database=database
    )


class TestServiceMutations:
    def test_mutate_advances_the_registered_version(self):
        service = ExplanationService()
        service.register_database("a", _db_a())
        service.mutate_database("a", inserts={"T": [Tup(a=9, b="z")]})
        db = service.database("a")
        assert db.version_id == 1
        assert db.relation("T").mult(Tup(a=9, b="z")) == 1
        assert service.database_info("a")["version_id"] == 1

    def test_mutate_unknown_database(self):
        service = ExplanationService()
        with pytest.raises(UnknownDatabase):
            service.mutate_database("nope", inserts={})

    def test_listing_reports_versions_and_row_counts(self):
        service = ExplanationService()
        service.register_database("a", _db_a())
        service.register_database("b", _db_b())
        service.mutate_database("b", deletes={"V": [Tup(d=1)]})
        listing = service.database_listing()
        byname = {d["name"]: d for d in listing["databases"]}
        assert byname["a"]["version_id"] == 0
        assert byname["b"]["version_id"] == 1
        assert byname["b"]["tables"]["V"]["rows"] == 1

    def test_mutation_invalidates_only_entries_reading_mutated_relations(self):
        service = ExplanationService(cache_size=8)
        service.register_database("a", _db_a())
        service.register_database("b", _db_b())
        req_a = _filter_request("a")
        req_b = ExplainRequest(
            query=Query(Projection(TableAccess("V"), ["d"])),
            nip=Tup(d=99),
            database="b",
        )
        assert not service.explain(req_a).cached
        assert not service.explain(req_b).cached
        assert service.explain(req_a).cached and service.explain(req_b).cached
        hits_before = service.cache_stats()["hits"]
        # Mutating a relation req_a READS ("T" of database a) must evict
        # exactly that entry; database b's entry stays warm.
        service.mutate_database("a", Mutation(inserts={"T": [Tup(a=4, b="q")]}))
        assert not service.explain(_filter_request("a")).cached
        assert service.explain(req_b).cached
        assert service.cache_stats()["hits"] == hits_before + 1

    def test_mutating_an_unread_relation_keeps_the_entry_warm(self):
        service = ExplanationService(cache_size=8)
        service.register_database("a", _db_a())
        req = _filter_request("a")  # reads only "T"
        service.explain(req)
        service.mutate_database("a", inserts={"U": [Tup(c=8)]})
        assert service.explain(_filter_request("a")).cached

    def test_a_write_does_not_keep_the_previous_version_alive(self):
        service = ExplanationService()
        service.register_database("a", _db_a())
        registered = weakref.ref(service.database("a"))
        for c in (8, 9, 10):
            service.mutate_database("a", inserts={"U": [Tup(c=c)]})
        gc.collect()
        assert registered() is None
        assert service.database("a").version_id == 3

    def test_surviving_answers_do_not_keep_the_previous_version_alive(self):
        """A write leaves a cached result and an explain state over ``U``
        warm; they are rebound to the new version — the question's
        database and the state's lazily evaluated columns — so the old
        version is freed, and both still answer like fresh explains."""
        rows = [Tup(a=i, b=f"r{i}") for i in range(2000)]
        service = ExplanationService(cache_size=8)
        service.register_database(
            "a", Database({"T": rows, "U": [Tup(c=c, d=c % 4) for c in range(40)]})
        )
        registered = weakref.ref(service.database("a"))
        # π→π→σ is one fused run: the first projection's column is lazy.
        query = Query(
            Selection(
                Projection(Projection(TableAccess("U"), [("e", Attr("c")), "d"]), ["e", "d"]),
                Cmp(">=", Attr("e"), Const(100)),
            )
        )

        def request(e):
            return ExplainRequest(query=query, nip=Tup(e=e, d=3), database="a")

        def wire(response):
            document = result_to_json(response.result)
            document["timings"] = {}
            return document

        first = service.explain(request(7))
        assert not first.cached
        assert any(
            isinstance(snap.cols, LazyColumns) for snap in first.result.trace.traces.values()
        )
        del first
        for row in rows[:3]:
            service.mutate_database("a", deletes={"T": [row]})
        gc.collect()
        assert registered() is None
        again = service.explain(request(7))
        assert again.cached
        assert wire(again) == wire(service.explain(request(7), use_cache=False))
        reuses = service.state_stats()["reuses"]
        variant = service.explain(request(11))
        assert not variant.cached
        assert service.state_stats()["reuses"] == reuses + 1
        assert wire(variant) == wire(service.explain(request(11), use_cache=False))

    def test_evicted_answers_do_not_keep_the_previous_version_alive(self):
        service = ExplanationService(cache_size=8)
        service.register_database("a", _db_a())
        registered = weakref.ref(service.database("a"))
        service.explain(_filter_request("a"))  # caches a result and a state
        # Writes to the relation the query reads evict both.
        for a in (8, 9, 10):
            service.mutate_database("a", inserts={"T": [Tup(a=a, b="w")]})
        gc.collect()
        assert registered() is None
        assert service.state_stats()["entries"] == 0

    def test_satisfied_opt_in_returns_typed_response(self):
        service = ExplanationService()
        service.register_database("a", _db_a())
        # Insert the "missing" row: the question is now answered.
        service.mutate_database("a", inserts={"T": [Tup(a=3, b="w")]})
        query = Query(Projection(TableAccess("T"), ["b"]))
        request = ExplainRequest(
            query=query, nip=Tup(b="w"), database="a", satisfied_ok=True
        )
        response = service.explain(request)
        assert isinstance(response, SatisfiedResponse)
        assert response.satisfied and response.witnesses == [Tup(b="w")]
        document = response.to_json()
        assert document["satisfied"] is True and document["witnesses"]

    def test_satisfied_without_opt_in_still_errors(self):
        service = ExplanationService()
        service.register_database("a", _db_a())
        query = Query(Projection(TableAccess("T"), ["b"]))
        request = ExplainRequest(query=query, nip=Tup(b="x"), database="a")
        from repro.whynot.question import IllPosedQuestion

        with pytest.raises(IllPosedQuestion):
            service.explain(request)


@pytest.fixture(scope="module")
def server():
    server = make_server(ExplanationService(cache_size=8))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.service.close()


@pytest.fixture(scope="module")
def client(server):
    host, port = server.server_address[:2]
    return Client(f"http://{host}:{port}")


class TestHttpMutations:
    def test_register_list_info_roundtrip(self, client):
        info = client.register_database("alpha", _db_a())
        assert info["version_id"] == 0
        assert info["tables"]["T"]["rows"] == 2
        names = {d["name"] for d in client.databases()}
        assert "alpha" in names
        assert client.database("alpha")["version_id"] == 0

    def test_mutate_endpoint_advances_and_reports(self, client):
        client.register_database("beta", _db_a())
        info = client.mutate("beta", inserts={"T": [{"a": 8, "b": "n"}]})
        assert info["version_id"] == 1
        assert info["tables"]["T"]["rows"] == 3
        assert client.database("beta")["version_id"] == 1

    def test_canonical_form_mutation_over_the_wire(self, client):
        client.register_database(
            "gamma", Database({"W": [Tup(a=2.0), Tup(a=0.0)]})
        )
        # The wire round-trips int 2 and -0.0; both must hit the stored rows.
        info = client.mutate("gamma", deletes={"W": [{"a": 2}, {"a": -0.0}]})
        assert info["tables"]["W"]["rows"] == 0

    def test_unknown_database_is_404(self, client):
        with pytest.raises(ApiError) as exc_info:
            client.database("missing")
        assert exc_info.value.status == 404
        with pytest.raises(ApiError) as exc_info:
            client.mutate("missing", inserts={})
        assert exc_info.value.status == 404

    def test_invalid_delete_is_400(self, client):
        client.register_database("delta", _db_b())
        with pytest.raises(ApiError) as exc_info:
            client.mutate("delta", deletes={"V": [{"d": 42}]})
        assert exc_info.value.status == 400

    def test_method_mismatches(self, server):
        import json
        import urllib.error
        import urllib.request

        host, port = server.server_address[:2]

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
        assert status_of("POST", "/v1/databases", {}) == 405
        assert status_of("POST", "/v1/databases/x", {}) == 405
        assert status_of("PUT", "/v1/databases", {}) == 405
        assert status_of("GET", "/v1/databases/a/b/c") == 404

    def test_cache_warmth_across_databases_over_http(self, client):
        client.register_database("warm_a", _db_a())
        client.register_database("warm_b", _db_b())
        req_a = _filter_request("warm_a")
        req_b = ExplainRequest(
            query=Query(Projection(TableAccess("V"), ["d"])),
            nip=Tup(d=99),
            database="warm_b",
        )
        client.explain(request=req_a)
        client.explain(request=req_b)
        warm = client.explain(request=req_b)
        assert warm.cached
        hits_before = warm.cache["hits"]
        # Mutate database A on a relation req_a reads: B's entry stays warm,
        # A's entry misses — proven by the server-wide hit counter.
        client.mutate("warm_a", inserts={"T": [{"a": 6, "b": "m"}]})
        after_b = client.explain(request=req_b)
        assert after_b.cached and after_b.cache["hits"] == hits_before + 1
        after_a = client.explain(request=_filter_request("warm_a"))
        assert not after_a.cached

    def test_satisfied_response_over_http(self, client):
        client.register_database("sat", Database({"T": [Tup(a=1, b="x")]}))
        client.mutate("sat", inserts={"T": [{"a": 2, "b": "y"}]})
        query = Query(Projection(TableAccess("T"), ["b"]))
        request = ExplainRequest(
            query=query, nip=Tup(b="y"), database="sat", satisfied_ok=True
        )
        response = client.explain(request=request)
        assert response.satisfied
        assert response.witnesses  # wire-encoded matching tuples
        # Without the opt-in the same question is a client error.
        with pytest.raises(ApiError) as exc_info:
            client.explain(request=ExplainRequest(
                query=query, nip=Tup(b="y"), database="sat"
            ))
        assert exc_info.value.status == 400
        assert exc_info.value.error_type == "IllPosedQuestion"
