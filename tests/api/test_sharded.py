"""Sharded serving: routing, coalescing and concurrency correctness.

The load-bearing guarantee: a sharded server (real worker *processes*
behind a threading front end) returns byte-identical explanation payloads
to in-process ``explain()`` for every scenario, under concurrent mixed
load.  Timings are the single non-deterministic result field (the same
convention the golden-response fixture uses), so byte comparisons strip
them and nothing else.

Fault injection (worker crash, saturation, timeouts) lives in
``test_sharded_faults.py``.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    ApiError,
    Client,
    ExplainOptions,
    ExplainRequest,
    ExplanationService,
    ShardedConfig,
    routing_key,
)
from repro.api.sharded import make_sharded_server
from repro.wire import serving_stats_from_json


def _request_doc(scenario, scale, options=None, name=""):
    return ExplainRequest(
        scenario=scenario, scale=scale, options=options or ExplainOptions(), name=name
    ).to_json()


def _canonical_result(document):
    """The response's result payload as canonical bytes, timings stripped."""
    result = dict(document["result"])
    result["timings"] = {}
    return json.dumps(result, sort_keys=True, ensure_ascii=True)


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


class TestRoutingKey:
    """Identical requests must always land on the same worker: the key is a
    pure function of the request's semantic content."""

    def test_identical_documents_agree(self):
        a = _request_doc("Q1", 20)
        b = _request_doc("Q1", 20)
        assert a is not b
        assert routing_key(a) == routing_key(b)

    def test_key_is_deterministic_across_calls(self):
        doc = _request_doc("Q4", 40)
        assert routing_key(doc) == routing_key(json.loads(json.dumps(doc)))

    def test_display_name_is_ignored(self):
        assert routing_key(_request_doc("Q1", 20, name="a")) == routing_key(
            _request_doc("Q1", 20, name="b")
        )

    @pytest.mark.parametrize(
        "options",
        [
            # Retired raw fields an older format-2 client may send.
            {"backend": "process", "workers": 2},
            {"optimize": True},
            {"engine": "row"},
            {"partitions": 7},
        ],
    )
    def test_execution_knobs_do_not_split_explain_routing(self, options):
        # Retired fields change no explanation; splitting them would waste
        # per-worker cache space.
        doc = _request_doc("Q1", 20)
        doc["options"] = {**doc["options"], **options}
        assert routing_key(doc) == routing_key(_request_doc("Q1", 20))

    def test_semantic_knobs_split_routing(self):
        assert routing_key(
            _request_doc("Q1", 20, ExplainOptions(max_sas=7))
        ) != routing_key(_request_doc("Q1", 20))

    def test_scale_splits_routing(self):
        assert routing_key(_request_doc("Q1", 20)) != routing_key(_request_doc("Q1", 21))

    def test_query_documents_strip_retired_options(self, running_query, person_db):
        # Every query runs one configuration, so retired execution fields
        # change nothing and must not split routing; a bad value keeps its
        # own key, so it never coalesces onto a good request's answer.
        from repro.wire import database_to_json, query_to_json

        def doc(**retired):
            return {
                "format": 2,
                "kind": "query-request",
                "query": query_to_json(running_query),
                "database": database_to_json(person_db),
                "options": {**ExplainOptions().to_json(), **retired},
            }

        plain = routing_key(doc())
        assert routing_key(doc(partitions=3)) == plain
        assert routing_key(doc(partitions=7, optimize=False)) == plain
        assert routing_key(doc(partitions=0)) != plain
        assert routing_key(doc(optimize="yes")) != plain


class TestShardedConfig:
    @pytest.mark.parametrize("kwargs", [
        {"processes": 0},
        {"processes": -1},
        {"queue_depth": 0},
        {"cache_size": -1},
        {"request_timeout": 0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShardedConfig(**kwargs)


MIX = [("Q1", 20), ("Q4", 20), ("T2", 20), ("Q1", 30)]


class TestConcurrencyCorrectness:
    """N threads × mixed scenarios: every served payload byte-equal to the
    in-process service answer."""

    def test_mixed_concurrent_load_is_byte_identical(self, sharded_client):
        local = ExplanationService(cache_size=32)
        expected = {
            (scenario, scale): _canonical_result(
                local.explain(ExplainRequest(scenario=scenario, scale=scale)).to_json()
            )
            for scenario, scale in MIX
        }

        def fire(i):
            scenario, scale = MIX[i % len(MIX)]
            response = sharded_client.explain(scenario=scenario, scale=scale)
            return (scenario, scale), _canonical_result(response.raw)

        with ThreadPoolExecutor(max_workers=12) as pool:
            outcomes = list(pool.map(fire, range(36)))
        assert len(outcomes) == 36
        for key, payload in outcomes:
            assert payload == expected[key], f"served {key} diverged from in-process"

    def test_repeat_requests_hit_the_same_worker_cache(self, sharded_client):
        cold = sharded_client.explain(scenario="Q6", scale=20)
        warm = sharded_client.explain(scenario="Q6", scale=20)
        # A cache hit is only possible if routing pinned both requests to
        # the same worker process — this *is* the locality guarantee.
        assert not cold.cached and warm.cached
        assert _canonical_result(warm.raw) == _canonical_result(cold.raw)

    def test_query_endpoint_round_trip(self, sharded_client, person_db, running_query):
        bag, metrics = sharded_client.query(running_query, person_db)
        assert bag == running_query.evaluate(person_db)
        assert metrics.operators


class TestCoalescing:
    def test_identical_concurrent_requests_coalesce(self, sharded_client):
        # A cold, deliberately slow request (unique to this test so the
        # module-scoped server cannot already have it cached) fired from
        # many threads at once: duplicates must attach to the in-flight
        # leader instead of recomputing.
        before, _ = serving_stats_from_json(sharded_client._request("GET", "/stats"))
        barrier = threading.Barrier(6)

        def fire(_):
            barrier.wait(timeout=30)
            return _canonical_result(
                sharded_client.explain(scenario="Q3", scale=220).raw
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            payloads = set(pool.map(fire, range(6)))
        after, _ = serving_stats_from_json(sharded_client._request("GET", "/stats"))
        assert len(payloads) == 1  # coalesced followers got the leader's bytes
        assert after["coalesced"] > before["coalesced"]

    def test_coalesced_requests_count_as_requests(self, sharded_client):
        serving, _ = serving_stats_from_json(sharded_client._request("GET", "/stats"))
        assert serving["requests"] >= serving["completed"] + serving["coalesced"]


class TestObservability:
    def test_health_reports_workers(self, sharded_client):
        health = sharded_client.health()
        assert health["status"] == "ok"
        assert health["processes"] == 2
        assert len(health["workers"]) == 2
        for worker in health["workers"]:
            assert worker["alive"]
            assert isinstance(worker["pid"], int)
        assert set(health["cache"]) == {"hits", "misses", "size"}

    def test_stats_payload_decodes_and_aggregates(self, sharded_client):
        sharded_client.explain(scenario="Q1", scale=20)
        serving, workers = serving_stats_from_json(
            sharded_client._request("GET", "/stats")
        )
        assert serving["mode"] == "sharded"
        assert serving["processes"] == 2
        assert serving["completed"] >= 1
        assert serving["qps"] > 0
        assert serving["latency_ms"]["p50_ms"] is not None
        assert serving["cache"]["hit_rate"] is not None
        assert len(workers) == 2
        assert sum(w["served"] for w in workers) >= serving["completed"]
        for worker in workers:
            assert set(worker["cache"]) == {"hits", "misses", "size"}
            assert worker["inflight"] == 0  # quiescent at probe time
        # Each worker keeps its own explain states; the front end sums them.
        assert serving["state"]["entries"] >= 1
        for field_name in ("entries", "rows", "reuses"):
            assert serving["state"][field_name] == sum(
                worker["state"][field_name] for worker in workers
            )

    def test_scenarios_listing_matches_single_process(self, sharded_client):
        names = {s["name"] for s in sharded_client.scenarios()}
        assert {"Q1", "Q10", "T2"} <= names


class TestErrorMapping:
    def test_unknown_route_404(self, sharded_client):
        with pytest.raises(ApiError) as excinfo:
            sharded_client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, sharded_client):
        with pytest.raises(ApiError) as excinfo:
            sharded_client._request("GET", "/explain")
        assert excinfo.value.status == 405
        with pytest.raises(ApiError) as excinfo:
            sharded_client._request("POST", "/stats", {"format": 2})
        assert excinfo.value.status == 405

    def test_unknown_scenario_400(self, sharded_client):
        with pytest.raises(ApiError) as excinfo:
            sharded_client.explain(scenario="Q999")
        assert excinfo.value.status == 400
        assert "unknown scenario" in str(excinfo.value)

    def test_client_error_does_not_kill_worker(self, sharded_client):
        with pytest.raises(ApiError):
            sharded_client.explain(scenario="Q999")
        health = sharded_client.health()
        assert health["status"] == "ok"
        assert all(w["restarts"] == 0 for w in health["workers"])
