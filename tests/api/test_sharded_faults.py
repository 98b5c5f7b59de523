"""Sharded serving under faults: worker crashes, saturation, timeouts.

The contract being proven: a request sent to a sharded server either
*completes* with the correct payload or *fails with a clean 503* (JSON
error body + ``Retry-After``) — it never hangs and never yields partial
JSON.  Killing a worker process mid-load must leave the front end healthy:
the worker is respawned, subsequent requests succeed, and only the
in-flight requests of the dead worker are shed.
"""

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ApiError, Client, ExplainOptions, ExplanationService, ShardedConfig
from repro.api.sharded import make_sharded_server
from repro.wire import serving_stats_from_json


@pytest.fixture
def boot_server():
    """Boot a sharded server with per-test knobs; torn down afterwards."""
    servers = []

    def boot(**kwargs):
        server = make_sharded_server(ShardedConfig(**kwargs))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        host, port = server.server_address[:2]
        return server, Client(f"http://{host}:{port}", timeout=60)

    yield boot
    for server in servers:
        server.shutdown()
        server.server_close()
        server.dispatcher.close()


def _explain_gate(monkeypatch):
    """Park every worker's explains until the test releases them.

    Patches ``ExplanationService.explain`` before the server boots, so the
    fork-started workers (respawned ones too) inherit the wrapper and two
    shared flags: the wrapper raises ``reached`` and then polls ``release``
    (bounded at 60 s).  The flags are lock-free shared integers rather than
    ``multiprocessing.Event``s: a worker SIGKILLed inside an event's
    condition leaves it locked or unacknowledged, and the test's ``set()``
    would then block forever.  Returns ``(reached, release)``.
    """
    context = multiprocessing.get_context("fork")
    reached, release = context.RawValue("i", 0), context.RawValue("i", 0)
    explain = ExplanationService.explain

    def gated(self, *args, **kwargs):
        reached.value = 1
        deadline = time.monotonic() + 60
        while not release.value and time.monotonic() < deadline:
            time.sleep(0.005)
        return explain(self, *args, **kwargs)

    monkeypatch.setattr(ExplanationService, "explain", gated)
    return reached, release


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestWorkerCrash:
    def test_killed_worker_is_respawned(self, boot_server):
        server, client = boot_server(processes=2, cache_size=8)
        health = client.health()
        victim = health["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)

        def respawned():
            h = client.health()
            return (
                h["status"] == "ok"
                and h["workers"][0]["restarts"] == 1
                and h["workers"][0]["pid"] != victim
                and h["workers"][0]["alive"]
            )

        assert _wait_until(respawned), "front end did not respawn the dead worker"
        # The fresh worker serves correctly (its cache restarted empty).
        response = client.explain(scenario="Q1", scale=20)
        assert response.explanation_sets()

    def test_crash_mid_load_completes_or_clean_503(self, boot_server, monkeypatch):
        # One worker so every request lands on the victim process.  Distinct
        # max_sas values make the burst non-coalescible.  The explain gate
        # parks the worker inside its first explain until the kill has
        # landed, so requests are genuinely in flight however fast the
        # explain is; fork-started workers (and the respawned one) inherit
        # the patched method and the shared flags.
        reached, release = _explain_gate(monkeypatch)
        server, client = boot_server(processes=1, queue_depth=32, cache_size=8)
        host, port = server.server_address[:2]
        victim = client.health()["workers"][0]["pid"]

        def fire(i):
            worker_client = Client(f"http://{host}:{port}", timeout=60)
            try:
                response = worker_client.explain(
                    scenario="Q1",
                    scale=300,
                    options=ExplainOptions(max_sas=100 + i),
                )
                return ("ok", response.explanation_sets())
            except ApiError as exc:
                return ("error", exc.status, exc.error_type)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fire, i) for i in range(8)]
            assert _wait_until(lambda: reached.value, timeout=30), (
                "no request reached the worker"
            )
            os.kill(victim, signal.SIGKILL)
            release.value = 1  # the respawned worker answers without parking
            outcomes = [f.result(timeout=90) for f in futures]

        # Every request resolved: correct payload or a clean, typed 503 —
        # the client would have raised on partial/undecodable JSON instead.
        statuses = {o[0] for o in outcomes}
        assert statuses <= {"ok", "error"}
        for outcome in outcomes:
            if outcome[0] == "ok":
                assert outcome[1], "completed request returned no explanations"
            else:
                assert outcome[1] == 503, f"expected clean 503, got {outcome}"
        assert any(o[0] == "error" for o in outcomes), (
            "the kill landed on an idle worker — in-flight requests expected"
        )
        assert _wait_until(lambda: client.health()["status"] == "ok")
        # After respawn the same questions answer fine.
        again = client.explain(
            scenario="Q1", scale=300, options=ExplainOptions(max_sas=100)
        )
        assert again.explanation_sets()

    def test_crash_shows_in_stats_restarts(self, boot_server):
        server, client = boot_server(processes=2, cache_size=8)
        os.kill(client.health()["workers"][1]["pid"], signal.SIGKILL)
        assert _wait_until(lambda: client.health()["status"] == "ok")
        serving, workers = serving_stats_from_json(client._request("GET", "/stats"))
        assert serving["restarts"] == 1
        assert workers[1]["restarts"] == 1 and workers[0]["restarts"] == 0


class TestSaturation:
    def test_503_with_retry_after_before_queue_explodes(self, boot_server, monkeypatch):
        # The single worker parks inside its first explain, so the burst
        # piles up behind the queue bound however fast explains are.
        reached, release = _explain_gate(monkeypatch)
        server, client = boot_server(processes=1, queue_depth=2, cache_size=8)
        host, port = server.server_address[:2]

        def fire(i):
            worker_client = Client(f"http://{host}:{port}", timeout=60)
            try:
                response = worker_client.explain(
                    scenario="Q1",
                    scale=300,
                    options=ExplainOptions(max_sas=200 + i),
                )
                return ("ok", response.explanation_sets())
            except ApiError as exc:
                return ("error", exc.status, exc.retry_after)

        with ThreadPoolExecutor(max_workers=12) as pool:
            futures = [pool.submit(fire, i) for i in range(12)]
            # Every request beyond the two the parked worker holds is shed.
            assert _wait_until(lambda: sum(f.done() for f in futures) >= 10, timeout=60)
            assert reached.value
            release.value = 1
            outcomes = [f.result() for f in futures]

        rejected = [o for o in outcomes if o[0] == "error"]
        completed = [o for o in outcomes if o[0] == "ok"]
        assert rejected, "burst of 12 at queue depth 2 must shed load"
        for outcome in rejected:
            assert outcome[1] == 503
            assert outcome[2] is not None and outcome[2] >= 1  # Retry-After header
        for outcome in completed:
            assert outcome[1]
        serving, workers = serving_stats_from_json(client._request("GET", "/stats"))
        assert serving["rejected"] >= len(rejected)
        # Shedding is immediate: nothing ever queues past the bound.
        assert workers[0]["inflight"] <= 2

    def test_shed_load_is_not_counted_as_completed(self, boot_server):
        server, client = boot_server(processes=1, queue_depth=1, cache_size=8)
        host, port = server.server_address[:2]

        def fire(i):
            worker_client = Client(f"http://{host}:{port}", timeout=60)
            try:
                worker_client.explain(
                    scenario="Q4",
                    scale=300,
                    options=ExplainOptions(max_sas=300 + i),
                )
                return "ok"
            except ApiError:
                return "rejected"

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(fire, range(8)))
        serving, _ = serving_stats_from_json(client._request("GET", "/stats"))
        assert serving["completed"] == outcomes.count("ok")
        assert serving["rejected"] == outcomes.count("rejected")
        assert serving["requests"] >= serving["completed"] + serving["rejected"]


class TestRequestTimeout:
    def test_stuck_request_yields_503_not_a_hang(self, boot_server, monkeypatch):
        # A request slower than the front-end bound must come back as a
        # typed 503 within ~the timeout, never hang the HTTP thread.  The
        # explain gate keeps the request stuck until the 503 is back, so
        # the outcome does not depend on how fast the explain is.
        _, release = _explain_gate(monkeypatch)
        server, client = boot_server(
            processes=1, cache_size=8, request_timeout=0.05
        )
        started = time.monotonic()
        with pytest.raises(ApiError) as excinfo:
            client.explain(scenario="Q1", scale=500)
        elapsed = time.monotonic() - started
        release.value = 1
        assert excinfo.value.status == 503
        assert excinfo.value.error_type == "Timeout"
        assert excinfo.value.retry_after is not None
        assert elapsed < 30
        serving, _ = serving_stats_from_json(client._request("GET", "/stats"))
        assert serving["timeouts"] >= 1


class TestClientRetries:
    def test_retrying_client_rides_out_backpressure(self, boot_server):
        server, client = boot_server(processes=1, queue_depth=1, cache_size=8)
        host, port = server.server_address[:2]
        retrying = Client(
            f"http://{host}:{port}", timeout=60, retries=8, max_retry_wait=0.2
        )

        def fire(i):
            return retrying.explain(
                scenario="Q6",
                scale=200,
                options=ExplainOptions(max_sas=400 + i),
            ).explanation_sets() is not None

        # Without retries a burst at depth 1 sheds most requests (proved
        # above); with retries every request eventually lands.
        with ThreadPoolExecutor(max_workers=6) as pool:
            assert all(pool.map(fire, range(6)))


class TestWorkerBackendDefault:
    def test_worker_ignores_process_backend_env(self, boot_server, monkeypatch):
        # REPRO_BACKEND and REPRO_WORKERS are read by nothing: an
        # environment left over from the retired process backend must not
        # change how shard workers evaluate (a process pool nested inside a
        # forked, threaded worker deadlocked).  The env vars are set before
        # boot so the forked worker inherits them; a bounded
        # request_timeout turns a regression into a fast 503 instead of a
        # hung test.
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        server, client = boot_server(
            processes=1, cache_size=8, request_timeout=20.0
        )
        response = client.explain(scenario="Q1", scale=20)
        assert response.explanation_sets()
