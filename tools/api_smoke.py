"""End-to-end smoke test of the HTTP serving front end (the CI ``api`` job).

Boots ``python -m repro serve`` as a real subprocess on a free port, then
drives it through :class:`repro.api.Client`:

1. ``GET /v1/health`` answers ``status: ok`` (polled until the server is up);
2. ``GET /v1/scenarios`` lists the TPC-H scenarios;
3. ``POST /v1/explain`` on a TPC-H scenario returns a wire-schema-valid
   response whose explanation sets are **identical** to in-process
   ``explain()``;
4. the repeated request is served from the LRU cache (hit counter + flag);
5. ``POST /v1/query`` returns the correct result bag;
6. the database registry: ``PUT /v1/databases/{name}`` registers, ``GET
   /v1/databases[/{name}]`` lists, ``POST /v1/databases/{name}/mutate``
   advances the version — and the version-aware cache proof (a mutation to
   database A leaves database B's cached entries warm, hit counters show it);
7. the per-query explain state: after a write to a GenSocial database, the
   planted question, a NIP-constant variant and the ``summarize`` twin
   answer like in-process ``explain()``, and ``GET /v1/stats`` reports a
   state entry and its reuses;
8. the same checks against ``serve --processes 2`` (the sharded dispatcher:
   two real worker processes), plus ``GET /v1/stats`` decoding, the
   routing-locality cache hit, and the replicated registry: a mutation
   broadcast through the front end converges on every worker;
9. on both servers, the shared HTTP contract: ``PUT /v1/explain`` is a 405
   with ``Allow: POST``, ``DELETE /v1/health`` a 501 with a JSON error
   body, and SIGTERM shuts the server down with exit code 0.

Exits non-zero on any failure; the surrounding CI step adds the timeout.

Usage::

    PYTHONPATH=src python tools/api_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Client, ExplainOptions, ExplainRequest  # noqa: E402
from repro.algebra.expressions import Attr, Cmp, Const  # noqa: E402
from repro.algebra.operators import (  # noqa: E402
    Projection,
    Query,
    Selection,
    TableAccess,
)
from repro.engine.database import Database  # noqa: E402
from repro.factory import social_bundle  # noqa: E402
from repro.nested.values import Tup  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.whynot.explain import explain  # noqa: E402
from repro.whynot.question import WhyNotQuestion  # noqa: E402
from repro.wire import check_envelope, serving_stats_from_json  # noqa: E402

SCENARIO = "Q1"
SCALE = 20
BOOT_TIMEOUT_S = 60.0


def free_port() -> int:
    """Grab an ephemeral TCP port for the server subprocess."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_health(client: Client, deadline: float) -> dict:
    """Poll ``/v1/health`` until the server answers or the deadline passes."""
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            health = client.health()
            if health.get("status") == "ok":
                return health
        except Exception as exc:  # noqa: BLE001 - booting server refuses/ECONNRESET
            last_error = exc
        time.sleep(0.2)
    raise TimeoutError(f"server did not become healthy: {last_error!r}")


def boot_serve(extra_args: "list[str]") -> "tuple[subprocess.Popen, Client, int]":
    """Start ``python -m repro serve`` on a free port and return its client."""
    port = free_port()
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port), "--quiet"]
        + extra_args,
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return process, Client(f"http://127.0.0.1:{port}"), port


def drain(process: subprocess.Popen) -> int:
    """SIGTERM the server subprocess, echo its captured log and return its
    exit code."""
    process.terminate()
    try:
        output, _ = process.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
    if output:
        print("--- server log ---")
        print(output.rstrip())
    return process.returncode


def contract_smoke(port: int) -> None:
    """The HTTP contract both serving modes share: a method a known path
    does not take is a 405 naming the allowed ones, and a method no path
    takes is a 501 — both with JSON error bodies."""

    def call(method: str, path: str) -> "tuple[int, str, str, dict]":
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        allow = response.getheader("Allow")
        return response.status, allow, response.getheader("Content-Type"), body

    status, allow, content_type, body = call("PUT", "/v1/explain")
    assert (status, allow) == (405, "POST"), (status, allow, body)
    assert content_type == "application/json" and body["error"]["type"], body
    status, allow, content_type, body = call("DELETE", "/v1/health")
    assert status == 501 and content_type == "application/json", (status, body)
    assert body["error"]["type"] == "NotImplemented", body
    print("contract ok: 405 with Allow, JSON 501")


def check_exit(code: int) -> None:
    """A SIGTERMed server must close its service and exit 0."""
    assert code == 0, f"serve exited with {code} after SIGTERM"
    print("shutdown ok: exit code 0 after SIGTERM")


def registry_smoke(client: Client) -> None:
    """Drive the database registry and prove the cache is version-aware."""
    db_a = Database({"T": [Tup(a=1, b="x"), Tup(a=5, b="y")], "U": [Tup(c=7)]})
    db_b = Database({"V": [Tup(d=1), Tup(d=2)]})
    client.register_database("smoke_a", db_a)
    client.register_database("smoke_b", db_b)
    names = {d["name"] for d in client.databases()}
    assert {"smoke_a", "smoke_b"} <= names, names
    assert client.database("smoke_a")["version_id"] == 0
    print(f"registry ok: {len(names)} databases listed")

    req_a = ExplainRequest(
        query=Query(Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(3)))),
        nip=Tup(a=1, b="x"),
        database="smoke_a",
    )
    req_b = ExplainRequest(
        query=Query(Projection(TableAccess("V"), ["d"])),
        nip=Tup(d=99),
        database="smoke_b",
    )
    client.explain(request=req_a)
    client.explain(request=req_b)
    warm_b = client.explain(request=req_b)
    assert warm_b.cached, "database-B entry should be warm before the mutation"
    hits_before = warm_b.cache["hits"]

    info = client.mutate("smoke_a", inserts={"T": [{"a": 9, "b": "z"}]})
    assert info["version_id"] == 1, info
    after_b = client.explain(request=req_b)
    assert after_b.cached, "mutating A must leave B's cached entry warm"
    assert after_b.cache["hits"] == hits_before + 1, after_b.cache
    after_a = client.explain(request=req_a)
    assert not after_a.cached, "mutating a read relation must evict A's entry"
    print("mutation ok: version advanced, cache invalidation is per-database")


def state_smoke(client: Client) -> None:
    """Write, then ask a question, a NIP-constant variant and the summarize
    twin: the server answers the last two from the first one's explain
    state, and every answer must match in-process ``explain()``."""
    bundle = social_bundle(1)
    answer = bundle.question().result()
    users = sorted({r["user"]["name"] for r in bundle.database.relation("T").distinct()})
    taken = {t["uName"] for t in answer.distinct()} | {bundle.nip["uName"]}
    variant_name = next(name for name in users if name not in taken)
    filler = next(
        r
        for r in bundle.database.relation("T").distinct()
        if r["user"]["name"] not in taken | {variant_name}
    )
    client.register_database("smoke_social", bundle.database)
    client.mutate("smoke_social", deletes={"T": [filler]})
    db = bundle.database.apply_mutations(deletes={"T": [filler]})

    def ask(nip, summarize=None):
        request = ExplainRequest(
            query=bundle.query,
            nip=nip,
            database="smoke_social",
            alternatives=bundle.alternatives,
            options=ExplainOptions(summarize=summarize),
        )
        served = client.explain(request=request)
        question = WhyNotQuestion(bundle.query, db, nip)
        direct = explain(question, alternatives=bundle.alternatives)
        expected = [frozenset(e.labels) for e in direct.explanations]
        assert served.explanation_sets() == expected, (
            f"served {served.explanation_sets()} != in-process {expected}"
        )
        return served

    ask(bundle.nip)
    ask(bundle.nip.replace(uName=variant_name))
    twin = ask(bundle.nip, summarize=True)
    assert twin.raw["result"].get("summaries"), "summarize twin lost its summaries"
    serving, _ = serving_stats_from_json(client._request("GET", "/stats"))
    state = serving["state"]
    assert state["entries"] >= 1 and state["reuses"] >= 1, state
    print(f"explain state ok: variant and twin match in-process (state {state})")


def sharded_registry_smoke(client: Client) -> None:
    """Register + mutate through the sharded front end; every worker must
    hold the same version (the broadcast writes carry a ``converged`` flag
    computed from per-worker replies)."""
    db = Database({"T": [Tup(a=1, b="x"), Tup(a=5, b="y")]})
    info = client.register_database("smoke_shard", db)
    assert info["converged"] is True and len(info["shards"]) == 2, info
    info = client.mutate("smoke_shard", deletes={"T": [{"a": 1, "b": "x"}]})
    assert info["version_id"] == 1 and info["converged"] is True, info
    # The follow-up read is itself a broadcast: convergence re-checked.
    read = client.database("smoke_shard")
    assert read["version_id"] == 1 and read["converged"] is True, read
    assert read["tables"]["T"]["rows"] == 1, read
    print("sharded registry ok: mutation converged on both workers")


def sharded_smoke(expected: "list[frozenset[str]]") -> None:
    """Boot the sharded front end and re-verify the contract across it."""
    process, client, port = boot_serve(["--processes", "2"])
    try:
        health = wait_for_health(client, time.monotonic() + BOOT_TIMEOUT_S)
        workers = health.get("workers", [])
        assert health.get("processes") == 2 and len(workers) == 2, health
        assert all(w["alive"] for w in workers), workers
        print(f"sharded health ok: pids={[w['pid'] for w in workers]}")

        cold = client.explain(scenario=SCENARIO, scale=SCALE)
        check_envelope(cold.raw, "explain-response")
        assert cold.explanation_sets() == expected, (
            f"sharded explanations {cold.explanation_sets()} != in-process"
        )
        warm = client.explain(scenario=SCENARIO, scale=SCALE)
        assert warm.cached, "repeat request must hit the routed worker's cache"
        assert warm.explanation_sets() == expected
        print("sharded explain ok: payload matches in-process, locality hit")

        serving, worker_stats = serving_stats_from_json(
            client._request("GET", "/stats")
        )
        assert serving["mode"] == "sharded", serving
        assert serving["completed"] >= 1 and serving["requests"] >= 2, serving
        assert len(worker_stats) == 2, worker_stats
        print(f"sharded stats ok: completed={serving['completed']} "
              f"hit_rate={serving['cache']['hit_rate']}")

        sharded_registry_smoke(client)
        contract_smoke(port)
    finally:
        code = drain(process)
    check_exit(code)


def main() -> int:
    process, client, port = boot_serve([])
    try:
        health = wait_for_health(client, time.monotonic() + BOOT_TIMEOUT_S)
        print(f"health ok: version={health['version']} wire={health['wire_format']}")

        names = {s["name"] for s in client.scenarios()}
        assert SCENARIO in names, f"{SCENARIO} missing from /v1/scenarios: {names}"
        print(f"scenarios ok: {len(names)} registered")

        scenario = get_scenario(SCENARIO)
        question = scenario.question(SCALE)
        direct = explain(question, alternatives=scenario.alternatives)
        expected = [frozenset(e.labels) for e in direct.explanations]

        started = time.perf_counter()
        cold = client.explain(scenario=SCENARIO, scale=SCALE)
        cold_s = time.perf_counter() - started
        check_envelope(cold.raw, "explain-response")
        check_envelope(cold.raw["result"], "result")
        assert cold.explanation_sets() == expected, (
            f"served explanations {cold.explanation_sets()} != in-process {expected}"
        )
        assert not cold.cached
        print(f"explain ok: {len(expected)} explanations match in-process "
              f"({cold_s * 1000:.0f} ms cold)")

        started = time.perf_counter()
        warm = client.explain(scenario=SCENARIO, scale=SCALE)
        warm_s = time.perf_counter() - started
        assert warm.cached, "second request was not served from the cache"
        assert warm.cache["hits"] == cold.cache["hits"] + 1, warm.cache
        assert warm.explanation_sets() == expected
        print(f"cache ok: hit served in {warm_s * 1000:.0f} ms "
              f"(counters {warm.cache})")

        bag, metrics = client.query(question.query, question.db)
        assert bag == question.query.evaluate(question.db), "/v1/query result differs"
        assert metrics.optimizer is not None, "/v1/query skipped the optimizer"
        assert {m.partitions for m in metrics.operators.values()} == {1}, metrics
        print(f"query ok: |result|={len(bag)} engine={metrics.engine}, "
              "optimized, one partition")

        registry_smoke(client)
        state_smoke(client)
        contract_smoke(port)
    finally:
        code = drain(process)
    check_exit(code)

    sharded_smoke(expected)
    print("api smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
