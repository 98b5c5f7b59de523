"""Load/soak harness for the serving front ends → ``BENCH_serving.json``.

Boots ``python -m repro serve`` as a real subprocess (single-process and
``--processes N`` sharded), drives a seeded request mix from concurrent
closed-loop clients, and records:

* **saturation QPS** — the best throughput across a client-count sweep;
* **latency percentiles** — client-observed p50/p95/p99 per step;
* **cache hit-rate / coalesce count / rejected count** — from
  ``GET /v1/stats``, so the routing-locality and backpressure behaviour is
  part of the tracked payload.

The 503s the server sheds under overload are *backpressure working as
designed* and are counted separately from errors; any other failure is an
error and fails the run.

Usage::

    PYTHONPATH=src python benchmarks/serve_load.py            # full sweep
    PYTHONPATH=src python benchmarks/serve_load.py --smoke    # CI gate
    PYTHONPATH=src python benchmarks/serve_load.py --results-dir benchmarks/results

The payload goes to a fresh temporary directory unless ``--results-dir
DIR`` is given, so a run leaves the tracked ``benchmarks/results/`` copy
alone; the script prints the path it wrote.  ``--smoke`` runs a short fixed-request-count pass against both front ends
and asserts zero errors and a warm cache (hit-rate > 0) — the regression
gate the CI ``serve-load`` job runs on every push.  The full sweep's
multi-vs-single-process speedup is only meaningful on a multi-core host;
``cpu_count`` is recorded in the payload so readers can tell.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import ApiError, Client  # noqa: E402
from repro.api.stats import percentile  # noqa: E402
from repro.wire import serving_stats_from_json  # noqa: E402

#: Seeded request mix: repeats make cache hits possible, the scale spread
#: keeps per-request cost heterogeneous (weights roughly match a serving
#: workload where popular questions dominate).
MIX = [
    ("Q1", 20, 4),
    ("Q4", 20, 3),
    ("T2", 20, 3),
    ("Q1", 30, 2),
    ("Q6", 20, 2),
    ("Q4", 40, 1),
    # Factory-generated corpora (scale = scale factor, see docs/SCENARIOS.md)
    ("GenTPCH", 2, 2),
    ("GenSocial", 2, 1),
]
BOOT_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_health(client: Client, deadline: float) -> dict:
    last_error: "Exception | None" = None
    while time.monotonic() < deadline:
        try:
            health = client.health()
            if health.get("status") == "ok":
                return health
        except Exception as exc:  # noqa: BLE001 - booting server refuses
            last_error = exc
        time.sleep(0.2)
    raise TimeoutError(f"server did not become healthy: {last_error!r}")


class ServerUnderTest:
    """One ``python -m repro serve`` subprocess on a free port."""

    def __init__(self, processes: "int | None", cache_size: int = 256):
        self.processes = processes
        args = [sys.executable, "-m", "repro", "serve", "--quiet",
                "--port", str(free_port()), "--cache-size", str(cache_size)]
        if processes is not None:
            args += ["--processes", str(processes)]
        self.port = int(args[args.index("--port") + 1])
        self.process = subprocess.Popen(
            args,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.base_url = f"http://127.0.0.1:{self.port}"
        wait_for_health(Client(self.base_url), time.monotonic() + BOOT_TIMEOUT_S)

    def stats(self) -> "tuple[dict, list[dict]]":
        return serving_stats_from_json(
            Client(self.base_url)._request("GET", "/stats")
        )

    def stop(self) -> str:
        self.process.terminate()
        try:
            output, _ = self.process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
        return output or ""


def run_step(
    base_url: str,
    clients: int,
    seed: int,
    duration_s: float = 0.0,
    requests_total: int = 0,
) -> dict:
    """Closed-loop load: ``clients`` threads issue the seeded mix.

    Bounded either by wall time (``duration_s``) or by a fixed request
    count (``requests_total``, smoke mode).  Returns client-side counters;
    latencies cover successful requests only.
    """
    rng = random.Random(seed)
    weighted = [(s, sc) for s, sc, w in MIX for _ in range(w)]
    plan = None
    if requests_total:
        plan = [rng.choice(weighted) for _ in range(requests_total)]
    lock = threading.Lock()
    state = {"ok": 0, "rejected": 0, "errors": 0, "latencies": [], "next": 0}
    stop_at = time.monotonic() + duration_s if duration_s else None

    def worker(worker_index: int) -> None:
        client = Client(base_url, timeout=120)
        local_rng = random.Random(seed * 1000 + worker_index)
        while True:
            if plan is not None:
                with lock:
                    if state["next"] >= len(plan):
                        return
                    scenario, scale = plan[state["next"]]
                    state["next"] += 1
            else:
                if time.monotonic() >= stop_at:
                    return
                scenario, scale = local_rng.choice(weighted)
            started = time.perf_counter()
            try:
                client.explain(scenario=scenario, scale=scale)
            except ApiError as exc:
                with lock:
                    if exc.status == 503:
                        state["rejected"] += 1
                    else:
                        state["errors"] += 1
                continue
            except Exception:  # noqa: BLE001 - transport failure
                with lock:
                    state["errors"] += 1
                continue
            elapsed = time.perf_counter() - started
            with lock:
                state["ok"] += 1
                state["latencies"].append(elapsed)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    ordered = sorted(state["latencies"])
    return {
        "clients": clients,
        "wall_s": round(wall, 3),
        "ok": state["ok"],
        "rejected": state["rejected"],
        "errors": state["errors"],
        "qps": round(state["ok"] / wall, 2) if wall else 0.0,
        "p50_ms": _ms(percentile(ordered, 0.50)),
        "p95_ms": _ms(percentile(ordered, 0.95)),
        "p99_ms": _ms(percentile(ordered, 0.99)),
    }


def _ms(seconds: "float | None") -> "float | None":
    return round(seconds * 1000, 2) if seconds is not None else None


def run_leg(
    processes: "int | None",
    client_counts: "list[int]",
    seed: int,
    duration_s: float,
    requests_total: int,
) -> dict:
    """Sweep client counts against one server configuration."""
    label = "inprocess" if processes is None else f"sharded-{processes}"
    server = ServerUnderTest(processes)
    try:
        steps = []
        for clients in client_counts:
            step = run_step(
                server.base_url, clients, seed,
                duration_s=duration_s, requests_total=requests_total,
            )
            steps.append(step)
            print(f"  [{label}] clients={clients}: qps={step['qps']} "
                  f"p50={step['p50_ms']}ms p95={step['p95_ms']}ms "
                  f"ok={step['ok']} rejected={step['rejected']} "
                  f"errors={step['errors']}")
        serving, _ = server.stats()
        saturated = max(steps, key=lambda s: s["qps"])
        return {
            "mode": serving["mode"],
            "processes": processes or 1,
            "steps": steps,
            "saturation_qps": saturated["qps"],
            "saturation_clients": saturated["clients"],
            "latency_at_saturation_ms": {
                "p50_ms": saturated["p50_ms"],
                "p95_ms": saturated["p95_ms"],
                "p99_ms": saturated["p99_ms"],
            },
            "errors": sum(s["errors"] for s in steps),
            "rejected": sum(s["rejected"] for s in steps),
            "server_stats": {
                "requests": serving["requests"],
                "completed": serving["completed"],
                "coalesced": serving["coalesced"],
                "rejected": serving["rejected"],
                "hit_rate": serving["cache"]["hit_rate"],
            },
        }
    finally:
        log = server.stop()
        if "Traceback" in log:
            print(log)
            raise RuntimeError(f"{label} server logged a traceback")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--processes", type=int, default=min(4, os.cpu_count() or 1),
                        help="worker count for the sharded leg")
    parser.add_argument("--clients", type=str, default="1,2,4,8",
                        help="comma-separated client counts to sweep")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds per sweep step (ignored with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="short fixed-count regression gate (CI)")
    parser.add_argument("--results-dir", metavar="DIR", default=None,
                        help="write BENCH_serving.json into DIR "
                        "(default: a fresh temporary directory)")
    args = parser.parse_args()

    client_counts = [int(c) for c in args.clients.split(",") if c]
    requests_total = 0
    duration_s = args.duration
    if args.smoke:
        client_counts, requests_total, duration_s = [4], 60, 0.0

    legs = []
    for processes in (None, max(2, args.processes) if not args.smoke else 2):
        legs.append(run_leg(
            processes, client_counts, args.seed, duration_s, requests_total,
        ))

    single, sharded = legs
    payload = {
        "benchmark": "serving",
        "seed": args.seed,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "mix": [{"scenario": s, "scale": sc, "weight": w} for s, sc, w in MIX],
        "legs": legs,
        "sharded_vs_single_qps": (
            round(sharded["saturation_qps"] / single["saturation_qps"], 2)
            if single["saturation_qps"] else None
        ),
    }
    if args.results_dir is None:
        results_dir = Path(tempfile.mkdtemp(prefix="serve-load-"))
    else:
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / "BENCH_serving.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    print(f"saturation: single={single['saturation_qps']} qps, "
          f"sharded={sharded['saturation_qps']} qps "
          f"(x{payload['sharded_vs_single_qps']} on {payload['cpu_count']} cores)")

    failures = []
    for leg in legs:
        if leg["errors"]:
            failures.append(f"{leg['mode']}-{leg['processes']}: "
                            f"{leg['errors']} errors")
        hit_rate = leg["server_stats"]["hit_rate"]
        if args.smoke and not hit_rate:
            failures.append(f"{leg['mode']}-{leg['processes']}: cold cache "
                            f"(hit_rate={hit_rate}) — routing locality broken?")
    if failures:
        print("serve load: FAIL — " + "; ".join(failures))
        return 1
    print("serve load: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
