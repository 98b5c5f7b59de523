"""perfbench: one command that runs any workload end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explain-nested --seed 1 --seconds 45 --trace 0

The run sets the workload up several times (``setup_s`` is the median), then
runs its closed loop for ``--seconds`` and checks every answer.  Diagnostics
come first on stdout; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Traces are written
under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import sys
from pathlib import Path

import measure
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Environment overrides of the program's defaults; cleared so the defaults
#: are what gets measured (``REPRO_BENCH_*`` are cleared as well).
CLEARED_ENV = ("REPRO_ENGINE", "REPRO_OPTIMIZE", "REPRO_BACKEND", "REPRO_WORKERS")

#: Complete set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Reference loops per host-speed checkpoint before and after a set-up.
SETUP_LOOPS = 10

#: Timed ops a run needs so that ten samples lie beyond its p90.
MIN_OPS = 100

#: End-to-end metrics (name → unit), reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (name → unit).  A layer a workload never enters reads 0.
PER_LAYER = {
    "whynot.tracing.ms": "ms",
    "whynot.rows_traced": "count",
    "whynot.sas": "count",
    "whynot.validate.ms": "ms",
    "whynot.approximate.ms": "ms",
    "whynot.backtrace.ms": "ms",
    "whynot.alternatives.ms": "ms",
    "whynot.summarize.ms": "ms",
    "engine.execute.ms": "ms",
    "engine.shuffled_rows": "count",
    "engine.kernel_hit_ratio": "ratio",
    "engine.optimize.ms": "ms",
    "engine.mutate.ms": "ms",
    "api.service.ms": "ms",
    "api.http.ms": "ms",
    "api.cache_hit_ratio": "ratio",
    "wire.decode.ms": "ms",
    "wire.encode.ms": "ms",
    "wire.response_bytes": "bytes",
    "wire.database_decode.s": "s",
    "lang.compile.ms": "ms",
    "factory.generate.s": "s",
    "factory.check.s": "s",
    "gc.pause.ms": "ms",
    "gc.gen2": "count",
    "cpu.ms": "ms",
    "unattributed.ms": "ms",
    "traced.throughput_ops_s": "1/s",
    "traced.latency_p50_ms": "ms",
    "traced.latency_p90_ms": "ms",
}


def clear_env() -> "list[str]":
    """Drop the environment overrides; return the names that were set."""
    names = [n for n in os.environ if n in CLEARED_ENV or n.startswith("REPRO_BENCH_")]
    for name in names:
        del os.environ[name]
    return sorted(names)


def end_to_end(setups: "list[measure.HostSpeed]", outcome, scaled: bool = True) -> dict:
    """The end-to-end metrics, with every time at reference host speed
    (``scaled``) or as the clock read it."""
    if scaled:
        setup_times = [speed.scaled_wall_s() for speed in setups]
        latencies = [t / s for t, s in zip(outcome.latencies, outcome.slowdowns)]
        wall = outcome.scaled_wall_s
    else:
        setup_times = [speed.wall_s() for speed in setups]
        latencies, wall = outcome.latencies, outcome.wall_s
    latencies_ms = [1000.0 * s for s in latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(latencies) / wall,
        "latency_p50_ms": measure.percentile(latencies_ms, 0.50),
        "latency_p90_ms": measure.percentile(latencies_ms, 0.90),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(setups: "list[dict]", outcome, e2e: dict) -> dict:
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(outcome.layers)
    layers["factory.generate.s"] = statistics.median(p["generate_s"] for p in setups)
    layers["factory.check.s"] = statistics.median(p["check_s"] for p in setups)
    for name in ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms"):
        layers[f"traced.{name}"] = e2e[name]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    # Termination unwinds like an interrupt, so the server is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cleared = clear_env()
    sys.path.insert(0, str(SRC))
    import workloads
    from repro.engine.backends import default_backend_name
    from repro.engine.columnar import default_engine
    from repro.engine.optimizer import default_optimize

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(workloads.WORKLOADS)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)
        recorder.watch_gc()

    workload = workloads.WORKLOADS[args.workload](args.seed, recorder, out_dir)
    setup_speeds: "list[measure.HostSpeed]" = []
    setups: "list[dict]" = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.close()
            gc.collect()
            speed = measure.HostSpeed(SETUP_LOOPS)
            speed.checkpoint()
            setups.append(workload.setup())
            speed.checkpoint()
            setup_speeds.append(speed)
        gc.collect()
        cpu_before = measure.cpu_times()
        outcome = workload.measure(args.seconds)
        steal = measure.steal_share(cpu_before, measure.cpu_times())
    finally:
        workload.close()
        if recorder is not None:
            recorder.unwatch_gc()

    if not outcome.latencies:
        print(f"perfbench: no op of {outcome.attempted} completed", file=sys.stderr)
        return 1
    e2e = end_to_end(setup_speeds, outcome)
    metrics, units = (e2e, END_TO_END)
    if args.trace:
        metrics, units = per_layer(setups, outcome, e2e), PER_LAYER
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "defaults": {
            "engine": default_engine(),
            "optimize": default_optimize(),
            "backend": default_backend_name(),
        },
        "cleared_env": cleared,
        "cpu_steal_share": round(steal, 4),
        "setup_s": [round(speed.wall_s(), 4) for speed in setup_speeds],
        "ops": len(outcome.latencies),
        "wall_s": round(outcome.wall_s, 3),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "setup_slowdowns": [
            round(speed.wall_s() / speed.scaled_wall_s(), 3) for speed in setup_speeds
        ],
        "host_slowdown": {
            q: round(measure.percentile(outcome.slowdowns, p), 3)
            for q, p in (("p10", 0.1), ("p50", 0.5), ("p90", 0.9))
        },
        "unscaled_end_to_end": {
            k: round(v, 4) for k, v in end_to_end(setup_speeds, outcome, scaled=False).items()
        },
        **outcome.notes,
    }
    if not args.trace:
        notes["end_to_end"] = {k: round(v, 4) for k, v in e2e.items()}
    if len(outcome.latencies) < MIN_OPS:
        print(f"perfbench: only {len(outcome.latencies)} timed ops; the p90 needs "
              f"{MIN_OPS}", file=sys.stderr)
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print("perfbench notes: " + json.dumps(notes, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
