"""Shared benchmark harness (see DESIGN.md §4 for the experiment index).

The paper's 100–500 GB inputs become five row-count steps; the "Spark" line
of Figures 8–10 becomes the plain engine execution of the unmodified query.
Every benchmark writes the series it measures to ``benchmarks/results/`` so
the figures/tables can be regenerated and compared against EXPERIMENTS.md.

Machine-readable benchmark tracking
-----------------------------------

Figure benchmarks additionally emit ``BENCH_<figure>.json``: the measured
series plus — when a ``baseline_<figure>.json`` exists (captured with
``benchmarks/capture_baseline.py`` *before* an optimisation) — the matching
baseline timings and derived speedups.  This keeps the perf trajectory of
the evaluation core observable across PRs; see ROADMAP.md §Performance.

Optimizer knob
--------------

``REPRO_BENCH_OPTIMIZE=1`` runs the logical plan optimizer
(:mod:`repro.engine.optimizer`) on the timed answer path; the flag is
recorded in the payloads, and the Figure-10 series always measures the plain
query both optimizer-off and optimizer-on (``query_s`` vs ``query_opt_s``)
so every ``BENCH_fig10.json`` carries the on-vs-off comparison.

See ``docs/BENCHMARKS.md`` for how to read the emitted files.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Optional

from repro.baselines.common import build_s1_trace
from repro.baselines.wnpp import wnpp_explain
from repro.engine.backends import default_backend_name
from repro.engine.columnar import default_engine
from repro.engine.executor import Executor
from repro.scenarios import get_scenario
from repro.whynot.explain import explain

SCALE_STEPS = [20, 40, 60, 80, 100]

RESULTS_DIR = Path(__file__).parent / "results"


def bench_optimize() -> bool:
    """Whether timed runs use the plan optimizer (``REPRO_BENCH_OPTIMIZE``)."""
    return os.environ.get("REPRO_BENCH_OPTIMIZE", "").strip().lower() in (
        "1",
        "true",
        "on",
        "yes",
    )


def backend_info() -> dict:
    """Backend/optimizer/engine metadata embedded into the BENCH payloads
    (every run is serial, in one process)."""
    return {
        "name": default_backend_name(),
        "workers": 1,
        "optimize": bench_optimize(),
        "engine": default_engine(),
    }


#: Where :func:`write_result`/:func:`write_json` put files.  Baselines are
#: always read from ``RESULTS_DIR``; under pytest, ``conftest.py`` points this
#: at a session temporary directory unless ``--bench-results DIR`` is given,
#: so test runs never rewrite the tracked results.
OUTPUT_DIR = RESULTS_DIR


def write_result(name: str, text: str) -> None:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text)


def write_json(name: str, payload: Any) -> None:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")


def load_baseline(figure: str) -> Optional[dict]:
    """The pre-optimisation baseline for *figure*, if one was captured."""
    path = RESULTS_DIR / f"baseline_{figure}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def emit_fig10_bench(series: "list[dict]") -> dict:
    """Write ``BENCH_fig10.json``: per-scenario timings + baseline speedups.

    *series* rows: ``{"scenario", "scale", "query_s", "rpnosa_s", "rp_s",
    "n_sas"}``, optionally plus ``query_opt_s`` (the plain query with the
    logical optimizer on) — when present, the payload derives the
    optimizer-on vs optimizer-off comparison (``optimizer_query_speedups``).
    """
    baseline = load_baseline("fig10")
    payload: dict[str, Any] = {
        "figure": "fig10",
        "backend": backend_info(),
        "series": series,
    }
    if any("query_opt_s" in row for row in series):
        speedups = {
            row["scenario"]: (row["query_s"] / row["query_opt_s"])
            for row in series
            if row.get("query_opt_s")
        }
        off_total = sum(row["query_s"] for row in series if row.get("query_opt_s"))
        on_total = sum(row["query_opt_s"] for row in series if row.get("query_opt_s"))
        payload["optimizer_query_speedups"] = speedups
        payload["optimizer_query_speedup_aggregate"] = (
            off_total / on_total if on_total else None
        )
    if baseline is not None:
        base_by_name = {row["scenario"]: row for row in baseline["series"]}
        speedups = {}
        query_speedups = {}
        base_total = 0.0
        new_total = 0.0
        base_query_total = 0.0
        new_query_total = 0.0
        for row in series:
            base_row = base_by_name.get(row["scenario"])
            if base_row is None:
                continue
            row["baseline_rp_s"] = base_row["rp_s"]
            row["baseline_query_s"] = base_row["query_s"]
            row["rp_speedup"] = base_row["rp_s"] / row["rp_s"] if row["rp_s"] else None
            row["query_speedup"] = (
                base_row["query_s"] / row["query_s"] if row["query_s"] else None
            )
            speedups[row["scenario"]] = row["rp_speedup"]
            query_speedups[row["scenario"]] = row["query_speedup"]
            base_total += base_row["rp_s"]
            new_total += row["rp_s"]
            base_query_total += base_row["query_s"]
            new_query_total += row["query_s"]
        payload["baseline_tag"] = baseline.get("tag", "baseline")
        payload["rp_speedups"] = speedups
        payload["rp_speedup_aggregate"] = base_total / new_total if new_total else None
        payload["query_speedups"] = query_speedups
        payload["query_speedup_aggregate"] = (
            base_query_total / new_query_total if new_query_total else None
        )
    write_json("BENCH_fig10", payload)
    return payload


def emit_fig11_bench(series: "list[dict]") -> dict:
    """Write ``BENCH_fig11.json``: SA-scaling timings + growth factors.

    *series* rows: ``{"scenario", "scale", "n_sas", "rp_s"}``.  Per ladder,
    ``growth_factor`` is rp(max #SAs)/rp(1 SA); sublinear means it stays
    below the #SAs ratio (the paper's Fig. 11 claim, now achievable because
    tracing shares work across SAs).
    """
    baseline = load_baseline("fig11")
    ladders: dict[str, list[dict]] = {}
    for row in series:
        ladders.setdefault(row["scenario"], []).append(row)
    growth = {}
    for name, rows in ladders.items():
        rows.sort(key=lambda r: r["n_sas"])
        first, last = rows[0], rows[-1]
        factor = last["rp_s"] / first["rp_s"] if first["rp_s"] else None
        growth[name] = {
            "n_sas_max": last["n_sas"],
            "growth_factor": factor,
            "sublinear": factor is not None and factor < last["n_sas"],
        }
    payload: dict[str, Any] = {
        "figure": "fig11",
        "backend": backend_info(),
        "series": series,
        "growth": growth,
    }
    if baseline is not None:
        base_by_key = {
            (row["scenario"], row["n_sas"]): row for row in baseline["series"]
        }
        base_total = 0.0
        new_total = 0.0
        for row in series:
            base_row = base_by_key.get((row["scenario"], row["n_sas"]))
            if base_row is None:
                continue
            row["baseline_rp_s"] = base_row["rp_s"]
            row["rp_speedup"] = base_row["rp_s"] / row["rp_s"] if row["rp_s"] else None
            base_total += base_row["rp_s"]
            new_total += row["rp_s"]
        payload["baseline_tag"] = baseline.get("tag", "baseline")
        payload["rp_speedup_aggregate"] = base_total / new_total if new_total else None
    write_json("BENCH_fig11", payload)
    return payload


@contextmanager
def _gc_paused():
    """Disable the cyclic GC around a timed region (``timeit`` convention).

    The plain-query timings are sub-millisecond; a collection triggered by
    garbage from the much larger pipeline runs interleaved in the same
    process would otherwise dominate the measurement.  Collection is forced
    once up front so the timed region starts from a clean heap.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def time_query(scenario_name: str, scale: int, optimize=None) -> float:
    """Wall time of the plain (partitioned) execution of the scenario query."""
    scenario = get_scenario(scenario_name)
    question = scenario.question(scale)
    executor = Executor(
        num_partitions=4,
        optimize=optimize if optimize is not None else bench_optimize(),
    )
    with _gc_paused():
        started = time.perf_counter()
        executor.execute(question.query, question.db)
        return time.perf_counter() - started


def time_explain(
    scenario_name: str,
    scale: int,
    with_sas: bool = True,
    alternatives=None,
    optimize=None,
) -> tuple[float, int]:
    """Wall time of the full why-not pipeline; returns (seconds, #SAs)."""
    scenario = get_scenario(scenario_name)
    question = scenario.question(scale)
    groups = scenario.alternatives if alternatives is None else alternatives
    started = time.perf_counter()
    result = explain(
        question,
        alternatives=groups,
        use_schema_alternatives=with_sas,
        validate=False,
        optimize=optimize if optimize is not None else bench_optimize(),
    )
    return time.perf_counter() - started, result.n_sas


def time_wnpp(scenario_name: str, scale: int) -> float:
    scenario = get_scenario(scenario_name)
    question = scenario.question(scale)
    started = time.perf_counter()
    s1 = build_s1_trace(question)
    wnpp_explain(question, s1)
    return time.perf_counter() - started


def runtime_series(scenario_name: str, scales=SCALE_STEPS) -> list[dict]:
    """(scale, query time, RP time, overhead factor) series for one scenario."""
    series = []
    for scale in scales:
        query_s = time_query(scenario_name, scale)
        rp_s, n_sas = time_explain(scenario_name, scale)
        series.append(
            {
                "scale": scale,
                "query_s": query_s,
                "rp_s": rp_s,
                "overhead": rp_s / query_s if query_s > 0 else float("inf"),
                "n_sas": n_sas,
            }
        )
    return series


def format_series(title: str, series: list[dict]) -> str:
    lines = [title, f"{'scale':>8} {'query[s]':>10} {'RP[s]':>10} {'overhead':>9} {'#SAs':>5}"]
    for row in series:
        lines.append(
            f"{row['scale']:>8} {row['query_s']:>10.4f} {row['rp_s']:>10.4f} "
            f"{row['overhead']:>8.1f}x {row['n_sas']:>5}"
        )
    return "\n".join(lines) + "\n"
