"""Scale-factor sweep over the factory families → ``BENCH_scale.json``.

For each :mod:`repro.factory` family (``tpch``, ``social``) × scale factor
this harness

1. generates the seeded database and **asserts every cardinality
   invariant** (exact table sizes and ``|Q(D)|`` as functions of the SF);
2. runs the full RP explanation pipeline end-to-end and records the
   per-step timings plus explanation counts;
3. summarizes the explanations (:mod:`repro.whynot.summarize`) and asserts
   the summaries **partition** the raw explanation set (counts sum, nothing
   uncovered) — a benchmark that drifts from correctness measures nothing.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # SF 1,5,10
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke    # SF 1,5 (CI)

``--smoke`` is the CI ``factory`` job's gate: the SF sweep shrinks to
{1, 5} and only the invariant, gold and partition assertions gate —
timings on CI runners are noise and are tracked, not gated, like the other
BENCH payloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.factory import FAMILIES, make_bundle  # noqa: E402
from repro.whynot.explain import explain  # noqa: E402
from repro.whynot.summarize import summarize_explanations  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

SCALE_FACTORS = [1, 5, 10]
SMOKE_SCALE_FACTORS = [1, 5]


def bench_point(family: str, sf: int) -> dict:
    """One (family, SF) measurement with all invariants asserted."""
    started = time.perf_counter()
    bundle = make_bundle(family, sf)
    generate_s = time.perf_counter() - started

    observed = bundle.check()  # raises on any violated cardinality invariant

    question = bundle.question()
    started = time.perf_counter()
    result = explain(question, alternatives=bundle.alternatives)
    explain_s = time.perf_counter() - started

    labels = [frozenset(e.labels) for e in result.explanations]
    if bundle.gold is not None and bundle.gold not in labels:
        raise AssertionError(
            f"{family} SF {sf}: gold {sorted(bundle.gold)} missing "
            f"from RP explanations {labels}"
        )

    started = time.perf_counter()
    summaries = summarize_explanations(result.explanations, result.sas)
    summarize_s = time.perf_counter() - started
    covered = sum(s.count for s in summaries)
    if covered != len(result.explanations):
        raise AssertionError(
            f"{family} SF {sf}: summaries cover {covered} of "
            f"{len(result.explanations)} explanations"
        )

    return {
        "family": family,
        "sf": sf,
        "rows": {k: v for k, v in observed.items() if k != "result_rows"},
        "result_rows": observed["result_rows"],
        "n_sas": result.n_sas,
        "n_explanations": len(result.explanations),
        "n_summaries": len(summaries),
        "explanations": [sorted(s) for s in labels],
        "generate_s": generate_s,
        "explain_s": explain_s,
        "summarize_s": summarize_s,
        "timings": dict(result.timings),
    }


def run_sweep(scale_factors: "list[int]") -> "list[dict]":
    """The full grid, every point's assertions checked."""
    series = []
    for family in sorted(FAMILIES):
        for sf in scale_factors:
            point = bench_point(family, sf)
            series.append(point)
            print(
                f"{family:>6} sf={sf:<3} "
                f"generate={point['generate_s'] * 1000:7.1f} ms "
                f"explain={point['explain_s'] * 1000:7.1f} ms "
                f"explanations={point['n_explanations']} "
                f"summaries={point['n_summaries']}"
            )
    return series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="SF {1,5} sweep, assertions only (CI factory job)")
    args = parser.parse_args()

    scale_factors = SMOKE_SCALE_FACTORS if args.smoke else SCALE_FACTORS
    series = run_sweep(scale_factors)

    if args.smoke:
        print("bench_scale smoke: OK (invariants, gold, partition)")
        return 0

    payload = {
        "bench": "scale",
        "families": sorted(FAMILIES),
        "scale_factors": scale_factors,
        "series": series,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "BENCH_scale.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
