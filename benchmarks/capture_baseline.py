"""Capture a perf baseline for the figure benchmarks (run before *and* after
an optimisation PR; the harness embeds the saved baseline into BENCH_*.json).

Usage::

    PYTHONPATH=src python benchmarks/capture_baseline.py [--tag baseline]

Writes ``benchmarks/results/baseline_fig10.json`` and
``benchmarks/results/baseline_fig11.json``.

The plain-query timings run with the logical optimizer off (the harness's
``time_query`` default); the file's ``backend`` block records the
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import RESULTS_DIR, backend_info, time_explain, time_query  # noqa: E402

FIG10_SCENARIOS = ["Q1", "Q3", "Q4", "Q6", "Q10", "Q13"]
FIG10_SCALE = 60
FIG11_SCALE = 50

FIG11_LADDERS = {
    "T_ASD": ("T.quoted_status", ["T.retweeted_status", "T.pinned_status", "T.replied_status"]),
    "D1": ("P.title", ["P.booktitle", "P._key", "P.publisher._VALUE"]),
    "T3": ("T.entities.media", ["T.entities.urls", "T.entities.thumbs"]),
    "D4": ("P.publisher._VALUE", ["P.series._VALUE", "P.title", "P._key"]),
    "Q3": (
        "nestedOrders.o_lineitems.l_commitdate",
        [
            "nestedOrders.o_lineitems.l_shipdate",
            "nestedOrders.o_lineitems.l_receiptdate",
            "nestedOrders.o_orderdate",
        ],
    ),
}


def _ladder_alternatives(name: str, n_sas: int):
    if n_sas == 1:
        return []
    source, targets = FIG11_LADDERS[name]
    return [(source, targets[: n_sas - 1])]


def measure_fig10(rounds: int = 3) -> list[dict]:
    series = []
    for name in FIG10_SCENARIOS:
        query_s = min(time_query(name, FIG10_SCALE) for _ in range(rounds))
        nosa_s = min(
            time_explain(name, scale=FIG10_SCALE, with_sas=False)[0] for _ in range(rounds)
        )
        rp_times = [time_explain(name, scale=FIG10_SCALE) for _ in range(rounds)]
        rp_s = min(t for t, _ in rp_times)
        n_sas = rp_times[0][1]
        series.append(
            {
                "scenario": name,
                "scale": FIG10_SCALE,
                "query_s": query_s,
                "rpnosa_s": nosa_s,
                "rp_s": rp_s,
                "n_sas": n_sas,
            }
        )
    return series


def measure_fig11(rounds: int = 3) -> list[dict]:
    series = []
    for name in sorted(FIG11_LADDERS):
        n_max = len(FIG11_LADDERS[name][1]) + 1
        for n_sas in range(1, n_max + 1):
            timings = [
                time_explain(
                    name, scale=FIG11_SCALE, alternatives=_ladder_alternatives(name, n_sas)
                )
                for _ in range(rounds)
            ]
            series.append(
                {
                    "scenario": name,
                    "scale": FIG11_SCALE,
                    "n_sas": timings[0][1],
                    "rp_s": min(t for t, _ in timings),
                }
            )
    return series


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--tag", default="baseline")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    RESULTS_DIR.mkdir(exist_ok=True)
    for fig, measure in (("fig10", measure_fig10), ("fig11", measure_fig11)):
        payload = {
            "tag": args.tag,
            "figure": fig,
            "backend": backend_info(),
            "series": measure(args.rounds),
        }
        path = RESULTS_DIR / f"baseline_{fig}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
