"""Figure 11: runtime as a function of the number of schema alternatives.

Paper shape: adding an SA costs a sub-linear factor per SA for simple
scenarios (T_ASD, D1, T3) — cheaper than running separate queries — while the
hardest scenarios (D4, Q3: flatten + join + nesting + aggregation) decelerate
with every added alternative.
"""

import pytest

from harness import emit_fig11_bench, time_explain, write_result

# Ladders of directed alternatives producing 1..4 schema alternatives.
LADDERS = {
    "T_ASD": (
        "T.quoted_status",
        ["T.retweeted_status", "T.pinned_status", "T.replied_status"],
    ),
    "D1": ("P.title", ["P.booktitle", "P._key", "P.publisher._VALUE"]),
    "T3": ("T.entities.media", ["T.entities.urls", "T.entities.thumbs"]),
    "D4": (
        "P.publisher._VALUE",
        ["P.series._VALUE", "P.title", "P._key"],
    ),
    "Q3": (
        "nestedOrders.o_lineitems.l_commitdate",
        [
            "nestedOrders.o_lineitems.l_shipdate",
            "nestedOrders.o_lineitems.l_receiptdate",
            "nestedOrders.o_orderdate",
        ],
    ),
}

SCALE = 50
#: Samples per SA count, taken in turn across the counts of a ladder.
SAMPLES = 5


def ladder_alternatives(name: str, n_sas: int):
    """Alternative groups yielding exactly ``n_sas`` schema alternatives."""
    if n_sas == 1:
        return []
    source, targets = LADDERS[name]
    return [(source, targets[: n_sas - 1])]


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_fig11_four_sas(benchmark, name):
    n_max = len(LADDERS[name][1]) + 1
    benchmark.pedantic(
        lambda: time_explain(
            name, scale=SCALE, alternatives=ladder_alternatives(name, n_max)
        ),
        rounds=3,
        iterations=1,
    )


def test_fig11_series(benchmark):
    blocks, series = benchmark.pedantic(_build_blocks, rounds=1, iterations=1)
    write_result("fig11_sa_scaling", "\n\n".join(blocks) + "\n")
    emit_fig11_bench(series)


def _build_blocks():
    blocks = []
    series = []
    for name in sorted(LADDERS):
        n_max = len(LADDERS[name][1]) + 1
        lines = [f"Figure 11 — {name}", f"{'#SAs':>5} {'RP[s]':>10} {'factor/SA':>10}"]
        # Each SA count's time is the min of SAMPLES runs, the counts taken
        # in turn, so a slow spell of the host lands on every count instead
        # of on one count's batch.
        counts = range(1, n_max + 1)
        runs: dict = {n_sas: [] for n_sas in counts}
        for _ in range(SAMPLES):
            for n_sas in counts:
                runs[n_sas].append(
                    time_explain(
                        name, scale=SCALE, alternatives=ladder_alternatives(name, n_sas)
                    )
                )
        timings = []
        for n_sas in counts:
            seconds = min(s for s, _ in runs[n_sas])
            actual = runs[n_sas][0][1]
            timings.append(seconds)
            factor = (
                (seconds - timings[-2]) / timings[0] if len(timings) > 1 else 0.0
            )
            lines.append(f"{actual:>5} {seconds:>10.4f} {factor:>10.2f}")
            series.append(
                {"scenario": name, "scale": SCALE, "n_sas": actual, "rp_s": seconds}
            )
        blocks.append("\n".join(lines))
        # Shape: runtime grows with the number of SAs but stays cheaper than
        # running that many independent traces from scratch.  With SA-shared
        # tracing the growth should now be clearly sublinear in #SAs.
        assert timings[-1] < timings[0] * (len(timings) + 2)
    return blocks, series
