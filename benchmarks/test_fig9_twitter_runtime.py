"""Figure 9: runtime for the Twitter scenarios T1–T4 and T_ASD.

Paper shape: linear scaling; the join-bearing scenario (T3) is the most
expensive, the short pipelines (T2, T_ASD) the cheapest.
"""

import pytest

from harness import SCALE_STEPS, format_series, runtime_series, time_explain, write_result

SCENARIOS = ["T1", "T2", "T3", "T4", "T_ASD"]
#: Samples per side of each runtime comparison, taken alternately.
SAMPLES = 5


@pytest.mark.parametrize("name", SCENARIOS)
def test_fig9_rp_runtime(benchmark, name):
    benchmark.pedantic(lambda: time_explain(name, scale=80), rounds=3, iterations=1)


def test_fig9_series(benchmark):
    def build():
        blocks = [
            format_series(f"Figure 9 — {name}", runtime_series(name))
            for name in SCENARIOS
        ]
        # The compared cells, at the largest scale: the min of SAMPLES runs
        # per scenario, taken in turn, so a slow spell of the host lands on
        # every side of a comparison instead of on one side's single shot.
        samples: dict = {"T3": [], "T_ASD": [], "T2": []}
        for _ in range(SAMPLES):
            for name, runs in samples.items():
                runs.append(time_explain(name, SCALE_STEPS[-1])[0])
        return blocks, {name: min(runs) for name, runs in samples.items()}

    blocks, timings = benchmark.pedantic(build, rounds=1, iterations=1)
    write_result("fig9_twitter_runtime", "\n".join(blocks))
    # Shape: the self-join scenario dominates the simple projections.
    assert timings["T3"] > timings["T_ASD"]
    assert timings["T3"] > timings["T2"]
