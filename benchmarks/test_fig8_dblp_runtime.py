"""Figure 8: runtime for the DBLP scenarios D1–D5 across dataset sizes.

Paper shape to reproduce: runtime grows linearly with the input size, and
the why-not pipeline exceeds the plain query's runtime by a scenario-
dependent constant factor (2.4×–78.2× on Spark; our factors differ in
magnitude but not in ordering: more operators / more annotations → larger
overhead).
"""

import pytest

from harness import SCALE_STEPS, format_series, runtime_series, time_explain, write_result

SCENARIOS = ["D1", "D2", "D3", "D4", "D5"]
#: Samples per side of each runtime comparison, taken alternately.
SAMPLES = 5


@pytest.mark.parametrize("name", SCENARIOS)
def test_fig8_rp_runtime(benchmark, name):
    """Benchmark the full RP pipeline at the default scale."""
    benchmark.pedantic(
        lambda: time_explain(name, scale=60), rounds=3, iterations=1
    )


def test_fig8_series(benchmark):
    """Regenerate the Figure 8 series (written to benchmarks/results/)."""
    blocks = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    write_result("fig8_dblp_runtime", "\n".join(blocks))


def _build_series():
    blocks = []
    for name in SCENARIOS:
        series = runtime_series(name)
        blocks.append(format_series(f"Figure 8 — {name}", series))
        # Linear scaling: runtime at the largest scale stays within a
        # generous factor of the linear extrapolation from the smallest.
        # Each side is the min of SAMPLES runs, the two scales taken in
        # turn, so a slow spell of the host lands on both sides instead of
        # on one side's single shot.
        first, last = SCALE_STEPS[0], SCALE_STEPS[-1]
        runs: dict = {first: [], last: []}
        for _ in range(SAMPLES):
            for scale, samples in runs.items():
                samples.append(time_explain(name, scale)[0])
        ratio = min(runs[last]) / max(min(runs[first]), 1e-9)
        scale_ratio = last / first
        assert ratio < scale_ratio * 8, f"{name} scales superlinearly: {ratio:.1f}"
    return blocks
