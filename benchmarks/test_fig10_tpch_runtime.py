"""Figure 10: TPC-H runtimes — plain query vs RPnoSA vs RP, plus #SAs.

Paper shape: RP ≥ RPnoSA ≥ query everywhere; the overhead grows with the
number of schema alternatives (Q4's 12 SAs cost more than Q13's single SA,
relative to their own plain queries).
"""

import pytest

from harness import emit_fig10_bench, time_explain, time_query, write_result

SCENARIOS = ["Q1", "Q3", "Q4", "Q6", "Q10", "Q13"]
SCALE = 60


@pytest.mark.parametrize("name", SCENARIOS)
def test_fig10_rp_runtime(benchmark, name):
    benchmark.pedantic(lambda: time_explain(name, scale=SCALE), rounds=3, iterations=1)


@pytest.mark.parametrize("name", SCENARIOS)
def test_fig10_rpnosa_runtime(benchmark, name):
    benchmark.pedantic(
        lambda: time_explain(name, scale=SCALE, with_sas=False), rounds=3, iterations=1
    )


def test_fig10_series(benchmark):
    lines = [
        f"{'query':>6} {'Spark[s]':>10} {'opt[s]':>10} {'RPnoSA[s]':>10} {'RP[s]':>10} "
        f"{'noSA×':>7} {'RP×':>7} {'#SAs':>5}"
    ]
    rows = {}

    def build():
        # Each compared time (query, RPnoSA, RP) is the min of at least
        # ``rounds`` samples, taken in turn, so a slow spell of the host
        # lands on every side of a comparison instead of on one side's batch.
        rounds = 5
        # The plain-query timings are sub-millisecond, where scheduler noise
        # easily exceeds the measurement; they are cheap enough to take more
        # samples than the pipeline timings.
        query_rounds = 12
        for name in SCENARIOS:
            # Plain query both optimizer-off and optimizer-on: every emitted
            # payload carries the on-vs-off comparison regardless of the
            # REPRO_BENCH_OPTIMIZE setting used for the pipeline timings.
            query_opt_s = min(
                time_query(name, SCALE, optimize=True) for _ in range(query_rounds)
            )
            query_runs, nosa_runs, rp_runs = [], [], []
            for _ in range(rounds):
                query_runs += [time_query(name, SCALE, optimize=False) for _ in range(2)]
                nosa_runs.append(time_explain(name, scale=SCALE, with_sas=False)[0])
                rp_runs.append(time_explain(name, scale=SCALE))
            query_s = min(query_runs)
            nosa_s = min(nosa_runs)
            rp_s = min(seconds for seconds, _ in rp_runs)
            n_sas = rp_runs[0][1]
            rows[name] = (query_s, query_opt_s, nosa_s, rp_s, n_sas)
            lines.append(
                f"{name:>6} {query_s:>10.4f} {query_opt_s:>10.4f} {nosa_s:>10.4f} "
                f"{rp_s:>10.4f} "
                f"{nosa_s / query_s:>6.1f}x {rp_s / query_s:>6.1f}x {n_sas:>5}"
            )

    benchmark.pedantic(build, rounds=1, iterations=1)
    write_result("fig10_tpch_runtime", "\n".join(lines) + "\n")
    emit_fig10_bench(
        [
            {
                "scenario": name,
                "scale": SCALE,
                "query_s": query_s,
                "query_opt_s": query_opt_s,
                "rpnosa_s": nosa_s,
                "rp_s": rp_s,
                "n_sas": n_sas,
            }
            for name, (query_s, query_opt_s, nosa_s, rp_s, n_sas) in rows.items()
        ]
    )

    # Shape assertions: tracing always costs more than running the query,
    # and the full algorithm costs at least as much as the SA-free variant.
    for name, (query_s, _query_opt_s, nosa_s, rp_s, n_sas) in rows.items():
        assert nosa_s > query_s, f"{name}: RPnoSA should exceed the plain query"
        assert rp_s >= nosa_s * 0.8, f"{name}: RP should not undercut RPnoSA"
    # More SAs → more relative overhead (compare the extremes).
    q4_rel = rows["Q4"][3] / rows["Q4"][0]
    q13_rel = rows["Q13"][3] / rows["Q13"][0]
    assert rows["Q4"][4] > rows["Q13"][4]
    assert q4_rel > q13_rel
