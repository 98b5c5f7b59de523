"""Generated scenarios through the fuzz oracle's executor grid.

The satellite requirement: factory corpora must survive the differential
oracle exactly like hand-built scenarios — ``Query.evaluate`` vs the
partitioned executor, optimizer off and on, at 1/3/7 partitions,
plus the explanation differential on the why-not
question.  Any divergence is a real engine bug, not a flaky benchmark.
"""

import pytest

from repro.factory import FAMILIES, make_bundle
from repro.fuzz.oracle import check_case


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generated_scenario_survives_executor_grid(family):
    bundle = make_bundle(family, 1)
    report = check_case(
        bundle.database,
        bundle.query,
        question=bundle.question(),
        partitions=(1, 3, 7),
    )
    assert report.ok, [d.describe() for d in report.divergences]
