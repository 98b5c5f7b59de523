"""Tier-1 differential fuzzing: the pinned corpus plus a seeded mini sweep.

The corpus files under ``tests/fuzz/corpus/`` are minimized repro cases of
bugs the fuzzer found (each ``found_by`` field names the seed); they must
stay green forever.  The mini sweep keeps a slice of the full randomized
grid in tier-1 — the CI ``fuzz`` job and ``python -m repro fuzz`` run the
larger sweeps.
"""

import glob
import os

import pytest

from repro.fuzz import FuzzConfig, run_sweep
from repro.fuzz.serialize import load_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _corpus_id(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


class TestPinnedCorpus:
    def test_corpus_is_not_empty(self):
        assert CORPUS_FILES, "the pinned fuzz corpus disappeared"

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=_corpus_id)
    def test_corpus_case_has_no_divergence(self, path):
        case = load_case(path)
        report = case.check()
        assert report.reference_error is None, (
            f"{path}: reference evaluation raised {report.reference_error}"
        )
        assert report.ok, f"{path} diverged:\n{report.describe()}"


class TestPinnedRegressions:
    """Each fixed bug, asserted on its minimized corpus case directly."""

    def _load(self, name):
        return load_case(os.path.join(CORPUS_DIR, name))

    def test_nan_group_key_forms_one_group(self):
        # seed3-case8 family: two source NaNs must group together everywhere.
        case = self._load("nan_group_key.json")
        result = case.query.evaluate(case.database())
        counts = sorted(row["g0"] for row in result)
        assert counts == [1, 2]  # one NaN group of 2, one 1.5-group of 1

    def test_nan_join_key_matches(self):
        # seed9-case12: NaN equi-joins NaN under the canonical-NaN invariant.
        case = self._load("nan_join_key.json")
        assert len(case.query.evaluate(case.database())) == 1

    def test_nan_arith_group_key_is_canonical(self):
        # seed2 family: NaN + x must group as one value, not one per row.
        case = self._load("nan_arith_group_key.json")
        result = list(case.query.evaluate(case.database()))
        assert len(result) == 1 and result[0]["g0"] == 2

    def test_min_over_nan_group_is_order_independent(self):
        # seed21-case22: min([2, nan]) must be 2 on every partitioning.
        case = self._load("nan_min_max_partition_order.json")
        result = list(case.query.evaluate(case.database()))
        assert result[0]["g1"] == 2


class TestMiniSweep:
    """A pinned slice of the randomized grid inside the tier-1 budget."""

    def test_seed4_mini_sweep_has_no_divergence(self):
        result = run_sweep(4, 40, FuzzConfig())
        details = "\n\n".join(
            f"{case.name}:\n{report.describe()}" for case, report in result.failures
        )
        assert result.ok, f"divergent cases:\n{details}"
        assert result.cases == 40
        assert result.with_question > 20  # the explain differential really ran
        # The matcher axis compared rows, and the summary line counts them.
        assert result.matcher_checks > 0
        assert f"{result.matcher_checks} matcher checks" in result.summary()
        # Siblings re-annotated explain states through recheck kernels.
        assert 0 < result.reannotated_checks <= result.stateful_checks
        assert result.recheck_runs > 0
        assert (
            f"({result.reannotated_checks} re-annotated, "
            f"{result.recheck_runs} recheck kernel runs)"
        ) in result.summary()

    def test_different_seed_stays_clean_without_questions(self):
        result = run_sweep(77, 15, FuzzConfig(depth=3, ops=8), questions=False)
        assert result.ok, "\n".join(
            report.describe() for _, report in result.failures
        )
