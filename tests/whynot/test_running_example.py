"""End-to-end tests on the paper's running example (Sections 1–5).

These tests tie the whole pipeline together and check it against both the
paper's narrative (Examples 1, 2, 19) and the exact brute-force enumerator.
"""

import pytest

from repro.nested.values import Bag, Tup
from repro.whynot.exact import enumerate_explanations
from repro.whynot.explain import explain
from repro.whynot.placeholders import ANY, STAR
from repro.whynot.question import WhyNotQuestion


GROUPS = [["person.address2", "person.address1"]]


class TestHeuristicPipeline:
    def test_example19_explanations(self, running_question):
        """E≈ = {{σ}, {F, σ}} with {σ} ranked first."""
        result = explain(running_question, alternatives=GROUPS)
        assert result.explanation_labels() == [("σ",), ("F", "σ")]

    def test_rpnosa_finds_only_sigma(self, running_question):
        result = explain(running_question, use_schema_alternatives=False)
        assert result.explanation_labels() == [("σ",)]

    def test_sa_count(self, running_question):
        result = explain(running_question, alternatives=GROUPS)
        assert result.n_sas == 2

    def test_explanations_agree_with_exact(self, running_question):
        """The heuristic matches the exact MSRs (tree distance) here."""
        heuristic = {e.ops for e in explain(running_question, alternatives=GROUPS).explanations}
        exact = {
            delta
            for delta, _ in enumerate_explanations(
                running_question, max_ops=2, distance="tree"
            ).explanations
        }
        assert heuristic == exact

    def test_all_explanations_are_srs(self, running_question):
        """§5.5: every returned explanation corresponds to a correct SR —
        check by cross-referencing the exact enumeration's SR deltas."""
        exact = enumerate_explanations(running_question, max_ops=2, distance="tree")
        sr_deltas = {sr.delta for sr in exact.srs}
        result = explain(running_question, alternatives=GROUPS)
        for e in result.explanations:
            assert e.ops in sr_deltas

    def test_describe_output(self, running_question):
        text = explain(running_question, alternatives=GROUPS).describe()
        assert "σ" in text and "side effects" in text

    def test_timings_recorded(self, running_question):
        result = explain(running_question, alternatives=GROUPS)
        assert set(result.timings) == {
            "validate",
            "backtrace",
            "alternatives",
            "tracing",
            "approximate",
        }

    def test_rows_traced_reported(self, running_question):
        result = explain(running_question, alternatives=GROUPS)
        assert result.rows_traced() > 10


class TestSideEffectBounds:
    def test_bounds_are_ordered(self, running_question):
        result = explain(running_question, alternatives=GROUPS)
        for e in result.explanations:
            assert e.lb <= e.ub

    def test_selection_explanations_have_zero_lb(self, running_question):
        result = explain(running_question, alternatives=GROUPS)
        sigma = next(e for e in result.explanations if e.labels == ("σ",))
        assert sigma.lb == 0


class TestRevalidationAblation:
    def test_ablation_still_finds_sigma(self, running_question):
        result = explain(
            running_question, alternatives=GROUPS, revalidate=False
        )
        assert ("σ",) in result.explanation_labels()


class TestIllPosed:
    def test_present_answer_rejected(self, running_query, person_db):
        phi = WhyNotQuestion(
            running_query, person_db, Tup(city="LA", nList=Bag([ANY, STAR]))
        )
        with pytest.raises(Exception):
            explain(phi, alternatives=GROUPS)

    def test_validation_can_be_skipped(self, running_query, person_db):
        phi = WhyNotQuestion(
            running_query, person_db, Tup(city="LA", nList=Bag([ANY, STAR]))
        )
        result = explain(phi, alternatives=GROUPS, validate=False)
        assert result is not None
