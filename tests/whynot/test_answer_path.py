"""The answer path computes ``Q(D)`` on the compiled executor.

Validation, service misses, satisfied-witness answers and plain service
queries all run the optimized plan on the kernel executor; the reference
``Query.evaluate`` stays the oracle that tests and the fuzzer compare
against, so none of these paths may call it.
"""

import pytest

from repro.algebra.operators import Projection, Query, TableAccess
from repro.api import ExplainRequest, ExplanationService
from repro.api.service import SatisfiedResponse
from repro.engine.database import Database
from repro.nested.values import Bag, Tup
from repro.scenarios import get_scenario
from repro.whynot.explain import explain


@pytest.fixture
def no_reference(monkeypatch):
    """Make the reference evaluator raise for the duration of a test."""

    def refuse(self, db):
        raise AssertionError("the answer path called Query.evaluate")

    monkeypatch.setattr(Query, "evaluate", refuse)


def _service_with_answered_question():
    service = ExplanationService(cache_size=8)
    service.register_database("a", Database({"T": [Tup(a=1, b="v"), Tup(a=3, b="w")]}))
    return service, Query(Projection(TableAccess("T"), ["b"]))


def test_explain_validates_on_compiled_path(no_reference):
    scenario = get_scenario("GenSocial")
    question = scenario.question(1)
    result = explain(question, alternatives=scenario.alternatives)
    assert "validate" in result.timings
    assert scenario.gold in {frozenset(e.labels) for e in result.explanations}


def test_service_miss_validates_on_compiled_path(no_reference):
    service = ExplanationService(cache_size=8)
    response = service.explain(ExplainRequest(scenario="GenSocial", scale=1))
    assert not response.cached
    assert get_scenario("GenSocial").gold in response.explanation_sets()


def test_satisfied_witnesses_come_from_compiled_path(no_reference):
    service, query = _service_with_answered_question()
    request = ExplainRequest(
        query=query, nip=Tup(b="w"), database="a", satisfied_ok=True
    )
    response = service.explain(request)
    assert isinstance(response, SatisfiedResponse)
    assert response.witnesses == [Tup(b="w")]


def test_service_query_runs_on_executor(no_reference):
    service, query = _service_with_answered_question()
    result, metrics = service.query(query, "a")
    assert result == Bag([Tup(b="v"), Tup(b="w")])
    assert metrics.engine == "columnar"
