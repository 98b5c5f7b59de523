"""Explanations after a write: the service's answer ≡ a fresh ``explain``.

Every version of a database mutated through
:meth:`~repro.api.service.ExplanationService.mutate_database` must yield the
identical ranked explanation label sets through the service (its version-
aware result cache and per-query explain states) as a from-scratch
``explain`` on that version — including the edge cases: deleting the row
that feeds the only explanation, an insert that flips the question to
answered (both raise ``IllPosedQuestion``; the service returns witnesses
under ``satisfied_ok``) and the delete that makes it well-posed again, and
mutations addressed in canonically-equal forms.  A write to a relation the
query does not read keeps its cached result and explain state warm.
"""

from dataclasses import replace

import pytest

from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.operators import Projection, Query, Selection, TableAccess
from repro.api import ExplainRequest, ExplanationService
from repro.api.service import ExplainOptions, SatisfiedResponse, read_tables
from repro.engine.database import Database
from repro.nested.values import Tup
from repro.scenarios import get_scenario
from repro.whynot.explain import explain
from repro.whynot.question import IllPosedQuestion, WhyNotQuestion


def _labels(result):
    return [frozenset(e.labels) for e in result.explanations]


def _scratch(query, db, nip, alternatives=()):
    return explain(
        WhyNotQuestion(query, db, nip), alternatives=alternatives, backend="serial"
    )


def _same_as_scratch(service, request, db):
    """Assert the service answers *request* on *db* like a fresh explain:
    the same label sets, or the same exception type.  Returns the service's
    result (None when both raised)."""
    try:
        expected = _scratch(request.query, db, request.nip, request.alternatives)
    except Exception as exc:  # noqa: BLE001 - compare outcome types
        with pytest.raises(type(exc)):
            service.explain(request)
        return None
    got = service.explain(request).result
    assert _labels(got) == _labels(expected)
    return got


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name", ["Q1", "Q4", "T2"])
    def test_mutation_chain_matches_scratch(self, name):
        scenario = get_scenario(name)
        db = scenario.make_db(scenario.default_scale // 3 or 1)
        query = scenario.make_query()
        service = ExplanationService(databases={"db": db})
        request = ExplainRequest(
            query=query,
            nip=scenario.make_nip(),
            database="db",
            alternatives=scenario.alternatives,
            name=name,
        )
        assert _same_as_scratch(service, request, db) is not None
        table = sorted(read_tables(query))[0]
        for _ in range(2):
            version = service.database("db")
            row = next(iter(version.relation(table).distinct()))
            version = service.mutate_database("db", deletes={table: [row]})
            _same_as_scratch(service, request, version)


class TestEdgeCases:
    def _filter_case(self):
        db = Database({"T": [Tup(a=1, b="x"), Tup(a=5, b="y")],
                       "U": [Tup(c=7)]})
        query = Query(
            Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(3)))
        )
        nip = Tup(a=1, b="x")
        return db, query, nip

    def test_delete_of_the_row_feeding_the_only_explanation(self):
        db, query, nip = self._filter_case()
        service = ExplanationService(databases={"db": db})
        request = ExplainRequest(query=query, nip=nip, database="db")
        # Base: the selection is the only picky operator.
        base = _same_as_scratch(service, request, db)
        assert base is not None and _labels(base), "expected a non-empty explanation"
        # Deleting (a=1, b="x") removes the only row the explanation traces
        # back to; whatever from-scratch does now, the service must match.
        v1 = service.mutate_database("db", deletes={"T": [Tup(a=1, b="x")]})
        _same_as_scratch(service, request, v1)

    def test_insert_flips_question_to_answered_and_back(self):
        db = Database({"T": [Tup(a=1, b="x")]})
        query = Query(Projection(TableAccess("T"), ["b"]))
        nip = Tup(b="y")
        service = ExplanationService(databases={"db": db})
        request = ExplainRequest(query=query, nip=nip, database="db")
        assert _same_as_scratch(service, request, db) is not None
        # v1 inserts a row whose projection IS the missing tuple: the
        # question is now answered, so both paths must refuse it...
        v1 = service.mutate_database("db", inserts={"T": [Tup(a=2, b="y")]})
        with pytest.raises(IllPosedQuestion):
            _scratch(query, v1, nip)
        with pytest.raises(IllPosedQuestion):
            service.explain(request)
        # ...and the service names the witness when asked to.
        satisfied = service.explain(replace(request, satisfied_ok=True))
        assert isinstance(satisfied, SatisfiedResponse)
        assert satisfied.witnesses == [Tup(b="y")]
        # v2 removes it again: the question is well-posed once more.
        v2 = service.mutate_database("db", deletes={"T": [Tup(a=2, b="y")]})
        assert _same_as_scratch(service, request, v2) is not None

    def test_canonical_form_mutations_hit_the_same_rows(self):
        db = Database({"T": [Tup(a=2.0, b="x"), Tup(a=0.0, b="y"),
                             Tup(a=9, b="z")]})
        query = Query(
            Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(5)))
        )
        nip = Tup(a=2.0, b="x")
        service = ExplanationService(databases={"db": db})
        request = ExplainRequest(query=query, nip=nip, database="db")
        _same_as_scratch(service, request, db)
        # Delete the rows through their canonical variants: int 2 for the
        # stored 2.0 and -0.0 for 0.0.  The service must answer for the same
        # post-state as from-scratch (or refuse it the same way).
        v1 = service.mutate_database(
            "db", deletes={"T": [Tup(a=2, b="x"), Tup(a=-0.0, b="y")]}
        )
        assert len(v1.relation("T")) == 1
        _same_as_scratch(service, request, v1)

    def test_untouched_operators_are_reused(self):
        scenario = get_scenario("Q1")
        db = scenario.make_db(20)
        query = scenario.make_query()
        service = ExplanationService(databases={"db": db})
        request = ExplainRequest(
            query=query,
            nip=scenario.make_nip(),
            database="db",
            alternatives=scenario.alternatives,
            name="Q1",
        )
        assert not service.explain(request).cached
        # A write to a relation Q1 does not read keeps its result warm...
        unread = next(t for t in db.tables() if t not in read_tables(query))
        row = next(iter(db.relation(unread).distinct()))
        version = service.mutate_database("db", deletes={unread: [row]})
        assert service.explain(request).cached
        # ...and its explain state: the summarize twin copies the stored result.
        reuses = service.state_stats()["reuses"]
        twin = service.explain(replace(request, options=ExplainOptions(summarize=True)))
        assert not twin.cached
        assert service.state_stats()["reuses"] == reuses + 1
        expected = _scratch(query, version, request.nip, scenario.alternatives)
        assert _labels(twin.result) == _labels(expected)
        # A write to the relation it reads evicts both.
        read = sorted(read_tables(query))[0]
        row = next(iter(version.relation(read).distinct()))
        version = service.mutate_database("db", deletes={read: [row]})
        assert service.state_stats()["entries"] == 0
        assert not service.explain(request).cached
