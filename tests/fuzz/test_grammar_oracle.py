"""The grammar round-trip leg of the differential oracle.

``check_case(..., grammar=True)`` adds a sixth oracle dimension: pretty-
print the plan, recompile the text, and demand the identity — structur-
ally, on evaluation, and on explanation label sets.  These tests prove
both directions: a healthy case reports nothing, and each injected
defect (unprintable plan, unparseable text, silently different plan)
surfaces as a ``grammar`` divergence rather than a crash or a pass.
"""

import pytest

import repro.lang
from repro.algebra.operators import Query
from repro.datasets.people import person_database, person_query
from repro.fuzz.oracle import check_case
from repro.lang import PrettyError
from repro.nested.values import Bag, Tup
from repro.whynot.placeholders import ANY, STAR
from repro.whynot.question import WhyNotQuestion

FAST = dict(partitions=(1,), optimize=(False,), explanations=False)


@pytest.fixture
def db():
    return person_database()


@pytest.fixture
def question(db):
    query = person_query()
    nip = Tup(city="NY", nList=Bag([ANY, STAR]))
    return WhyNotQuestion(query, db, nip)


def grammar_divergences(report):
    return [d for d in report.divergences if d.kind == "grammar"]


def test_clean_case_has_no_grammar_divergence(db, question):
    report = check_case(
        db, person_query(), question=question, grammar=True, **FAST
    )
    assert grammar_divergences(report) == []
    # The grammar leg ran: one recompile plus the explain pair.
    assert report.explain_configs_run >= 2


def test_grammar_flag_off_skips_the_check(db, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("pretty_program must not run with grammar=False")

    monkeypatch.setattr(repro.lang, "pretty_program", boom)
    report = check_case(db, person_query(), grammar=False, **FAST)
    assert grammar_divergences(report) == []


def test_unprintable_plan_is_a_pretty_divergence(db, monkeypatch):
    def unprintable(query, **kwargs):
        raise PrettyError("no surface syntax for this operator")

    monkeypatch.setattr(repro.lang, "pretty_program", unprintable)
    report = check_case(db, person_query(), grammar=True, **FAST)
    kinds = [d.config for d in grammar_divergences(report)]
    assert kinds == ["pretty"]


def test_unparseable_pretty_output_is_a_reparse_divergence(db, monkeypatch):
    monkeypatch.setattr(
        repro.lang, "pretty_program", lambda query, **kwargs: "query { from }"
    )
    report = check_case(db, person_query(), grammar=True, **FAST)
    kinds = [d.config for d in grammar_divergences(report)]
    assert kinds == ["reparse"]


def test_silently_different_plan_is_a_plan_divergence(db, monkeypatch):
    # A printer that emits a syntactically valid but semantically wrong
    # program — the exact failure mode the structural check exists for.
    monkeypatch.setattr(
        repro.lang,
        "pretty_program",
        lambda query, **kwargs: "query { from person }",
    )
    report = check_case(db, person_query(), grammar=True, **FAST)
    kinds = [d.config for d in grammar_divergences(report)]
    assert kinds == ["plan"]


def test_divergent_nip_is_caught(db, question, monkeypatch):
    real = repro.lang.pretty_program

    def wrong_nip(query, nip=None, **kwargs):
        return real(query, nip=Tup(city="LA"), **kwargs)

    monkeypatch.setattr(repro.lang, "pretty_program", wrong_nip)
    report = check_case(
        db, person_query(), question=question, grammar=True, **FAST
    )
    kinds = [d.config for d in grammar_divergences(report)]
    assert kinds == ["nip"]


def test_grammar_check_runs_even_when_reference_errors(db, monkeypatch):
    # A plan whose evaluation raises still gets the structural round-trip
    # (the check precedes the reference-error early return).
    query = person_query()
    monkeypatch.setattr(
        Query, "evaluate", lambda self, database: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
    )
    report = check_case(db, query, grammar=True, **FAST)
    assert report.reference_error is not None
    assert grammar_divergences(report) == []  # structural identity held
