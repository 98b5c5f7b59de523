"""Shared fixtures: the paper's running example and small helper databases."""

import pytest

from repro.datasets.people import person_database, person_query
from repro.nested.values import Bag, Tup
from repro.whynot.placeholders import ANY, STAR
from repro.whynot.question import WhyNotQuestion


@pytest.fixture
def person_db():
    return person_database()


@pytest.fixture
def running_query():
    return person_query()


@pytest.fixture
def running_nip():
    """The example why-not tuple t_ex = ⟨city: NY, nList: {{?, *}}⟩ (Ex. 5)."""
    return Tup(city="NY", nList=Bag([ANY, STAR]))


@pytest.fixture
def running_question(running_query, person_db, running_nip):
    return WhyNotQuestion(running_query, person_db, running_nip, name="running-example")



#: Per factory family: the NIP attribute the planted question constrains,
#: the relation writes touch, and that attribute's value in a relation row.
_FAMILY_KEYS = {
    "social": ("uName", "T", lambda r: r["user"]["name"]),
    "tpch": ("o_orderkey", "nestedOrders", lambda r: r["o_orderkey"]),
}


def _nip_variants(bundle, count):
    """NIP-constant variants of a factory bundle's planted question.

    Each replaces the planted constant with another one the database holds
    but ``Q(D)`` does not, so the variant is well-posed and its SAs equal
    the planted question's.
    """
    attr, relation, of_row = _FAMILY_KEYS[bundle.family]
    present = {t[attr] for t in bundle.question().result().distinct()}
    present.add(bundle.nip[attr])
    held = {of_row(r) for r in bundle.database.relation(relation).distinct()}
    return [bundle.nip.replace(**{attr: c}) for c in sorted(held - present)[:count]]


def _filler_rows(bundle, variants, count):
    """``(relation, rows)``: rows no question in *variants*, the planted
    question nor ``Q(D)`` mentions, so writing them changes no answer."""
    attr, relation, of_row = _FAMILY_KEYS[bundle.family]
    keep = {t[attr] for t in bundle.question().result().distinct()}
    keep |= {bundle.nip[attr]} | {nip[attr] for nip in variants}
    rows = bundle.database.relation(relation).distinct()
    return relation, sorted((r for r in rows if of_row(r) not in keep), key=repr)[:count]


@pytest.fixture
def nip_variants():
    """``nip_variants(bundle, count)``: see :func:`_nip_variants`."""
    return _nip_variants


@pytest.fixture
def filler_rows():
    """``filler_rows(bundle, variants, count)``: see :func:`_filler_rows`."""
    return _filler_rows
