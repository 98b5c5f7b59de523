"""Kernel cache keys never conflate constants of different types.

``Const`` values that compare equal in Python (``1 == True``, ``2 == 2.0``,
``0.0 == -0.0``, and tuples or bags holding such values) print and encode
differently, and a generated kernel embeds its constants.  Each pair below
runs in both orders on a cold kernel cache, through the executor and
through ``explain``: the second query must not reuse the first one's
kernel, so its answer matches ``Query.evaluate`` byte for byte on the wire
and its trace matches the reference tracer value for value.
"""

import json

import pytest

from repro.algebra.expressions import Attr, Const, Contains
from repro.algebra.operators import Projection, Query, Selection, TableAccess
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.kernels import kernel_cache_clear
from repro.fuzz import reference
from repro.nested.values import Bag, Tup
from repro.whynot.explain import explain
from repro.whynot.question import WhyNotQuestion
from repro.wire import relation_to_json

DB = Database(
    {"R": [Tup(s="x1y", t=1), Tup(s="True", t=2), Tup(s="z", t=3)]}
)


def _contains(value):
    """σ[value ∈ s](π[s, u := t](R))."""
    inner = Projection(TableAccess("R"), ["s", ("u", Attr("t"))])
    return Query(Selection(inner, Contains(Attr("s"), Const(value))))


def _project(value):
    """σ[s ∈ s](π[s, u := t, c := value](R)) — the selection keeps the
    projection inside a traced narrow run."""
    inner = Projection(TableAccess("R"), ["s", ("u", Attr("t")), ("c", Const(value))])
    return Query(Selection(inner, Contains(Attr("s"), Attr("s"))))


PAIRS = [
    pytest.param(_contains, 1, True, id="contains-int-bool"),
    pytest.param(_project, 2, 2.0, id="int-float"),
    pytest.param(_project, 1, True, id="int-bool"),
    pytest.param(_project, 0.0, -0.0, id="zero-signs"),
    pytest.param(_project, Tup(a=1), Tup(a=True), id="tuple-constants"),
    pytest.param(_project, Bag([2]), Bag([2.0]), id="bag-constants"),
]


def _wire(bag) -> str:
    return json.dumps(relation_to_json(bag), sort_keys=True)


@pytest.mark.parametrize("build,first,second", PAIRS)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_executor_answers_each_constant(build, first, second, reverse):
    kernel_cache_clear()
    values = (second, first) if reverse else (first, second)
    for value in values:
        query = build(value)
        got = Executor(num_partitions=1).execute(query, DB)
        assert _wire(got) == _wire(query.evaluate(DB)), value


@pytest.mark.parametrize("build,first,second", PAIRS)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_explain_traces_each_constant(build, first, second, reverse):
    kernel_cache_clear()
    values = (second, first) if reverse else (first, second)
    for value in values:
        nip = Tup(s="x1y", u=1) if build is _contains else Tup(s="nope", u=1, c=value)
        question = WhyNotQuestion(build(value), DB, nip)
        got = explain(question, validate=False)
        _, ref_trace, ref_explanations = reference.reference_explain(
            WhyNotQuestion(build(value), DB, nip), validate=False
        )
        assert reference.compare(
            got.trace, got.explanations, ref_trace, ref_explanations
        ) is None, value
        # ``compare`` tests values with ``==``; their reprs tell 1 from True.
        assert repr(reference.row_view(got.trace)) == repr(reference.row_view(ref_trace))
