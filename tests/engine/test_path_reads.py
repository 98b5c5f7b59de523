"""Inline nested path reads in generated kernels ≡ the rest-getter path.

``KernelBuilder.path_value`` reads a dotted path's nested steps by position
when the operator's input schema gives the nested tuple type, guarded by
the value's class and layout, and hands every other value to the
rest-getter.  Whatever sits along the path — the inferred layout, ⊥,
``None``, a tuple of another layout, a bag, a primitive or a missing
field — answer kernels and trace kernels must give what ``Query.evaluate``
and the reference tracer give: the same value, or the same exception type
and message.  Kernels are cached by the nested layouts they bind, so two
databases that differ only in nested field names each get their own.
"""

import pytest

from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.operators import (
    EvalContext,
    Projection,
    Query,
    Selection,
    TableAccess,
    TupleFlatten,
)
from repro.engine.columnar import new_kernel_info
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.kernels import KernelBailout, build_kernel, chain_kernel, kernel_cache_clear
from repro.nested.types import INT, TupleType
from repro.nested.values import NULL, Bag, Tup
from repro.whynot.placeholders import ANY
from repro.whynot.question import WhyNotQuestion

INNER = TupleType([("c", INT), ("d", INT)])
SCHEMA = TupleType([("k", INT), ("a", TupleType([("b", INNER), ("e", INT)]))])
GOOD = Tup(b=Tup(c=1, d=2), e=3)

#: What the value of ``a`` can be: the inferred layout and everything else.
VALUES = {
    "inferred": GOOD,
    "a-null": NULL,
    "a-none": None,
    "a-reordered": Tup(e=3, b=Tup(c=4, d=2)),
    "a-bag": Bag([GOOD]),
    "a-primitive": 7,
    "b-null": Tup(b=NULL, e=3),
    "b-none": Tup(b=None, e=3),
    "b-reordered": Tup(b=Tup(d=2, c=5), e=3),
    "b-bag": Tup(b=Bag([Tup(c=1, d=2)]), e=3),
    "b-primitive": Tup(b=5, e=3),
    "b-missing": Tup(e=3),
    "c-null": Tup(b=Tup(c=NULL, d=2), e=3),
}

QUERIES = {
    "projection": lambda: Query(Projection(TableAccess("R"), [("x", Attr("a.b.c")), "k"])),
    "selection": lambda: Query(
        Selection(
            Projection(TableAccess("R"), ["k", "a"]), Cmp("=", Attr("a.b.d"), Const(2))
        )
    ),
    "flatten": lambda: Query(
        Projection(TupleFlatten(TableAccess("R"), "a.b", alias="ab"), ["k", "ab"])
    ),
}


def _db(value):
    rows = [Tup(k=0, a=GOOD), Tup(k=1, a=value), Tup(k=2, a=GOOD)]
    return Database({"R": rows}, schemas={"R": SCHEMA})


def _outcome(run):
    try:
        return "ok", run()
    except KernelBailout:
        raise
    except Exception as exc:  # noqa: BLE001 - compared below
        return "error", (type(exc), str(exc))


def _kernel_outcome(query, db):
    """The chain's own generated kernel over the table's rows."""
    ops = [op for op in query.ops if not isinstance(op, TableAccess)]
    ctx = EvalContext(db, query.infer_schemas(db))
    rows = list(db.relation("R"))
    kernel = build_kernel(ops, rows[0].layout, ctx)
    return kernel, _outcome(lambda: Bag(kernel.run(rows, ops)[0]))


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("case", sorted(VALUES))
def test_answer_kernel_equals_evaluate(query_name, case):
    query = QUERIES[query_name]()
    db = _db(VALUES[case])
    expected = _outcome(lambda: query.evaluate(db))
    kernel, got = _kernel_outcome(query, db)
    assert "._layout is _g" in kernel.source  # the inline read is generated
    assert got == expected
    executor = Executor(num_partitions=1)
    assert _outcome(lambda: executor.execute(query, db)) == expected


@pytest.mark.parametrize("query_name", ["projection", "flatten"])
@pytest.mark.parametrize("case", sorted(VALUES))
def test_trace_kernel_equals_reference_tracer(query_name, case):
    """Explain through the fused trace kernels ≡ the reference tracer."""
    from repro.fuzz import reference
    from repro.whynot.explain import explain

    query = QUERIES[query_name]()
    db = _db(VALUES[case])
    nip = Tup(x=99, k=ANY) if query_name == "projection" else Tup(k=ANY, ab=Tup(c=99, d=ANY))
    got = _outcome(lambda: explain(WhyNotQuestion(query, db, nip), validate=False))
    want = _outcome(
        lambda: reference.reference_explain(WhyNotQuestion(query, db, nip), validate=False)
    )
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    _, ref_trace, ref_explanations = want[1]
    assert (
        reference.compare(got[1].trace, got[1].explanations, ref_trace, ref_explanations)
        is None
    )


def test_two_nested_layouts_get_their_own_kernels():
    """Same top-level layout, different nested field names: each database
    compiles (and caches) its own kernel, and each answer is right."""
    kernel_cache_clear()
    other = TupleType([("k", INT), ("a", TupleType([("e", INT), ("b", TupleType([("z", INT), ("c", INT)]))]))])
    db1 = _db(GOOD)
    db2 = Database(
        {"R": [Tup(k=0, a=Tup(e=3, b=Tup(z=8, c=9))), Tup(k=1, a=Tup(e=4, b=Tup(z=7, c=6)))]},
        schemas={"R": other},
    )
    kernels = []
    for db in (db1, db2, db1, db2):
        query = QUERIES["projection"]()
        ops = [op for op in query.ops if not isinstance(op, TableAccess)]
        ctx = EvalContext(db, query.infer_schemas(db))
        rows = list(db.relation("R"))
        kernel = chain_kernel(ops, rows[0].layout, ctx, new_kernel_info())
        assert Bag(kernel.run(rows, ops)[0]) == query.evaluate(db)
        executor = Executor(num_partitions=1)
        assert executor.execute(query, db) == query.evaluate(db)
        assert executor.last_metrics.kernels["fallbacks"] == 0
        kernels.append(kernel)
    assert kernels[0] is kernels[2] and kernels[1] is kernels[3]
    assert kernels[0] is not kernels[1]
