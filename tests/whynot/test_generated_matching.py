"""Generated Definition-4 tests ≡ the reference matcher ``matches``.

The tracer tests NIPs in generated source (:func:`repro.whynot.matching.
nip_shape` and its code generators).  These properties compare the
reference :func:`~repro.whynot.matching.matches` with all three generated
forms — a single-value test built from ``value_test``, the column scan
(``matching_rows``) and a relaxed trace kernel's inline checks — over
values and NIPs that stress the corners: the canonical ``NAN`` and another
NaN, ⊥ and ``None``, ``2``/``2.0``/``True``, nested tuples listing the
pattern's names in another order, columns mixing layouts, ``?``,
predicates, and bag patterns with and without ``*``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.operators import EvalContext, Projection, Query, TableAccess
from repro.engine.database import Database
from repro.engine.kernels import build_trace_kernel
from repro.nested.types import ANY_TYPE, TupleType
from repro.nested.values import NAN, NULL, Bag, Layout, Tup
from repro.whynot.matching import (
    _ScanSource,
    arg_names,
    compile_scan,
    matches,
    matching_rows,
    nip_shape,
    value_test,
)
from repro.whynot.placeholders import ANY, STAR, HasValue, ge, gt, ne

#: A NaN that is not the canonical one (the model canonicalizes data, but a
#: NIP constant may arrive as any NaN).
OTHER_NAN = float("nan")

primitives = st.sampled_from([2, 2.0, True, 1, 0, False, "x", NAN, OTHER_NAN, NULL, None])


def _tuples(children):
    """Tuples over ``p``/``q`` in either order (or ``p`` alone)."""
    return st.builds(
        lambda names, values: Tup(zip(names, values)),
        st.sampled_from([("p", "q"), ("q", "p"), ("p",)]),
        st.lists(children, min_size=2, max_size=2),
    )


def _nested_values(children):
    return st.one_of(_tuples(children), st.lists(children, max_size=3).map(Bag))


values = st.recursive(primitives, _nested_values, max_leaves=6)

leaf_patterns = st.one_of(
    primitives,
    st.just(ANY),
    st.sampled_from([gt(1), ne("x"), ge(2.0), HasValue("x"), HasValue(2)]),
)


def _bag_patterns(children):
    return st.builds(
        lambda items, star: Bag(items + ([STAR] if star else [])),
        st.lists(children, max_size=2),
        st.booleans(),
    )


def _nested_patterns(children):
    return st.one_of(_tuples(children), _bag_patterns(children))


patterns = st.recursive(leaf_patterns, _nested_patterns, max_leaves=6)


def _single_value_test(shape):
    """``test(value, args)`` compiled from :func:`value_test` alone."""
    src = _ScanSource()
    names = list(arg_names("_a", 0, shape))
    body = value_test(shape, "_v", iter(names), src)
    unpack = f"    {', '.join(names)}, = _a\n" if names else ""
    namespace = dict(src.globals)
    exec(f"def _test(_v, _a):\n{unpack}    return {body}\n", namespace)
    return namespace["_test"]


@given(values, patterns)
@settings(max_examples=400)
@example(Tup(q=1, p=2), Tup(p=ANY, q=ANY))
@example(Tup(q=2, p=1), Tup(p=1, q=2))
@example(Tup(p=NAN), Tup(p=NAN))
@example(Tup(p=2.0, q=True), Tup(p=2, q=1))
def test_single_value_test_equals_matches(value, pattern):
    shape, args = nip_shape(pattern)
    assert bool(_single_value_test(shape)(value, args)) == matches(value, pattern)


@given(st.lists(st.one_of(st.none(), values), max_size=8), patterns)
@settings(max_examples=400)
@example([Tup(q=1, p=2), None, Tup(p=2, q=1), NULL, 5], Tup(p=ANY, q=ANY))
@example([NULL, None, Tup(p=NULL)], Tup(p=NULL))
@example([Tup(p=None), Tup(p=NULL)], Tup(p=None))
def test_column_scan_equals_matches(column, pattern):
    expected = [k for k, v in enumerate(column) if v is not None and matches(v, pattern)]
    assert matching_rows(column, pattern) == expected


@given(st.lists(_tuples(values), min_size=1, max_size=8), _tuples(patterns))
@settings(max_examples=300)
def test_scan_over_mixed_layouts_equals_matches(column, pattern):
    """Columns mixing ``⟨p, q⟩``, ``⟨q, p⟩`` and ``⟨p⟩`` rows against a tuple
    NIP: rows of the pattern's layout are read by position, the rest go
    through the fallback closure."""
    expected = [k for k, v in enumerate(column) if matches(v, pattern)]
    assert matching_rows(column, pattern) == expected


def test_nip_constants_never_reach_the_source():
    """NIPs differing only in constants share one shape, hence one scan."""
    first, _ = nip_shape(Tup(p=2, q=Tup(p="x", q=ANY)))
    second, args = nip_shape(Tup(p=NAN, q=Tup(p=None, q=ANY)))
    assert first == second
    assert compile_scan(first) is compile_scan(second)
    assert NAN in args and None in args


_ROW = ("a", "b")
_ROW_NAMES = st.sampled_from([("a", "b"), ("b", "a"), ("a",), ("a", "b", "c")])


def _row_patterns():
    """Row-level NIPs: ``?`` or tuple patterns over the row's names (in
    either order) or over other attribute sets, which no row matches."""
    return st.one_of(
        st.just(ANY),
        st.builds(
            lambda names, subs: Tup(zip(names, subs)),
            _ROW_NAMES,
            st.lists(patterns, min_size=3, max_size=3),
        ),
    )


@given(st.lists(st.lists(values, min_size=2, max_size=2), min_size=1, max_size=6), _row_patterns())
@settings(max_examples=200, deadline=None)
def test_trace_kernel_checks_equal_matches(cells, nip):
    """A relaxed trace kernel's inline NIP check over its column variables
    hits exactly the rows ``matches`` accepts; its output is the rows'
    value tuples."""
    layout = Layout.of(_ROW)
    rows = [Tup.from_layout(layout, tuple(values)) for values in cells]
    db = Database({"R": rows}, schemas={"R": TupleType([(n, ANY_TYPE) for n in _ROW])})
    query = Query(Projection(TableAccess("R"), list(_ROW)))
    ctx = EvalContext(db, query.infer_schemas(db))
    shape, args = nip_shape(nip)
    kernel = build_trace_kernel([query.root], layout, ctx, [shape], [[(0, None)]])
    out, _, hits = kernel.fn(rows, args)
    assert kernel.layout is layout
    assert out == [row._values for row in rows]
    assert list(hits[0][0]) == [k for k, row in enumerate(rows) if matches(row, nip)]
