"""Kernel code generator: golden source, caching, bailouts, stats parity.

The kernel executor's contract is bit-equivalence with the row-at-a-time
operators — the broad equivalence nets live in ``test_backends.py`` (all
scenarios, kernels and the forced row fallback) and the differential
fuzzer; this module pins the mechanisms that make it hold: the generated
source itself (golden snapshots, including selection-only pass-through),
the semantic cache keying, the row-path fallbacks (unsupported operators,
heterogeneous layouts, error parity), and the per-operator stats shape —
plus the
tracer's relaxed kernels (golden source, semantic cache across questions,
per-operator fallback parity with the reference tracer) and the cache cap.
"""

import textwrap

import pytest

from repro.algebra.expressions import col
from repro.algebra.operators import (
    EvalContext,
    Map,
    Projection,
    Query,
    RelationFlatten,
    Selection,
    TableAccess,
)
from repro.engine.columnar import default_engine, new_kernel_info, task_kernel_chain
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.kernels import (
    build_kernel,
    chain_kernel,
    kernel_cache_clear,
    kernel_source,
)
from repro.nested.values import Bag, Layout, Tup


def _chain_parts(query, db):
    """(non-source ops, EvalContext) for a single-chain plan over *db*."""
    ctx = EvalContext(db, query.infer_schemas(db))
    ops = [op for op in query.ops if not isinstance(op, TableAccess)]
    return ops, ctx


def make_db():
    return Database({"R": [Tup(k=i % 3, v=i, w=str(i)) for i in range(12)]})


# -- engine knob --------------------------------------------------------------


def test_engine_resolution(monkeypatch):
    """The kernel executor is the only engine: the retired ``REPRO_ENGINE``
    variable selects nothing, and metrics always name ``columnar``."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert default_engine() == "columnar"
    for name in ("row", "vectorized"):
        monkeypatch.setenv("REPRO_ENGINE", name)
        assert default_engine() == "columnar"
        executor = Executor(num_partitions=2)
        executor.execute(Query(TableAccess("R")), make_db())
        assert executor.last_metrics.engine == "columnar"


# -- golden generated source --------------------------------------------------


def test_kernel_source_golden():
    """Pin the generated source for a σ→π chain (the codegen contract).

    Deliberate golden snapshot: column lists are extracted only for used
    columns, ⊥/None and the TypeError→False comparison semantics are inlined
    — the constant operand's ⊥ test settled at codegen — and the final
    projection rebuilds tuples through the interned layout.  Update
    alongside intentional codegen changes — the shape is documented in
    ``docs/KERNELS.md``.
    """
    db = make_db()
    query = Query(
        Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"])
    )
    ops, ctx = _chain_parts(query, db)
    expected = textwrap.dedent(
        """\
        def _kernel(rows):
            _out = []
            _append = _out.append
            _l0 = [_r._values[0] for _r in rows]
            _l1 = [_r._values[1] for _r in rows]
            for _c0_, _c1_ in zip(_l0, _l1):
                if _c1_ is _NULL or _c1_ is None:
                    _t1_ = False
                else:
                    try:
                        _t1_ = _c1_ >= 2
                    except TypeError:
                        _t1_ = False
                if not (_t1_):
                    continue
                _append(_mk(_g0, (_c0_, _c1_,)))
            return _out, ()
        """
    )
    assert kernel_source(ops, Layout.of(("k", "v", "w")), ctx) == expected


def test_selection_chain_source_golden_passes_rows_through():
    """Pin the generated source for a σ→σ chain: the final row is the input
    row, so the kernel appends the input ``Tup`` itself (``_r``) and extracts
    only the columns the predicates read — never ``w``."""
    db = make_db()
    query = Query(
        Selection(Selection(TableAccess("R"), col("v").ge(2)), col("k").eq(1))
    )
    ops, ctx = _chain_parts(query, db)
    expected = textwrap.dedent(
        """\
        def _kernel(rows):
            _out = []
            _append = _out.append
            _k0 = 0
            _l0 = [_r._values[0] for _r in rows]
            _l1 = [_r._values[1] for _r in rows]
            for _r, _c0_, _c1_ in zip(rows, _l0, _l1):
                if _c1_ is _NULL or _c1_ is None:
                    _t1_ = False
                else:
                    try:
                        _t1_ = _c1_ >= 2
                    except TypeError:
                        _t1_ = False
                if not (_t1_):
                    continue
                _k0 += 1
                if _c0_ is _NULL or _c0_ is None:
                    _t2_ = False
                else:
                    try:
                        _t2_ = _c0_ == 1
                    except TypeError:
                        _t2_ = False
                if not (_t2_):
                    continue
                _append(_r)
            return _out, (_k0,)
        """
    )
    assert kernel_source(ops, Layout.of(("k", "v", "w")), ctx) == expected
    rows = list(db.relation("R"))
    out, stats = build_kernel(ops, rows[0].layout, ctx).run(rows, ops)
    assert Bag(out) == query.evaluate(db)
    assert [(s[1], s[2]) for s in stats] == [(12, 10), (10, 3)]
    ids = {id(row) for row in rows}
    assert out and all(id(row) in ids for row in out), "rows must pass through"


def test_kernel_runs_and_matches_row_path():
    db = make_db()
    query = Query(
        Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"])
    )
    ops, ctx = _chain_parts(query, db)
    rows = list(db.relation("R"))
    kernel = build_kernel(ops, rows[0].layout, ctx)
    out, stats = kernel.run(rows, ops)
    expected = query.evaluate(db)
    assert Bag(out) == expected
    # Stats mirror the row path's (op_id, n_in, n_out, seconds) tuples.
    assert [(s[0], s[1], s[2]) for s in stats] == [
        (ops[0].op_id, 12, 10),
        (ops[1].op_id, 10, 10),
    ]
    assert all(s[3] >= 0.0 for s in stats)


def test_kernel_cardinality_counters_mid_chain():
    """A cardinality-changing op that is not last still reports exact counts."""
    db = Database(
        {
            "N": [
                Tup(g=1, xs=Bag([Tup(x=1), Tup(x=2)])),
                Tup(g=2, xs=Bag([])),
                Tup(g=3, xs=Bag([Tup(x=7)])),
            ]
        }
    )
    query = Query(
        Projection(RelationFlatten(TableAccess("N"), "xs", alias="x"), ["g", "x"])
    )
    ops, ctx = _chain_parts(query, db)
    rows = list(db.relation("N"))
    kernel = build_kernel(ops, rows[0].layout, ctx)
    out, stats = kernel.run(rows, ops)
    assert Bag(out) == query.evaluate(db)
    assert [(s[1], s[2]) for s in stats] == [(3, 3), (3, 3)]


# -- caching ------------------------------------------------------------------


def test_chain_kernel_semantic_cache():
    """Fresh-but-equal plans hit the cache; the first build is a miss."""
    kernel_cache_clear()
    db = make_db()

    def fresh():
        query = Query(
            Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"])
        )
        return _chain_parts(query, db)

    layout = Layout.of(("k", "v", "w"))
    ops, ctx = fresh()
    info = new_kernel_info()
    first = chain_kernel(ops, layout, ctx, info)
    assert first is not None
    assert info["misses"] == 1 and info["hits"] == 0
    assert info["codegen_seconds"] > 0.0
    ops2, ctx2 = fresh()
    info2 = new_kernel_info()
    assert chain_kernel(ops2, layout, ctx2, info2) is first
    assert info2["hits"] == 1 and info2["misses"] == 0
    assert info2["codegen_seconds"] == 0.0


def test_unsupported_operator_falls_back():
    """A chain with an un-lowerable operator always takes the row path.

    ``Map`` has no kernel hooks, so its key never builds — every call is a
    cheap miss that skips codegen entirely (nothing is even attempted, hence
    no negative entry and zero codegen seconds).
    """
    kernel_cache_clear()
    db = make_db()
    query = Query(Map(TableAccess("R"), lambda t: t))
    ops, ctx = _chain_parts(query, db)
    layout = Layout.of(("k", "v", "w"))
    for _ in range(2):
        info = new_kernel_info()
        assert chain_kernel(ops, layout, ctx, info) is None
        assert info["misses"] == 1 and info["hits"] == 0
        assert info["codegen_seconds"] == 0.0


def test_failed_build_negative_cached(monkeypatch):
    """A chain whose key builds but whose codegen fails is cached as None."""
    import repro.engine.kernels as kernels_module

    kernel_cache_clear()
    db = make_db()
    query = Query(Selection(TableAccess("R"), col("v").ge(2)))
    ops, ctx = _chain_parts(query, db)
    layout = Layout.of(("k", "v", "w"))

    def broken_build(*args, **kwargs):
        raise RuntimeError("simulated codegen failure")

    monkeypatch.setattr(kernels_module, "build_kernel", broken_build)
    info = new_kernel_info()
    assert chain_kernel(ops, layout, ctx, info) is None
    assert info["misses"] == 1
    monkeypatch.undo()
    # The negative entry survives even though codegen would now succeed;
    # it returns no kernel, so it counts as neither hit nor miss.
    info2 = new_kernel_info()
    assert chain_kernel(ops, layout, ctx, info2) is None
    assert info2["hits"] == 0 and info2["misses"] == 0
    # A clean cache lowers the same chain fine.
    kernel_cache_clear()
    info3 = new_kernel_info()
    assert chain_kernel(ops, layout, ctx, info3) is not None


def test_unlowerable_chain_counts_no_hits():
    """A chain no kernel can run reports no hits: partitions that find the
    execution memo's ``None`` count as neither hit nor miss, so the hit
    ratio never credits the row path."""
    db = make_db()
    query = Query(Map(Selection(TableAccess("R"), col("v").ge(3)), lambda t: t))
    executor = Executor(num_partitions=4)
    for _ in range(2):
        assert executor.execute(query, db) == query.evaluate(db)
        kernels = executor.last_metrics.kernels
        assert (kernels["hits"], kernels["fallbacks"]) == (0, 4)


# -- fallbacks ----------------------------------------------------------------


def test_task_chain_falls_back_and_matches(monkeypatch):
    """The chain task matches the row path even when kernels cannot run
    (empty/mixed partitions)."""
    db = make_db()
    query = Query(Selection(TableAccess("R"), col("v").ge(4)))
    ops, ctx = _chain_parts(query, db)
    memo: dict = {}
    rows = list(db.relation("R"))

    out, stats, info = task_kernel_chain(ops, rows, ctx, memo)
    assert Bag(out) == query.evaluate(db)
    assert info["fallbacks"] == 0

    # Empty partitions always use the row path (schema errors must surface)
    # but are not counted as fallbacks — there was nothing to vectorize.
    out, stats, info = task_kernel_chain(ops, [], ctx, memo)
    assert out == [] and info["fallbacks"] == 0
    assert info["hits"] == 0 and info["misses"] == 0

    # Mixed layouts cannot be batched into columns.
    mixed = rows + [Tup(k=0, v=99)]
    out, stats, info = task_kernel_chain(ops, mixed, ctx, memo)
    assert info["fallbacks"] == 1
    assert Bag(out) == Bag([t for t in mixed if t["v"] >= 4])


def test_kernel_error_parity_with_row_path():
    """Fallbacks reproduce the row path's exact error type and message."""
    db = make_db()
    # Flattening an attribute that is not a nested relation fails at runtime;
    # the kernel must surface the same KeyError text via the row-path rerun.
    query = Query(RelationFlatten(TableAccess("R"), "missing", alias="x"))
    with pytest.raises(Exception) as row_err:
        query.evaluate(db)
    with pytest.raises(Exception) as kernel_err:
        ops, ctx = _chain_parts(query, db)
        task_kernel_chain(ops, list(db.relation("R")), ctx, {})
    assert type(kernel_err.value) is type(row_err.value)
    assert str(kernel_err.value) == str(row_err.value)


# -- executor integration -----------------------------------------------------


def test_executor_columnar_metrics_and_report():
    db = make_db()
    query = Query(
        Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"])
    )
    executor = Executor(num_partitions=3)
    result = executor.execute(query, db)
    assert result == query.evaluate(db)
    metrics = executor.last_metrics
    assert metrics.engine == "columnar"
    assert metrics.kernels is not None
    assert metrics.kernels["hits"] + metrics.kernels["misses"] >= 1
    report = metrics.report()
    assert "engine=columnar" in report and "kernels:" in report


def test_metrics_wire_round_trip_with_kernels():
    from repro.wire.payloads import metrics_from_json, metrics_to_json

    db = make_db()
    query = Query(Selection(TableAccess("R"), col("v").ge(2)))
    executor = Executor(num_partitions=2)
    executor.execute(query, db)
    metrics = executor.last_metrics
    restored = metrics_from_json(metrics_to_json(metrics))
    assert restored.engine == "columnar"
    assert restored.kernels == metrics.kernels
    # Tolerant decode: pre-engine payloads default to the row engine.
    doc = metrics_to_json(metrics)
    del doc["engine"], doc["kernels"]
    legacy = metrics_from_json(doc)
    assert legacy.engine == "row" and legacy.kernels is None


# -- relaxed trace kernels ----------------------------------------------------


def _social_trace_tasks(monkeypatch):
    """GenSocial's question plus the tracer's ``trace_run`` calls for it
    (each call's arguments after the SA contexts)."""
    from repro.scenarios import get_scenario
    from repro.whynot import tracing
    from repro.whynot.alternatives import enumerate_schema_alternatives
    from repro.whynot.backtrace import backtrace

    scenario = get_scenario("GenSocial")
    question = scenario.question(1)
    base = backtrace(question.query, question.db, question.nip)
    sas = enumerate_schema_alternatives(
        question.query, question.db, question.nip, base, groups=scenario.alternatives
    )
    tasks = []
    trace_run = tracing.trace_run

    def capture(sa_contexts, *args):
        tasks.append(args)
        return trace_run(sa_contexts, *args)

    monkeypatch.setattr(tracing, "trace_run", capture)
    tracing.trace(question.query, question.db, sas)
    return question, sas, tasks


def test_trace_kernel_source_golden(monkeypatch):
    """Pin the relaxed kernel of GenSocial's F60→Fᵀ3→π4→σ61→σ62 run (SA 0).

    Deliberate golden snapshot: selections append retained row indices
    (``_f0``/``_f1``) instead of ``continue``; the nested path reads
    ``place.country`` and ``user.name`` are inline positional reads guarded
    by the inferred layouts (``_g0``/``_g2``), with the rest-getters
    (``_g1``/``_g3``) as fallback; after each operator its NIP is tested
    inline against the column variables — F60's ``user`` sub-pattern by
    position when the value has the pattern's layout (else its closure
    ``_a1``), the ``uName`` constant of Fᵀ3's and π4's rows by ``==`` on the
    argument (``_a4``/``_a6``); the selections reuse π4's scan (``_h2``),
    their constants are folded with the ⊥ tests settled, and only π4's row
    is returned, as a plain value tuple of the kernel's output layout.
    Update alongside intentional codegen changes — the shape is documented
    in ``docs/KERNELS.md``.
    """
    from repro.engine.kernels import build_trace_kernel
    from repro.whynot.matching import nip_shape

    question, sas, tasks = _social_trace_tasks(monkeypatch)
    rep, op_ids, parent_vals, nips, checks = tasks[0]
    sa_query = sas[rep].query
    assert [sa_query.op(i).label for i in op_ids] == ["F60", "Fᵀ3", "π4", "σ61", "σ62"]
    ops = [sa_query.op(i) for i in op_ids]
    ctx = EvalContext(question.db, sa_query.infer_schemas(question.db))
    shapes = [nip_shape(nip)[0] for nip in nips]
    expected = textwrap.dedent(
        """\
        def _kernel(rows, _a):
            _out = []
            _append = _out.append
            _a0, _a1, _a2, _a3, _a4, _a5, _a6, = _a
            _f0 = []
            _f1 = []
            _h0 = []
            _h1 = []
            _h2 = []
            _l1 = [_r._values[1] for _r in rows]
            _l2 = [_r._values[2] for _r in rows]
            _l3 = [_r._values[3] for _r in rows]
            for _k, (_c1_, _c2_, _c3_) in enumerate(zip(_l1, _l2, _l3)):
                _t1_ = _c3_._values[0] if _c3_.__class__ is _Tup and _c3_._layout is _g0 else _g1(_c3_)
                if (_c2_._values[0] == _a2 if _c2_.__class__ is _Tup and _c2_._layout is _g2 else _a1(_c2_)):
                    _h0.append(_k)
                _t2_ = _c2_._values[0] if _c2_.__class__ is _Tup and _c2_._layout is _g2 else _g3(_c2_)
                if _t2_ == _a4:
                    _h1.append(_k)
                if _t2_ == _a6:
                    _h2.append(_k)
                if _c1_ is _NULL or _c1_ is None:
                    _t3_ = False
                elif isinstance(_c1_, str):
                    _t3_ = 'concert' in _c1_
                elif isinstance(_c1_, _Bag):
                    _t3_ = 'concert' in _c1_
                else:
                    _t3_ = False
                if _t3_:
                    _f0.append(_k)
                if _t1_ is _NULL or _t1_ is None:
                    _t4_ = False
                elif isinstance(_t1_, str):
                    _t4_ = 'United States' in _t1_
                elif isinstance(_t1_, _Bag):
                    _t4_ = 'United States' in _t1_
                else:
                    _t4_ = False
                if _t4_:
                    _f1.append(_k)
                _append((_c1_, _t1_, _t2_,))
            return _out, (_f0, _f1,), ((_h0,), (_h1,), (_h2,), (_h2,), (_h2,),)
        """
    )
    kernel = build_trace_kernel(ops, parent_vals[0].layout, ctx, shapes, checks)
    assert kernel.source == expected
    assert kernel.layout.names == ("text", "country", "uName")


def _social_recheck_tasks(monkeypatch):
    """GenSocial's question, the SAs of a NIP variant and the tracer's
    ``recheck_run`` calls when the variant re-annotates the question's
    relaxed trace (each call's arguments after the SA contexts)."""
    from repro.scenarios import get_scenario
    from repro.whynot import tracing
    from repro.whynot.explain import RelaxedTrace, explain, explain_reusing
    from repro.whynot.placeholders import ANY
    from repro.whynot.question import WhyNotQuestion

    scenario = get_scenario("GenSocial")
    question = scenario.question(1)
    first = explain(question, alternatives=scenario.alternatives, validate=False)
    relaxed = RelaxedTrace.of(question, first.sas, first.trace)
    tasks = []
    recheck_run = tracing.recheck_run

    def capture(sa_contexts, *args):
        tasks.append(args)
        return recheck_run(sa_contexts, *args)

    monkeypatch.setattr(tracing, "recheck_run", capture)
    variant = WhyNotQuestion(
        question.query, question.db, Tup(text=ANY, country=ANY, uName="someone_else")
    )
    again, _ = explain_reusing(variant, relaxed, alternatives=scenario.alternatives)
    assert "annotate" in again.timings
    return question, again.sas, tasks


def test_recheck_kernel_source_golden(monkeypatch):
    """Pin the recheck kernel of GenSocial's F60→Fᵀ3→π4→σ61→σ62 run (SA 0)
    under a NIP variant.

    Deliberate golden snapshot: the same checks as the trace kernel's
    (``test_trace_kernel_source_golden``), but the selections emit nothing,
    no value tuple or retained list is built, and the ``place.country``
    read (``_t1_``), which only σ62 and the output row read, is dropped
    with its input column (``_c3_``) — the bindings ``_g0``/``_g1`` it
    made stay unused.  The kernel returns the per-operator hits alone.
    """
    from repro.engine.kernels import build_trace_kernel
    from repro.whynot.matching import nip_shape
    from repro.whynot.placeholders import ANY

    question, sas, tasks = _social_recheck_tasks(monkeypatch)
    rep, op_ids, parent_vals, nips, checks = tasks[0]
    sa_query = sas[rep].query
    assert [sa_query.op(i).label for i in op_ids] == ["F60", "Fᵀ3", "π4", "σ61", "σ62"]
    assert nips[2] == Tup(text=ANY, country=ANY, uName="someone_else")
    ops = [sa_query.op(i) for i in op_ids]
    ctx = EvalContext(question.db, sa_query.infer_schemas(question.db))
    shapes = [nip_shape(nip)[0] for nip in nips]
    expected = textwrap.dedent(
        """\
        def _kernel(rows, _a):
            _a0, _a1, _a2, _a3, _a4, _a5, _a6, = _a
            _h0 = []
            _h1 = []
            _h2 = []
            _l2 = [_r._values[2] for _r in rows]
            for _k, _c2_ in enumerate(_l2):
                if (_c2_._values[0] == _a2 if _c2_.__class__ is _Tup and _c2_._layout is _g2 else _a1(_c2_)):
                    _h0.append(_k)
                _t2_ = _c2_._values[0] if _c2_.__class__ is _Tup and _c2_._layout is _g2 else _g3(_c2_)
                if _t2_ == _a4:
                    _h1.append(_k)
                if _t2_ == _a6:
                    _h2.append(_k)
            return ((_h0,), (_h1,), (_h2,), (_h2,), (_h2,),)
        """
    )
    kernel = build_trace_kernel(ops, parent_vals[0].layout, ctx, shapes, checks, True)
    assert kernel.source == expected
    assert kernel.layout is None


def test_recheck_drops_dead_temps_until_none_is_left():
    """A recheck build drops loop-level temporaries no later line reads,
    including one read only by a dropped one; chained and ``:=`` bindings
    and nested statements stay."""
    from repro.engine.kernels import _live_lines

    lines = [
        "        _t1_ = _c0_ + 1",
        "        _t2_ = _t1_ * 2",
        "        _t3_ = _t4_ = _c1_",
        "        _t5_ = (_t6_ := _c2_) + 1",
        "        if _c3_:",
        "            _t7_ = _c3_",
        "        _t8_ = _c4_",
        "        if _t8_ == _a0:",
        "            _h0.append(_k)",
    ]
    assert _live_lines(lines) == lines[2:]


#: Scenarios whose explain traces at least one fused narrow run.
_RUN_SCENARIOS = [
    "C1", "C2", "C3", "D1", "D2", "D3", "D4", "D5", "GenSocial",
    "Q10", "Q10F", "Q6", "Q6F", "T1", "T2", "T3", "T4", "T_ASD",
]


def _assert_recheck_hits_equal(monkeypatch, question, alternatives) -> list:
    """Trace *question*; for every SA group a trace kernel traced, the
    recheck kernel's hits over the same arguments equal the full kernel's.
    Returns the compared calls' parent columns."""
    from repro.whynot import tracing
    from repro.whynot.explain import explain

    calls = []
    trace_run = tracing.trace_run

    def capture(sa_contexts, *args):
        out = trace_run(sa_contexts, *args)
        if out is not None:
            calls.append((sa_contexts, args, out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(tracing, "trace_run", capture)
        result = explain(question, alternatives=alternatives, validate=False)
    assert result.trace.runs and calls

    def plain(hits):
        return [[list(rows) for rows in op_hits] for op_hits in hits]

    for sa_contexts, args, out in calls:
        rechecked = tracing.recheck_run(sa_contexts, *args)
        assert rechecked is not None
        assert plain(rechecked) == plain(out[3]), [
            sa_contexts.sa_op(args[0], op_id).label for op_id in args[1]
        ]
    return [args[2] for _, args, _ in calls]


@pytest.mark.parametrize("name", _RUN_SCENARIOS)
def test_recheck_hits_equal_trace_kernel_hits(name, monkeypatch):
    """Every SA group's recheck kernel finds the hits its full trace kernel
    found (``trace_run(...)[3]``) over the same input and NIPs."""
    from repro.scenarios import get_scenario

    scenario = get_scenario(name)
    _assert_recheck_hits_equal(monkeypatch, scenario.question(scale=10), scenario.alternatives)


def test_recheck_hits_remap_missing_rows(monkeypatch, running_question):
    """The running example's π4 run reads an SA group whose flatten left a
    row missing: the recheck hits come back as indices into the full
    column, as the trace kernel's do."""
    parents = _assert_recheck_hits_equal(
        monkeypatch, running_question, [["person.address2", "person.address1"]]
    )
    assert any(v is None for column in parents for v in column)


def test_row_level_nips_compile_no_fallback(monkeypatch):
    """A trace kernel tests whole rows, whose layout is settled at codegen,
    so a traced run compiles no fallback closure for a row-level NIP; only
    its nested tuple patterns, whose values may have another layout, get
    one."""
    from repro.whynot import matching

    compiled = []
    compile_pattern = matching.compile_pattern

    def spy(pattern):
        compiled.append(pattern)
        return compile_pattern(pattern)

    monkeypatch.setattr(matching, "compile_pattern", spy)
    _, _, tasks = _social_trace_tasks(monkeypatch)
    row_nips = {id(nip) for task in tasks for nip in task[3]}
    assert tasks and compiled
    assert not [p for p in compiled if id(p) in row_nips]


def test_fresh_question_compiles_no_trace_kernel(monkeypatch):
    """A second explain of a fresh question over the same query hits the
    semantic cache: NIP constants reach kernels and scans as arguments, not
    source, so a NIP-constant variant compiles nothing either."""
    import repro.engine.kernels as kernels_module
    from repro.scenarios import get_scenario
    from repro.whynot import matching
    from repro.whynot.explain import explain
    from repro.whynot.placeholders import ANY
    from repro.whynot.question import WhyNotQuestion
    from repro.whynot.tracing import LazyColumns

    scenario = get_scenario("GenSocial")
    db = scenario.question(1).db
    builds = []
    build = kernels_module.build_trace_kernel
    scans = []
    build_scan = matching.build_scan

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    def counting_scan(shape):
        scans.append(shape)
        return build_scan(shape)

    monkeypatch.setattr(kernels_module, "build_trace_kernel", counting_build)
    monkeypatch.setattr(matching, "build_scan", counting_scan)
    monkeypatch.setattr(matching, "_SCAN_CACHE", {})
    kernel_cache_clear()

    def explain_fresh(nip=None):
        question = WhyNotQuestion(scenario.make_query(), db, nip or scenario.make_nip())
        return explain(question, alternatives=scenario.alternatives)

    first = explain_fresh()
    assert len(builds) == 2  # one kernel per SA group of the narrow run
    assert isinstance(first.trace.traces[2].cols, LazyColumns)
    assert scans  # the table access and the selections' groups scan
    compiled_scans = len(scans)
    second = explain_fresh()
    assert len(builds) == 2
    assert second.explanation_labels() == first.explanation_labels()
    variant = explain_fresh(Tup(text=ANY, country=ANY, uName="someone_else"))
    assert len(builds) == 2 and len(scans) == compiled_scans
    assert variant.rows_traced() == first.rows_traced()


def test_explain_evaluates_no_fused_run_column():
    """A library explain reads its fused run only through the run's
    kernels and, for the §5.4 bounds, the value tuples they return: no
    column of the run is built, so no ``Tup`` of it exists."""
    from repro.scenarios import get_scenario
    from repro.whynot.explain import explain
    from repro.whynot.tracing import LazyColumns

    scenario = get_scenario("GenSocial")
    question = scenario.question(1)
    result = explain(question, alternatives=scenario.alternatives)
    assert ("σ62",) in result.explanation_labels()
    traces = result.trace.traces
    run_cols = [traces[op.op_id].cols for op in question.query.ops if not isinstance(op, TableAccess)]
    assert all(isinstance(cols, LazyColumns) for cols in run_cols)
    assert all(column is None for cols in run_cols for column in cols._cols)


def test_lazy_run_columns_build_once_across_threads(monkeypatch):
    """Threads reading a shared trace's lazy run columns at once (service
    threads re-annotating one explain state) all get the same column
    objects: the lock each ``LazyColumns`` holds lets one of them build
    each column, once."""
    import sys
    import threading

    from repro.scenarios import get_scenario
    from repro.whynot.explain import explain
    from repro.whynot.tracing import LazyColumns

    scenario = get_scenario("GenSocial")
    result = explain(scenario.question(1), alternatives=scenario.alternatives)
    lazy = [
        snap.cols for snap in result.trace.traces.values()
        if isinstance(snap.cols, LazyColumns)
    ]
    builds = []
    build = LazyColumns._build

    def counting_build(self, g):
        builds.append((id(self), g))
        return build(self, g)

    monkeypatch.setattr(LazyColumns, "_build", counting_build)
    readers = 8
    barrier = threading.Barrier(readers)
    seen: "list[list]" = [[] for _ in range(readers)]

    def read(t):
        barrier.wait(timeout=30)
        for cols in reversed(lazy):  # last operator first: nested builds
            for g in range(len(cols)):
                seen[t].append(cols[g])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(t,)) for t in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    distinct = {(id(cols), g) for cols in lazy for g in range(len(cols))}
    assert sorted(builds) == sorted(distinct)
    assert all(
        len(columns) == len(seen[0]) and all(a is b for a, b in zip(columns, seen[0]))
        for columns in seen
    )


def _reference_parity(question, alternatives=()):
    """Production vs reference tracer: row views and explanations, or the
    exception type and message."""
    from repro.fuzz import reference
    from repro.whynot.explain import explain
    from repro.whynot.question import WhyNotQuestion

    def outcome(run):
        try:
            return "ok", run()
        except Exception as exc:  # noqa: BLE001 - compared below
            return "error", (type(exc), str(exc))

    fresh = WhyNotQuestion(question.query, question.db, question.nip)
    got = outcome(lambda: explain(question, alternatives=alternatives, validate=False))
    want = outcome(
        lambda: reference.reference_explain(fresh, alternatives=alternatives, validate=False)
    )
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return got[1]
    _, ref_trace, ref_explanations = want[1]
    assert reference.compare(
        got[1].trace, got[1].explanations, ref_trace, ref_explanations
    ) is None
    return got[1]


def test_trace_run_falls_back_on_mixed_layouts(monkeypatch):
    """Rows of more than one layout trace operator by operator, identically."""
    from repro.nested.types import INT, TupleType
    from repro.whynot import tracing
    from repro.whynot.placeholders import ANY
    from repro.whynot.question import WhyNotQuestion

    db = Database(
        {"R": [Tup(a=1, b=2), Tup(b=3, a=4), Tup(a=5, b=6)]},
        schemas={"R": TupleType([("a", INT), ("b", INT)])},
    )
    query = Query(
        Selection(Projection(TableAccess("R"), [("c", col("a")), "b"]), col("c").ge(4))
    )
    fused = []
    task = tracing.trace_run

    def spy(*args):
        out = task(*args)
        fused.append(out is not None)
        return out

    monkeypatch.setattr(tracing, "trace_run", spy)
    result = _reference_parity(WhyNotQuestion(query, db, Tup(c=ANY, b=3)))
    assert fused == [False]
    assert result.rows_traced() == 9


def test_trace_run_error_parity_on_non_tuple_flatten():
    """A tuple flatten of a non-tuple value bails out of the kernel and the
    per-operator path raises the reference tracer's exact error."""
    from repro.algebra.operators import TupleFlatten
    from repro.nested.types import INT, TupleType
    from repro.whynot.placeholders import ANY
    from repro.whynot.question import WhyNotQuestion

    db = Database(
        {"R": [Tup(a=1, b=Tup(x=1)), Tup(a=2, b=5), Tup(a=3, b=Tup(x=3))]},
        schemas={"R": TupleType([("a", INT), ("b", TupleType([("x", INT)]))])},
    )
    # σ drops the malformed row from Q(D); relaxed tracing keeps it.
    query = Query(
        Projection(TupleFlatten(Selection(TableAccess("R"), col("a").ne(2)), "b"), ["a", "x"])
    )
    error_type, message = _reference_parity(WhyNotQuestion(query, db, Tup(a=ANY, x=7)))
    assert error_type is TypeError
    assert message.startswith("tuple flatten of non-tuple value 5")


def test_kernel_cache_is_bounded(monkeypatch):
    """Past the cap the cache is cleared, and kernels still compile and run."""
    import repro.engine.kernels as kernels_module

    monkeypatch.setattr(kernels_module, "_KERNEL_CACHE_CAP", 8)
    kernel_cache_clear()
    db = make_db()
    layout = Layout.of(("k", "v", "w"))
    for bound in range(20):
        ops, ctx = _chain_parts(Query(Selection(TableAccess("R"), col("v").ge(bound))), db)
        assert chain_kernel(ops, layout, ctx, new_kernel_info()) is not None
        assert len(kernels_module._KERNEL_CACHE) <= 8
    query = Query(Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"]))
    ops, ctx = _chain_parts(query, db)
    kernel = chain_kernel(ops, layout, ctx, new_kernel_info())
    out, _ = kernel.run(list(db.relation("R")), ops)
    assert Bag(out) == query.evaluate(db)
