"""Executor and tracer equivalence over every registered scenario.

The per-partition row fallback must reproduce the generated chain kernels
(and plain ``Query.evaluate``) exactly — results and per-operator row and
shuffle counts — at every partition count.  The columnar tracer must
reproduce the row-at-a-time reference tracer (:mod:`repro.fuzz.reference`)
row for row on every scenario and re-validation setting, also when a trace
is re-annotated for another NIP.

Every run is serial in the calling process.  The tests whose names say
``process`` or ``workers`` keep the names and ids they had while a
multi-process backend existed; their second side now runs over a pickled
copy of the database, the form in which that backend's workers received
it.  They check that the value model's pickle hooks (layout re-interning,
canonical NaNs) leave every answer, metric and explanation unchanged, and
the serialization contracts those hooks rest on are covered here too."""

import pickle

import pytest

from repro.algebra.aggregates import AggSpec
from repro.algebra.expressions import col
from repro.algebra.operators import (
    GroupAggregation,
    Join,
    Projection,
    Query,
    RelationNesting,
    Selection,
    TableAccess,
)
from repro.engine.backends import default_backend_name
from repro.engine.database import Database
from repro.engine.executor import Executor, build_segments
from repro.nested.values import Bag, Layout, Tup
from repro.whynot.explain import explain
from repro.whynot.question import WhyNotQuestion


def make_db():
    return Database(
        {
            "R": [Tup(k=i % 5, v=i) for i in range(23)],
            "S": [Tup(j=i % 4, w=str(i)) for i in range(11)],
        }
    )


def plan_join_group():
    joined = Join(TableAccess("R"), TableAccess("S"), [("k", "j")], how="full")
    return Query(
        GroupAggregation(
            Selection(joined, col("v").ge(2)),
            ["k"],
            [AggSpec("count", None, "n"), AggSpec("sum", col("v"), "s")],
        )
    )


def _pickled(db):
    """*db* after a pickle round trip."""
    return pickle.loads(pickle.dumps(db))


def _question(scenario, scale, backend):
    """*scenario*'s question; on the ``process`` side over a pickled copy
    of its database."""
    question = scenario.question(scale=scale)
    if backend == "process":
        question = WhyNotQuestion(
            question.query, _pickled(question.db), question.nip, name=question.name
        )
    return question


# -- serialization contracts -------------------------------------------------


def test_tup_pickle_reinterns_layout():
    t = Tup(a=1, b=Bag([Tup(c=2.0)]))
    t2 = pickle.loads(pickle.dumps(t))
    assert t2 == t and hash(t2) == hash(t)
    assert t2.layout is t.layout, "unpickled tuples must share interned layouts"


def test_layout_pickle_is_identity():
    layout = Layout.of(("x", "y"))
    assert pickle.loads(pickle.dumps(layout)) is layout


def test_backend_resolution():
    """One backend: every run is serial, and the knobs that chose another
    are gone rather than ignored."""
    assert default_backend_name() == "serial"
    with pytest.raises(TypeError):
        Executor(num_partitions=2, backend="process")
    with pytest.raises(TypeError):
        Executor(num_partitions=2, workers=2)


def test_chain_fusion_segments():
    query = Query(
        Projection(
            Selection(
                Projection(TableAccess("R"), ["k", "v"]), col("v").ge(2)
            ),
            ["k"],
        )
    )
    segments = build_segments(query)
    kinds = [s.kind for s in segments]
    assert kinds == ["source", "chain"]
    assert len(segments[1].ops) == 3, "narrow run must fuse into one chain"


# -- executor equivalence ----------------------------------------------------


def _operator_counts(metrics):
    return {
        op_id: (m.rows_in, m.rows_out, m.shuffled_rows, m.partitions, m.tasks)
        for op_id, m in metrics.operators.items()
    }


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("partitions", [1, 3, 7])
def test_process_equals_serial_join_group(workers, partitions):
    """``workers`` back-to-back executions on one executor over the pickled
    copy each equal ``Query.evaluate`` and repeat the first run's
    per-operator counts: per-execution state starts afresh."""
    db = make_db()
    query = plan_join_group()
    plain = query.evaluate(db)
    serial = Executor(num_partitions=partitions)
    assert serial.execute(query, db) == plain
    copy = _pickled(db)
    reused = Executor(num_partitions=partitions)
    for _ in range(workers):
        assert reused.execute(query, copy) == plain
        assert _operator_counts(reused.last_metrics) == _operator_counts(
            serial.last_metrics
        )


def test_metrics_merged_from_workers_equal_serial():
    db = make_db()
    query = Query(
        RelationNesting(
            Selection(
                Join(TableAccess("R"), TableAccess("S"), [("k", "j")]),
                col("v").ge(1),
            ),
            ["v", "w"],
            "vs",
        )
    )
    serial = Executor(num_partitions=3)
    copy = Executor(num_partitions=3)
    assert serial.execute(query, db) == copy.execute(query, _pickled(db))
    ms, mc = serial.last_metrics, copy.last_metrics
    assert ms.engine == mc.engine == "columnar"
    assert set(ms.operators) == set(mc.operators)
    for op_id, s in ms.operators.items():
        c = mc.operators[op_id]
        assert (s.rows_in, s.rows_out, s.shuffled_rows, s.partitions, s.tasks) == (
            c.rows_in,
            c.rows_out,
            c.shuffled_rows,
            c.partitions,
            c.tasks,
        ), f"metrics diverge at operator #{op_id}"
        assert c.cpu_seconds >= 0.0
    assert ms.total_shuffled_rows() == mc.total_shuffled_rows()
    assert "engine=columnar" in mc.report()


def _scenario_names():
    from repro.scenarios import SCENARIOS

    return sorted(SCENARIOS)


@pytest.mark.parametrize("chains", ["row", "columnar"])
@pytest.mark.parametrize("name", _scenario_names())
@pytest.mark.parametrize("partitions", [1, 3, 7])
def test_scenario_process_equals_serial(name, partitions, chains, monkeypatch):
    """row fallback ≡ kernels ≡ Query.evaluate for every scenario.

    ``chains="row"`` forces every chain task of the first run onto the
    per-partition row fallback, so the fallback is checked against the
    kernels of the second run (over the pickled copy) — results and
    per-operator metrics alike.
    """
    from repro.engine import columnar
    from repro.scenarios import get_scenario

    question = get_scenario(name).question(scale=10)
    plain = question.query.evaluate(question.db)
    serial = Executor(num_partitions=partitions)
    kernels = Executor(num_partitions=partitions)
    with monkeypatch.context() as patch:
        if chains == "row":
            patch.setattr(columnar, "chain_kernel", lambda *args: None)
        assert serial.execute(question.query, question.db) == plain
    assert kernels.execute(question.query, _pickled(question.db)) == plain, (
        f"{name} diverges on the kernels at {partitions} partitions"
    )
    ms, mk = serial.last_metrics, kernels.last_metrics
    assert ms.engine == mk.engine == "columnar"
    if chains == "row":
        assert ms.kernels["misses"] == 0, "the fallback run must compile no kernel"
    for op_id, s in ms.operators.items():
        k = mk.operators[op_id]
        assert (s.rows_in, s.rows_out, s.shuffled_rows) == (
            k.rows_in,
            k.rows_out,
            k.shuffled_rows,
        ), f"{name}: {chains} chain metrics diverge at operator #{op_id}"


# -- tracing / explanation equivalence ---------------------------------------

SA_SCENARIOS = ["Q4", "D4", "T2", "C3", "Q13N"]


@pytest.mark.parametrize("name", SA_SCENARIOS)
def test_explain_process_equals_serial(name):
    """Tracing the pickled copy must not change any explanation."""
    from repro.scenarios import get_scenario

    scenario = get_scenario(name)
    question = _question(scenario, 12, "serial")
    serial = explain(question, alternatives=scenario.alternatives, validate=False)
    question = _question(scenario, 12, "process")
    proc = explain(question, alternatives=scenario.alternatives, validate=False)
    assert serial.n_sas == proc.n_sas
    assert serial.explanation_labels() == proc.explanation_labels()
    assert [(e.lb, e.ub) for e in serial.explanations] == [
        (e.lb, e.ub) for e in proc.explanations
    ]
    assert serial.trace.total_rows() == proc.trace.total_rows()


@pytest.mark.parametrize("revalidate", [True, False])
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("name", _scenario_names())
def test_tracer_equals_reference(name, backend, revalidate):
    """Columnar snapshots ≡ the row-at-a-time reference tracer: every row
    view (id, parents, values, valid/consistent/retained masks) and every
    ranked explanation (labels, SA index, bounds, rank) is identical.  The
    ``process`` cells trace the pickled copy of the database and compare
    with the reference over the original.

    Re-annotated axis: the trace's own relaxed columns, annotated afresh
    for SAs re-enumerated from the same NIP (the serving layer's reuse
    path), must reproduce the reference too."""
    from repro.fuzz import reference
    from repro.scenarios import get_scenario
    from repro.whynot.explain import RelaxedTrace, explain_reusing

    scenario = get_scenario(name)
    question = _question(scenario, 10, backend)
    got = explain(
        question,
        alternatives=scenario.alternatives,
        revalidate=revalidate,
        validate=False,
    )
    _, ref_trace, ref_explanations = reference.reference_explain(
        scenario.question(scale=10),
        alternatives=scenario.alternatives,
        revalidate=revalidate,
        validate=False,
    )
    difference = reference.compare(
        got.trace, got.explanations, ref_trace, ref_explanations
    )
    assert difference is None, f"{name} on {backend}: {difference}"
    assert got.trace.total_rows() == ref_trace.total_rows()

    relaxed = RelaxedTrace.of(question, got.sas, got.trace)
    again, used = explain_reusing(
        question,
        relaxed,
        alternatives=scenario.alternatives,
        revalidate=revalidate,
    )
    assert used is relaxed and "annotate" in again.timings
    difference = reference.compare(
        again.trace, again.explanations, ref_trace, ref_explanations
    )
    assert difference is None, f"{name} re-annotated on {backend}: {difference}"


@pytest.mark.parametrize("family", ["social", "tpch"])
def test_reannotated_variant_equals_fresh_trace(family, nip_variants):
    """A NIP-constant variant annotated over the planted question's relaxed
    trace ≡ a fresh trace of the variant: every row view, masks included,
    and every ranked explanation."""
    from repro.factory import make_bundle
    from repro.fuzz import reference
    from repro.whynot.explain import RelaxedTrace, explain_reusing

    bundle = make_bundle(family, 1)
    planted = bundle.question()
    first = explain(planted, alternatives=bundle.alternatives, validate=False)
    relaxed = RelaxedTrace.of(planted, first.sas, first.trace)
    for nip in nip_variants(bundle, 2):
        variant = WhyNotQuestion(bundle.query, bundle.database, nip)
        reused, used = explain_reusing(variant, relaxed, alternatives=bundle.alternatives)
        assert used is relaxed and "annotate" in reused.timings
        fresh = explain(
            WhyNotQuestion(bundle.query, bundle.database, nip),
            alternatives=bundle.alternatives,
            validate=False,
        )
        difference = reference.compare(
            reused.trace, reused.explanations, fresh.trace, fresh.explanations
        )
        assert difference is None, f"{family} variant {nip!r}: {difference}"
        # The consistency masks are the variant's own, not the planted ones.
        assert reference.row_view(reused.trace) != reference.row_view(first.trace)


def test_reannotation_without_run_kernel_scans(monkeypatch, nip_variants):
    """A re-annotation whose run kernels cannot run for the variant (no
    trace kernel) evaluates the run's lazy columns and scans them instead;
    it equals a fresh trace of the variant and the reference tracer."""
    from repro.factory import make_bundle
    from repro.fuzz import reference
    from repro.whynot import tracing
    from repro.whynot.explain import RelaxedTrace, explain_reusing

    bundle = make_bundle("social", 1)
    planted = bundle.question()
    first = explain(planted, alternatives=bundle.alternatives, validate=False)
    assert first.trace.runs
    relaxed = RelaxedTrace.of(planted, first.sas, first.trace)
    nip = nip_variants(bundle, 1)[0]
    with monkeypatch.context() as patch:
        patch.setattr(tracing, "trace_kernel", lambda *args: None)
        reused, used = explain_reusing(
            WhyNotQuestion(bundle.query, bundle.database, nip),
            relaxed,
            alternatives=bundle.alternatives,
        )
    assert used is relaxed and "annotate" in reused.timings
    run_cols = [
        reused.trace.traces[op_id].cols for run in first.trace.runs for op_id in run.op_ids
    ]
    assert all(column is not None for cols in run_cols for column in cols._cols)
    fresh = explain(
        WhyNotQuestion(bundle.query, bundle.database, nip),
        alternatives=bundle.alternatives,
        validate=False,
    )
    difference = reference.compare(
        reused.trace, reused.explanations, fresh.trace, fresh.explanations
    )
    assert difference is None, difference
    _, ref_trace, ref_explanations = reference.reference_explain(
        WhyNotQuestion(bundle.query, bundle.database, nip),
        alternatives=bundle.alternatives,
        validate=False,
    )
    difference = reference.compare(
        reused.trace, reused.explanations, ref_trace, ref_explanations
    )
    assert difference is None, difference


def test_gate_sees_dropped_recheck_hits(monkeypatch):
    """Injection: recheck kernels that lose one check's hits (the first
    operator's of each run) make the re-annotated axis of
    ``test_tracer_equals_reference`` report a difference, so that gate
    checks the recheck path."""
    from repro.engine import kernels
    from repro.fuzz import reference
    from repro.scenarios import get_scenario
    from repro.whynot.explain import RelaxedTrace, explain_reusing

    scenario = get_scenario("GenSocial")
    question = scenario.question(scale=10)
    got = explain(question, alternatives=scenario.alternatives, validate=False)
    _, ref_trace, ref_explanations = reference.reference_explain(
        scenario.question(scale=10), alternatives=scenario.alternatives, validate=False
    )
    build = kernels.build_trace_kernel

    def dropping(ops, layout, ctx, shapes, checks, recheck=False):
        kernel = build(ops, layout, ctx, shapes, checks, recheck)
        if not recheck:
            return kernel

        def fn(rows, args):
            hits = kernel.fn(rows, args)
            return (([],) + tuple(hits[0][1:]),) + tuple(hits[1:])

        return kernels.CompiledKernel(fn, kernel.source, (), -1)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_KERNEL_CACHE", {})
        patch.setattr(kernels, "build_trace_kernel", dropping)
        again, _ = explain_reusing(
            question,
            RelaxedTrace.of(question, got.sas, got.trace),
            alternatives=scenario.alternatives,
        )
    assert again.trace.rechecks
    assert reference.compare(got.trace, got.explanations, ref_trace, ref_explanations) is None
    difference = reference.compare(
        again.trace, again.explanations, ref_trace, ref_explanations
    )
    assert difference is not None


@pytest.mark.parametrize("name", SA_SCENARIOS)
def test_explain_columnar_equals_row(name):
    """The compiled answer path must not change any explanation: ``Q(D)``
    from the kernel executor and from the reference ``Query.evaluate``
    yield identical explanations and side-effect bounds."""
    from repro.scenarios import get_scenario

    scenario = get_scenario(name)
    question = scenario.question(scale=12)
    question._result_cache = question.query.evaluate(question.db)
    row = explain(question, alternatives=scenario.alternatives, validate=False)
    question = scenario.question(scale=12)
    columnar = explain(question, alternatives=scenario.alternatives, validate=False)
    assert question.result() == row.question.result()
    assert row.n_sas == columnar.n_sas
    assert row.explanation_labels() == columnar.explanation_labels()
    assert [(e.lb, e.ub) for e in row.explanations] == [
        (e.lb, e.ub) for e in columnar.explanations
    ]


def test_running_example_explain_cross_backend(person_db, running_query):
    from repro.whynot.placeholders import ANY, STAR

    nip = Tup(city="NY", nList=Bag([ANY, STAR]))
    groups = [["person.address2", "person.address1"]]
    serial = explain(WhyNotQuestion(running_query, person_db, nip), alternatives=groups)
    proc = explain(
        WhyNotQuestion(running_query, _pickled(person_db), nip), alternatives=groups
    )
    assert serial.explanation_labels() == proc.explanation_labels()
