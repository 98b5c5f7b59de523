"""Cross-backend equivalence: the process backend must reproduce the serial
backend (and plain ``Query.evaluate``) exactly — results, explanations, and
the merged row/shuffle metrics — for every plan, partition count and worker
count.  The columnar tracer must reproduce the row-at-a-time reference
tracer (:mod:`repro.fuzz.reference`) row for row on every scenario, backend
and re-validation setting.  Also covers the serialization contracts the
process backend rests on: layout re-interning and compiled-cache stripping
across pickling."""

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
from repro.engine.backends import (
    ProcessBackend,
    SerialBackend,
    close_backends,
    default_backend_name,
    get_backend,
)
from repro.engine.database import Database
from repro.engine.executor import Executor, build_segments
from repro.nested.values import Bag, Layout, Tup
from repro.whynot.explain import explain


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


# -- serialization contracts -------------------------------------------------


def test_tup_pickle_reinterns_layout():
    t = Tup(a=1, b=Bag([Tup(c=2.0)]))
    t2 = pickle.loads(pickle.dumps(t))
    assert t2 == t and hash(t2) == hash(t)
    assert t2.layout is t.layout, "unpickled tuples must share interned layouts"


def test_layout_pickle_is_identity():
    layout = Layout.of(("x", "y"))
    assert pickle.loads(pickle.dumps(layout)) is layout


def test_operator_pickle_strips_compiled_caches():
    query = plan_join_group()
    # Populate every lazy compiled cache, then round-trip.
    query.root.key_fn()
    query.root.children[0].pred.compile()
    query.root.children[0].children[0].key_fns()
    restored = pickle.loads(pickle.dumps(query))
    for op in restored.ops:
        compiled = [k for k in op.__dict__ if k.startswith("_compiled")]
        assert not compiled, f"{op.label} pickled compiled state {compiled}"
    assert not hasattr(restored.root.children[0].pred, "_compiled")
    # Re-compilation on the receiving side agrees with the original.
    db = make_db()
    assert restored.evaluate(db) == query.evaluate(db)


def test_backend_resolution():
    assert isinstance(get_backend("serial"), SerialBackend)
    proc = get_backend("process", 2)
    assert isinstance(proc, ProcessBackend) and proc.workers == 2
    assert get_backend("process", 2) is proc, "pools are cached per worker count"
    passthrough = SerialBackend()
    assert get_backend(passthrough) is passthrough
    assert default_backend_name() in ("serial", "process")
    with pytest.raises(ValueError):
        get_backend("threads")


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


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("partitions", [1, 3, 7])
def test_process_equals_serial_join_group(workers, partitions):
    db = make_db()
    query = plan_join_group()
    plain = query.evaluate(db)
    serial = Executor(num_partitions=partitions, backend="serial")
    proc = Executor(num_partitions=partitions, backend="process", workers=workers)
    assert serial.execute(query, db) == plain
    assert proc.execute(query, db) == plain


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
    serial = Executor(num_partitions=3, backend="serial")
    proc = Executor(num_partitions=3, backend="process", workers=2)
    assert serial.execute(query, db) == proc.execute(query, db)
    ms, mp = serial.last_metrics, proc.last_metrics
    assert ms.backend == "serial" and mp.backend == "process" and mp.workers == 2
    assert set(ms.operators) == set(mp.operators)
    for op_id, s in ms.operators.items():
        p = mp.operators[op_id]
        assert (s.rows_in, s.rows_out, s.shuffled_rows, s.partitions, s.tasks) == (
            p.rows_in,
            p.rows_out,
            p.shuffled_rows,
            p.partitions,
            p.tasks,
        ), f"metrics diverge at operator #{op_id}"
        assert p.cpu_seconds >= 0.0
    assert ms.total_shuffled_rows() == mp.total_shuffled_rows()
    assert "backend=process" in mp.report()


def _scenario_names():
    from repro.scenarios import SCENARIOS

    return sorted(SCENARIOS)


@pytest.mark.parametrize("chains", ["row", "columnar"])
@pytest.mark.parametrize("name", _scenario_names())
@pytest.mark.parametrize("partitions", [1, 3, 7])
def test_scenario_process_equals_serial(name, partitions, chains, monkeypatch):
    """process ≡ serial ≡ Query.evaluate for every scenario.

    ``chains="row"`` forces every serial chain task onto the per-partition
    row fallback, so the fallback is checked against the process backend's
    kernels — results and per-operator metrics alike.
    """
    from repro.engine import columnar
    from repro.scenarios import get_scenario

    question = get_scenario(name).question(scale=10)
    plain = question.query.evaluate(question.db)
    workers = {1: 1, 3: 2, 7: 4}[partitions]  # cover 1/2/4 workers across the grid
    serial = Executor(num_partitions=partitions, backend="serial")
    proc = Executor(num_partitions=partitions, backend="process", workers=workers)
    with monkeypatch.context() as patch:
        if chains == "row":
            patch.setattr(columnar, "chain_kernel", lambda *args: None)
        assert serial.execute(question.query, question.db) == plain
    assert proc.execute(question.query, question.db) == plain, (
        f"{name} diverges on the process backend at {partitions} partitions"
    )
    ms, mp = serial.last_metrics, proc.last_metrics
    assert ms.engine == mp.engine == "columnar"
    if chains == "row":
        assert ms.kernels["misses"] == 0, "the serial side must compile no kernel"
    for op_id, s in ms.operators.items():
        p = mp.operators[op_id]
        assert (s.rows_in, s.rows_out, s.shuffled_rows) == (
            p.rows_in,
            p.rows_out,
            p.shuffled_rows,
        ), f"{name}: worker-merged metrics diverge at operator #{op_id}"


# -- tracing / explanation equivalence ---------------------------------------

SA_SCENARIOS = ["Q4", "D4", "T2", "C3", "Q13N"]


@pytest.mark.parametrize("name", SA_SCENARIOS)
def test_explain_process_equals_serial(name):
    """Parallel SA-group tracing must not change any explanation."""
    from repro.scenarios import get_scenario

    scenario = get_scenario(name)
    question = scenario.question(scale=12)
    serial = explain(
        question, alternatives=scenario.alternatives, validate=False, backend="serial"
    )
    question = scenario.question(scale=12)
    proc = explain(
        question,
        alternatives=scenario.alternatives,
        validate=False,
        backend="process",
        workers=2,
    )
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
    ranked explanation (labels, SA index, bounds, rank) is identical.

    Re-annotated axis: the trace's own relaxed columns, annotated afresh
    for SAs re-enumerated from the same NIP (the serving layer's reuse
    path), must reproduce the reference too."""
    from repro.fuzz import reference
    from repro.scenarios import get_scenario
    from repro.whynot.explain import RelaxedTrace, explain_reusing

    scenario = get_scenario(name)
    question = scenario.question(scale=10)
    got = explain(
        question,
        alternatives=scenario.alternatives,
        revalidate=revalidate,
        validate=False,
        backend=backend,
        workers=2,
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
        backend=backend,
        workers=2,
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
    from repro.whynot.question import WhyNotQuestion

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
    from repro.nested.values import Bag, Tup
    from repro.whynot.placeholders import ANY, STAR
    from repro.whynot.question import WhyNotQuestion

    nip = Tup(city="NY", nList=Bag([ANY, STAR]))
    groups = [["person.address2", "person.address1"]]
    question = WhyNotQuestion(running_query, person_db, nip)
    serial = explain(question, alternatives=groups, backend="serial")
    proc = explain(question, alternatives=groups, backend="process", workers=2)
    assert serial.explanation_labels() == proc.explanation_labels()


def test_context_miss_replays_with_payload():
    """Later batches ship only the context id; a worker that never saw the
    payload must trigger a transparent replay, not an error."""
    from repro.algebra.operators import TableAccess as TA
    from repro.engine.backends import TaskContext

    db = Database({"R": [Tup(k=i, v=i) for i in range(12)]})
    query = Query(Selection(TA("R"), col("v").ge(0)))
    rows = list(db.relation("R"))
    backend = ProcessBackend(workers=3)
    try:
        ctx = TaskContext(query, db)
        # One-task batch: at most one worker learns the context, but the
        # driver marks it as shipped.
        backend.run(ctx, [("chain", (query.root.op_id,), rows[:4])])
        # A wider batch then reaches workers without the cached context.
        tasks = [("chain", (query.root.op_id,), [row]) for row in rows]
        results = backend.run(ctx, tasks)
        assert [out for out, _, _ in results] == [[row] for row in rows]
    finally:
        backend.close()


def test_close_backends_is_idempotent():
    backend = get_backend("process", 2)
    db = make_db()
    query = plan_join_group()
    Executor(num_partitions=2, backend=backend).execute(query, db)
    close_backends()
    close_backends()
    # A fresh pool spins up transparently after closing.
    assert Executor(num_partitions=2, backend="process", workers=2).execute(
        query, db
    ) == query.evaluate(db)