"""The explanation-preserving logical plan optimizer.

Two layers of guarantees:

* **per-rule behaviour** — every rewrite rule fires on its target shape and
  declines when a guard condition (outer join sides, computed columns,
  nested-attribute predicates, duplicate output names, ...) makes the
  rewrite unsound;
* **plan-level equivalence** — for every registered scenario, optimized and
  unoptimized execution produce identical result bags at 1/3/7 partitions,
  and the why-not pipeline produces identical explanation sets, SA counts
  and side-effect bounds with the optimizer on and off (mirroring the
  scenario suites in ``tests/engine/test_backends.py``).
"""

import pytest

from repro.algebra.aggregates import AggSpec
from repro.algebra.expressions import And, col, lit
from repro.algebra.operators import (
    Deduplication,
    GroupAggregation,
    Join,
    Projection,
    Query,
    RelationNesting,
    Renaming,
    Selection,
    TableAccess,
)
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.optimizer import (
    OPTIMIZE_ENV,
    OptimizationReport,
    default_optimize,
    optimize_query,
    resolve_optimize,
)
from repro.nested.values import Tup
from repro.whynot.explain import explain


def make_db(small: int = 4, big: int = 30):
    return Database(
        {
            "R": [Tup(k=i % 3, v=i, w=str(i)) for i in range(small)],
            "S": [Tup(j=i % 3, x=i * 10, y=i % 2) for i in range(big)],
        }
    )


def fires(query: Query, db) -> dict:
    return {k: v for k, v in optimize_query(query, db).rule_fires.items() if v}


def assert_equivalent(query: Query, db) -> OptimizationReport:
    report = optimize_query(query, db)
    assert report.optimized.evaluate(db) == query.evaluate(db)
    return report


# -- fuse-selections ---------------------------------------------------------


def test_fuse_selections_fires_and_preserves_results():
    db = make_db()
    query = Query(
        Selection(Selection(TableAccess("R"), col("v").ge(1)), col("k").le(1))
    )
    report = assert_equivalent(query, db)
    assert report.rule_fires["fuse-selections"] == 1
    fused = [op for op in report.optimized.ops if isinstance(op, Selection)]
    assert len(fused) == 1 and isinstance(fused[0].pred, And)


def test_fuse_selections_links_both_origins():
    db = make_db()
    inner = Selection(TableAccess("R"), col("v").ge(1))
    outer = Selection(inner, col("k").le(1))
    query = Query(outer)
    report = optimize_query(query, db)
    fused = next(op for op in report.optimized.ops if isinstance(op, Selection))
    assert set(fused.origins) == {inner.op_id, outer.op_id}


# -- pushdown-projection / pushdown-rename -----------------------------------


def test_pushdown_projection_rewrites_passthrough_columns():
    db = make_db()
    query = Query(
        Selection(Projection(TableAccess("R"), ["k", ("vv", col("v"))]), col("vv").ge(2))
    )
    report = assert_equivalent(query, db)
    assert report.rule_fires["pushdown-projection"] == 1
    # The selection now sits below the user projection (possibly above a
    # synthesized pruning projection) and references the source attribute.
    pushed = next(op for op in report.optimized.ops if isinstance(op, Selection))
    assert isinstance(report.optimized.root, Projection)
    assert pushed.pred.attr_paths() == [("v",)]


def test_pushdown_projection_declines_on_computed_columns():
    db = make_db()
    query = Query(
        Selection(
            Projection(TableAccess("R"), [("s", col("v") + lit(1))]), col("s").ge(2)
        )
    )
    assert "pushdown-projection" not in fires(query, db)
    assert_equivalent(query, db)


def test_pushdown_rename_maps_attribute_roots_back():
    db = make_db()
    query = Query(
        Selection(Renaming(TableAccess("R"), [("key", "k")]), col("key").le(1))
    )
    report = assert_equivalent(query, db)
    assert report.rule_fires["pushdown-rename"] == 1
    pushed = next(op for op in report.optimized.ops if isinstance(op, Selection))
    assert pushed.pred.attr_paths() == [("k",)]


# -- pushdown-join -----------------------------------------------------------


def _join_plan(how: str) -> Query:
    joined = Join(TableAccess("R"), TableAccess("S"), [("k", "j")], how=how)
    return Query(Selection(joined, col("v").ge(1) & col("x").ge(10)))


def test_pushdown_join_splits_conjuncts_for_inner_joins():
    db = make_db()
    report = assert_equivalent(_join_plan("inner"), db)
    assert report.rule_fires["pushdown-join"] == 2
    join = next(op for op in report.optimized.ops if isinstance(op, Join))
    assert all(isinstance(c, Selection) for c in join.children)


def test_pushdown_join_outer_variants_only_push_preserved_side():
    db = make_db()
    left = assert_equivalent(_join_plan("left"), db)
    assert left.rule_fires["pushdown-join"] == 1  # only the v-term moves
    assert "pushdown-join" not in fires(_join_plan("full"), db)
    assert_equivalent(_join_plan("full"), db)


def test_pushdown_join_drop_right_keys_classifies_keys_as_left():
    """With dropped right keys the output key column is the left side's copy
    (⊥-padded under right/full outer joins), so a key-named term must never
    move into the right input."""
    db = Database(
        {
            "L": [Tup(k=1, a=10)],
            "R": [Tup(k=1, b=100), Tup(k=5, b=500)],
        }
    )
    query = Query(
        Selection(
            Join(TableAccess("L"), TableAccess("R"), [("k", "k")], how="right",
                 drop_right_keys=True),
            col("k").ge(1),
        )
    )
    assert "pushdown-join" not in fires(query, db)
    assert_equivalent(query, db)
    inner = Query(
        Selection(
            Join(TableAccess("L"), TableAccess("R"), [("k", "k")],
                 drop_right_keys=True),
            col("k").ge(1) & col("b").ge(100),
        )
    )
    report = assert_equivalent(inner, db)
    join = next(op for op in report.optimized.ops if isinstance(op, Join))
    assert isinstance(join.children[0], Selection), "key term goes left"
    assert isinstance(join.children[1], Selection), "b term goes right"


def test_pushdown_join_keeps_cross_side_residual_above():
    db = make_db()
    joined = Join(TableAccess("R"), TableAccess("S"), [("k", "j")])
    query = Query(Selection(joined, col("v").ge(1) & col("v").le(col("x"))))
    report = assert_equivalent(query, db)
    assert report.rule_fires["pushdown-join"] == 1
    assert isinstance(report.optimized.root, Selection), "residual term stays above"
    assert report.optimized.root.pred.attr_paths() == [("v",), ("x",)]


# -- pushdown-nesting --------------------------------------------------------


def test_pushdown_nesting_commutes_with_group_key_predicates():
    db = make_db()
    query = Query(
        Selection(RelationNesting(TableAccess("R"), ["v"], "vs"), col("k").le(1))
    )
    report = assert_equivalent(query, db)
    assert report.rule_fires["pushdown-nesting"] == 1
    nest = next(op for op in report.optimized.ops if isinstance(op, RelationNesting))
    assert isinstance(nest.children[0], Selection)


def test_pushdown_nesting_declines_on_nested_attributes():
    db = make_db()
    query = Query(
        Selection(
            RelationNesting(TableAccess("R"), ["v"], "vs"), col("vs").is_null()
        )
    )
    assert "pushdown-nesting" not in fires(query, db)
    assert_equivalent(query, db)


# -- reorder-join ------------------------------------------------------------


def test_reorder_join_builds_hash_index_over_smaller_input():
    db = make_db(small=4, big=40)
    query = Query(Join(TableAccess("R"), TableAccess("S"), [("k", "j")]))
    report = assert_equivalent(query, db)
    assert report.rule_fires["reorder-join"] == 1
    # Root is the synthesized column-order-restoring projection.
    assert isinstance(report.optimized.root, Projection)
    assert report.optimized.root.origins == ()
    join = next(op for op in report.optimized.ops if isinstance(op, Join))
    assert isinstance(join.children[0], TableAccess) and join.children[0].table == "S"
    assert join.on == ((("j",), ("k",)),)


def test_reorder_join_declines_when_already_ordered_or_unsafe():
    db = make_db(small=4, big=40)
    ordered = Query(Join(TableAccess("S"), TableAccess("R"), [("j", "k")]))
    assert "reorder-join" not in fires(ordered, db)
    outer = Query(Join(TableAccess("R"), TableAccess("S"), [("k", "j")], how="left"))
    assert "reorder-join" not in fires(outer, db)
    residual = Query(
        Join(TableAccess("R"), TableAccess("S"), [("k", "j")], extra=col("v").le(col("x")))
    )
    assert "reorder-join" not in fires(residual, db)
    dropping = Query(
        Join(TableAccess("R"), TableAccess("S"), [("k", "j")], drop_right_keys=True)
    )
    assert "reorder-join" not in fires(dropping, db)
    for query in (ordered, outer, residual, dropping):
        assert_equivalent(query, db)


# -- prune-columns -----------------------------------------------------------


def test_prune_columns_inserts_projection_above_table_access():
    db = make_db()
    query = Query(
        GroupAggregation(TableAccess("S"), ["j"], [AggSpec("sum", col("x"), "sx")])
    )
    report = assert_equivalent(query, db)
    assert report.rule_fires["prune-columns"] == 1
    pruned = next(op for op in report.optimized.ops if isinstance(op, Projection))
    assert pruned.origins == () and [n for n, _ in pruned.cols] == ["j", "x"]


def test_prune_columns_respects_whole_row_operators():
    db = make_db()
    query = Query(
        GroupAggregation(
            Deduplication(TableAccess("S")), ["j"], [AggSpec("count", None, "n")]
        )
    )
    assert "prune-columns" not in fires(query, db)
    assert_equivalent(query, db)


def test_prune_columns_keeps_tuple_nesting_attrs_live():
    """``N^T`` drops + re-projects its attrs unconditionally, so they stay
    live even when the packed target column is dead downstream."""
    from repro.algebra.operators import TupleNesting

    db = make_db()
    query = Query(
        Projection(TupleNesting(TableAccess("R"), ["v", "w"], "t"), ["k"])
    )
    report = assert_equivalent(query, db)  # must not crash schema inference
    assert report.optimized.evaluate(db) == query.evaluate(db)


def test_prune_columns_skips_tables_under_projections():
    db = make_db()
    query = Query(Projection(TableAccess("S"), ["j"]))
    assert fires(query, db) == {}


# -- report / plumbing -------------------------------------------------------


def test_report_describe_renders_both_plans_with_annotations():
    db = make_db(small=4, big=40)
    query = Query(
        Selection(
            Join(TableAccess("R"), TableAccess("S"), [("k", "j")]),
            col("v").ge(1) & col("x").ge(10),
        ),
        name="unit",
    )
    report = optimize_query(query, db)
    text = report.describe()
    assert "original plan:" in text and "optimized plan:" in text
    assert "pushdown-join" in text and "⟵" in text
    assert report.changed and report.total_fires() >= 2
    summary = report.summary()
    assert summary["ops_before"] == len(query.ops)
    assert summary["ops_after"] == len(report.optimized.ops)


def test_explain_plan_is_deterministic_and_annotation_free_by_default():
    db = make_db()
    query = Query(Selection(TableAccess("R"), col("v").ge(1)), name="plain")
    text = query.explain_plan()
    assert text == query.explain_plan()
    assert "⟵" not in text and text.startswith("Query plain")


def test_optimized_query_is_picklable():
    import pickle

    db = make_db(small=4, big=40)
    query = Query(Join(TableAccess("R"), TableAccess("S"), [("k", "j")]))
    report = optimize_query(query, db)
    restored = pickle.loads(pickle.dumps(report.optimized))
    assert restored.evaluate(db) == query.evaluate(db)
    assert [op.origins for op in restored.ops] == [
        op.origins for op in report.optimized.ops
    ]


def test_resolve_optimize_env(monkeypatch):
    monkeypatch.delenv(OPTIMIZE_ENV, raising=False)
    assert default_optimize() is False and resolve_optimize(None) is False
    monkeypatch.setenv(OPTIMIZE_ENV, "1")
    assert default_optimize() is True and resolve_optimize(None) is True
    assert resolve_optimize(False) is False and resolve_optimize(True) is True


def test_optimize_query_caches_plan_per_query_and_db_version():
    """Re-optimizing the same query against the same database is a cache hit."""
    db = make_db()
    query = Query(
        Selection(Selection(TableAccess("R"), col("v").ge(1)), col("k").le(1))
    )
    first = optimize_query(query, db)
    assert first.rewrite_seconds > 0.0
    assert optimize_query(query, db) is first, "same query+db must reuse the plan"
    # A structurally equal but distinct Query re-optimizes (identity keyed).
    clone = Query(
        Selection(Selection(TableAccess("R"), col("v").ge(1)), col("k").le(1))
    )
    assert optimize_query(clone, db) is not first
    # Mutating the database invalidates the cached plan.
    db.add("T", [Tup(z=1)])
    second = optimize_query(query, db)
    assert second is not first
    assert second.rule_fires == first.rule_fires
    # A different database object misses as well.
    other = make_db()
    assert optimize_query(query, other) is not second


def test_rewrite_seconds_in_metrics_but_not_summary():
    """The executor surfaces rewrite time; summaries stay deterministic."""
    db = make_db()
    query = Query(
        Selection(Selection(TableAccess("R"), col("v").ge(1)), col("k").le(1))
    )
    report = optimize_query(query, db)
    assert "rewrite_seconds" not in report.summary()
    executor = Executor(num_partitions=2, optimize=True)
    executor.execute(query, db)
    recorded = executor.last_metrics.optimizer["rewrite_seconds"]
    assert recorded == report.rewrite_seconds  # served from the plan cache


def test_executor_surfaces_rule_fires_and_origins_in_metrics():
    db = make_db(small=4, big=40)
    query = Query(
        Selection(
            Join(TableAccess("R"), TableAccess("S"), [("k", "j")]),
            col("v").ge(1) & col("x").ge(10),
        )
    )
    executor = Executor(num_partitions=3, optimize=True)
    assert executor.execute(query, db) == query.evaluate(db)
    metrics = executor.last_metrics
    assert metrics.optimizer is not None and metrics.optimizer["rule_fires"]
    assert executor.last_report is not None and executor.last_report.changed
    assert any(m.origins for m in metrics.operators.values())
    assert "optimizer:" in metrics.report()
    # Off by default: no report, no optimizer block in metrics.
    plain = Executor(num_partitions=3)
    plain.execute(query, db)
    assert plain.last_metrics.optimizer is None and plain.last_report is None


# -- scenario-wide equivalence (the explanation-identity guarantee) ----------


def _scenario_names():
    from repro.scenarios import SCENARIOS

    return sorted(SCENARIOS)


@pytest.mark.parametrize("name", _scenario_names())
@pytest.mark.parametrize("partitions", [1, 3, 7])
def test_scenario_optimized_equals_unoptimized(name, partitions):
    """Optimized ≡ unoptimized ≡ Query.evaluate for every scenario at
    1/3/7 partitions (the optimizer acceptance criterion), and the why-not
    answer path's ``Q(D)`` equals the reference too."""
    from repro.scenarios import get_scenario

    question = get_scenario(name).question(scale=10)
    plain = question.query.evaluate(question.db)
    assert question.result() == plain
    off = Executor(num_partitions=partitions, optimize=False)
    on = Executor(num_partitions=partitions, optimize=True)
    assert off.execute(question.query, question.db) == plain
    assert on.execute(question.query, question.db) == plain, (
        f"{name}: optimized execution diverges at {partitions} partitions"
    )


def test_at_least_three_rules_fire_across_the_scenario_suite():
    from repro.scenarios import SCENARIOS, get_scenario

    fired = set()
    for name in sorted(SCENARIOS):
        question = get_scenario(name).question(scale=10)
        report = optimize_query(question.query, question.db)
        fired |= {rule for rule, count in report.rule_fires.items() if count}
    assert len(fired) >= 3, f"only {sorted(fired)} fired across the scenario suite"


SA_SCENARIOS = ["Q4", "D4", "T2", "C3", "Q13N"]


@pytest.mark.parametrize("name", SA_SCENARIOS)
def test_explanations_identical_with_optimizer(name):
    """explain() must report identical explanation sets, SA counts, ranks and
    side-effect bounds with the optimizer on and off."""
    from repro.scenarios import get_scenario

    scenario = get_scenario(name)
    off = explain(
        scenario.question(scale=12),
        alternatives=scenario.alternatives,
        validate=False,
        optimize=False,
    )
    on = explain(
        scenario.question(scale=12),
        alternatives=scenario.alternatives,
        validate=False,
        optimize=True,
    )
    assert off.n_sas == on.n_sas
    assert off.explanation_labels() == on.explanation_labels()
    assert [(e.rank, e.lb, e.ub) for e in off.explanations] == [
        (e.rank, e.lb, e.ub) for e in on.explanations
    ]
    assert on.optimizer is not None and off.optimizer is None


def test_run_scenario_explanations_independent_of_optimizer():
    from repro.scenarios import run_scenario

    off = run_scenario("Q3", scale=12, optimize=False)
    on = run_scenario("Q3", scale=12, optimize=True)
    assert off.rp == on.rp and off.rp_nosa == on.rp_nosa
    assert off.gold_position() == on.gold_position()
    # The flag must actually reach the pipeline, not be a silent no-op.
    assert on.rp_result.optimizer is not None and on.rp_result.optimizer["rule_fires"]
    assert off.rp_result.optimizer is None


def test_explain_records_optimizer_even_with_precomputed_result():
    """A question whose result is already cached still gets the optimizer
    pass recorded (the evaluation is reused; the summary must not vanish)."""
    from repro.scenarios import get_scenario

    scenario = get_scenario("Q3")
    question = scenario.question(scale=12)
    question.validate()  # fills the result cache with the plain evaluation
    result = explain(
        question, alternatives=scenario.alternatives, validate=False, optimize=True
    )
    assert result.optimizer is not None and result.optimizer["rule_fires"]
