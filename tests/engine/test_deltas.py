"""Delta-incremental evaluation: incremental ≡ from-scratch at every version.

The :class:`~repro.engine.deltas.DeltaEvaluator` must maintain a query's
result bag across a database version chain exactly as a full recomputation
would — through fused narrow chains, keyed shuffles, set operations and
driver-side (keyless) aggregation, on kernels and on the per-partition row
fallback.  These tests pin the
equivalence on the paper scenarios plus targeted operator shapes; the wider
randomized gate is ``python -m repro fuzz --mutations`` (CI ``mutate`` job).
"""

import pytest

from repro.engine.database import Database, Mutation
from repro.engine.deltas import (
    DeltaEvaluator,
    DeltaInconsistency,
    mutation_steps,
    read_tables,
)
from repro.engine.executor import Executor
from repro.nested.values import Bag, Tup
from repro.scenarios import SCENARIOS, get_scenario


def _first_row(db, table):
    return next(iter(db.relation(table).distinct()))


class TestHelpers:
    def test_read_tables(self):
        query = get_scenario("Q1").make_query()
        assert read_tables(query) == frozenset({"nestedOrders"})

    def test_mutation_steps_walks_the_chain(self):
        v0 = Database({"T": [Tup(a=1)]})
        v1 = v0.apply_mutations(inserts={"T": [Tup(a=2)]})
        v2 = v1.apply_mutations(deletes={"T": [Tup(a=1)]})
        assert mutation_steps(v0, v2) == [v1, v2]
        assert mutation_steps(v0, v0) == []
        # Not a descendant: a sibling chain forces a rebase.
        other = v0.apply_mutations(inserts={"T": [Tup(a=9)]})
        assert mutation_steps(v2, other) is None


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_single_row_edits_match_scratch(self, name):
        scenario = get_scenario(name)
        db = scenario.make_db(scenario.default_scale // 3 or 1)
        query = scenario.make_query()
        evaluator = DeltaEvaluator(query, db, num_partitions=3)
        scratch = Executor(num_partitions=3, optimize=False)
        assert evaluator.result() == scratch.execute(query, db)
        # One delete then one insert on a read table.
        table = sorted(evaluator.reads)[0]
        row = _first_row(db, table)
        v1 = db.apply_mutations(deletes={table: [row]})
        assert evaluator.update(v1) == scratch.execute(query, v1)
        assert evaluator.last_stats["mode"] == "delta"
        v2 = v1.apply_mutations(inserts={table: [row, row]})
        assert evaluator.update(v2) == scratch.execute(query, v2)
        assert evaluator.rebases == 1  # only the base construction

    @pytest.mark.parametrize("chains", ["row", "columnar"])
    def test_multi_step_jump_applies_every_mutation(self, chains, monkeypatch):
        # chains="row": every chain task takes the per-partition row fallback.
        if chains == "row":
            from repro.engine import columnar

            monkeypatch.setattr(columnar, "chain_kernel", lambda *args: None)
        scenario = get_scenario("Q4")
        db = scenario.make_db(20)
        query = scenario.make_query()
        evaluator = DeltaEvaluator(query, db, num_partitions=4)
        table = sorted(evaluator.reads)[0]
        version = db
        for _ in range(3):
            version = version.apply_mutations(
                deletes={table: [_first_row(version, table)]}
            )
        # update() jumps three versions at once and must walk all of them.
        assert evaluator.update(version) == Executor(
            num_partitions=4, optimize=False
        ).execute(query, version)
        assert evaluator.last_stats["steps"] == 3


class TestFallbacks:
    def test_non_descendant_target_rebases(self):
        scenario = get_scenario("Q1")
        db = scenario.make_db(12)
        query = scenario.make_query()
        evaluator = DeltaEvaluator(query, db, num_partitions=2)
        fresh = scenario.make_db(12)  # equal data, different chain root
        assert evaluator.update(fresh) == query.evaluate(fresh)
        assert evaluator.last_stats["mode"] == "rebase"

    def test_schema_widening_on_read_table_rebases(self):
        db = Database({"T": [Tup(a=1), Tup(a=2)]})
        from repro.algebra.operators import Query, Selection, TableAccess
        from repro.algebra.expressions import Attr, Cmp, Const

        query = Query(Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(1))))
        evaluator = DeltaEvaluator(query, db, num_partitions=2)
        widened = db.apply_mutations(inserts={"T": [Tup(a=2.5)]})
        assert evaluator.update(widened) == query.evaluate(widened)
        assert evaluator.last_stats["mode"] == "rebase"

    def test_noop_update_is_free(self):
        db = Database({"T": [Tup(a=1)]})
        from repro.algebra.operators import Query, TableAccess

        query = Query(TableAccess("T"))
        evaluator = DeltaEvaluator(query, db)
        evaluator.update(db)
        assert evaluator.last_stats["mode"] == "noop"

    def test_delta_inconsistency_is_a_runtime_error(self):
        assert issubclass(DeltaInconsistency, RuntimeError)


class TestCanonicalFormMutations:
    def test_numeric_tower_and_nan_variants_propagate(self):
        db = Database({"T": [Tup(a=2.0, b="x"), Tup(a=0.0, b="y"),
                             Tup(a=float("nan"), b="z")]})
        from repro.algebra.operators import Projection, Query, TableAccess

        query = Query(Projection(TableAccess("T"), ["b"]))
        evaluator = DeltaEvaluator(query, db, num_partitions=2)
        v1 = db.apply_mutations(
            Mutation(deletes={"T": [Tup(a=2, b="x"), Tup(a=-0.0, b="y"),
                                    Tup(a=float("nan"), b="z")]})
        )
        assert evaluator.update(v1) == query.evaluate(v1)
        assert len(evaluator.result()) == 0
        assert evaluator.last_stats["mode"] == "delta"


class TestBackends:
    def test_process_backend_matches_serial(self):
        scenario = get_scenario("Q3")
        db = scenario.make_db(15)
        query = scenario.make_query()
        serial = DeltaEvaluator(query, db, num_partitions=3, backend="serial")
        process = DeltaEvaluator(
            query, db, num_partitions=3, backend="process", workers=2
        )
        table = sorted(serial.reads)[0]
        version = db.apply_mutations(deletes={table: [_first_row(db, table)]})
        assert serial.update(version) == process.update(version)
