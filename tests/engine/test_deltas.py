"""Versioned databases on the service write path: answers ≡ from scratch.

A registered database changes only through
:meth:`~repro.api.service.ExplanationService.mutate_database`, and every
``query`` the service answers afterwards must equal ``Query.evaluate`` on
the new version — through fused kernel chains and their per-partition row
fallback, keyed shuffles, set operations, schema widening and
canonical-form deletes.  The wider randomized gate is
``python -m repro fuzz --mutations`` (CI ``mutate`` job).
"""

import pytest

from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.operators import Projection, Query, Selection, TableAccess
from repro.api import ExplainRequest, ExplanationService
from repro.api.service import ExplainOptions, read_tables
from repro.engine.database import Database, Mutation
from repro.nested.values import Bag, Tup
from repro.scenarios import SCENARIOS, get_scenario
from repro.whynot.explain import explain
from repro.whynot.question import WhyNotQuestion


def _first_row(db, table):
    return next(iter(db.relation(table).distinct()))


def _query(service, query, **options):
    """The service's answer to *query* on the version registered as "db"."""
    options.setdefault("partitions", 3)
    return service.query(query, "db", ExplainOptions(**options))[0]


def _labels(result):
    return [frozenset(e.labels) for e in result.explanations]


class TestHelpers:
    def test_read_tables(self):
        query = get_scenario("Q1").make_query()
        assert read_tables(query) == frozenset({"nestedOrders"})

    def test_mutation_steps_walks_the_chain(self):
        v0 = Database({"T": [Tup(a=1)]})
        service = ExplanationService(databases={"db": v0})
        v1 = service.mutate_database("db", inserts={"T": [Tup(a=2)]})
        v2 = service.mutate_database("db", deletes={"T": [Tup(a=1)]})
        # Each write advances the name by one version...
        assert [v.version_id for v in (v0, v1, v2)] == [0, 1, 2]
        assert service.database("db") is v2
        assert v2.relation("T") == Bag([Tup(a=2)])
        assert v2.last_mutation.tables() == ["T"]
        # ...and no version refers back to the one it replaced.
        assert all(value is not v1 for value in vars(v2).values())


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_single_row_edits_match_scratch(self, name):
        scenario = get_scenario(name)
        db = scenario.make_db(scenario.default_scale // 3 or 1)
        query = scenario.make_query()
        service = ExplanationService(databases={"db": db})
        assert _query(service, query) == query.evaluate(db)
        # One delete then one insert on a read table.
        table = sorted(read_tables(query))[0]
        row = _first_row(db, table)
        v1 = service.mutate_database("db", deletes={table: [row]})
        assert _query(service, query) == query.evaluate(v1)
        v2 = service.mutate_database("db", inserts={table: [row, row]})
        assert _query(service, query) == query.evaluate(v2)
        assert service.database("db") is v2

    @pytest.mark.parametrize("chains", ["row", "columnar"])
    def test_multi_step_jump_applies_every_mutation(self, chains, monkeypatch):
        # chains="row": every chain task takes the per-partition row fallback.
        if chains == "row":
            from repro.engine import columnar

            monkeypatch.setattr(columnar, "chain_kernel", lambda *args: None)
        scenario = get_scenario("Q4")
        db = scenario.make_db(20)
        query = scenario.make_query()
        service = ExplanationService(databases={"db": db})
        assert _query(service, query, partitions=4, optimize=True) == query.evaluate(db)
        table = sorted(read_tables(query))[0]
        for _ in range(3):
            service.mutate_database(
                "db", deletes={table: [_first_row(service.database("db"), table)]}
            )
        version = service.database("db")
        assert version.version_id == 3
        # Three writes after the plan was cached for the base version, the
        # next answer must come from the latest version.
        assert _query(service, query, partitions=4, optimize=True) == query.evaluate(
            version
        )


class TestFallbacks:
    def test_non_descendant_target_rebases(self):
        scenario = get_scenario("Q1")
        db = scenario.make_db(12)
        query = scenario.make_query()
        table = sorted(read_tables(query))[0]
        first, second = sorted(db.relation(table).distinct(), key=repr)[:2]
        left = db.apply_mutations(deletes={table: [first]})
        right = db.apply_mutations(deletes={table: [second]})
        # Sibling versions carry equal relation stamps...
        assert left.relation_stamp(table) == right.relation_stamp(table)
        service = ExplanationService(databases={"db": left})
        request = ExplainRequest(
            query=query, nip=scenario.make_nip(), database="db", name="Q1"
        )
        assert not service.explain(request).cached
        assert service.explain(request).cached
        # ...so registering the other one must not answer from the first's
        # cache: re-registration starts a new cache generation.
        service.register_database("db", right)
        response = service.explain(request)
        assert not response.cached
        fresh = explain(WhyNotQuestion(query, right, scenario.make_nip()))
        assert _labels(response.result) == _labels(fresh)
        assert _query(service, query) == query.evaluate(right)

    def test_schema_widening_on_read_table_rebases(self):
        db = Database({"T": [Tup(a=1), Tup(a=2)]})
        query = Query(Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(1))))
        service = ExplanationService(databases={"db": db})
        assert _query(service, query) == query.evaluate(db)
        widened = service.mutate_database("db", inserts={"T": [Tup(a=2.5)]})
        assert widened.schema("T") != db.schema("T")
        assert _query(service, query) == query.evaluate(widened)

    def test_noop_update_is_free(self):
        db = Database({"T": [Tup(a=1)]})
        query = Query(TableAccess("T"))
        service = ExplanationService(databases={"db": db})
        request = ExplainRequest(query=query, nip=Tup(a=5), database="db")
        assert not service.explain(request).cached
        version = service.mutate_database("db", Mutation())
        assert version.version_id == 1
        # An empty write changes no relation: the cached answer stays warm.
        assert service.explain(request).cached
        assert _query(service, query) == query.evaluate(version)

    def test_delta_inconsistency_is_a_runtime_error(self):
        db = Database({"T": [Tup(a=1)]})
        service = ExplanationService(databases={"db": db})
        request = ExplainRequest(query=Query(TableAccess("T")), nip=Tup(a=5), database="db")
        service.explain(request)
        # A write that cannot apply raises and leaves the registered version
        # and its cached answers in place.
        with pytest.raises(KeyError):
            service.mutate_database("db", deletes={"T": [Tup(a=99)]})
        assert service.database("db") is db
        assert service.explain(request).cached


class TestCanonicalFormMutations:
    def test_numeric_tower_and_nan_variants_propagate(self):
        db = Database({"T": [Tup(a=2.0, b="x"), Tup(a=0.0, b="y"),
                             Tup(a=float("nan"), b="z")]})
        query = Query(Projection(TableAccess("T"), ["b"]))
        service = ExplanationService(databases={"db": db})
        assert len(_query(service, query)) == 3
        v1 = service.mutate_database(
            "db",
            Mutation(deletes={"T": [Tup(a=2, b="x"), Tup(a=-0.0, b="y"),
                                    Tup(a=float("nan"), b="z")]}),
        )
        assert _query(service, query) == query.evaluate(v1)
        assert len(_query(service, query)) == 0


class TestBackends:
    def test_process_backend_matches_serial(self):
        # Format-2 clients of the retired process backend still send
        # ``backend``/``workers``; decoded options ignore them, so the
        # answer on a new version is the serial one.
        scenario = get_scenario("Q3")
        db = scenario.make_db(15)
        query = scenario.make_query()
        service = ExplanationService(databases={"db": db})
        table = sorted(read_tables(query))[0]
        version = service.mutate_database(
            "db", deletes={table: [_first_row(db, table)]}
        )
        serial = _query(service, query)
        options = ExplainOptions.from_json(
            {"backend": "process", "workers": 2, "partitions": 3}
        )
        process = service.query(query, "db", options)[0]
        assert options == ExplainOptions(partitions=3)
        assert serial == process == query.evaluate(version)
