"""Tests for the database catalog, row conversion and the version chain."""

import pytest

from repro.engine.database import Database, Mutation
from repro.nested.types import FLOAT, INT, STR, BagType, TupleType
from repro.nested.values import NAN, Bag, Tup


class TestConstruction:
    def test_from_dicts(self):
        db = Database({"T": [{"a": 1, "tags": ["x", "y"], "info": {"b": 2}}]})
        (row,) = db.relation("T")
        assert row == Tup(a=1, tags=Bag(["x", "y"]), info=Tup(b=2))

    def test_from_tuples(self):
        db = Database({"T": [Tup(a=1)]})
        assert db.size("T") == 1

    def test_schema_inferred(self):
        db = Database({"T": [Tup(a=1, tags=Bag([Tup(t="x")]))]})
        assert db.schema("T") == TupleType(
            [("a", INT), ("tags", BagType(TupleType([("t", STR)])))]
        )

    def test_schema_unifies_nulls(self):
        from repro.nested.values import NULL

        db = Database({"T": [Tup(a=NULL), Tup(a=3)]})
        assert db.schema("T").field("a") == INT

    def test_empty_relation_needs_schema(self):
        with pytest.raises(ValueError):
            Database({"T": []})
        schema = TupleType([("a", INT)])
        db = Database({"T": []}, schemas={"T": schema})
        assert db.schema("T") == schema

    def test_missing_relation(self):
        db = Database({"T": [Tup(a=1)]})
        with pytest.raises(KeyError):
            db.relation("U")

    def test_contains_and_tables(self):
        db = Database({"T": [Tup(a=1)], "U": [Tup(b=2)]})
        assert "T" in db and "V" not in db
        assert set(db.tables()) == {"T", "U"}


class TestVersionChain:
    def test_apply_mutations_builds_next_version(self):
        v0 = Database({"T": [Tup(a=1)], "U": [Tup(b=2)]})
        v1 = v0.apply_mutations(inserts={"T": [Tup(a=5)]})
        assert (v0.version_id, v1.version_id) == (0, 1)
        # The new version records the mutation, not the version it replaced.
        assert all(value is not v0 for value in vars(v1).values())
        assert v1.last_mutation is not None and v1.last_mutation.tables() == ["T"]
        assert v1.relation("T") == Bag([Tup(a=1), Tup(a=5)])
        # The parent snapshot is untouched.
        assert v0.relation("T") == Bag([Tup(a=1)])

    def test_structural_sharing_of_unchanged_relations(self):
        v0 = Database({"T": [Tup(a=1)], "U": [Tup(b=2)]})
        v1 = v0.apply_mutations(deletes={"T": [Tup(a=1)]})
        assert v1.relation("U") is v0.relation("U")
        assert v1.relation("T") is not v0.relation("T")

    def test_relation_version_stamps(self):
        v0 = Database({"T": [Tup(a=1)], "U": [Tup(b=2)]})
        v1 = v0.apply_mutations(inserts={"U": [Tup(b=3)]})
        v2 = v1.apply_mutations(inserts={"T": [Tup(a=9)]})
        assert v2.relation_version("U") == 1
        assert v2.relation_version("T") == 2
        assert v0.relation_version("T") == 0
        # In-place add() on the same snapshot changes the epoch component.
        stamp = v0.relation_stamp("T")
        v0.add("T", [Tup(a=7)])
        assert v0.relation_stamp("T") != stamp

    def test_mutation_accepts_prebuilt_object(self):
        v0 = Database({"T": [Tup(a=1)]})
        mutation = Mutation(inserts={"T": [Tup(a=2)]}, deletes={"T": [Tup(a=1)]})
        v1 = v0.apply_mutations(mutation)
        assert v1.relation("T") == Bag([Tup(a=2)])
        assert v1.last_mutation is mutation

    def test_unknown_relation_rejected(self):
        v0 = Database({"T": [Tup(a=1)]})
        with pytest.raises(KeyError):
            v0.apply_mutations(inserts={"X": [Tup(a=1)]})

    def test_delete_of_absent_row_rejected(self):
        v0 = Database({"T": [Tup(a=1)]})
        with pytest.raises(KeyError):
            v0.apply_mutations(deletes={"T": [Tup(a=99)]})

    def test_delete_may_consume_same_batch_insert(self):
        v0 = Database({"T": [Tup(a=1)]})
        v1 = v0.apply_mutations(
            inserts={"T": [Tup(a=2)]}, deletes={"T": [Tup(a=2)]}
        )
        assert v1.relation("T") == v0.relation("T")
        assert v1.version_id == 1

    def test_insert_widens_schema(self):
        v0 = Database({"T": [Tup(a=1)]})
        v1 = v0.apply_mutations(inserts={"T": [Tup(a=2.5)]})
        assert v0.schema("T").field("a") == INT
        assert v1.schema("T").field("a") == FLOAT

    def test_canonical_forms_address_the_same_rows(self):
        v0 = Database({"T": [Tup(a=2.0), Tup(a=0.0), Tup(a=float("nan"))]})
        # int 2 deletes the stored 2.0; -0.0 deletes the stored 0.0; a fresh
        # NaN deletes the canonicalized NaN row.
        v1 = v0.apply_mutations(
            deletes={"T": [Tup(a=2), Tup(a=-0.0), Tup(a=float("nan"))]}
        )
        assert len(v1.relation("T")) == 0

    def test_mutation_canonicalizes_nan_inserts(self):
        v0 = Database({"T": [Tup(a=1.5)]})
        v1 = v0.apply_mutations(inserts={"T": [Tup(a=float("nan"))]})
        assert v1.relation("T").mult(Tup(a=NAN)) == 1

    def test_repr_shows_version(self):
        v0 = Database({"T": [Tup(a=1)]})
        v1 = v0.apply_mutations(inserts={"T": [Tup(a=2)]})
        assert repr(v1).startswith("Database(v1:")
