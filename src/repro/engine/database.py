"""Nested databases: named nested relations with inferred schemas.

Databases are **versioned**: every :class:`Database` instance is an
immutable snapshot, and :meth:`Database.apply_mutations` produces the next
version in the chain — a new instance that structurally shares every
unchanged relation (the same :class:`~repro.nested.values.Bag` objects) and
rebuilds only the mutated ones.  Each version records

* ``version_id`` — its position in the chain (the root snapshot is 0),
* ``last_mutation`` — the :class:`Mutation` that produced it,
* per-relation **version stamps** (:meth:`relation_version`) — the
  ``version_id`` at which each relation last changed, which is what the
  serving layer's version-aware result cache keys on (a query's cache entry
  stays valid as long as the relations it *reads* are unchanged).

A version holds no reference to the one it was derived from: once nothing
else refers to an old version (the serving registry replaces it on every
write), it and the relation bags only it used are freed.  Every query and
why-not question is answered from the version it names alone.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from repro.nested.types import ANY_TYPE, NestedType, TupleType, type_of, unify
from repro.nested.values import Bag, Tup, canonicalize_value


class Mutation:
    """One batch of row edits: per-relation inserted and deleted bags.

    Rows are converted and canonicalized exactly like :meth:`Database.add`
    input (dicts become :class:`~repro.nested.values.Tup`, every NaN maps to
    the canonical ``NAN`` object), so a delete expressed as ``2`` removes a
    row stored as ``2.0`` and a freshly computed ``float('nan')`` hits the
    canonical NaN row — mutations in any canonical-equal form address the
    same rows.
    """

    __slots__ = ("inserts", "deletes")

    def __init__(
        self,
        inserts: Optional[Mapping[str, Iterable[Any]]] = None,
        deletes: Optional[Mapping[str, Iterable[Any]]] = None,
    ):
        self.inserts: dict[str, Bag] = {
            name: _to_bag(rows) for name, rows in (inserts or {}).items()
        }
        self.deletes: dict[str, Bag] = {
            name: _to_bag(rows) for name, rows in (deletes or {}).items()
        }

    def tables(self) -> list[str]:
        """Every relation this mutation touches (deterministic order)."""
        out = list(self.inserts)
        out.extend(name for name in self.deletes if name not in self.inserts)
        return out

    def is_empty(self) -> bool:
        """True when no relation gains or loses any row."""
        return not any(len(b) for b in self.inserts.values()) and not any(
            len(b) for b in self.deletes.values()
        )

    def __repr__(self) -> str:
        parts = []
        for name in self.tables():
            ins = len(self.inserts.get(name, Bag()))
            dels = len(self.deletes.get(name, Bag()))
            parts.append(f"{name}(+{ins}/-{dels})")
        return f"Mutation({', '.join(parts)})"


def _to_bag(rows: Any) -> Bag:
    bag = rows if isinstance(rows, Bag) else Bag(Database._to_tup(r) for r in rows)
    return canonicalize_value(bag)


class Database:
    """A nested database ``D``: a catalog of named nested relations.

    Relations may be given as bags, lists of tuples, or lists of dicts
    (converted to :class:`Tup` preserving attribute order).  Row schemas are
    inferred from the data by unifying all tuples' types; an explicit schema
    overrides inference (needed for empty relations).

    Instances are snapshots in a version chain — see the module docstring
    and :meth:`apply_mutations`.
    """

    def __init__(
        self,
        relations: Mapping[str, Iterable[Any]] | None = None,
        schemas: Optional[Mapping[str, TupleType]] = None,
    ):
        self._relations: dict[str, Bag] = {}
        self._schemas: dict[str, TupleType] = {}
        #: bumped on every ``add``; lets schema-inference caches detect staleness.
        self.version: int = 0
        #: position in the version chain (0 for a freshly built snapshot).
        self.version_id: int = 0
        #: the mutation that produced this version (``None`` for a root).
        self.last_mutation: Optional[Mutation] = None
        self._relation_versions: dict[str, int] = {}
        self._relation_epochs: dict[str, int] = {}
        if relations:
            for name, rows in relations.items():
                self.add(name, rows, schema=(schemas or {}).get(name))

    @staticmethod
    def _to_tup(row: Any) -> Tup:
        if isinstance(row, Tup):
            return row
        if isinstance(row, Mapping):
            return Tup((k, Database._convert(v)) for k, v in row.items())
        raise TypeError(f"cannot convert row {row!r} into a tuple")

    @staticmethod
    def _convert(value: Any) -> Any:
        if isinstance(value, Mapping):
            return Tup((k, Database._convert(v)) for k, v in value.items())
        if isinstance(value, (list, set)):
            return Bag(Database._convert(v) for v in value)
        return value

    def add(self, name: str, rows: Iterable[Any], schema: Optional[TupleType] = None) -> None:
        """Register relation *name* with the given rows.

        Every NaN in the data is mapped to the canonical
        :data:`~repro.nested.values.NAN` object on the way in (a no-op for
        NaN-free rows), establishing the single-NaN invariant the engine's
        grouping/joining/partitioning relies on.
        """
        bag = rows if isinstance(rows, Bag) else Bag(self._to_tup(r) for r in rows)
        bag = canonicalize_value(bag)
        self._relations[name] = bag
        self.version += 1
        self._relation_versions[name] = self.version_id
        self._relation_epochs[name] = self.version
        if schema is not None:
            self._schemas[name] = schema
        else:
            inferred: NestedType = ANY_TYPE
            for row in bag.distinct():
                inferred = unify(inferred, type_of(row))
            if not isinstance(inferred, TupleType):
                raise ValueError(
                    f"cannot infer a tuple schema for relation {name!r}; "
                    "provide an explicit schema"
                )
            self._schemas[name] = inferred

    # -- versioning -----------------------------------------------------------

    def apply_mutations(
        self,
        inserts: "Mapping[str, Iterable[Any]] | Mutation | None" = None,
        deletes: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> "Database":
        """The next version: this snapshot with *inserts* added and *deletes*
        removed.

        Accepts per-relation row mappings (or a prebuilt :class:`Mutation` as
        the first argument).  Returns a **new** :class:`Database` that shares
        every untouched relation's bag and schema with this one; this
        instance is left unchanged.  Raises ``KeyError`` for an unknown
        relation or a delete of a row that is not present (after the batch's
        own inserts), and ``ValueError`` when an inserted row cannot be
        unified with the relation's schema.
        """
        mutation = (
            inserts if isinstance(inserts, Mutation) else Mutation(inserts, deletes)
        )
        child = Database.__new__(Database)
        child._relations = dict(self._relations)
        child._schemas = dict(self._schemas)
        child.version = self.version + 1
        child.version_id = self.version_id + 1
        child.last_mutation = mutation
        child._relation_versions = dict(self._relation_versions)
        child._relation_epochs = dict(self._relation_epochs)
        for name in mutation.tables():
            if name not in self._relations:
                raise KeyError(
                    f"cannot mutate unknown relation {name!r}; "
                    f"have {sorted(self._relations)}"
                )
            ins = mutation.inserts.get(name, Bag())
            dels = mutation.deletes.get(name, Bag())
            merged = self._relations[name].union(ins)
            for row, count in dels.items():
                if merged.mult(row) < count:
                    raise KeyError(
                        f"cannot delete {count} × {row!r} from relation "
                        f"{name!r}: only {merged.mult(row)} present"
                    )
            child._relations[name] = merged.difference(dels)
            schema: NestedType = self._schemas[name]
            for row in ins.distinct():
                try:
                    schema = unify(schema, type_of(row))
                except TypeError as exc:
                    raise ValueError(
                        f"inserted row {row!r} does not fit relation {name!r}: {exc}"
                    ) from None
            if not isinstance(schema, TupleType):
                raise ValueError(
                    f"inserted rows do not fit a tuple schema for {name!r}"
                )
            child._schemas[name] = schema
            child._relation_versions[name] = child.version_id
            child._relation_epochs[name] = child.version
        return child

    def relation_version(self, name: str) -> int:
        """The ``version_id`` at which the named relation last changed."""
        if name not in self._relations:
            raise KeyError(f"no relation named {name!r}; have {sorted(self._relations)}")
        return self._relation_versions.get(name, 0)

    def relation_stamp(self, name: str) -> "tuple[int, int]":
        """Cache stamp of one relation: ``(relation_version, add epoch)``.

        The second component is the ``version`` counter at the relation's
        last ``add``/mutation, so even an in-place re-``add`` on a registered
        snapshot (which leaves ``version_id`` alone) changes the stamp.  The
        serving layer's version-aware result cache folds the stamps of a
        query's read relations into its keys.
        """
        if name not in self._relations:
            raise KeyError(f"no relation named {name!r}; have {sorted(self._relations)}")
        return (self._relation_versions.get(name, 0), self._relation_epochs.get(name, 0))

    # -- lookups --------------------------------------------------------------

    def relation(self, name: str) -> Bag:
        """The named relation as a :class:`~repro.nested.values.Bag` of tuples."""
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r}; have {sorted(self._relations)}")

    def schema(self, name: str) -> TupleType:
        """The inferred row schema (``TupleType``) of a named relation."""
        return self._schemas[name]

    def tables(self) -> list[str]:
        """All table names in deterministic (insertion) order."""
        return list(self._relations)

    def size(self, name: str) -> int:
        """Number of tuples (with multiplicities) in the named relation."""
        return len(self._relations[name])

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}[{len(bag)}]" for name, bag in self._relations.items())
        return f"Database(v{self.version_id}: {inner})"
