"""Random well-typed NRAB plans and derived why-not questions.

Plans are grown bottom-up from table accesses: every transform is chosen only
when its schema-level preconditions hold against the child's *inferred*
output schema (computed with the engine's own ``output_schema``), so any
generated tree type-checks by construction — the property test in
``tests/fuzz/test_generators.py`` enforces it.  The operator mix covers the
paper's NRAB core: selection, projection (with computed columns), renaming,
joins (all four variants, with residual predicates), group aggregation
(including ``DISTINCT``), tuple/relation nesting, tuple/relation flatten
(inner and outer), per-tuple nested aggregation, and deduplication.

Why-not questions are derived from the evaluated result: a NIP over the
output schema constrained on one attribute to a value provably absent (or,
for bag-typed attributes, a nested pattern with ``*`` whose element pattern
matches nothing), validated against Definition 5 before use.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.algebra.aggregates import AGGREGATE_FUNCTIONS, AggSpec
from repro.algebra.expressions import And, Attr, Cmp, Const, Contains, Expr, IsNull, Not, Or
from repro.algebra.operators import (
    CartesianProduct,
    Deduplication,
    GroupAggregation,
    Join,
    NestedAggregation,
    Operator,
    Projection,
    Query,
    RelationFlatten,
    RelationNesting,
    Renaming,
    Selection,
    TableAccess,
    TupleFlatten,
    TupleNesting,
)
from repro.engine.database import Database
from repro.fuzz.data import BOOL_POOL, FLOAT_POOL, INT_POOL, STR_POOL, FuzzConfig, NameSource
from repro.nested.types import BagType, PrimitiveType, TupleType
from repro.nested.values import Bag, NULL, Tup, is_null
from repro.whynot.matching import matching_tuples, validate_nip
from repro.whynot.placeholders import ANY, STAR, Cond, gt
from repro.whynot.question import WhyNotQuestion

_NUMERIC = ("int", "float", "bool")

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

_POOLS = {
    "int": INT_POOL,
    "float": FLOAT_POOL,
    "str": STR_POOL,
    "bool": BOOL_POOL,
}


def _prim_cols(schema: TupleType) -> list:
    return [(n, t) for n, t in schema.fields if isinstance(t, PrimitiveType)]


def _cols_of_kind(schema: TupleType, kinds) -> list:
    return [
        n for n, t in schema.fields if isinstance(t, PrimitiveType) and t.name in kinds
    ]


def _bag_tuple_cols(schema: TupleType) -> list:
    return [
        (n, t)
        for n, t in schema.fields
        if isinstance(t, BagType) and isinstance(t.element, TupleType)
    ]


def _tuple_cols(schema: TupleType) -> list:
    return [(n, t) for n, t in schema.fields if isinstance(t, TupleType)]


def _pred_paths(schema: TupleType) -> list:
    """(path, primitive type) pairs reachable without crossing a bag."""
    out = []
    for name, col_type in schema.fields:
        if isinstance(col_type, PrimitiveType):
            out.append(((name,), col_type))
        elif isinstance(col_type, TupleType):
            for inner, inner_type in col_type.fields:
                if isinstance(inner_type, PrimitiveType):
                    out.append(((name, inner), inner_type))
    return out


def _gen_atom(rng: random.Random, schema: TupleType) -> Optional[Expr]:
    paths = _pred_paths(schema)
    if not paths:
        return None
    path, col_type = rng.choice(paths)
    roll = rng.random()
    if roll < 0.1:
        return IsNull(Attr(path))
    if roll < 0.25 and col_type.name == "str":
        return Contains(Attr(path), Const(rng.choice(("a", "BTS", ""))))
    if roll < 0.4:
        # column-to-column comparison against a same-kind path
        kinds = _NUMERIC if col_type.name in _NUMERIC else (col_type.name,)
        peers = [p for p, t in paths if t.name in kinds and p != path]
        if peers:
            return Cmp(rng.choice(_CMP_OPS), Attr(path), Attr(rng.choice(peers)))
    return Cmp(rng.choice(_CMP_OPS), Attr(path), Const(rng.choice(_POOLS[col_type.name])))


def _gen_pred(rng: random.Random, schema: TupleType) -> Optional[Expr]:
    atoms = [a for a in (_gen_atom(rng, schema) for _ in range(rng.randint(1, 3))) if a]
    if not atoms:
        return None
    if len(atoms) == 1:
        pred = atoms[0]
    else:
        pred = (And if rng.random() < 0.6 else Or)(*atoms)
    if rng.random() < 0.2:
        pred = Not(pred)
    return pred


class _Builder:
    """Grows one operator tree, tracking the inferred schema as it goes."""

    def __init__(self, rng: random.Random, db: Database, config: FuzzConfig, names: NameSource):
        self.rng = rng
        self.db = db
        self.config = config
        self.names = names

    # -- unary transforms (return (op, schema) or None when not applicable) --

    def _t_selection(self, op: Operator, schema: TupleType):
        pred = _gen_pred(self.rng, schema)
        if pred is None:
            return None
        new = Selection(op, pred)
        return new, new.output_schema([schema], self.db)

    def _t_projection(self, op: Operator, schema: TupleType):
        rng = self.rng
        names = [n for n, _ in schema.fields]
        keep = rng.sample(names, rng.randint(1, len(names)))
        cols: list = [(n, Attr((n,))) for n in keep]
        numeric = _cols_of_kind(schema, _NUMERIC)
        if numeric and rng.random() < 0.5:
            a, b = rng.choice(numeric), rng.choice(numeric)
            arith_op = rng.choice(("+", "-", "*"))
            left, right = Attr((a,)), Attr((b,))
            expr = {"+": left + right, "-": left - right, "*": left * right}[arith_op]
            cols.append((self.names.fresh("c"), expr))
        new = Projection(op, cols)
        return new, new.output_schema([schema], self.db)

    def _t_rename(self, op: Operator, schema: TupleType):
        rng = self.rng
        names = [n for n, _ in schema.fields]
        chosen = rng.sample(names, rng.randint(1, min(2, len(names))))
        pairs = [(self.names.fresh("r"), old) for old in chosen]
        new = Renaming(op, pairs)
        return new, new.output_schema([schema], self.db)

    def _t_tuple_nest(self, op: Operator, schema: TupleType):
        rng = self.rng
        names = [n for n, _ in schema.fields]
        if len(names) < 2:
            return None
        attrs = rng.sample(names, rng.randint(1, len(names) - 1))
        new = TupleNesting(op, attrs, self.names.fresh("n"))
        return new, new.output_schema([schema], self.db)

    def _t_relation_nest(self, op: Operator, schema: TupleType):
        rng = self.rng
        names = [n for n, _ in schema.fields]
        if len(names) < 2:
            return None
        attrs = rng.sample(names, rng.randint(1, len(names) - 1))
        new = RelationNesting(op, attrs, self.names.fresh("n"))
        return new, new.output_schema([schema], self.db)

    def _t_rel_flatten(self, op: Operator, schema: TupleType):
        rng = self.rng
        top = set(schema.names)
        candidates = [
            (n, t)
            for n, t in _bag_tuple_cols(schema)
            if not any(inner in top for inner in t.element.names)
        ]
        outer = rng.random() < 0.5
        if candidates and rng.random() < 0.75:
            name, _ = rng.choice(candidates)
            new = RelationFlatten(op, (name,), alias=None, outer=outer)
        else:
            bags = [n for n, t in schema.fields if isinstance(t, BagType)]
            if not bags:
                return None
            new = RelationFlatten(
                op, (rng.choice(bags),), alias=self.names.fresh("f"), outer=outer
            )
        return new, new.output_schema([schema], self.db)

    def _t_tuple_flatten(self, op: Operator, schema: TupleType):
        rng = self.rng
        top = set(schema.names)
        candidates = [
            (n, t)
            for n, t in _tuple_cols(schema)
            if not any(inner in top for inner in t.names)
        ]
        if not candidates:
            return None
        name, _ = rng.choice(candidates)
        new = TupleFlatten(op, (name,))
        return new, new.output_schema([schema], self.db)

    def _t_nested_agg(self, op: Operator, schema: TupleType):
        rng = self.rng
        candidates = _bag_tuple_cols(schema)
        if not candidates:
            return None
        name, bag_type = rng.choice(candidates)
        numeric_fields = [
            n
            for n, t in bag_type.element.fields
            if isinstance(t, PrimitiveType) and t.name in _NUMERIC
        ]
        if numeric_fields and rng.random() < 0.7:
            func = rng.choice([f for f in AGGREGATE_FUNCTIONS])
            field = rng.choice(numeric_fields)
        else:
            func, field = "count", None
        new = NestedAggregation(op, func, (name,), self.names.fresh("v"), field=field)
        return new, new.output_schema([schema], self.db)

    def _t_group_agg(self, op: Operator, schema: TupleType):
        rng = self.rng
        prim = [n for n, _ in _prim_cols(schema)]
        keys = rng.sample(prim, rng.randint(0, min(2, len(prim))))
        numeric = _cols_of_kind(schema, _NUMERIC)
        aggs = []
        for _ in range(rng.randint(1, 2)):
            if numeric and rng.random() < 0.7:
                func = rng.choice(("sum", "avg", "min", "max", "count"))
                aggs.append(
                    AggSpec(
                        func,
                        Attr((rng.choice(numeric),)),
                        self.names.fresh("g"),
                        distinct=rng.random() < 0.3,
                    )
                )
            else:
                aggs.append(AggSpec("count", None, self.names.fresh("g")))
        new = GroupAggregation(op, keys, aggs)
        return new, new.output_schema([schema], self.db)

    def _t_dedup(self, op: Operator, schema: TupleType):
        new = Deduplication(op)
        return new, schema

    def transforms(self):
        """All unary transform generators with selection weights."""
        return (
            (self._t_selection, 5),
            (self._t_projection, 4),
            (self._t_rename, 2),
            (self._t_rel_flatten, 4),
            (self._t_tuple_flatten, 2),
            (self._t_relation_nest, 3),
            (self._t_tuple_nest, 2),
            (self._t_nested_agg, 3),
            (self._t_group_agg, 4),
            (self._t_dedup, 1),
        )

    # -- tree growth ---------------------------------------------------------

    def source(self):
        """A random table access plus its schema."""
        table = self.rng.choice(self.db.tables())
        op = TableAccess(table)
        return op, op.output_schema([], self.db)

    def unary_chain(self, op: Operator, schema: TupleType, budget: int):
        """Stack up to *budget* applicable unary transforms onto (op, schema)."""
        rng = self.rng
        pool = self.transforms()
        weighted = [t for t, w in pool for _ in range(w)]
        for _ in range(budget):
            for _ in range(6):  # retry a few times for an applicable transform
                result = rng.choice(weighted)(op, schema)
                if result is not None:
                    op, schema = result
                    break
        return op, schema

    def binary(self, left, left_schema, right, right_schema):
        """Join (or cross-join) two subtrees, renaming away name clashes."""
        rng = self.rng
        clashes = [n for n in right_schema.names if n in set(left_schema.names)]
        if clashes:
            pairs = [(self.names.fresh("j"), old) for old in clashes]
            right = Renaming(right, pairs)
            right_schema = right.output_schema([right_schema], self.db)
        join_on = []
        for kinds in (_NUMERIC, ("str",), ("bool",)):
            lcols = _cols_of_kind(left_schema, kinds)
            rcols = _cols_of_kind(right_schema, kinds)
            if lcols and rcols:
                join_on.append((rng.choice(lcols), rng.choice(rcols)))
        combined = left_schema.concat(right_schema)
        if join_on and rng.random() < 0.9:
            on = [rng.choice(join_on)]
            how = rng.choice(("inner", "inner", "left", "right", "full"))
            extra = _gen_pred(rng, combined) if rng.random() < 0.2 else None
            op = Join(left, right, on, how=how, extra=extra)
        else:
            op = CartesianProduct(left, right)
        return op, op.output_schema([left_schema, right_schema], self.db)

    def tree(self, budget: int):
        """A random subtree consuming about *budget* operators."""
        rng = self.rng
        if budget >= 3 and rng.random() < 0.3:
            left_budget = rng.randint(0, budget - 2)
            left, ls = self.tree(left_budget)
            right, rs = self.tree(budget - 2 - left_budget)
            op, schema = self.binary(left, ls, right, rs)
            return op, schema
        op, schema = self.source()
        return self.unary_chain(op, schema, budget)


def gen_query(
    rng: random.Random, db: Database, config: Optional[FuzzConfig] = None, name: str = "fuzz"
) -> Query:
    """Generate a random well-typed query plan over *db*."""
    config = config or FuzzConfig()
    builder = _Builder(rng, db, config, NameSource())
    budget = rng.randint(1, max(1, config.ops))
    root, _ = builder.tree(budget)
    return Query(root, name=name)


# -- why-not question derivation ---------------------------------------------


def _fresh_primitive(rng: random.Random, col_type: PrimitiveType, observed: list):
    """A pattern provably absent from *observed*, or None when none exists.

    Booleans are handled before the numeric branch (``bool`` is part of the
    numeric tower): the only fresh boolean is the one not observed.
    """
    present = [v for v in observed if not is_null(v)]
    if col_type.name == "bool":
        missing = [b for b in (True, False) if b not in present]
        return missing[0] if missing else None
    if col_type.name in _NUMERIC:
        finite = [v for v in present if not (type(v) is float and v != v)]
        bound = max(finite) if finite else 0
        if rng.random() < 0.5:
            return gt(bound + 1)
        return bound + 2
    for candidate in ("zz-missing", "∄", "zz-miss-2"):
        if candidate not in present:
            return candidate
    return None


def gen_question(
    rng: random.Random, query: Query, db: Database, name: str = "fuzz"
) -> Optional[WhyNotQuestion]:
    """Derive a valid why-not question for ``(query, db)``, or None.

    The NIP constrains one output attribute to a fresh value (primitives) or
    — for bag-typed attributes — asks for a nested element matching a fresh
    value alongside ``*``, exercising the bag/max-flow matcher.  The question
    is validated (Def. 5): the pattern matches no result tuple.
    """
    result = query.evaluate(db)
    schema = query.infer_schemas(db)[query.root.op_id]
    rows = list(result.distinct())

    candidates = []
    for attr, col_type in schema.fields:
        if isinstance(col_type, PrimitiveType):
            candidates.append((attr, col_type))
        elif isinstance(col_type, BagType) and isinstance(col_type.element, TupleType):
            candidates.append((attr, col_type))
    rng.shuffle(candidates)

    for attr, col_type in candidates:
        if isinstance(col_type, PrimitiveType):
            observed = [t[attr] for t in rows]
            pattern = _fresh_primitive(rng, col_type, observed)
            if pattern is None:
                continue
        else:
            element_prims = [
                (n, t)
                for n, t in col_type.element.fields
                if isinstance(t, PrimitiveType)
            ]
            if not element_prims:
                continue
            inner_name, inner_type = rng.choice(element_prims)
            observed = []
            for t in rows:
                bag = t[attr]
                if isinstance(bag, Bag):
                    for element in bag.distinct():
                        if isinstance(element, Tup):
                            observed.append(element.get(inner_name, NULL))
            inner_pattern = _fresh_primitive(rng, inner_type, observed)
            if inner_pattern is None:
                continue
            element_pattern = Tup(
                (n, inner_pattern if n == inner_name else ANY)
                for n in col_type.element.names
            )
            pattern = Bag([element_pattern, STAR])
        nip = Tup((n, pattern if n == attr else ANY) for n in schema.names)
        validate_nip(nip)
        if matching_tuples(result, nip):
            continue  # ill-posed for this attribute; try another
        question = WhyNotQuestion(query, db, nip, name=name)
        question._result_cache = result
        return question
    return None


def gen_sibling(rng: random.Random, question: WhyNotQuestion) -> Optional[WhyNotQuestion]:
    """A sibling of a :func:`gen_question` question, or None.

    The sibling constrains the same attribute (or nested element attribute)
    to a second fresh value, so the two differ only in a constant, like the
    NIP variants a serving layer answers from one relaxed trace.  None when
    the attribute's type has no second fresh value (booleans).
    """
    result = question.result()
    rows = list(result.distinct())
    nip = question.nip
    schema = question.query.infer_schemas(question.db)[question.query.root.op_id]
    for attr, col_type in schema.fields:
        pattern = nip[attr]
        if pattern is ANY:
            continue
        if isinstance(col_type, PrimitiveType):
            observed = [t[attr] for t in rows] + [_taken(pattern)]
            sibling = _fresh_primitive(rng, col_type, observed)
        else:
            element = next(e for e in pattern.distinct() if isinstance(e, Tup))
            inner_name = next(n for n, v in element.items() if v is not ANY)
            inner_type = dict(col_type.element.fields)[inner_name]
            observed = [_taken(element[inner_name])]
            for t in rows:
                if isinstance(t[attr], Bag):
                    for e in t[attr].distinct():
                        if isinstance(e, Tup):
                            observed.append(e.get(inner_name, NULL))
            fresh = _fresh_primitive(rng, inner_type, observed)
            sibling = (
                None
                if fresh is None
                else Bag([element.replace(**{inner_name: fresh}), STAR])
            )
        if sibling is None:
            return None
        sibling_nip = nip.replace(**{attr: sibling})
        if matching_tuples(result, sibling_nip):
            return None
        sibling_question = WhyNotQuestion(
            question.query, question.db, sibling_nip, name=question.name
        )
        sibling_question._result_cache = result
        return sibling_question
    return None


def _taken(pattern):
    """A value that makes :func:`_fresh_primitive` avoid *pattern*."""
    return pattern.bound + 1 if isinstance(pattern, Cond) else pattern
