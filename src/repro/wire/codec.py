"""Core wire codecs: values, types, expressions, operators, queries.

These are the structural encoders/decoders every wire payload is built from
(:mod:`repro.wire.payloads` layers databases, questions and results on top).
Values use tagged objects so the adversarial corners survive the trip
exactly — ``⊥``, NaN (restored as the canonical
:data:`~repro.nested.values.NAN`), ``-0.0`` (JSON preserves the sign),
``2`` vs ``2.0`` vs ``True`` (JSON keeps int/float/bool apart),
lone-surrogate strings (``ensure_ascii`` escapes them), and placeholder
patterns (``?``/``*``/conditions).

Operator encodings carry the user-assigned display ``label`` (new in format
v2; format-v1 documents without it decode to unlabeled operators).  Labels
matter on the wire because explanations are *label sets*: a round-tripped
query must produce byte-identical explanation payloads.

Round-trip guarantee: for every value/type/expression/operator/query the
paper scenarios and the fuzz generators produce,
``X_from_json(X_to_json(x))`` is semantically identical to ``x`` —
equal values, equal schemas, equal evaluation results, equal operator ids
(:class:`~repro.algebra.operators.Query` assigns ids in deterministic
post-order) and equal labels.  See ``docs/API.md`` for the format
specification and the compatibility policy.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algebra.aggregates import AggSpec
from repro.algebra.expressions import (
    And,
    Arith,
    Attr,
    Cmp,
    Const,
    Contains,
    Expr,
    IsNull,
    Not,
    Or,
)
from repro.algebra.operators import (
    BagDestroy,
    CartesianProduct,
    Deduplication,
    Difference,
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
    Union,
)
from repro.nested.types import (
    BOOL,
    DATE,
    FLOAT,
    INT,
    STR,
    AnyType,
    BagType,
    NestedType,
    PrimitiveType,
    TupleType,
)
from repro.nested.values import NAN, NULL, Bag, Tup, is_null
from repro.whynot.placeholders import ANY, STAR, Cond, HasValue, _Any, _Star

#: Current wire format version.  Version 1 was the fuzz-corpus-internal
#: format (``repro.fuzz.serialize``); version 2 is the public format, a
#: superset of v1 (operator ``label`` fields plus the payload envelopes of
#: :mod:`repro.wire.payloads`).  Readers accept every version in
#: :data:`SUPPORTED_VERSIONS`; see ``docs/API.md`` for the policy.
WIRE_VERSION = 2

#: Format versions the decoders accept (backward-compatibility window).
SUPPORTED_VERSIONS = (1, 2)


# -- values -------------------------------------------------------------------


def value_to_json(value: Any) -> Any:
    """Encode a nested value (or NIP pattern) as JSON-compatible data."""
    if is_null(value):
        return {"null": True}
    if isinstance(value, _Any):
        return {"any": True}
    if isinstance(value, _Star):
        return {"star": True}
    if isinstance(value, Cond):
        return {"cond": [value.op, value_to_json(value.bound)]}
    if isinstance(value, HasValue):
        return {"hasvalue": value_to_json(value.needle)}
    if type(value) is float and value != value:
        return {"nan": True}
    if isinstance(value, Tup):
        return {"tup": [[n, value_to_json(v)] for n, v in value.items()]}
    if isinstance(value, Bag):
        return {"bag": [[value_to_json(e), c] for e, c in value.items()]}
    if isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize value {value!r} into the wire format")


def value_from_json(data: Any) -> Any:
    """Decode :func:`value_to_json` output."""
    if isinstance(data, dict):
        if data.get("null"):
            return NULL
        if data.get("any"):
            return ANY
        if data.get("star"):
            return STAR
        if data.get("nan"):
            return NAN
        if "cond" in data:
            op, bound = data["cond"]
            return Cond(op, value_from_json(bound))
        if "hasvalue" in data:
            return HasValue(value_from_json(data["hasvalue"]))
        if "tup" in data:
            return Tup((n, value_from_json(v)) for n, v in data["tup"])
        if "bag" in data:
            return bag_from_json(data["bag"])
        raise ValueError(f"unknown tagged value {data!r}")
    return data


def bag_from_json(pairs: Any) -> Bag:
    """Decode ``[value, count]`` pairs into a :class:`Bag`.

    A count must be an integer of at least 0 (a boolean is not one);
    anything else raises ``ValueError``, which the serving layer answers
    with 400.
    """

    def decoded():
        for element, count in pairs:
            if type(count) is not int or count < 0:
                raise ValueError(
                    f"a multiplicity must be an integer >= 0, got {count!r}"
                )
            yield value_from_json(element), count

    return Bag.from_counts(decoded())


# -- types --------------------------------------------------------------------


def type_to_json(nested_type: NestedType) -> Any:
    """Encode a nested relational type."""
    if isinstance(nested_type, AnyType):
        return "any"
    if isinstance(nested_type, PrimitiveType):
        return nested_type.name
    if isinstance(nested_type, TupleType):
        return {"tuple": [[n, type_to_json(t)] for n, t in nested_type.fields]}
    if isinstance(nested_type, BagType):
        return {"bag": type_to_json(nested_type.element)}
    raise TypeError(f"cannot serialize type {nested_type!r}")


_PRIMITIVE_SINGLETONS = {t.name: t for t in (INT, STR, BOOL, FLOAT, DATE)}


def type_from_json(data: Any) -> NestedType:
    """Decode :func:`type_to_json` output."""
    if data == "any":
        return AnyType()
    if isinstance(data, str):
        # Return the interned singletons so identity checks keep working
        # on decoded schemas, not just freshly built ones.
        return _PRIMITIVE_SINGLETONS.get(data) or PrimitiveType(data)
    if isinstance(data, dict):
        if "tuple" in data:
            return TupleType((n, type_from_json(t)) for n, t in data["tuple"])
        if "bag" in data:
            return BagType(type_from_json(data["bag"]))
    raise ValueError(f"unknown type encoding {data!r}")


# -- expressions --------------------------------------------------------------


def expr_to_json(expr: Expr) -> Any:
    """Encode an expression tree."""
    if isinstance(expr, Attr):
        return {"attr": list(expr.path)}
    if isinstance(expr, Const):
        return {"const": value_to_json(expr.value)}
    if isinstance(expr, Cmp):
        return {"cmp": [expr.op, expr_to_json(expr.left), expr_to_json(expr.right)]}
    if isinstance(expr, Arith):
        return {"arith": [expr.op, expr_to_json(expr.left), expr_to_json(expr.right)]}
    if isinstance(expr, And):
        return {"and": [expr_to_json(t) for t in expr.terms]}
    if isinstance(expr, Or):
        return {"or": [expr_to_json(t) for t in expr.terms]}
    if isinstance(expr, Not):
        return {"not": expr_to_json(expr.term)}
    if isinstance(expr, Contains):
        return {"contains": [expr_to_json(expr.haystack), expr_to_json(expr.needle)]}
    if isinstance(expr, IsNull):
        return {"isnull": expr_to_json(expr.term)}
    raise TypeError(f"cannot serialize expression {expr!r}")


def expr_from_json(data: Any) -> Expr:
    """Decode :func:`expr_to_json` output."""
    if "attr" in data:
        return Attr(tuple(data["attr"]))
    if "const" in data:
        return Const(value_from_json(data["const"]))
    if "cmp" in data:
        op, left, right = data["cmp"]
        return Cmp(op, expr_from_json(left), expr_from_json(right))
    if "arith" in data:
        op, left, right = data["arith"]
        return Arith(op, expr_from_json(left), expr_from_json(right))
    if "and" in data:
        return And(*(expr_from_json(t) for t in data["and"]))
    if "or" in data:
        return Or(*(expr_from_json(t) for t in data["or"]))
    if "not" in data:
        return Not(expr_from_json(data["not"]))
    if "contains" in data:
        hay, needle = data["contains"]
        return Contains(expr_from_json(hay), expr_from_json(needle))
    if "isnull" in data:
        return IsNull(expr_from_json(data["isnull"]))
    raise ValueError(f"unknown expression encoding {data!r}")


# -- operators ----------------------------------------------------------------


def _maybe_expr_to_json(expr) -> Any:
    return None if expr is None else expr_to_json(expr)


def _maybe_expr_from_json(data) -> Any:
    return None if data is None else expr_from_json(data)


def op_to_json(op: Operator) -> Any:
    """Encode an operator subtree (including explicit display labels)."""
    children = [op_to_json(c) for c in op.children]
    encoded = _op_body_to_json(op, children)
    if op._label is not None:
        encoded["label"] = op._label
    return encoded


def _op_body_to_json(op: Operator, children: list) -> dict:
    """Encode one operator's parameters (label handled by the caller)."""
    if isinstance(op, TableAccess):
        return {"op": "table", "table": op.table}
    if isinstance(op, Selection):
        return {"op": "select", "pred": expr_to_json(op.pred), "child": children[0]}
    if isinstance(op, Projection):
        return {
            "op": "project",
            "cols": [[n, expr_to_json(e)] for n, e in op.cols],
            "child": children[0],
        }
    if isinstance(op, Renaming):
        return {"op": "rename", "pairs": [list(p) for p in op.pairs], "child": children[0]}
    if isinstance(op, Join):
        return {
            "op": "join",
            "on": [[list(l), list(r)] for l, r in op.on],
            "how": op.how,
            "extra": _maybe_expr_to_json(op.extra),
            "drop_right_keys": op.drop_right_keys,
            "left": children[0],
            "right": children[1],
        }
    if isinstance(op, TupleFlatten):
        return {
            "op": "tuple_flatten",
            "path": list(op.path),
            "alias": op.alias,
            "child": children[0],
        }
    if isinstance(op, RelationFlatten):
        return {
            "op": "rel_flatten",
            "path": list(op.path),
            "alias": op.alias,
            "outer": op.outer,
            "child": children[0],
        }
    if isinstance(op, TupleNesting):
        return {
            "op": "tuple_nest",
            "attrs": list(op.attrs),
            "target": op.target,
            "child": children[0],
        }
    if isinstance(op, RelationNesting):
        return {
            "op": "rel_nest",
            "attrs": list(op.attrs),
            "target": op.target,
            "child": children[0],
        }
    if isinstance(op, NestedAggregation):
        return {
            "op": "nested_agg",
            "func": op.func,
            "attr": list(op.attr),
            "out": op.out,
            "field": op.field,
            "child": children[0],
        }
    if isinstance(op, GroupAggregation):
        return {
            "op": "group_agg",
            "keys": [[out, list(src)] for out, src in op.key_specs],
            "aggs": [
                [s.func, _maybe_expr_to_json(s.expr), s.out, s.distinct] for s in op.aggs
            ],
            "child": children[0],
        }
    if isinstance(op, Deduplication):
        return {"op": "dedup", "child": children[0]}
    if isinstance(op, Union):
        return {"op": "union", "left": children[0], "right": children[1]}
    if isinstance(op, Difference):
        return {"op": "difference", "left": children[0], "right": children[1]}
    if isinstance(op, CartesianProduct):
        return {"op": "product", "left": children[0], "right": children[1]}
    if isinstance(op, BagDestroy):
        return {"op": "bag_destroy", "attr": op.attr, "child": children[0]}
    raise TypeError(f"cannot serialize operator {op!r} ({type(op).__name__})")


def op_from_json(data: Any) -> Operator:
    """Decode :func:`op_to_json` output.

    Accepts format-v1 encodings too: v1 documents simply lack the optional
    ``label`` field, so their operators decode unlabeled.
    """
    kind = data["op"]
    label: Optional[str] = data.get("label")
    if kind == "table":
        return TableAccess(data["table"], label=label)
    if kind == "select":
        return Selection(
            op_from_json(data["child"]), expr_from_json(data["pred"]), label=label
        )
    if kind == "project":
        cols = [(n, expr_from_json(e)) for n, e in data["cols"]]
        return Projection(op_from_json(data["child"]), cols, label=label)
    if kind == "rename":
        return Renaming(
            op_from_json(data["child"]), [tuple(p) for p in data["pairs"]], label=label
        )
    if kind == "join":
        return Join(
            op_from_json(data["left"]),
            op_from_json(data["right"]),
            [(tuple(l), tuple(r)) for l, r in data["on"]],
            how=data["how"],
            extra=_maybe_expr_from_json(data["extra"]),
            drop_right_keys=data["drop_right_keys"],
            label=label,
        )
    if kind == "tuple_flatten":
        return TupleFlatten(
            op_from_json(data["child"]), tuple(data["path"]), alias=data["alias"],
            label=label,
        )
    if kind == "rel_flatten":
        return RelationFlatten(
            op_from_json(data["child"]),
            tuple(data["path"]),
            alias=data["alias"],
            outer=data["outer"],
            label=label,
        )
    if kind == "tuple_nest":
        return TupleNesting(
            op_from_json(data["child"]), data["attrs"], data["target"], label=label
        )
    if kind == "rel_nest":
        return RelationNesting(
            op_from_json(data["child"]), data["attrs"], data["target"], label=label
        )
    if kind == "nested_agg":
        return NestedAggregation(
            op_from_json(data["child"]),
            data["func"],
            tuple(data["attr"]),
            data["out"],
            field=data["field"],
            label=label,
        )
    if kind == "group_agg":
        keys = [(out, tuple(src)) for out, src in data["keys"]]
        aggs = [
            AggSpec(func, _maybe_expr_from_json(expr), out, distinct)
            for func, expr, out, distinct in data["aggs"]
        ]
        return GroupAggregation(op_from_json(data["child"]), keys, aggs, label=label)
    if kind == "dedup":
        return Deduplication(op_from_json(data["child"]), label=label)
    if kind == "union":
        return Union(op_from_json(data["left"]), op_from_json(data["right"]), label=label)
    if kind == "difference":
        return Difference(
            op_from_json(data["left"]), op_from_json(data["right"]), label=label
        )
    if kind == "product":
        return CartesianProduct(
            op_from_json(data["left"]), op_from_json(data["right"]), label=label
        )
    if kind == "bag_destroy":
        return BagDestroy(op_from_json(data["child"]), data["attr"], label=label)
    raise ValueError(f"unknown operator encoding {kind!r}")


# -- queries ------------------------------------------------------------------


def query_to_json(query: Query) -> dict:
    """Encode a full query plan (operator tree + query name)."""
    return {"name": query.name, "plan": op_to_json(query.root)}


def query_from_json(data: dict) -> Query:
    """Decode :func:`query_to_json` output.

    Operator ids are reassigned by the :class:`~repro.algebra.operators.Query`
    constructor in deterministic post-order, so they match the original
    query's ids exactly (the structure is identical).
    """
    return Query(op_from_json(data["plan"]), name=data.get("name", ""))
