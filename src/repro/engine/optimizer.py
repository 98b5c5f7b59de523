"""Explanation-preserving logical plan optimizer.

A rule-based rewriter that restructures a :class:`~repro.algebra.operators.Query`
before execution while keeping the *explanation identity* of the why-not
pipeline intact.  The tension it resolves: the paper's holistic algorithm
traces and reparameterizes the **user's** plan — explanations are sets of
user-operator ids (Def. 9), schema alternatives are reparameterizations of the
user's operators (Def. 7) — so the plan the user wrote must stay the anchor of
every explanation.  The optimizer therefore never touches the tracing path; it
produces a *separate, provenance-linked* plan for the answer path:

* every rewritten operator carries ``origins`` — the ids of the user-plan
  operators it derives from (synthesized operators carry ``()``);
* optimized and unoptimized evaluation produce **equal result bags** for every
  plan (enforced for every registered scenario at 1/3/7 partitions in
  ``tests/engine/test_optimizer.py``);
* ``explain``/tracing/reparameterization always run against the original
  query, so explanation sets, SA enumerations and side-effect bounds are
  byte-for-byte independent of the optimizer flag.

Rule catalog (see ``docs/OPTIMIZER.md`` for worked examples):

``fuse-selections``
    Adjacent selections merge into one conjunctive selection
    (σ_p(σ_q(R)) → σ_{q∧p}(R)), so a fused chain evaluates one predicate
    closure per row instead of materializing intermediate row lists.
``pushdown-projection`` / ``pushdown-rename``
    A selection moves below a projection/renaming when every referenced
    attribute is a pass-through column; the predicate is rewritten through
    the column mapping.
``pushdown-join``
    Conjunct terms of a selection above a join move into the join input they
    reference: both sides for inner joins, the preserved side only for
    left/right outer joins, never for full outer joins.
``pushdown-nesting``
    A selection on the carried-through attributes commutes with tuple and
    relation nesting (for ``N^R`` the predicate must only reference group-key
    attributes: filtered rows then form exactly the filtered-out groups).
``reorder-join``
    Inner-join inputs swap when the estimated build side is much larger than
    the probe side, so the hash index is built over the smaller input; a
    synthesized projection restores the original column order (tuple equality
    is attribute-order-sensitive, so results stay byte-identical).
``prune-columns``
    Schema-driven column liveness: a synthesized projection directly above a
    table access drops columns that provably never influence the final
    result (grouping keys, join keys, predicate and aggregate inputs are
    always live; operators that compare whole rows — deduplication,
    difference, relation nesting — keep everything below them live).

The pass runs to a fixpoint (rules enable each other: fusing selections turns
a stack into conjuncts the join rule can split), records per-rule fire counts,
and returns an :class:`OptimizationReport` whose :meth:`~OptimizationReport.describe`
renders the original vs. optimized plans with per-operator provenance
annotations (the CLI's ``--show-plan``).
"""

from __future__ import annotations

import os
import time
import weakref
from typing import Any, Callable, Optional

from repro.algebra.expressions import And, Attr, Expr
from repro.algebra.operators import (
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
from repro.nested.paths import Path
from repro.nested.types import TupleType

#: Environment variable consulted when no explicit optimize flag is given.
OPTIMIZE_ENV = "REPRO_OPTIMIZE"

#: Stable names of the rewrite rules (the keys of ``rule_fires``).
RULE_NAMES = (
    "fuse-selections",
    "pushdown-projection",
    "pushdown-rename",
    "pushdown-join",
    "pushdown-nesting",
    "reorder-join",
    "prune-columns",
)

#: Estimated-cardinality ratio above which an inner join's inputs swap.
_REORDER_FACTOR = 2.0

#: Fixpoint safety cap; every rule strictly shrinks or sinks work, so real
#: plans converge in two or three rounds.
_MAX_ROUNDS = 10


def default_optimize() -> bool:
    """The optimizer default when none is requested (``REPRO_OPTIMIZE``)."""
    return os.environ.get(OPTIMIZE_ENV, "").strip().lower() in ("1", "true", "on", "yes")


def resolve_optimize(flag: Optional[bool]) -> bool:
    """Resolve an explicit on/off flag, falling back to the environment."""
    return default_optimize() if flag is None else bool(flag)


def _stamp(op: Operator, origins: "tuple[int, ...]", rules: "tuple[str, ...]" = ()) -> Operator:
    """Attach provenance (user-plan op ids) and rule annotations to *op*."""
    op._origins = origins
    if rules:
        op._rules = tuple(dict.fromkeys(getattr(op, "_rules", ()) + rules))
    return op


def _rules_of(op: Operator) -> "tuple[str, ...]":
    return getattr(op, "_rules", ())


class OptimizationReport:
    """Outcome of one optimizer run: the rewritten plan plus its provenance.

    ``origin_of`` maps every optimized operator id to the originating
    user-plan operator ids (empty tuple: synthesized by a rule), which is what
    keeps metrics and plan renderings reportable against the plan the user
    wrote.

    ``rewrite_seconds`` is the wall time the fixpoint rewrite itself took
    (0.0 when the report came out of the per-query plan cache); the executor
    surfaces it as ``metrics.optimizer["rewrite_seconds"]``.  It is kept out
    of :meth:`summary` so summaries stay deterministic.
    """

    def __init__(self, original: Query, optimized: Query, rule_fires: "dict[str, int]"):
        self.original = original
        self.optimized = optimized
        self.rule_fires = dict(rule_fires)
        self.rewrite_seconds = 0.0
        self.origin_of: dict[int, tuple[int, ...]] = {
            op.op_id: op.origins for op in optimized.ops
        }
        self.rules_of: dict[int, tuple[str, ...]] = {
            op.op_id: _rules_of(op) for op in optimized.ops
        }

    @property
    def changed(self) -> bool:
        """True when at least one rewrite rule fired."""
        return any(self.rule_fires.values())

    def total_fires(self) -> int:
        """Total number of rule applications across the fixpoint run."""
        return sum(self.rule_fires.values())

    def summary(self) -> dict:
        """JSON-ready summary (embedded in execution metrics and benchmarks)."""
        return {
            "rule_fires": {k: v for k, v in self.rule_fires.items() if v},
            "ops_before": len(self.original.ops),
            "ops_after": len(self.optimized.ops),
        }

    def describe(self) -> str:
        """Render original vs. optimized plans with per-rule annotations."""
        fired = ", ".join(
            f"{name}×{count}" for name, count in self.rule_fires.items() if count
        )
        lines = [
            f"plan optimization for {self.original.name or '(unnamed)'}: "
            f"{self.total_fires()} rewrite{'s' if self.total_fires() != 1 else ''}"
            + (f" ({fired})" if fired else ""),
            "",
            "original plan:",
            self.original.explain_plan(),
            "",
            "optimized plan:",
            self.optimized.explain_plan(annotate=True),
        ]
        return "\n".join(lines)


def optimize_query(query: Query, db) -> OptimizationReport:
    """Run the rewrite rules over *query* to a fixpoint.

    *db* supplies table cardinalities (join reordering) and table schemas
    (column liveness); the input query is never mutated.  The resulting
    report is cached on the query instance keyed by database identity and
    version (the same single-entry, weakly referenced scheme as
    ``Query.infer_schemas``), so re-executing the same query — the
    benchmark harness and ``explain`` both do — pays the fixpoint rewrite
    once, not per run.
    """
    version = getattr(db, "version", None)
    entry = getattr(query, "_optimize_cache", None)
    if entry is not None and entry[0]() is db and entry[1] == version:
        return entry[2]
    started = time.perf_counter()
    fires = {name: 0 for name in RULE_NAMES}
    root = _clone_with_origins(query.root)
    for _ in range(_MAX_ROUNDS):
        before = dict(fires)
        schemas: dict[int, TupleType] = {}
        estimates: dict[int, float] = {}
        root = _fuse_selections(root, fires)
        root = _push_selections(root, db, schemas, fires)
        root = _reorder_joins(root, db, schemas, estimates, fires)
        root = _prune_columns(root, None, db, schemas, fires)
        if fires == before:
            break
    optimized = Query(root, name=query.name)
    report = OptimizationReport(query, optimized, fires)
    report.rewrite_seconds = time.perf_counter() - started
    query._optimize_cache = (weakref.ref(db), version, report)
    return report


# ---------------------------------------------------------------------------
# Provenance-preserving tree plumbing
# ---------------------------------------------------------------------------


def _clone_with_origins(op: Operator) -> Operator:
    """Deep-clone the user tree, stamping every clone with its origin id."""
    children = [_clone_with_origins(c) for c in op.children]
    return _stamp(op.clone(children), (op.op_id,))


def _rebuild(op: Operator, children: "list[Operator]") -> Operator:
    """Clone *op* onto new children, carrying provenance annotations along."""
    new = op.clone(children)
    return _stamp(new, op.origins, _rules_of(op))


def _transform_children(op: Operator, fn: "Callable[[Operator], Operator]") -> Operator:
    """Apply *fn* to every child; rebuild the node only when a child changed."""
    children = [fn(c) for c in op.children]
    if all(new is old for new, old in zip(children, op.children)):
        return op
    return _rebuild(op, children)


def _schema_of(op: Operator, db, memo: "dict[int, TupleType]") -> TupleType:
    """Output row schema of *op*, memoised by operator identity."""
    schema = memo.get(id(op))
    if schema is None:
        child_schemas = [_schema_of(c, db, memo) for c in op.children]
        schema = op.output_schema(child_schemas, db)
        memo[id(op)] = schema
    return schema


# ---------------------------------------------------------------------------
# fuse-selections
# ---------------------------------------------------------------------------


def _fuse_selections(op: Operator, fires: "dict[str, int]") -> Operator:
    op = _transform_children(op, lambda c: _fuse_selections(c, fires))
    if isinstance(op, Selection) and isinstance(op.children[0], Selection):
        inner = op.children[0]
        fused = Selection(inner.children[0], And(inner.pred, op.pred))
        fires["fuse-selections"] += 1
        return _stamp(
            fused,
            tuple(dict.fromkeys(inner.origins + op.origins)),
            tuple(dict.fromkeys(_rules_of(inner) + _rules_of(op) + ("fuse-selections",))),
        )
    return op


# ---------------------------------------------------------------------------
# selection pushdown
# ---------------------------------------------------------------------------


def _attr_roots(expr: Expr) -> "set[str]":
    return {path[0] for path in expr.attr_paths()}


def _push_selections(
    op: Operator, db, schemas: "dict[int, TupleType]", fires: "dict[str, int]"
) -> Operator:
    op = _transform_children(op, lambda c: _push_selections(c, db, schemas, fires))
    if not isinstance(op, Selection):
        return op
    pushed = _push_one_selection(op, db, schemas, fires)
    return op if pushed is None else pushed


def _push_one_selection(
    sel: Selection, db, schemas: "dict[int, TupleType]", fires: "dict[str, int]"
) -> Optional[Operator]:
    """One pushdown step for *sel*, or None when every rule declines."""
    child = sel.children[0]
    if isinstance(child, Projection):
        return _push_through_projection(sel, child, fires)
    if isinstance(child, Renaming):
        return _push_through_renaming(sel, child, fires)
    if isinstance(child, Join):
        return _push_into_join(sel, child, db, schemas, fires)
    if isinstance(child, (TupleNesting, RelationNesting)):
        return _push_through_nesting(sel, child, fires)
    return None


def _push_through_projection(
    sel: Selection, proj: Projection, fires: "dict[str, int]"
) -> Optional[Operator]:
    """σ(π(R)) → π(σ'(R)) when every referenced column is a pass-through
    attribute; computed columns cannot be inverted, so they decline."""
    if not proj.origins:
        # Synthesized (pruning / column-restoring) projections sit exactly
        # where the optimizer wants them; pushing a selection through would
        # re-trigger insertion rules and ping-pong the plan.
        return None
    col_exprs = dict(proj.cols)
    mapping: dict[str, Path] = {}
    for path in sel.pred.attr_paths():
        expr = col_exprs.get(path[0])
        if not isinstance(expr, Attr):
            return None
        mapping[path[0]] = expr.path

    def rewrite(path: Path) -> Path:
        return mapping[path[0]] + path[1:]

    inner = Selection(proj.children[0], sel.pred.map_attrs(rewrite))
    _stamp(inner, sel.origins, _rules_of(sel) + ("pushdown-projection",))
    fires["pushdown-projection"] += 1
    return _rebuild(proj, [inner])


def _push_through_renaming(
    sel: Selection, ren: Renaming, fires: "dict[str, int]"
) -> Operator:
    """σ(ρ(R)) → ρ(σ'(R)); attribute roots map back through the renaming."""
    reverse = {new: old for new, old in ren.pairs}

    def rewrite(path: Path) -> Path:
        return (reverse.get(path[0], path[0]),) + path[1:]

    inner = Selection(ren.children[0], sel.pred.map_attrs(rewrite))
    _stamp(inner, sel.origins, _rules_of(sel) + ("pushdown-rename",))
    fires["pushdown-rename"] += 1
    return _rebuild(ren, [inner])


def _push_into_join(
    sel: Selection,
    join: Join,
    db,
    schemas: "dict[int, TupleType]",
    fires: "dict[str, int]",
) -> Optional[Operator]:
    """Move conjunct terms into the join side they reference.

    Outer joins only accept pushes into their *preserved* side: filtering the
    null-padded side below the join would turn eliminated rows into padded
    ones (and vice versa), so those terms stay above.
    """
    push_left = join.how in ("inner", "left")
    push_right = join.how in ("inner", "right")
    if not (push_left or push_right):
        return None
    left_names = set(_schema_of(join.children[0], db, schemas).names)
    right_names = set(_schema_of(join.children[1], db, schemas).names)
    if join.drop_right_keys:
        # With dropped right keys, a key-named output column is the *left*
        # side's copy (⊥-padded on unmatched right rows under ``right``/
        # ``full``): classify such terms by the left side only.
        right_names -= {path[0] for _, path in join.on if len(path) == 1}
    terms = list(sel.pred.terms) if isinstance(sel.pred, And) else [sel.pred]
    left_terms: list[Expr] = []
    right_terms: list[Expr] = []
    rest: list[Expr] = []
    for term in terms:
        roots = _attr_roots(term)
        if push_left and roots <= left_names:
            left_terms.append(term)
        elif push_right and roots <= right_names:
            right_terms.append(term)
        else:
            rest.append(term)
    if not left_terms and not right_terms:
        return None

    def side(child: Operator, side_terms: "list[Expr]") -> Operator:
        if not side_terms:
            return child
        pred = side_terms[0] if len(side_terms) == 1 else And(*side_terms)
        fires["pushdown-join"] += 1
        return _stamp(
            Selection(child, pred), sel.origins, _rules_of(sel) + ("pushdown-join",)
        )

    new_join = _rebuild(
        join,
        [side(join.children[0], left_terms), side(join.children[1], right_terms)],
    )
    if not rest:
        return new_join
    residual = Selection(new_join, rest[0] if len(rest) == 1 else And(*rest))
    return _stamp(residual, sel.origins, _rules_of(sel))


def _push_through_nesting(
    sel: Selection, nest: "TupleNesting | RelationNesting", fires: "dict[str, int]"
) -> Optional[Operator]:
    """σ(N(R)) → N(σ(R)) when the predicate only touches carried attributes.

    For ``N^R`` the carried attributes are exactly the group key, so rows
    removed below the nesting are precisely the members of the groups the
    selection would have removed above it.
    """
    roots = _attr_roots(sel.pred)
    if nest.target in roots or roots & set(nest.attrs):
        return None
    if any(len(path) > 1 and path[0] == nest.target for path in sel.pred.attr_paths()):
        return None
    inner = Selection(nest.children[0], sel.pred)
    _stamp(inner, sel.origins, _rules_of(sel) + ("pushdown-nesting",))
    fires["pushdown-nesting"] += 1
    return _rebuild(nest, [inner])


# ---------------------------------------------------------------------------
# reorder-join
# ---------------------------------------------------------------------------


def _estimate(op: Operator, db, memo: "dict[int, float]") -> float:
    """Crude cardinality estimate driving the join-reorder decision.

    Table cardinalities are exact; selections keep a third of their input,
    relation flattens quadruple it, grouping/deduplication halves it.  Only
    the *relative* order of estimates matters.
    """
    est = memo.get(id(op))
    if est is not None:
        return est
    if isinstance(op, TableAccess):
        est = float(len(db.relation(op.table)))
    elif isinstance(op, Selection):
        est = max(1.0, _estimate(op.children[0], db, memo) / 3.0)
    elif isinstance(op, Join):
        left = _estimate(op.children[0], db, memo)
        right = _estimate(op.children[1], db, memo)
        est = max(left, right) if op.how == "inner" else left + right
    elif isinstance(op, CartesianProduct):
        est = _estimate(op.children[0], db, memo) * _estimate(op.children[1], db, memo)
    elif isinstance(op, (Union, Difference)):
        est = sum(_estimate(c, db, memo) for c in op.children)
    elif isinstance(op, RelationFlatten):
        est = 4.0 * _estimate(op.children[0], db, memo)
    elif isinstance(op, (GroupAggregation, RelationNesting, Deduplication)):
        est = max(1.0, _estimate(op.children[0], db, memo) / 2.0)
    elif op.children:
        est = _estimate(op.children[0], db, memo)
    else:
        est = 1.0
    memo[id(op)] = est
    return est


def _reorder_joins(
    op: Operator,
    db,
    schemas: "dict[int, TupleType]",
    estimates: "dict[int, float]",
    fires: "dict[str, int]",
) -> Operator:
    op = _transform_children(
        op, lambda c: _reorder_joins(c, db, schemas, estimates, fires)
    )
    if not isinstance(op, Join) or op.how != "inner" or op.drop_right_keys:
        return op
    if op.extra is not None:
        return op  # residual predicates are written against the l++r order
    left, right = op.children
    if _estimate(right, db, estimates) <= _REORDER_FACTOR * _estimate(left, db, estimates):
        return op
    out_names = _schema_of(op, db, schemas).names
    if len(set(out_names)) != len(out_names):
        return op
    swapped = Join(
        right,
        left,
        [(r, l) for l, r in op.on],
        how="inner",
        label=op._label,
    )
    _stamp(swapped, op.origins, _rules_of(op) + ("reorder-join",))
    restore = Projection(swapped, list(out_names))
    _stamp(restore, (), ("reorder-join",))
    fires["reorder-join"] += 1
    return restore


# ---------------------------------------------------------------------------
# prune-columns
# ---------------------------------------------------------------------------

#: ``None`` in liveness positions means "all columns live" (the conservative
#: answer, and the requirement at the query root: output must be identical).
Live = Optional[frozenset]


def _child_liveness(
    op: Operator, live: Live, db, schemas: "dict[int, TupleType]"
) -> "list[Live]":
    """Per-child live top-level column sets, given this op's live output set."""
    if isinstance(op, Projection):
        roots = {path[0] for _, expr in op.cols for path in expr.attr_paths()}
        return [frozenset(roots)]
    if isinstance(op, Selection):
        if live is None:
            return [None]
        return [live | _attr_roots(op.pred)]
    if isinstance(op, Renaming):
        if live is None:
            return [None]
        reverse = {new: old for new, old in op.pairs}
        return [frozenset(reverse.get(name, name) for name in live)]
    if isinstance(op, Join):
        left_keys = {l[0] for l, _ in op.on}
        right_keys = {r[0] for _, r in op.on}
        if op.extra is not None or live is None:
            # ``extra`` sees the concatenated row; stay conservative.
            return [None, None]
        left_names = set(_schema_of(op.children[0], db, schemas).names)
        right_names = set(_schema_of(op.children[1], db, schemas).names)
        return [
            frozenset((live & left_names) | left_keys),
            frozenset((live & right_names) | right_keys),
        ]
    if isinstance(op, GroupAggregation):
        roots = {src[0] for _, src in op.key_specs}
        for spec in op.aggs:
            if spec.expr is not None:
                roots |= _attr_roots(spec.expr)
        return [frozenset(roots)]
    if isinstance(op, NestedAggregation):
        if live is None:
            return [None]
        return [(live - {op.out}) | {op.attr[0]}]
    if isinstance(op, (TupleFlatten, RelationFlatten)):
        if live is None:
            return [None]
        child_names = set(_schema_of(op.children[0], db, schemas).names)
        if op.alias is not None:
            return [frozenset(((live - {op.alias}) & child_names) | {op.path[0]})]
        return [frozenset((live & child_names) | {op.path[0]})]
    if isinstance(op, TupleNesting):
        if live is None:
            return [None]
        # The operator unconditionally drops + re-projects ``attrs``, so they
        # must stay live even when the packed target column is dead.
        return [frozenset((live - {op.target}) | set(op.attrs))]
    if isinstance(op, Union):
        return [live, live]
    # RelationNesting groups on *all* remaining columns; Deduplication,
    # Difference and the NRAB₀ operators compare whole rows: everything below
    # them stays live.
    return [None] * len(op.children)


def _prune_columns(
    op: Operator, live: Live, db, schemas: "dict[int, TupleType]", fires: "dict[str, int]"
) -> Operator:
    child_live = _child_liveness(op, live, db, schemas)
    children: list[Operator] = []
    changed = False
    for child, needed in zip(op.children, child_live):
        new_child = _prune_columns(child, needed, db, schemas, fires)
        if (
            isinstance(new_child, TableAccess)
            and needed is not None
            and not isinstance(op, Projection)
        ):
            table_names = _schema_of(new_child, db, schemas).names
            keep = [name for name in table_names if name in needed]
            if len(keep) < len(table_names):
                pruned = Projection(new_child, keep)
                _stamp(pruned, (), ("prune-columns",))
                fires["prune-columns"] += 1
                new_child = pruned
        children.append(new_child)
        changed = changed or new_child is not child
    return _rebuild(op, children) if changed else op
