"""Row-at-a-time reference tracer and Algorithm 4 (test oracle only).

This is the data-tracing step as it stood before snapshots became columnar:
every traced row is a :class:`~repro.whynot.tracing.TRow` carrying a value
tuple, a parent tuple and its bitmasks, each SA group's relaxed evaluation
calls ``eval_rows`` once per row, and Algorithm 4 plus the §5.4 bounds walk
per-row ancestor sets.  It has no production caller.  The tracer
equivalence tests and the differential fuzz oracle (:mod:`repro.fuzz.oracle`,
:mod:`repro.fuzz.mutations`) compare the production tracer against it: the
row views (ids, parents, values, valid/consistent/retained masks) and the
ranked explanations (labels, SA index, bounds, rank) must be identical.

:func:`reference_explain` runs the whole pipeline with this tracer;
:func:`row_view`, :func:`explanation_view` and :func:`compare` turn results
into comparable data.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.algebra.operators import (
    BagDestroy,
    CartesianProduct,
    Deduplication,
    Difference,
    EvalContext,
    GroupAggregation,
    Join,
    Map,
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
from repro.engine.database import Database
from repro.nested.values import Bag, Tup
from repro.whynot.alternatives import SchemaAlternative, enumerate_schema_alternatives
from repro.whynot.approximate import Explanation, StateBudgetExceeded, _prune_and_rank
from repro.whynot.backtrace import backtrace
from repro.whynot.matching import compile_pattern
from repro.whynot.question import WhyNotQuestion
from repro.whynot.tracing import (
    SAContexts,
    SAGroups,
    TraceResult,
    TRow,
    UnsupportedOperator,
    _group_equal,
    _meet,
    trace_group,
    trace_join,
)


@dataclass
class RowOpTrace:
    """Snapshot of one operator's annotated (relaxed) output."""

    op_id: int
    rows: list[TRow]
    groups: SAGroups = None  # type: ignore[assignment]


@dataclass
class RowTraceResult:
    """All per-operator snapshots plus lookup indexes."""

    traces: dict[int, RowOpTrace]
    root_id: int
    n_sas: int
    rows_by_rid: dict[int, TRow] = field(default_factory=dict)
    op_of_rid: dict[int, int] = field(default_factory=dict)

    def final_rows(self) -> list[TRow]:
        """The traced rows of the root operator (the relaxed final result)."""
        return self.traces[self.root_id].rows

    def ancestors(self, rids: "set[int] | list[int]") -> set[int]:
        """Transitive parents of the given rows (including themselves)."""
        seen: set[int] = set()
        stack = list(rids)
        while stack:
            rid = stack.pop()
            if rid in seen:
                continue
            seen.add(rid)
            stack.extend(self.rows_by_rid[rid].parents)
        return seen

    def total_rows(self) -> int:
        """Total number of traced rows across all operators."""
        return len(self.rows_by_rid)


class RowTracer:
    """Runs the instrumented evaluation for a list of schema alternatives."""

    def __init__(
        self,
        query: Query,
        db: Database,
        sas: list[SchemaAlternative],
        revalidate: bool = True,
    ):
        self.query = query
        self.db = db
        self.sas = sas
        self.revalidate = revalidate
        self.n = len(sas)
        self._full_mask = (1 << self.n) - 1
        self._rid = itertools.count(1)
        # Per-SA operator views, schemas and evaluation contexts.
        self._ops = {
            op.op_id: [sa.query.op(op.op_id) for sa in sas] for op in query.ops
        }
        self._schemas = [sa.query.infer_schemas(db) for sa in sas]
        self._ctxs = [EvalContext(db, schemas) for schemas in self._schemas]
        self._op_group_cache: dict[int, tuple[int, ...]] = {}
        self._sa_contexts = SAContexts(db, tuple(sa.query for sa in sas))

    def _run_group_tasks(self, tasks: list[tuple]) -> list:
        """Evaluate one task per SA group."""
        return [_TASKS[task[0]](self._sa_contexts, *task[1:]) for task in tasks]

    # -- public entry --------------------------------------------------------

    def run(self) -> RowTraceResult:
        """Trace every operator bottom-up and assemble the :class:`RowTraceResult`."""
        result = RowTraceResult({}, self.query.root.op_id, self.n)
        for op in self.query.ops:
            child_traces = [result.traces[c.op_id] for c in op.children]
            rows, groups = self._trace_op(op, child_traces)
            self._annotate_consistency(op, rows, groups, result.rows_by_rid)
            result.traces[op.op_id] = RowOpTrace(op.op_id, rows, groups)
            for row in rows:
                result.rows_by_rid[row.rid] = row
                result.op_of_rid[row.rid] = op.op_id
        return result

    # -- helpers -------------------------------------------------------------

    def _next_rid(self) -> int:
        return next(self._rid)

    def _sa_op(self, op: Operator, i: int) -> Operator:
        return self._ops[op.op_id][i]

    def _op_param_groups(self, op: Operator) -> tuple[int, ...]:
        """Group SAs by the op's parameters and surrounding schemas."""
        cached = self._op_group_cache.get(op.op_id)
        if cached is None:
            items = []
            for i in range(self.n):
                schemas = self._schemas[i]
                items.append(
                    (
                        self._ops[op.op_id][i].params(),
                        tuple(schemas[c.op_id] for c in op.children),
                        schemas[op.op_id],
                    )
                )
            cached = _group_equal(self.n, items)
            self._op_group_cache[op.op_id] = cached
        return cached

    def _meet_for(self, op: Operator, *child_groups: SAGroups) -> SAGroups:
        """SAs indistinguishable at *op*: same params/schemas, same inputs."""
        return _meet(
            self.n, self._op_param_groups(op), *(g.gids for g in child_groups)
        )

    def _annotate_consistency(
        self, op: Operator, rows: list[TRow], groups: SAGroups, rows_by_rid: dict[int, TRow]
    ) -> None:
        """Fill ``consistent`` masks, with the soft aggregate fallback."""
        if not self.revalidate and not isinstance(op, TableAccess):
            # Ablation: inherit compatibility from the parents (lineage-style
            # blind successor tracking, no re-validation).
            for row in rows:
                inherited = 0
                for p in row.parents:
                    inherited |= rows_by_rid[p].consistent_mask
                row.consistent_mask = row.valid_mask & inherited
            return
        n = self.n
        strict = [self.sas[i].backtrace.nip_at[op.op_id] for i in range(n)]
        relaxed = [self.sas[i].backtrace.relaxed_at[op.op_id] for i in range(n)]
        # Refine the column groups by pattern equality: within a subgroup the
        # match flags are identical, so evaluate them once.
        sub_keys: list[tuple[int, Any, Any]] = []
        sub_masks: list[int] = []
        sub_reps: list[int] = []
        for i in range(n):
            key = (groups.gids[i], strict[i], relaxed[i])
            for g, existing in enumerate(sub_keys):
                if existing == key:
                    sub_masks[g] |= 1 << i
                    break
            else:
                sub_keys.append(key)
                sub_masks.append(1 << i)
                sub_reps.append(i)
        for (_, s_pat, r_pat), gmask, rep in zip(sub_keys, sub_masks, sub_reps):
            bit = 1 << rep
            strict_match = compile_pattern(s_pat)
            # Within a subgroup validity is uniform (column sharing), so the
            # whole gmask can be committed as soon as the representative
            # column is valid and matches.
            matched_any = False
            for row in rows:
                if row.valid_mask & bit and strict_match(row.vals[rep]):
                    row.consistent_mask |= gmask
                    matched_any = True
            if not matched_any and s_pat != r_pat:
                relaxed_match = compile_pattern(r_pat)
                for row in rows:
                    if row.valid_mask & bit and relaxed_match(row.vals[rep]):
                        row.consistent_mask |= gmask

    # -- per-operator tracing --------------------------------------------------

    def _trace_op(
        self, op: Operator, child_traces: list[RowOpTrace]
    ) -> tuple[list[TRow], SAGroups]:
        if isinstance(op, TableAccess):
            return self._trace_table(op)
        if isinstance(op, Selection):
            return self._trace_selection(op, child_traces[0])
        if isinstance(op, (Projection, Renaming, TupleFlatten, TupleNesting, NestedAggregation)):
            return self._trace_narrow(op, child_traces[0])
        if isinstance(op, RelationFlatten):
            return self._trace_flatten(op, child_traces[0])
        if isinstance(op, Join):
            return self._trace_join(op, child_traces)
        if isinstance(op, (RelationNesting, GroupAggregation)):
            return self._trace_grouping(op, child_traces[0])
        if isinstance(op, Union):
            return self._trace_union(op, child_traces)
        if isinstance(op, Deduplication):
            return self._trace_passthrough(child_traces[0])
        if isinstance(op, Difference):
            return self._trace_difference(op, child_traces)
        if isinstance(op, CartesianProduct):
            return self._trace_product(op, child_traces)
        if isinstance(op, Map):
            raise UnsupportedOperator("data tracing does not support map (paper §5.5)")
        if isinstance(op, BagDestroy):
            raise UnsupportedOperator("data tracing does not support bag-destroy")
        raise UnsupportedOperator(f"no tracing rule for {type(op).__name__}")

    def _trace_table(self, op: TableAccess) -> tuple[list[TRow], SAGroups]:
        full = self._full_mask
        n = self.n
        rows = [
            TRow(
                rid=self._next_rid(),
                parents=(),
                vals=(tup,) * n,
                valid_mask=full,
                retained_true=full,
                retained_known=full,
            )
            for tup in self.db.relation(op.table)
        ]
        return rows, SAGroups.single(n)

    def _trace_selection(self, op: Selection, child: RowOpTrace) -> tuple[list[TRow], SAGroups]:
        mg = self._meet_for(op, child.groups)
        preds = [self._sa_op(op, rep).pred.compile() for rep in mg.reps]
        reps = mg.reps
        masks = mg.masks
        full = self._full_mask
        rows = []
        for parent in child.rows:
            pvals = parent.vals
            retained_true = 0
            for g, rep in enumerate(reps):
                v = pvals[rep]
                if v is not None and preds[g](v):
                    retained_true |= masks[g]
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(parent.rid,),
                    vals=pvals,
                    valid_mask=parent.valid_mask,
                    retained_true=retained_true & parent.valid_mask,
                    retained_known=full,
                )
            )
        # Selections pass tuples through unchanged: column sharing persists.
        return rows, child.groups

    def _trace_narrow(self, op: Operator, child: RowOpTrace) -> tuple[list[TRow], SAGroups]:
        """Non-filtering unary operators: transform each group's tuple once."""
        groups = self._meet_for(op, child.groups)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        sa_ops = [self._sa_op(op, rep) for rep in reps]
        ctxs = [self._ctxs[rep] for rep in reps]
        full = self._full_mask
        rows = []
        if len(reps) == 1:
            # All SAs share the computation: one eval, one shared tuple.
            sa_op, ctx, rep = sa_ops[0], ctxs[0], reps[0]
            for parent in child.rows:
                v = parent.vals[rep]
                out = None
                if v is not None:
                    produced = sa_op.eval_rows([[v]], ctx)
                    out = produced[0] if produced else None
                rows.append(
                    TRow(
                        rid=self._next_rid(),
                        parents=(parent.rid,),
                        vals=(out,) * n,
                        valid_mask=full if out is not None else 0,
                    )
                )
            return rows, groups
        # Multiple distinguishable groups: each group's relaxed evaluation is
        # an independent task.
        group_outs = self._run_group_tasks(
            [
                ("trace_narrow", reps[g], op.op_id, [p.vals[reps[g]] for p in child.rows])
                for g in range(len(reps))
            ]
        )
        for idx, parent in enumerate(child.rows):
            vals = []
            valid_mask = 0
            for i in range(n):
                out = group_outs[gids[i]][idx]
                vals.append(out)
                if out is not None:
                    valid_mask |= 1 << i
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(parent.rid,),
                    vals=tuple(vals),
                    valid_mask=valid_mask,
                )
            )
        return rows, groups

    def _trace_flatten(self, op: RelationFlatten, child: RowOpTrace) -> tuple[list[TRow], SAGroups]:
        """Algorithm 3: run as outer flatten per SA group, merge by parent."""
        groups = self._meet_for(op, child.groups)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        sa_ops: list[RelationFlatten] = [self._sa_op(op, rep) for rep in reps]  # type: ignore[misc]
        ctxs = [self._ctxs[rep] for rep in reps]
        full = self._full_mask
        rows = []
        if len(reps) == 1:
            sa_op, ctx, rep = sa_ops[0], ctxs[0], reps[0]
            outer = sa_op.outer
            for parent in child.rows:
                v = parent.vals[rep]
                if v is None:
                    continue
                expanded, padded = sa_op.expand(v, ctx)
                if padded:
                    rows.append(
                        TRow(
                            rid=self._next_rid(),
                            parents=(parent.rid,),
                            vals=(expanded[0],) * n,
                            valid_mask=full,
                            retained_true=full if outer else 0,
                            retained_known=full,
                        )
                    )
                    continue
                for t in expanded:
                    rows.append(
                        TRow(
                            rid=self._next_rid(),
                            parents=(parent.rid,),
                            vals=(t,) * n,
                            valid_mask=full,
                            retained_true=full,
                            retained_known=full,
                        )
                    )
            return rows, groups
        # Per-group outer-flatten expansions are independent tasks; the
        # driver merges them column-aligned (k-th expansion of each group).
        group_expansions = self._run_group_tasks(
            [
                ("trace_flatten", reps[g], op.op_id, [p.vals[reps[g]] for p in child.rows])
                for g in range(len(reps))
            ]
        )
        for idx, parent in enumerate(child.rows):
            expansions: list[list[tuple[Optional[Tup], bool]]] = [
                group_expansions[g][idx] for g in range(len(reps))
            ]
            width = max((len(e) for e in expansions), default=0)
            for k in range(width):
                vals = []
                valid_mask = 0
                retained_true = 0
                for i in range(n):
                    expansion = expansions[gids[i]]
                    if k < len(expansion):
                        tup, flag = expansion[k]
                        vals.append(tup)
                        bit = 1 << i
                        valid_mask |= bit
                        if flag:
                            retained_true |= bit
                    else:
                        vals.append(None)
                rows.append(
                    TRow(
                        rid=self._next_rid(),
                        parents=(parent.rid,),
                        vals=tuple(vals),
                        valid_mask=valid_mask,
                        retained_true=retained_true,
                        retained_known=full,
                    )
                )
        return rows, groups

    def _trace_join(self, op: Join, child_traces: list[RowOpTrace]) -> tuple[list[TRow], SAGroups]:
        """Relaxed join: full-outer semantics per SA group, merged across."""
        left_trace, right_trace = child_traces
        left_rows, right_rows = left_trace.rows, right_trace.rows
        groups = self._meet_for(op, left_trace.groups, right_trace.groups)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        full = self._full_mask
        n_groups = len(reps)

        # Each group's full-outer match set is an independent task returning
        # {(left_idx, right_idx): combined} plus the matched index sets; pads
        # (cheap, schema-derived) are built below.
        results = self._run_group_tasks(
            [
                (
                    "trace_join",
                    reps[g],
                    op.op_id,
                    [l.vals[reps[g]] for l in left_rows],
                    [r.vals[reps[g]] for r in right_rows],
                )
                for g in range(n_groups)
            ]
        )
        match_sets: list[dict[tuple[int, int], Tup]] = [r[0] for r in results]
        left_matched: list[set[int]] = [r[1] for r in results]
        right_matched: list[set[int]] = [r[2] for r in results]
        sa_ops: list[Join] = []
        pads_left: list[Tup] = []
        pads_right: list[Tup] = []
        for g in range(n_groups):
            rep = reps[g]
            sa_op: Join = self._sa_op(op, rep)  # type: ignore[assignment]
            sa_ops.append(sa_op)
            schemas = self._schemas[rep]
            pads_right.append(
                sa_op._pad(schemas[op.children[1].op_id], sa_op._right_drop())
            )
            pads_left.append(sa_op._pad(schemas[op.children[0].op_id]))

        rows: list[TRow] = []
        all_pairs: dict[tuple[int, int], None] = {}
        for matches_g in match_sets:
            for pair in matches_g:
                all_pairs.setdefault(pair, None)
        single = n_groups == 1
        for pair in all_pairs:
            ldx, jdx = pair
            if single:
                combined = match_sets[0][pair]
                vals_t: tuple[Optional[Tup], ...] = (combined,) * n
                valid_mask = full
            else:
                vals = []
                valid_mask = 0
                for i in range(n):
                    combined = match_sets[gids[i]].get(pair)
                    vals.append(combined)
                    if combined is not None:
                        valid_mask |= 1 << i
                vals_t = tuple(vals)
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(left_rows[ldx].rid, right_rows[jdx].rid),
                    vals=vals_t,
                    valid_mask=valid_mask,
                    retained_true=valid_mask,
                    retained_known=full,
                )
            )
        # Left rows without partner: padded (tracks tuples that an outer join
        # variant would keep — needed to reparameterize the join type).
        for ldx, l in enumerate(left_rows):
            unmatched_groups = [
                g
                for g in range(n_groups)
                if l.vals[reps[g]] is not None and ldx not in left_matched[g]
            ]
            if not unmatched_groups:
                continue
            if single:
                out = l.vals[reps[0]].concat(pads_right[0])
                vals_t = (out,) * n
                valid_mask = full
                retained_true = full if sa_ops[0].how in ("left", "full") else 0
            else:
                padded: dict[int, Tup] = {
                    g: l.vals[reps[g]].concat(pads_right[g]) for g in unmatched_groups
                }
                vals = []
                valid_mask = 0
                retained_true = 0
                for i in range(n):
                    out = padded.get(gids[i])
                    vals.append(out)
                    if out is not None:
                        valid_mask |= 1 << i
                        if sa_ops[gids[i]].how in ("left", "full"):
                            retained_true |= 1 << i
                vals_t = tuple(vals)
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(l.rid,),
                    vals=vals_t,
                    valid_mask=valid_mask,
                    retained_true=retained_true,
                    retained_known=full,
                )
            )
        for jdx, r in enumerate(right_rows):
            unmatched_groups = [
                g
                for g in range(n_groups)
                if r.vals[reps[g]] is not None and jdx not in right_matched[g]
            ]
            if not unmatched_groups:
                continue
            padded = {}
            for g in unmatched_groups:
                right_val = r.vals[reps[g]]
                drop = sa_ops[g]._right_drop()
                if drop:
                    right_val = right_val.drop(drop)
                padded[g] = pads_left[g].concat(right_val)
            if single:
                vals_t = (padded[0],) * n
                valid_mask = full
                retained_true = full if sa_ops[0].how in ("right", "full") else 0
            else:
                vals = []
                valid_mask = 0
                retained_true = 0
                for i in range(n):
                    out = padded.get(gids[i])
                    vals.append(out)
                    if out is not None:
                        valid_mask |= 1 << i
                        if sa_ops[gids[i]].how in ("right", "full"):
                            retained_true |= 1 << i
                vals_t = tuple(vals)
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(r.rid,),
                    vals=vals_t,
                    valid_mask=valid_mask,
                    retained_true=retained_true,
                    retained_known=full,
                )
            )
        return rows, groups

    def _trace_grouping(
        self, op: "RelationNesting | GroupAggregation", child: RowOpTrace
    ) -> tuple[list[TRow], SAGroups]:
        """Figure 7's four steps: per-SA-group nest/aggregate valid rows, then
        merge the per-group results full-outer-join-style on the group key."""
        groups = self._meet_for(op, child.groups)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        merged: dict[Tup, dict[int, tuple[Tup, list[int]]]] = {}
        order: list[Tup] = []

        # Per-group nest/aggregate runs as independent tasks returning
        # ``(key, out, member_indices)`` buckets; the driver merges them
        # full-outer-join-style on the group key.
        results = self._run_group_tasks(
            [
                ("trace_group", reps[g], op.op_id, [p.vals[reps[g]] for p in child.rows])
                for g in range(len(reps))
            ]
        )
        for g in range(len(reps)):
            for key, out, member_idxs in results[g]:
                slot = merged.get(key)
                if slot is None:
                    slot = {}
                    merged[key] = slot
                    order.append(key)
                slot[g] = (out, [child.rows[i].rid for i in member_idxs])
        rows = []
        full = self._full_mask
        single = len(reps) == 1
        for key in order:
            slot = merged[key]
            if single:
                out, rids = slot[0]
                vals_t: tuple[Optional[Tup], ...] = (out,) * n
                valid_mask = full
                parents = dict.fromkeys(rids)
            else:
                vals = []
                valid_mask = 0
                parents = {}
                for i in range(n):
                    entry = slot.get(gids[i])
                    if entry is None:
                        vals.append(None)
                    else:
                        vals.append(entry[0])
                        valid_mask |= 1 << i
                for entry, rids in slot.values():
                    for rid in rids:
                        parents.setdefault(rid, None)
                vals_t = tuple(vals)
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=tuple(parents),
                    vals=vals_t,
                    valid_mask=valid_mask,
                )
            )
        return rows, groups

    def _trace_union(self, op: Union, child_traces: list[RowOpTrace]) -> tuple[list[TRow], SAGroups]:
        rows = []
        for trace in child_traces:
            for parent in trace.rows:
                rows.append(
                    TRow(
                        rid=self._next_rid(),
                        parents=(parent.rid,),
                        vals=parent.vals,
                        valid_mask=parent.valid_mask,
                    )
                )
        groups = _meet(self.n, *(t.groups.gids for t in child_traces))
        return rows, groups

    def _trace_passthrough(self, child: RowOpTrace) -> tuple[list[TRow], SAGroups]:
        rows = [
            TRow(
                rid=self._next_rid(),
                parents=(parent.rid,),
                vals=parent.vals,
                valid_mask=parent.valid_mask,
            )
            for parent in child.rows
        ]
        return rows, child.groups

    def _trace_difference(
        self, op: Difference, child_traces: list[RowOpTrace]
    ) -> tuple[list[TRow], SAGroups]:
        left, right = child_traces
        mg = _meet(self.n, left.groups.gids, right.groups.gids)
        right_bags = [
            Bag(r.vals[rep] for r in right.rows if r.vals[rep] is not None)
            for rep in mg.reps
        ]
        full = self._full_mask
        rows = []
        for parent in left.rows:
            retained_true = 0
            for g, rep in enumerate(mg.reps):
                v = parent.vals[rep]
                if v is not None and right_bags[g].mult(v) == 0:
                    retained_true |= mg.masks[g]
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(parent.rid,),
                    vals=parent.vals,
                    valid_mask=parent.valid_mask,
                    retained_true=retained_true & parent.valid_mask,
                    retained_known=full,
                )
            )
        return rows, left.groups

    def _trace_product(
        self, op: CartesianProduct, child_traces: list[RowOpTrace]
    ) -> tuple[list[TRow], SAGroups]:
        left, right = child_traces
        if len(left.rows) * len(right.rows) > 250_000:
            raise UnsupportedOperator(
                "cartesian product too large to trace; the paper's algorithm "
                "avoids cross products (§5.5)"
            )
        groups = _meet(self.n, left.groups.gids, right.groups.gids)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        rows = []
        for l in left.rows:
            for r in right.rows:
                outs: list[Optional[Tup]] = []
                for rep in reps:
                    lv = l.vals[rep]
                    rv = r.vals[rep]
                    outs.append(lv.concat(rv) if lv is not None and rv is not None else None)
                vals = []
                valid_mask = 0
                for i in range(n):
                    out = outs[gids[i]]
                    vals.append(out)
                    if out is not None:
                        valid_mask |= 1 << i
                rows.append(
                    TRow(
                        rid=self._next_rid(),
                        parents=(l.rid, r.rid),
                        vals=tuple(vals),
                        valid_mask=valid_mask,
                    )
                )
        return rows, groups


def trace(
    query: Query,
    db: Database,
    sas: list[SchemaAlternative],
    revalidate: bool = True,
) -> RowTraceResult:
    """Run the row-at-a-time reference tracer (serial; see :func:`repro.whynot.tracing.trace`)."""
    return RowTracer(query, db, sas, revalidate=revalidate).run()


def _task_trace_narrow(state: SAContexts, sa: int, op_id: int, parent_vals: list) -> Any:
    """One SA group's outputs for a non-filtering unary operator.

    Mirrors the per-row relaxed evaluation of ``Tracer._trace_narrow``: each
    parent tuple that exists under this group's representative SA is pushed
    through the SA's operator; missing parents stay missing.
    """
    sa_op = state.sa_op(sa, op_id)
    ctx = state.sa_ctx(sa)
    outs: list = []
    for v in parent_vals:
        if v is None:
            outs.append(None)
        else:
            produced = sa_op.eval_rows([[v]], ctx)
            outs.append(produced[0] if produced else None)
    return outs


def _task_trace_flatten(state: SAContexts, sa: int, op_id: int, parent_vals: list) -> Any:
    """One SA group's outer-flatten expansions, one list per parent row.

    Each expansion entry is ``(tuple, retained)``; a padded expansion is
    retained only when the SA's own flatten is the outer variant.
    """
    sa_op = state.sa_op(sa, op_id)
    ctx = state.sa_ctx(sa)
    outer = sa_op.outer
    expansions: list = []
    for v in parent_vals:
        if v is None:
            expansions.append([])
            continue
        expanded, padded = sa_op.expand(v, ctx)
        if padded:
            expansions.append([(expanded[0], outer)])
        else:
            expansions.append([(t, True) for t in expanded])
    return expansions


def approximate_msrs(
    question: WhyNotQuestion,
    sas: list[SchemaAlternative],
    trace: RowTraceResult,
    max_states: int = 100_000,
) -> list[Explanation]:
    """Algorithm 4 over row snapshots (reference for :func:`repro.whynot.approximate.approximate_msrs`)."""
    query = question.query
    order = list(reversed(query.ops))  # root first
    rows_at = {op.op_id: trace.traces[op.op_id].rows for op in query.ops}

    found: dict[tuple[int, frozenset[int]], None] = {}
    queue: deque = deque()
    seen: set = set()

    for i, sa in enumerate(sas):
        final_alive = frozenset(
            r.rid for r in trace.final_rows() if r.consistent_at(i)
        )
        if not final_alive:
            continue
        queue.append((0, frozenset(sa.delta), final_alive, i))

    states = 0
    while queue:
        pos, sr, frontier, i = queue.popleft()
        states += 1
        if states > max_states:
            raise StateBudgetExceeded(
                f"Algorithm 4 exceeded {max_states} states; query has too many "
                "independently relaxable operators"
            )
        if pos == len(order):
            if sr:
                found.setdefault((i, sr), None)
            continue
        op = order[pos]
        here = [r for r in rows_at[op.op_id] if r.rid in frontier]
        passthrough = frontier - {r.rid for r in here}

        def push(new_sr: frozenset[int], rows: list[TRow]) -> None:
            # An empty frontier is fine: it means every alive chain already
            # grounded at a table access; remaining operators are no-ops for
            # this state and it proceeds to finalization.
            new_frontier = passthrough | {
                p for r in rows for p in r.parents
            }
            state = (pos + 1, new_sr, frozenset(new_frontier), i)
            if state not in seen:
                seen.add(state)
                queue.append(state)

        if not here:
            push(sr, [])
            continue
        cons = [r for r in here if r.consistent_at(i)]
        if not cons:
            # The missing answer does not flow through this operator on any
            # alive chain; the subtree below is irrelevant for this state.
            push(sr, here)
            continue
        if op.op_id in sr:
            # Already reparameterized (SA prefix or earlier extension): all
            # consistent rows flow.
            push(sr, cons)
            continue
        retained_rows = [r for r in cons if r.retained_at(i) is not False]
        filtered_rows = [r for r in cons if r.retained_at(i) is False]
        if retained_rows:
            push(sr, retained_rows)
        if filtered_rows:
            push(sr | {op.op_id}, cons)

    bounds = _SideEffectBounds(question, sas, trace)
    explanations: dict[frozenset[int], Explanation] = {}
    for (i, sr), _ in found.items():
        lb, ub = bounds.compute(sr, i)
        labels = tuple(query.op(op_id).label for op_id in sorted(sr))
        existing = explanations.get(sr)
        candidate = Explanation(sr, labels, i, sas[i].describe(), lb, ub)
        if existing is None or (candidate.sa_index, candidate.ub) < (
            existing.sa_index,
            existing.ub,
        ):
            explanations[sr] = candidate

    ranked = _prune_and_rank(list(explanations.values()))
    for rank, explanation in enumerate(ranked, start=1):
        explanation.rank = rank
    return ranked


class _SideEffectBounds:
    """Loose UB/LB on side effects (paper §5.4)."""

    def __init__(
        self,
        question: WhyNotQuestion,
        sas: list[SchemaAlternative],
        trace: RowTraceResult,
    ):
        self.question = question
        self.sas = sas
        self.trace = trace
        self.query = question.query
        self.original: Bag = question.result()
        self.n_orig = len(self.original)
        self._final = trace.final_rows()
        self._ancestor_cache: dict[int, set[int]] = {}
        # Per-row bitmask of SAs under which the row's entire ancestry carries
        # no retained=False flag, computed in one forward pass (rows_by_rid is
        # insertion-ordered: parents precede children).
        full = (1 << trace.n_sas) - 1
        fr_masks: dict[int, int] = {}
        for rid, row in trace.rows_by_rid.items():
            mask = row.retained_true | (full ^ row.retained_known)
            for p in row.parents:
                mask &= fr_masks[p]
            fr_masks[rid] = mask
        self._fr_masks = fr_masks
        # Tuples of the original result derived with every flag retained
        # under S1 ("original tuples with only true valid/retained flags").
        self._fully_retained_s1 = {
            r.vals[0]
            for r in self._final
            if r.valid(0) and self._fully_retained(r, 0)
        }

    def _ancestors(self, row: TRow) -> set[int]:
        cached = self._ancestor_cache.get(row.rid)
        if cached is None:
            cached = self.trace.ancestors([row.rid])
            self._ancestor_cache[row.rid] = cached
        return cached

    def _fully_retained(self, row: TRow, i: int) -> bool:
        return (self._fr_masks[row.rid] >> i) & 1 == 1

    def compute(self, sr: frozenset[int], i: int) -> tuple[float, float]:
        if i == 0:
            ub_plus = 0
            for row in self._final:
                if not row.valid(0):
                    continue
                ancestors = self._ancestors(row)
                touched = False
                for rid in ancestors:
                    ancestor = self.trace.rows_by_rid[rid]
                    if (
                        self.trace.op_of_rid[rid] in sr
                        and ancestor.retained_at(0) is False
                    ):
                        touched = True
                        break
                if touched:
                    ub_plus += 1
        else:
            ub_plus = sum(
                1
                for row in self._final
                if row.valid(i) and row.vals[i] not in self._fully_retained_s1
            )
        matched = sum(
            1
            for row in self._final
            if row.valid(i) and row.vals[i] in self._fully_retained_s1
        )
        ub_minus = max(0, self.n_orig - matched)
        ub = ub_plus + ub_minus

        has_relaxable = any(
            isinstance(self.query.op(op_id), (Selection, Join)) for op_id in sr
        )
        if has_relaxable:
            lb = 0.0
        else:
            n_vr = sum(
                1 for row in self._final if row.valid(i) and self._fully_retained(row, i)
            )
            lb = float(max(n_vr - self.n_orig, 0) + max(self.n_orig - n_vr, 0))
        return lb, float(ub)


_TASKS = {
    "trace_narrow": _task_trace_narrow,
    "trace_flatten": _task_trace_flatten,
    "trace_join": trace_join,
    "trace_group": trace_group,
}


# -- comparison helpers ---------------------------------------------------------


def reference_explain(
    question: WhyNotQuestion,
    alternatives=(),
    revalidate: bool = True,
    validate: bool = True,
) -> "tuple[list[SchemaAlternative], RowTraceResult, list[Explanation]]":
    """Steps 1–4 of :func:`repro.whynot.explain.explain` (default settings)
    on the reference tracer; returns ``(sas, trace, explanations)``."""
    if validate:
        question.validate()
    base = backtrace(question.query, question.db, question.nip)
    sas = enumerate_schema_alternatives(
        question.query, question.db, question.nip, base, groups=alternatives
    )
    traced = trace(question.query, question.db, sas, revalidate=revalidate)
    return sas, traced, approximate_msrs(question, sas, traced)


def row_view(result: "TraceResult | RowTraceResult") -> list:
    """Every traced row as comparable data, in row-id order per operator."""
    return [
        (
            op_id,
            row.rid,
            row.parents,
            row.vals,
            row.valid_mask,
            row.consistent_mask,
            row.retained_true,
            row.retained_known,
        )
        for op_id, op_trace in result.traces.items()
        for row in op_trace.rows
    ]


def explanation_view(explanations: "list[Explanation]") -> list:
    """Ranked explanations as comparable data."""
    return [(e.labels, e.sa_index, e.lb, e.ub, e.rank) for e in explanations]


def compare(
    result: TraceResult,
    explanations: "list[Explanation]",
    reference: RowTraceResult,
    reference_explanations: "list[Explanation]",
) -> Optional[str]:
    """The first difference between a production and a reference run, or None."""
    got, want = row_view(result), row_view(reference)
    if got != want:
        if len(got) != len(want):
            return f"{len(got)} traced rows vs {len(want)} in the reference"
        for mine, theirs in zip(got, want):
            if mine != theirs:
                return f"row {mine!r} vs reference {theirs!r}"
    got_e, want_e = explanation_view(explanations), explanation_view(reference_explanations)
    if got_e != want_e:
        return f"explanations {got_e} vs reference {want_e}"
    return None
