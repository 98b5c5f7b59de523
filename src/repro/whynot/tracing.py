"""Step 3: data tracing (paper §5.3).

Operators are instrumented to evaluate *relaxed* semantics jointly under all
schema alternatives: selections pass everything, flattens run as outer
flattens, joins as full outer joins — while annotations record, per schema
alternative Sᵢ:

* ``valid``      — does the tuple exist under Sᵢ (``vals[i] is not None``)?
* ``consistent`` — does it (still) match the backtraced NIP at this operator
  (the paper's *re-validation* of compatibles)?
* ``retained``   — would the operator, as written in Sᵢ's query, produce it
  (``None`` when the operator never filters: projection, nesting, ...)?

Like the paper's Spark implementation, which evaluates operators over
annotation columns, each operator's snapshot (:class:`OpTrace`) is stored by
column; per-operator snapshots with parent pointers give Algorithm 4 the
information of the paper's ever-widening annotation columns (see DESIGN.md §5).

Columnar snapshots
------------------

Most SAs differ from the original schema in a handful of operators, so the
relaxed evaluation is *shared*: at every operator the SA indices are
partitioned into groups whose members are indistinguishable — identical
operator parameters/schemas *and* identical input tuples (the *column
sharing* invariant: ``vals[i] is vals[j]`` for every row when i and j share
a group).  A snapshot therefore holds **one value column per SA group**
(``cols[g][k]`` is row k's tuple under every member of group g, ``None``
where the row does not exist there), evaluated once through the group's
representative SA, so tracing cost scales with the number of *distinct
outcomes*, not with the number of SAs (the Fig. 11 axis).

Per-SA flags are bitmask integers held in **mask columns**: ``valid`` and
``consistent`` (one int per row) and ``retained`` (one int per row, or
``None`` for operators that never filter; ``retained_known`` is one value
per operator).  Row k of a snapshot has row id ``base + k + 1``, numbered in
operator order exactly as a row-at-a-time tracer would allocate them.
Operators that are 1:1 with their first child (selection, the narrow
operators, deduplication, difference) store no parents: row k's parent is
row k of that child.  Joins, relation flattens, grouping, union and product
carry a **parent column** of row-id tuples.  Pass-through operators share
the child's value and validity columns outright.

:class:`TRow` objects — one tuple per SA plus masks — are built lazily, only
when a consumer asks for the row views (``OpTrace.rows``,
``TraceResult.rows_by_rid``; the lineage baselines and tests do, Algorithm 4
does not).

Fused narrow runs
-----------------

A *narrow run* is a maximal chain of projection, renaming, tuple flatten,
tuple nesting, nested aggregation and selection operators that starts at an
operator that changes values and ends where the SA partition changes.  Each
SA group traces the whole run in one generated relaxed kernel
(:func:`repro.engine.kernels.trace_kernel`, one ``trace_run`` backend task
per group): selections record retained rows instead of filtering, every
operator's strict and relaxed NIPs are tested against the kernel's column
variables, and only the run's last value column is materialized.  Earlier
operators' columns are :class:`LazyColumns`, built by the per-operator
``trace_narrow`` task on first access (row views, baselines,
re-annotation).  Whenever a group's kernel cannot run — an
unsupported operator or NIP, rows of more than one layout, a bailout or an
error — the whole run is traced operator by operator instead, so snapshots
and errors are identical.

Because the SA groups at an operator are *independent* — each group is
evaluated through its own representative query against its own input
column — each group's share is one batch task dispatched through the
pluggable execution backend (:mod:`repro.engine.backends`): with
``backend="process"`` the per-group relaxed evaluations of an operator run
on separate CPU cores and only the mask merging happens in the driver.  The
serial backend runs the identical task functions inline, so backends are
result-equivalent by construction (asserted over every registered scenario
in ``tests/engine/test_backends.py``).  The row-at-a-time tracer this layout
replaced is kept as the test oracle in :mod:`repro.fuzz.reference`.

Only the ``consistent`` masks depend on the NIP.  :func:`annotate` re-runs
that pass alone over a trace made for SA queries with the same
:func:`sa_signature`, sharing its values, groups, validity, retained masks
and parents; the serving layer answers NIP variants of a query this way.

Aggregate-value constraints in NIPs are checked softly: if no row at an
operator is strictly consistent under some SA, consistency is re-evaluated
against the pattern with aggregate constraints relaxed to ``?`` (the tracer
does not enumerate input subsets for aggregates — paper §5.5 caveat (iii)).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Optional

from repro.algebra.operators import (
    BagDestroy,
    CartesianProduct,
    Deduplication,
    Difference,
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
from repro.engine.backends import (
    ExecutionBackend,
    TaskContext,
    WorkerState,
    get_backend,
    run_task,
)
from repro.engine.database import Database
from repro.nested.values import Bag, Tup
from repro.whynot.alternatives import SchemaAlternative
from repro.whynot.matching import compile_pattern


class UnsupportedOperator(ValueError):
    """Raised when the tracer meets an operator it cannot instrument (map)."""


class TRow:
    """One traced row: a tuple per schema alternative plus bitmask flags.

    ``vals[i]`` is the tuple under SA i (None when the row does not exist
    there); the masks store one bit per SA.  ``retained`` is tri-state: the
    bit in ``retained_known`` says whether the producing operator filters at
    all, ``retained_true`` whether it kept the row.
    """

    __slots__ = (
        "rid",
        "parents",
        "vals",
        "valid_mask",
        "consistent_mask",
        "retained_true",
        "retained_known",
    )

    def __init__(
        self,
        rid: int,
        parents: tuple[int, ...],
        vals: tuple[Optional[Tup], ...],
        valid_mask: int,
        consistent_mask: int = 0,
        retained_true: int = 0,
        retained_known: int = 0,
    ):
        self.rid = rid
        self.parents = parents
        self.vals = vals
        self.valid_mask = valid_mask
        self.consistent_mask = consistent_mask
        self.retained_true = retained_true
        self.retained_known = retained_known

    def valid(self, i: int) -> bool:
        """Does this row exist under schema alternative *i*?"""
        return (self.valid_mask >> i) & 1 == 1

    def consistent_at(self, i: int) -> bool:
        """Does this row match the backtraced NIP under SA *i*?"""
        return (self.consistent_mask >> i) & 1 == 1

    def retained_at(self, i: int) -> Optional[bool]:
        """Tri-state retained flag under SA *i* (None: operator never filters)."""
        if (self.retained_known >> i) & 1 == 0:
            return None
        return (self.retained_true >> i) & 1 == 1

    @property
    def consistent(self) -> tuple[bool, ...]:
        """Tuple view of the consistency bitmask (one bool per SA)."""
        mask = self.consistent_mask
        return tuple(bool((mask >> i) & 1) for i in range(len(self.vals)))

    @property
    def retained(self) -> tuple[Optional[bool], ...]:
        """Tuple view of the tri-state retained flags (one entry per SA)."""
        return tuple(self.retained_at(i) for i in range(len(self.vals)))

    def __repr__(self) -> str:
        return (
            f"TRow(rid={self.rid}, parents={self.parents}, vals={self.vals!r}, "
            f"consistent={self.consistent}, retained={self.retained})"
        )


class SAGroups:
    """A partition of SA indices into indistinguishable groups.

    ``gids[i]`` is the group of SA i, ``reps[g]`` a representative SA of
    group g, ``masks[g]`` the bitmask of its members.  Attached to an
    operator snapshot it asserts the *column sharing* invariant: for every
    row, ``vals[i] is vals[j]`` whenever ``gids[i] == gids[j]``.
    """

    __slots__ = ("gids", "reps", "masks")

    def __init__(self, gids: tuple[int, ...], reps: list[int], masks: list[int]):
        self.gids = gids
        self.reps = reps
        self.masks = masks

    @classmethod
    def single(cls, n: int) -> "SAGroups":
        """The trivial partition: all *n* SAs share one group."""
        return cls((0,) * n, [0], [(1 << n) - 1])

    def __len__(self) -> int:
        return len(self.reps)


def _group_equal(n: int, items: list) -> tuple[int, ...]:
    """Group indices 0..n-1 by (possibly unhashable) equality of *items*."""
    gids: list[int] = []
    reps: list[int] = []
    for i in range(n):
        for g, rep in enumerate(reps):
            if items[i] == items[rep]:
                gids.append(g)
                break
        else:
            gids.append(len(reps))
            reps.append(i)
    return tuple(gids)


def _meet(n: int, *assignments: tuple[int, ...]) -> SAGroups:
    """The common refinement (meet) of several group assignments."""
    key_to_gid: dict[tuple[int, ...], int] = {}
    gids: list[int] = []
    reps: list[int] = []
    masks: list[int] = []
    for i in range(n):
        key = tuple(a[i] for a in assignments)
        gid = key_to_gid.get(key)
        if gid is None:
            gid = len(reps)
            key_to_gid[key] = gid
            reps.append(i)
            masks.append(0)
        gids.append(gid)
        masks[gid] |= 1 << i
    return SAGroups(tuple(gids), reps, masks)


def _or_columns(columns: list[list[int]]) -> list[int]:
    """Row-wise OR of equally long int columns."""
    out = columns[0]
    for column in columns[1:]:
        out = [a | b for a, b in zip(out, column)]
    return out


class LazyColumns:
    """The per-group value columns of an operator inside a fused narrow run.

    The run's kernel materializes only its last operator's columns; column
    g of an earlier operator is evaluated on first access by the
    ``trace_narrow`` task over the same group's column of the operator's
    child snapshot, then kept (so the column-sharing invariant holds).
    """

    __slots__ = ("_state", "_op_id", "_child", "_reps", "_cols")

    def __init__(
        self, state: WorkerState, op_id: int, child: "OpTrace", reps: "list[int]"
    ):
        self._state = state
        self._op_id = op_id
        self._child = child
        self._reps = reps
        self._cols: "list[Optional[list[Optional[Tup]]]]" = [None] * len(reps)

    def __len__(self) -> int:
        return len(self._reps)

    def __getitem__(self, g: int) -> "list[Optional[Tup]]":
        column = self._cols[g]
        if column is None:
            rep = self._reps[g]
            column = self._cols[g] = run_task(
                self._state,
                ("trace_narrow", rep, self._op_id, self._child.column(rep)),
            )
        return column


class OpTrace:
    """Columnar snapshot of one operator's annotated (relaxed) output.

    ``cols[g]`` is the value column of SA group g of ``groups`` (a
    :class:`LazyColumns` inside a fused narrow run); ``valid``,
    ``consistent`` and ``retained`` are per-row bitmask columns (``retained``
    is None when the operator never filters, i.e. ``retained_known == 0``).
    Row k has row id ``base + k + 1``.  ``parents`` is a column of parent
    row-id tuples, or None when row k's only parent is row k of the first
    child (whose snapshot base is ``child_base``; None for table accesses,
    whose rows have no parents).
    """

    __slots__ = (
        "op_id",
        "base",
        "groups",
        "cols",
        "valid",
        "consistent",
        "retained",
        "retained_known",
        "parents",
        "child_base",
        "_rows",
    )

    def __init__(
        self,
        op_id: int,
        base: int,
        groups: SAGroups,
        cols: "list[list[Optional[Tup]]] | LazyColumns",
        valid: list[int],
        retained: Optional[list[int]] = None,
        retained_known: int = 0,
        parents: Optional[list[tuple[int, ...]]] = None,
        child_base: Optional[int] = None,
    ):
        self.op_id = op_id
        self.base = base
        self.groups = groups
        self.cols = cols
        self.valid = valid
        self.consistent: list[int] = [0] * len(valid)
        self.retained = retained
        self.retained_known = retained_known
        self.parents = parents
        self.child_base = child_base
        self._rows: Optional[list[TRow]] = None

    def relaxed(self) -> "OpTrace":
        """A snapshot sharing this one's relaxed evaluation (values, groups,
        validity, retained flags, parents) with an empty ``consistent`` column."""
        return OpTrace(
            self.op_id, self.base, self.groups, self.cols, self.valid,
            self.retained, self.retained_known, self.parents, self.child_base,
        )

    @property
    def count(self) -> int:
        """Number of traced rows at this operator."""
        return len(self.valid)

    def column(self, i: int) -> list[Optional[Tup]]:
        """The value column of schema alternative *i*."""
        return self.cols[self.groups.gids[i]]

    def parents_of(self, k: int) -> tuple[int, ...]:
        """Parent row ids of row *k*."""
        if self.parents is not None:
            return self.parents[k]
        if self.child_base is None:
            return ()
        return (self.child_base + k + 1,)

    def parent_rids(self, rids: Iterable[int]) -> "set[int]":
        """Parent row ids of the given rows of this snapshot."""
        if self.parents is not None:
            parents, offset = self.parents, self.base + 1
            return {p for rid in rids for p in parents[rid - offset]}
        if self.child_base is None:
            return set()
        shift = self.child_base - self.base
        return {rid + shift for rid in rids}

    @property
    def rows(self) -> list[TRow]:
        """Row-at-a-time view of the snapshot (built on first access)."""
        if self._rows is None:
            cols, gids = self.cols, self.groups.gids
            retained = self.retained
            known = self.retained_known
            consistent = self.consistent
            base = self.base
            self._rows = [
                TRow(
                    base + k + 1,
                    self.parents_of(k),
                    tuple(cols[g][k] for g in gids),
                    valid,
                    consistent[k],
                    retained[k] if retained is not None else 0,
                    known,
                )
                for k, valid in enumerate(self.valid)
            ]
        return self._rows


def parent_reader(
    children: "list[OpTrace]", columns: "list[list]"
) -> Callable[[int], Any]:
    """Look up a per-row value of a child snapshot by row id.

    ``columns[c]`` is a column aligned with ``children[c]``; the returned
    function maps a row id of any child to its entry.
    """
    if len(children) == 1:
        column, offset = columns[0], children[0].base + 1
        return lambda rid: column[rid - offset]
    bounds = sorted(
        ((c.base, column) for c, column in zip(children, columns) if c.count),
        key=lambda bound: bound[0],
    )
    starts = [b for b, _ in bounds]

    def read(rid: int) -> Any:
        base, column = bounds[bisect_right(starts, rid - 1) - 1]
        return column[rid - base - 1]

    return read


@dataclass
class TraceResult:
    """All per-operator snapshots plus lazily built row views."""

    traces: dict[int, OpTrace]
    root_id: int
    n_sas: int

    def final_rows(self) -> list[TRow]:
        """The traced rows of the root operator (the relaxed final result)."""
        return self.traces[self.root_id].rows

    @cached_property
    def rows_by_rid(self) -> dict[int, TRow]:
        """Every traced row by id, parents before children (built lazily)."""
        return {row.rid: row for snap in self.traces.values() for row in snap.rows}

    @cached_property
    def op_of_rid(self) -> dict[int, int]:
        """The producing operator of every traced row id (built lazily)."""
        return {
            snap.base + k + 1: op_id
            for op_id, snap in self.traces.items()
            for k in range(snap.count)
        }

    def ancestors(self, rids: "set[int] | list[int]") -> set[int]:
        """Transitive parents of the given rows (including themselves)."""
        rows = self.rows_by_rid
        seen: set[int] = set()
        stack = list(rids)
        while stack:
            rid = stack.pop()
            if rid in seen:
                continue
            seen.add(rid)
            stack.extend(rows[rid].parents)
        return seen

    def materialize(self) -> None:
        """Evaluate every lazy value column of the fused narrow runs now, so
        that later readers, on any thread, only read."""
        for snap in self.traces.values():
            if isinstance(snap.cols, LazyColumns):
                for g in range(len(snap.cols)):
                    snap.cols[g]

    def total_rows(self) -> int:
        """Total number of traced rows across all operators."""
        return sum(snap.count for snap in self.traces.values())


class Tracer:
    """Runs the instrumented evaluation for a list of schema alternatives."""

    def __init__(
        self,
        query: Query,
        db: Database,
        sas: list[SchemaAlternative],
        revalidate: bool = True,
        backend: "str | ExecutionBackend | None" = None,
    ):
        self.query = query
        self.db = db
        self.sas = sas
        self.revalidate = revalidate
        self.n = len(sas)
        self._full_mask = (1 << self.n) - 1
        self._next_base = 0
        # Per-SA operator views and schemas.
        self._ops = {
            op.op_id: [sa.query.op(op.op_id) for sa in sas] for op in query.ops
        }
        self._schemas = [sa.query.infer_schemas(db) for sa in sas]
        self._op_group_cache: dict[int, tuple[int, ...]] = {}
        # Consistency scans by column id: (column, [(pattern, hits), ...]).
        self._scans: dict[int, tuple[list, list]] = {}
        self.backend = get_backend(backend)
        self._task_context = TaskContext(
            query, db, tuple(sa.query for sa in sas)
        )

    def _run_group_tasks(self, tasks: list[tuple]) -> list:
        """Evaluate one task per SA group through the execution backend.

        A single group (or a serial backend) runs inline; with the process
        backend the groups evaluate on separate cores and the caller merges
        the returned per-group columns into mask columns.
        """
        if len(tasks) <= 1 or self.backend.workers <= 1:
            state = self._task_context.local_state()
            return [run_task(state, task) for task in tasks]
        return self.backend.run(self._task_context, tasks)

    # -- public entry --------------------------------------------------------

    def run(self) -> TraceResult:
        """Trace every operator bottom-up and assemble the :class:`TraceResult`."""
        result = TraceResult({}, self.query.root.op_id, self.n)
        ops = self.query.ops
        per_op_until = 0
        for i, op in enumerate(ops):
            if op.op_id in result.traces:
                continue  # traced by a fused run
            children = [result.traces[c.op_id] for c in op.children]
            if i >= per_op_until:
                run, groups = self._narrow_run(ops, i, children)
                if run and self._trace_run(run, children[0], groups, result):
                    continue
                per_op_until = i + len(run)
            snap = self._trace_op(op, children)
            self._next_base += snap.count
            self._annotate_consistency(op, snap, children)
            result.traces[op.op_id] = snap
        return result

    def annotate(self, relaxed: TraceResult) -> TraceResult:
        """Re-run only the consistency annotation over *relaxed*'s columns.

        *relaxed* must have been traced for SA queries equal to this
        tracer's (:func:`sa_signature`): its value columns, validity,
        retained masks, parents and SA groups then hold for these SAs too,
        and only the ``consistent`` columns, which test each SA's backtraced
        NIP, are computed afresh, operator by operator.
        """
        result = TraceResult({}, relaxed.root_id, self.n)
        for op in self.query.ops:
            snap = relaxed.traces[op.op_id].relaxed()
            children = [result.traces[c.op_id] for c in op.children]
            self._annotate_consistency(op, snap, children)
            result.traces[op.op_id] = snap
        return result

    # -- helpers -------------------------------------------------------------

    def _snapshot(self, op: Operator, groups: SAGroups, cols, valid, **kw) -> OpTrace:
        return OpTrace(op.op_id, self._next_base, groups, cols, valid, **kw)

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

    def _group_flags(
        self, groups: SAGroups, columns: list[list], test: Callable[[int, Any], bool]
    ) -> list[int]:
        """OR of ``masks[g]`` over the groups whose value passes ``test(g, v)``.

        ``columns[g]`` is group g's value column; missing values never pass.
        """
        return _or_columns(
            [
                [mask if v is not None and test(g, v) else 0 for v in column]
                for g, (mask, column) in enumerate(zip(groups.masks, columns))
            ]
        )

    def _annotate_consistency(
        self, op: Operator, snap: OpTrace, children: list[OpTrace]
    ) -> None:
        """Fill the ``consistent`` column, with the soft aggregate fallback."""
        if not self.revalidate and not isinstance(op, TableAccess):
            # Ablation: inherit compatibility from the parents (lineage-style
            # blind successor tracking, no re-validation).
            if snap.parents is None:
                inherited = children[0].consistent
                snap.consistent = [v & c for v, c in zip(snap.valid, inherited)]
                return
            read = parent_reader(children, [c.consistent for c in children])
            consistent = snap.consistent
            for k, (valid, parents) in enumerate(zip(snap.valid, snap.parents)):
                inherited = 0
                for p in parents:
                    inherited |= read(p)
                consistent[k] = valid & inherited
            return
        n = self.n
        strict = [self.sas[i].backtrace.nip_at[op.op_id] for i in range(n)]
        relaxed = [self.sas[i].backtrace.relaxed_at[op.op_id] for i in range(n)]
        # Refine the column groups by pattern equality: within a subgroup the
        # match flags are identical, so scan the group's column once.
        sub_keys: list[tuple[int, Any, Any]] = []
        sub_masks: list[int] = []
        for i in range(n):
            key = (snap.groups.gids[i], strict[i], relaxed[i])
            for g, existing in enumerate(sub_keys):
                if existing == key:
                    sub_masks[g] |= 1 << i
                    break
            else:
                sub_keys.append(key)
                sub_masks.append(1 << i)
        consistent = snap.consistent
        for (gid, s_pat, r_pat), gmask in zip(sub_keys, sub_masks):
            column = snap.cols[gid]
            hits = self._matching_rows(column, s_pat)
            if not hits and s_pat != r_pat:
                hits = self._matching_rows(column, r_pat)
            for k in hits:
                consistent[k] |= gmask

    def _matching_rows(self, column: list[Optional[Tup]], pattern: Any) -> list[int]:
        """Indices of the present values in *column* that match *pattern*.

        Within an SA subgroup validity is uniform (column sharing) and a row
        is valid exactly where its value is present, so one scan serves the
        whole subgroup.  Pass-through operators share their child's columns
        and usually its NIP, so scans are memoised per column and pattern.
        """
        scans = self._scans.setdefault(id(column), (column, []))[1]
        for seen, hits in scans:
            if seen == pattern:
                return hits
        match = compile_pattern(pattern)
        hits = [k for k, v in enumerate(column) if v is not None and match(v)]
        scans.append((pattern, hits))
        return hits

    # -- fused narrow runs -----------------------------------------------------

    def _narrow_run(
        self, ops: "list[Operator]", i: int, children: "list[OpTrace]"
    ) -> "tuple[list[Operator], Optional[SAGroups]]":
        """The narrow run starting at ``ops[i]`` and its SA groups.

        Empty unless ``ops[i]`` changes values; the run then extends over
        its unary narrow or selection parents while they keep the first
        operator's SA partition.
        """
        op = ops[i]
        if not isinstance(op, _VALUE_NARROW):
            return [], None
        groups = self._meet_for(op, children[0].groups)
        run = [op]
        for parent in ops[i + 1:]:
            if (
                not isinstance(parent, _VALUE_NARROW + (Selection,))
                or parent.children[0] is not run[-1]
                or self._meet_for(parent, groups).gids != groups.gids
            ):
                break
            run.append(parent)
        return run, groups

    def _trace_run(
        self,
        run: "list[Operator]",
        child: OpTrace,
        groups: SAGroups,
        result: TraceResult,
    ) -> bool:
        """Trace a narrow run with one kernel per SA group (see the module
        notes); False, with nothing recorded, when any group's kernel cannot
        run and the run must be traced operator by operator."""
        op_ids = tuple(op.op_id for op in run)
        # Per group: the distinct NIPs of its members and, per operator, the
        # distinct (strict, relaxed) NIP index pairs with their SA masks.
        nips: list[list] = [[] for _ in groups.reps]
        checks: "list[list[dict[tuple[int, Optional[int]], int]]]" = [
            [{} for _ in run] for _ in groups.reps
        ]
        if self.revalidate:
            for j, op in enumerate(run):
                for i, sa in enumerate(self.sas):
                    g = groups.gids[i]
                    strict = _index_of(nips[g], sa.backtrace.nip_at[op.op_id])
                    relaxed = _index_of(nips[g], sa.backtrace.relaxed_at[op.op_id])
                    pair = (strict, None if relaxed == strict else relaxed)
                    checks[g][j][pair] = checks[g][j].get(pair, 0) | 1 << i
        results = self._run_group_tasks(
            [
                (
                    "trace_run", rep, op_ids, child.column(rep),
                    tuple(nips[g]), tuple(tuple(c) for c in checks[g]),
                )
                for g, rep in enumerate(groups.reps)
            ]
        )
        if any(r is None for r in results):
            return False
        state = self._task_context.local_state()
        last_value = max(j for j, op in enumerate(run) if not isinstance(op, Selection))
        n = child.count
        prev = child
        flag = 0
        for j, op in enumerate(run):
            if isinstance(op, Selection):
                retained = [0] * n
                for mask, r in zip(groups.masks, results):
                    for k in r[1][flag]:
                        retained[k] |= mask
                flag += 1
                snap = self._snapshot(
                    op, prev.groups, prev.cols, prev.valid,
                    retained=retained, retained_known=self._full_mask,
                    child_base=prev.base,
                )
            else:
                cols = (
                    [r[0] for r in results]
                    if j == last_value
                    else LazyColumns(state, op.op_id, prev, groups.reps)
                )
                snap = self._snapshot(op, groups, cols, prev.valid, child_base=prev.base)
            self._next_base += snap.count
            if self.revalidate:
                consistent = snap.consistent
                for g, r in enumerate(results):
                    for hits, sa_mask in zip(r[2][j], checks[g][j].values()):
                        for k in hits:
                            consistent[k] |= sa_mask
            else:
                self._annotate_consistency(op, snap, [prev])
            result.traces[op.op_id] = snap
            prev = snap
        return True

    # -- per-operator tracing --------------------------------------------------

    def _trace_op(self, op: Operator, children: list[OpTrace]) -> OpTrace:
        if isinstance(op, TableAccess):
            return self._trace_table(op)
        if isinstance(op, Selection):
            return self._trace_selection(op, children[0])
        if isinstance(op, _VALUE_NARROW):
            return self._trace_narrow(op, children[0])
        if isinstance(op, RelationFlatten):
            return self._trace_flatten(op, children[0])
        if isinstance(op, Join):
            return self._trace_join(op, children)
        if isinstance(op, (RelationNesting, GroupAggregation)):
            return self._trace_grouping(op, children[0])
        if isinstance(op, Union):
            return self._trace_union(op, children)
        if isinstance(op, Deduplication):
            return self._trace_passthrough(op, children[0])
        if isinstance(op, Difference):
            return self._trace_difference(op, children)
        if isinstance(op, CartesianProduct):
            return self._trace_product(op, children)
        if isinstance(op, Map):
            raise UnsupportedOperator("data tracing does not support map (paper §5.5)")
        if isinstance(op, BagDestroy):
            raise UnsupportedOperator("data tracing does not support bag-destroy")
        raise UnsupportedOperator(f"no tracing rule for {type(op).__name__}")

    def _trace_table(self, op: TableAccess) -> OpTrace:
        full = self._full_mask
        column = list(self.db.relation(op.table))
        every = [full] * len(column)
        return self._snapshot(
            op, SAGroups.single(self.n), [column], every,
            retained=every, retained_known=full,
        )

    def _trace_selection(self, op: Selection, child: OpTrace) -> OpTrace:
        mg = self._meet_for(op, child.groups)
        preds = [self._sa_op(op, rep).pred.compile() for rep in mg.reps]
        retained = self._group_flags(
            mg, [child.column(rep) for rep in mg.reps], lambda g, v: preds[g](v)
        )
        # Selections pass tuples through unchanged: column sharing persists.
        return self._snapshot(
            op, child.groups, child.cols, child.valid,
            retained=retained, retained_known=self._full_mask, child_base=child.base,
        )

    def _trace_narrow(self, op: Operator, child: OpTrace) -> OpTrace:
        """Non-filtering 1:1 unary operators: one batch per group column.

        A row exists under an SA exactly when its parent does, so validity
        is the child's column.
        """
        groups = self._meet_for(op, child.groups)
        cols = self._run_group_tasks(
            [("trace_narrow", rep, op.op_id, child.column(rep)) for rep in groups.reps]
        )
        return self._snapshot(op, groups, cols, child.valid, child_base=child.base)

    def _trace_flatten(self, op: RelationFlatten, child: OpTrace) -> OpTrace:
        """Algorithm 3: run as outer flatten per SA group, merge by parent.

        Each group returns its flattened tuples, the positions a padded
        (non-outer) expansion makes unretained, and per-parent expansion
        counts; the k-th expansions of one parent across groups share a row.
        """
        groups = self._meet_for(op, child.groups)
        full = self._full_mask
        offset = child.base + 1
        results = self._run_group_tasks(
            [("trace_flatten", rep, op.op_id, child.column(rep)) for rep in groups.reps]
        )
        if len(results) == 1:
            column, unretained, counts = results[0]
            parents: list[tuple[int, ...]] = []
            for p, c in enumerate(counts):
                if c:
                    parents += [(offset + p,)] * c
            retained = [full] * len(column)
            for pos in unretained:
                retained[pos] = 0
            return self._snapshot(
                op, groups, [column], [full] * len(column),
                retained=retained, retained_known=full, parents=parents,
            )
        n_groups = len(results)
        cols: list[list[Optional[Tup]]] = [[] for _ in range(n_groups)]
        dropped = [frozenset(r[1]) for r in results]
        starts = [0] * n_groups
        valid: list[int] = []
        retained = []
        parents = []
        masks = groups.masks
        for p in range(child.count):
            widths = [r[2][p] for r in results]
            parent = (offset + p,)
            for k in range(max(widths)):
                valid_mask = 0
                retained_true = 0
                for g, result in enumerate(results):
                    if k < widths[g]:
                        pos = starts[g] + k
                        cols[g].append(result[0][pos])
                        valid_mask |= masks[g]
                        if pos not in dropped[g]:
                            retained_true |= masks[g]
                    else:
                        cols[g].append(None)
                valid.append(valid_mask)
                retained.append(retained_true)
                parents.append(parent)
            for g in range(n_groups):
                starts[g] += widths[g]
        return self._snapshot(
            op, groups, cols, valid,
            retained=retained, retained_known=full, parents=parents,
        )

    def _trace_join(self, op: Join, children: list[OpTrace]) -> OpTrace:
        """Relaxed join: full-outer semantics per SA group, merged across."""
        left, right = children
        groups = self._meet_for(op, left.groups, right.groups)
        reps = groups.reps
        masks = groups.masks
        full = self._full_mask
        n_groups = len(reps)
        l_off, r_off = left.base + 1, right.base + 1

        # Each group's full-outer match set is an independent task: workers
        # return {(left_idx, right_idx): combined} plus the matched index
        # sets; pads (cheap, schema-derived) stay in the driver.
        results = self._run_group_tasks(
            [
                ("trace_join", rep, op.op_id, left.column(rep), right.column(rep))
                for rep in reps
            ]
        )
        match_sets: list[dict[tuple[int, int], Tup]] = [r[0] for r in results]
        sa_ops: list[Join] = [self._sa_op(op, rep) for rep in reps]  # type: ignore[misc]
        cols: list[list[Optional[Tup]]] = [[] for _ in range(n_groups)]
        valid: list[int] = []
        parents: list[tuple[int, ...]] = []
        if n_groups == 1:
            cols[0] = list(match_sets[0].values())
            parents = [(l_off + ldx, r_off + jdx) for ldx, jdx in match_sets[0]]
            valid = [full] * len(parents)
        else:
            all_pairs: dict[tuple[int, int], None] = {}
            for matches_g in match_sets:
                all_pairs.update(dict.fromkeys(matches_g))
            for pair in all_pairs:
                valid_mask = 0
                for g, matches_g in enumerate(match_sets):
                    combined = matches_g.get(pair)
                    cols[g].append(combined)
                    if combined is not None:
                        valid_mask |= masks[g]
                valid.append(valid_mask)
                parents.append((l_off + pair[0], r_off + pair[1]))
        # Join pairs are retained exactly where they exist.
        retained = list(valid)

        # Rows without partner: padded (tracks tuples that an outer join
        # variant would keep — needed to reparameterize the join type).
        left_id, right_id = (c.op_id for c in op.children)
        schemas = [self._schemas[rep] for rep in reps]
        right_pads = [
            sa_op._pad(s[right_id], sa_op._right_drop()) for sa_op, s in zip(sa_ops, schemas)
        ]
        left_pads = [sa_op._pad(s[left_id]) for sa_op, s in zip(sa_ops, schemas)]

        def pad_left(g: int, v: Tup) -> Tup:
            return v.concat(right_pads[g])

        def pad_right(g: int, v: Tup) -> Tup:
            drop = sa_ops[g]._right_drop()
            return left_pads[g].concat(v.drop(drop) if drop else v)

        for side, matched_at, keeps, pad in (
            (left, 1, ("left", "full"), pad_left),
            (right, 2, ("right", "full"), pad_right),
        ):
            in_cols = [side.column(rep) for rep in reps]
            matched = [r[matched_at] for r in results]
            offset = side.base + 1
            for idx in range(side.count):
                valid_mask = 0
                retained_true = 0
                outs: list[Optional[Tup]] = []
                for g in range(n_groups):
                    v = in_cols[g][idx]
                    if v is None or idx in matched[g]:
                        outs.append(None)
                        continue
                    outs.append(pad(g, v))
                    valid_mask |= masks[g]
                    if sa_ops[g].how in keeps:
                        retained_true |= masks[g]
                if not valid_mask:
                    continue
                for g in range(n_groups):
                    cols[g].append(outs[g])
                valid.append(valid_mask)
                retained.append(retained_true)
                parents.append((offset + idx,))
        return self._snapshot(
            op, groups, cols, valid,
            retained=retained, retained_known=full, parents=parents,
        )

    def _trace_grouping(
        self, op: "RelationNesting | GroupAggregation", child: OpTrace
    ) -> OpTrace:
        """Figure 7's four steps: per-SA-group nest/aggregate valid rows, then
        merge the per-group results full-outer-join-style on the group key."""
        groups = self._meet_for(op, child.groups)
        reps = groups.reps
        masks = groups.masks
        offset = child.base + 1
        merged: dict[Tup, dict[int, tuple[Tup, list[int]]]] = {}

        # Per-group nest/aggregate runs as independent tasks returning
        # ``(key, out, member_indices)`` buckets; the driver merges them
        # full-outer-join-style on the group key.
        results = self._run_group_tasks(
            [("trace_group", rep, op.op_id, child.column(rep)) for rep in reps]
        )
        for g, buckets in enumerate(results):
            for key, out, member_idxs in buckets:
                merged.setdefault(key, {})[g] = (out, member_idxs)
        cols: list[list[Optional[Tup]]] = [[] for _ in reps]
        valid: list[int] = []
        parents: list[tuple[int, ...]] = []
        for slot in merged.values():
            valid_mask = 0
            for g in range(len(reps)):
                entry = slot.get(g)
                cols[g].append(entry[0] if entry is not None else None)
                if entry is not None:
                    valid_mask |= masks[g]
            valid.append(valid_mask)
            members = dict.fromkeys(i for _, idxs in slot.values() for i in idxs)
            parents.append(tuple(offset + i for i in members))
        return self._snapshot(op, groups, cols, valid, parents=parents)

    def _trace_union(self, op: Union, children: list[OpTrace]) -> OpTrace:
        groups = _meet(self.n, *(c.groups.gids for c in children))
        cols = [
            [v for c in children for v in c.column(rep)] for rep in groups.reps
        ]
        valid = [m for c in children for m in c.valid]
        parents = [
            (c.base + k + 1,) for c in children for k in range(c.count)
        ]
        return self._snapshot(op, groups, cols, valid, parents=parents)

    def _trace_passthrough(self, op: Operator, child: OpTrace) -> OpTrace:
        return self._snapshot(
            op, child.groups, child.cols, child.valid, child_base=child.base
        )

    def _trace_difference(self, op: Difference, children: list[OpTrace]) -> OpTrace:
        left, right = children
        mg = _meet(self.n, left.groups.gids, right.groups.gids)
        right_bags = [
            Bag(v for v in right.column(rep) if v is not None) for rep in mg.reps
        ]
        retained = self._group_flags(
            mg,
            [left.column(rep) for rep in mg.reps],
            lambda g, v: right_bags[g].mult(v) == 0,
        )
        return self._snapshot(
            op, left.groups, left.cols, left.valid,
            retained=retained, retained_known=self._full_mask, child_base=left.base,
        )

    def _trace_product(self, op: CartesianProduct, children: list[OpTrace]) -> OpTrace:
        left, right = children
        if left.count * right.count > 250_000:
            raise UnsupportedOperator(
                "cartesian product too large to trace; the paper's algorithm "
                "avoids cross products (§5.5)"
            )
        groups = _meet(self.n, left.groups.gids, right.groups.gids)
        cols = [
            [
                lv.concat(rv) if lv is not None and rv is not None else None
                for lv in left.column(rep)
                for rv in right.column(rep)
            ]
            for rep in groups.reps
        ]
        valid = _or_columns(
            [
                [mask if v is not None else 0 for v in column]
                for mask, column in zip(groups.masks, cols)
            ]
        )
        l_off, r_off = left.base + 1, right.base + 1
        parents = [
            (l_off + l, r_off + r) for l in range(left.count) for r in range(right.count)
        ]
        return self._snapshot(op, groups, cols, valid, parents=parents)


#: Non-filtering 1:1 unary operators that change values: a narrow run's
#: first operator (the run may continue with selections).
_VALUE_NARROW = (Projection, Renaming, TupleFlatten, TupleNesting, NestedAggregation)


def _index_of(items: list, value: Any) -> int:
    """Position of *value* in *items* by equality, appending it if absent."""
    for k, item in enumerate(items):
        if item == value:
            return k
    items.append(value)
    return len(items) - 1


def sa_signature(sas: "list[SchemaAlternative]") -> tuple:
    """What a relaxed trace depends on besides the database: per SA, every
    operator's id, type and parameters (the equality SA groups are built on).

    Two SA lists with equal signatures share value columns, validity,
    retained masks and parents; only their consistency annotation differs.
    """
    return tuple(
        tuple((op.op_id, type(op), op.params()) for op in sa.query.ops) for sa in sas
    )


def annotate(
    relaxed: TraceResult,
    query: Query,
    db: Database,
    sas: list[SchemaAlternative],
    revalidate: bool = True,
) -> TraceResult:
    """Annotate *relaxed* for *sas*, whose :func:`sa_signature` must equal
    that of the SAs it was traced for (see :meth:`Tracer.annotate`)."""
    return Tracer(query, db, sas, revalidate=revalidate, backend="serial").annotate(
        relaxed
    )


def trace(
    query: Query,
    db: Database,
    sas: list[SchemaAlternative],
    revalidate: bool = True,
    backend: "str | ExecutionBackend | None" = None,
) -> TraceResult:
    """Run the instrumented (relaxed) evaluation for all schema alternatives.

    *backend* selects where independent SA groups evaluate (see
    :mod:`repro.engine.backends`); results are backend-invariant.
    """
    return Tracer(query, db, sas, revalidate=revalidate, backend=backend).run()
