"""Partition-aware NRAB plan executor (the Spark stand-in).

The executor evaluates a :class:`~repro.algebra.operators.Query` with
distributed-style execution: relations are hash-partitioned, *narrow*
operators (selection, projection, flatten, ...) are fused into per-partition
task chains, and *wide* operators (joins, grouping, deduplication) shuffle
rows by key first, exactly like Spark's stages.  Every per-partition task
runs in the calling process, and per-operator metrics (rows in/out,
shuffled rows, wall/cpu time) are merged from the tasks; they feed the
runtime benchmarks of Figures 8–11.  Multi-core serving runs whole
requests in parallel instead (``serve --processes N``).

Shuffles use :func:`repro.engine.hashing.stable_hash`, so partition
assignment (and every metric derived from it) is identical across processes
regardless of ``PYTHONHASHSEED``.  Keys are computed once by the operator's
compiled key function during the shuffle and handed to the per-partition
``eval_keyed`` evaluation — never recomputed inside the partition.

Correctness does not depend on partitioning: for every plan and every
partition count the executor's result equals ``Query.evaluate`` (tested
property-style, over all registered scenario queries, in
``tests/engine/test_executor.py`` and ``tests/engine/test_backends.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

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
from repro.engine.columnar import (
    group_key_scatter,
    join_key_scatter,
    merge_kernel_info,
    new_kernel_info,
    task_kernel_chain,
)
from repro.engine.database import Database
from repro.engine.hashing import stable_hash
from repro.engine.metrics import ExecutionMetrics, OperatorMetrics
from repro.engine.optimizer import OptimizationReport, optimize_query, resolve_optimize
from repro.nested.values import Bag, Tup

Partitions = list[list[Tup]]
KeyedPartitions = list[list[tuple[Any, Tup]]]

_NARROW_OPS = (
    Projection,
    Renaming,
    Selection,
    TupleFlatten,
    RelationFlatten,
    TupleNesting,
    NestedAggregation,
    Map,
    BagDestroy,
)


@dataclass
class _Segment:
    """One unit of the stage plan.

    ``chain`` segments hold a maximal run of narrow operators fused into one
    per-partition task; every other kind holds a single operator.
    """

    kind: str  # "source" | "chain" | "wide" | "union" | "driver"
    ops: list[Operator]


def build_segments(query: Query) -> list[_Segment]:
    """Group the plan's operators into fused execution segments.

    A narrow operator joins its child's chain when the child is itself part
    of a narrow chain whose output no other operator consumes — the fused
    chain then runs as a single per-partition task without materializing the
    intermediate partitions (Spark's stage/pipelining rule).
    """
    consumers: dict[int, int] = {op.op_id: 0 for op in query.ops}
    for op in query.ops:
        for child in op.children:
            consumers[child.op_id] += 1
    consumers[query.root.op_id] += 1  # the final result is a consumer too

    segments: list[_Segment] = []
    segment_of: dict[int, _Segment] = {}
    for op in query.ops:
        if isinstance(op, TableAccess):
            segment = _Segment("source", [op])
        elif isinstance(op, _NARROW_OPS):
            child = op.children[0]
            tail = segment_of.get(child.op_id)
            if tail is not None and tail.kind == "chain" and consumers[child.op_id] == 1:
                tail.ops.append(op)
                segment_of[op.op_id] = tail
                continue
            segment = _Segment("chain", [op])
        elif isinstance(
            op, (Join, GroupAggregation, RelationNesting, Deduplication, Difference)
        ):
            segment = _Segment("wide", [op])
        elif isinstance(op, Union):
            segment = _Segment("union", [op])
        else:  # CartesianProduct and future operators: gather + driver eval
            segment = _Segment("driver", [op])
        segments.append(segment)
        segment_of[op.op_id] = segment
    return segments


class Executor:
    """Evaluates query plans with partitioned execution.

    ``optimize`` runs the logical plan optimizer
    (:mod:`repro.engine.optimizer`) before execution; ``None`` defers to the
    ``REPRO_OPTIMIZE`` environment variable.  Results are identical either
    way — the optimizer's equivalence suite enforces it for every scenario —
    and ``last_report`` keeps the rewrite provenance of the last run.

    Each fused narrow chain runs as one cached generated kernel per
    partition, falling back to the row-at-a-time operators for a partition
    the kernel cannot reproduce, and wide operators extract their shuffle
    keys column-at-a-time (:mod:`repro.engine.columnar`).
    """

    def __init__(
        self,
        num_partitions: int = 4,
        optimize: Optional[bool] = None,
    ):
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions
        self.optimize = resolve_optimize(optimize)
        self.last_metrics: Optional[ExecutionMetrics] = None
        self.last_report: Optional[OptimizationReport] = None

    def execute(self, query: Query, db: Database) -> Bag:
        """Run *query* over *db*; metrics are stored in ``last_metrics``."""
        started = time.perf_counter()
        report: Optional[OptimizationReport] = None
        if self.optimize:
            report = optimize_query(query, db)
            query = report.optimized
        self.last_report = report
        ctx = EvalContext(db, query.infer_schemas(db))
        metrics = ExecutionMetrics(kernels=new_kernel_info())
        cache: dict[int, Partitions] = {}
        memo: dict = {}  # this execution's kernels by (chain op ids, layout)
        for segment in build_segments(query):
            self._run_segment(segment, cache, ctx, memo, metrics)
        metrics.wall_seconds = time.perf_counter() - started
        if report is not None:
            metrics.optimizer = report.summary()
            metrics.optimizer["rewrite_seconds"] = report.rewrite_seconds
            for op_id, m in metrics.operators.items():
                origins = report.origin_of.get(op_id, ())
                if origins != (op_id,):
                    m.origins = origins
        self.last_metrics = metrics
        rows = [t for part in cache[query.root.op_id] for t in part]
        return Bag(rows)

    # -- partitioning helpers ------------------------------------------------

    def _partition_round_robin(self, rows: list[Tup]) -> Partitions:
        # Stride slicing assigns row i to partition i % n, like the obvious
        # append loop, but each partition is materialized in one C-level slice.
        return [rows[i :: self.num_partitions] for i in range(self.num_partitions)]

    def _shuffle_by_key(
        self, parts: Partitions, key_fn, metrics: OperatorMetrics
    ) -> Partitions:
        """Repartition rows by ``stable_hash(key_fn(row))`` (rows only)."""
        out: Partitions = [[] for _ in range(self.num_partitions)]
        for part in parts:
            for row in part:
                target = stable_hash(key_fn(row)) % self.num_partitions
                out[target].append(row)
                metrics.shuffled_rows += 1
        return out

    def _shuffle_keyed(
        self,
        parts: Partitions,
        scatter: "Callable[[list, int, list], int]",
        metrics: OperatorMetrics,
    ) -> KeyedPartitions:
        """Repartition rows by key, keeping the computed key with each row.

        *scatter* (:func:`~repro.engine.columnar.join_key_scatter` or
        :func:`~repro.engine.columnar.group_key_scatter`) extracts each
        partition's key column over the shared layout, hashes it in one
        sweep and places the ``(key, row)`` pairs; ``None`` keys (⊥-valued
        join keys) go to partition 0 so outer joins can still emit their
        padded rows exactly once.
        """
        out: KeyedPartitions = [[] for _ in range(self.num_partitions)]
        for part in parts:
            metrics.shuffled_rows += scatter(part, self.num_partitions, out)
        return out

    def _gather(self, parts: Partitions, metrics: OperatorMetrics) -> list[Tup]:
        metrics.shuffled_rows += sum(len(p) for p in parts)
        return [t for p in parts for t in p]

    # -- segment execution ---------------------------------------------------

    def _op_metrics(self, metrics: ExecutionMetrics, op: Operator) -> OperatorMetrics:
        m = metrics.operators.get(op.op_id)
        if m is None:
            m = OperatorMetrics(op.op_id, op.label, partitions=self.num_partitions)
            metrics.operators[op.op_id] = m
        return m

    def _run_segment(
        self,
        segment: _Segment,
        cache: dict[int, Partitions],
        ctx: EvalContext,
        memo: dict,
        metrics: ExecutionMetrics,
    ) -> None:
        started = time.perf_counter()
        if segment.kind == "source":
            op = segment.ops[0]
            m = self._op_metrics(metrics, op)
            rows = op.eval_rows([], ctx)
            cache[op.op_id] = self._partition_round_robin(rows)
            m.rows_out = len(rows)
            m.wall_seconds += time.perf_counter() - started
            m.cpu_seconds = m.wall_seconds
            return
        if segment.kind == "chain":
            self._run_chain(segment, cache, ctx, memo, metrics, started)
            return
        if segment.kind == "union":
            op = segment.ops[0]
            m = self._op_metrics(metrics, op)
            left, right = (cache[c.op_id] for c in op.children)
            cache[op.op_id] = [l_part + r_part for l_part, r_part in zip(left, right)]
            m.rows_in = sum(len(p) for parts in (left, right) for p in parts)
            m.rows_out = m.rows_in
            m.wall_seconds += time.perf_counter() - started
            m.cpu_seconds = m.wall_seconds
            return
        if segment.kind == "wide":
            self._run_wide(segment.ops[0], cache, ctx, metrics, started)
            return
        # "driver": gather everything and evaluate globally (cartesian
        # product and any future operator without a partitioning rule).
        op = segment.ops[0]
        m = self._op_metrics(metrics, op)
        child_parts = [cache[c.op_id] for c in op.children]
        m.rows_in = sum(len(p) for parts in child_parts for p in parts)
        gathered = [self._gather(parts, m) for parts in child_parts]
        rows = op.eval_rows(gathered, ctx)
        cache[op.op_id] = self._partition_round_robin(rows)
        m.rows_out = len(rows)
        m.wall_seconds += time.perf_counter() - started
        m.cpu_seconds = m.wall_seconds

    def _run_chain(
        self,
        segment: _Segment,
        cache: dict[int, Partitions],
        ctx: EvalContext,
        memo: dict,
        metrics: ExecutionMetrics,
        started: float,
    ) -> None:
        ops = segment.ops
        child_parts = cache[ops[0].children[0].op_id]
        # Register metrics in plan order before merging task stats.
        per_op = {op.op_id: self._op_metrics(metrics, op) for op in ops}
        results = [task_kernel_chain(ops, part, ctx, memo) for part in child_parts]
        cache[ops[-1].op_id] = [rows for rows, _, _ in results]
        for _, stats, info in results:
            for op_id, n_in, n_out, seconds in stats:
                per_op[op_id].absorb_task(n_in, n_out, seconds)
            merge_kernel_info(metrics.kernels, info)
        elapsed = time.perf_counter() - started
        for op in ops:
            # Elapsed time is attributed to the whole fused stage;
            # per-operator compute lives in ``cpu_seconds``.
            per_op[op.op_id].wall_seconds += elapsed

    def _run_wide(
        self,
        op: Operator,
        cache: dict[int, Partitions],
        ctx: EvalContext,
        metrics: ExecutionMetrics,
        started: float,
    ) -> None:
        m = self._op_metrics(metrics, op)
        child_parts = [cache[c.op_id] for c in op.children]
        m.rows_in = sum(len(p) for parts in child_parts for p in parts)
        nparts = self.num_partitions
        pad_empty = False
        if isinstance(op, Join):
            left_key, right_key = op.key_fns()
            left = self._shuffle_keyed(
                child_parts[0], join_key_scatter(tuple(l for l, _ in op.on), left_key), m
            )
            right = self._shuffle_keyed(
                child_parts[1], join_key_scatter(tuple(r for _, r in op.on), right_key), m
            )
            tasks = [partial(op.eval_keyed, left[i], right[i], ctx) for i in range(nparts)]
        elif isinstance(op, GroupAggregation) and not op.key_specs:
            gathered = self._gather(child_parts[0], m)
            tasks = [partial(op.eval_rows, [gathered], ctx)]
            pad_empty = True
        elif isinstance(op, (GroupAggregation, RelationNesting)):
            shuffled = self._shuffle_keyed(child_parts[0], group_key_scatter(op), m)
            tasks = [partial(op.eval_keyed, part, ctx) for part in shuffled]
        else:  # Deduplication, Difference: shuffle whole rows by value
            shuffled = [
                self._shuffle_by_key(parts, lambda t: t, m) for parts in child_parts
            ]
            tasks = [
                partial(op.eval_rows, [child[i] for child in shuffled], ctx)
                for i in range(nparts)
            ]
        parts = []
        for task in tasks:
            task_started = time.perf_counter()
            parts.append(task())
            m.cpu_seconds += time.perf_counter() - task_started
        m.tasks += len(tasks)
        if pad_empty:
            parts = parts + [[] for _ in range(nparts - 1)]
        cache[op.op_id] = parts
        m.rows_out = sum(len(p) for p in parts)
        m.wall_seconds += time.perf_counter() - started
