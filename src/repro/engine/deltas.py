"""Delta-incremental evaluation and explanation maintenance over versions.

This module is the executor's **delta mode**: given a base
:class:`~repro.engine.database.Database` version and the memoized
per-operator partition state of one query plan, it propagates the signed row
deltas of a :class:`~repro.engine.database.Mutation` through the plan so
that only affected partitions and operators re-run.

How state is kept, per segment kind of :func:`repro.engine.executor.build_segments`:

* **source** — nothing memoized; the mutation's per-relation signed delta
  (``row -> ±count``) *is* the operator's output delta.
* **chain** — nothing memoized.  Narrow operators are per-row linear
  (``out(bag) = Σ out(row)``), so the chain's output delta is the chain run
  over the inserted rows minus the chain run over the deleted rows — two
  backend tasks regardless of base size.
* **wide** (join, keyed grouping/nesting, dedup, difference) — the keyed
  executor's shuffle is replayed on the delta only: each delta row is routed
  with the same ``stable_hash`` rule the executor uses (``None`` keys to
  partition 0, whole-row hash for dedup/difference), the memoized
  per-partition *input* multiset is updated, and **only the partitions that
  received a delta row** are re-evaluated through the normal backend task
  (``join_keyed`` / ``group_keyed`` / ``rows``).  Diffing the fresh
  partition output against the memoized one yields the downstream delta.
* **union** — child deltas are summed.
* **driver** (cartesian product) and keyless aggregation — the gathered
  input multiset is memoized and the operator re-runs whole when any delta
  reaches it (these operators are global by nature).

The non-negotiable invariant — enforced by the mutation fuzz oracle
(``python -m repro fuzz --mutations``) — is **incremental ≡ from-scratch**:
after every mutation, :meth:`DeltaEvaluator.result` equals a fresh
``Executor().execute(query, db)`` bag exactly, and
:meth:`IncrementalExplainer.apply` returns the same explanation sets as a
fresh :func:`repro.whynot.explain.explain` on the mutated version.
Whenever the incremental path cannot be trusted — an unrelated database
object, a schema widened by inserts, a memo inconsistency — it falls back
to a full :meth:`DeltaEvaluator.rebase` (correct by construction, recorded
in ``last_stats["mode"]``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.algebra.operators import (
    CartesianProduct,
    Deduplication,
    Difference,
    EvalContext,
    GroupAggregation,
    Join,
    Operator,
    Query,
    RelationNesting,
    TableAccess,
)
from repro.engine.backends import ExecutionBackend, TaskContext, get_backend
from repro.engine.columnar import resolve_engine
from repro.engine.database import Database, Mutation
from repro.engine.executor import build_segments
from repro.engine.hashing import stable_hash
from repro.engine.optimizer import optimize_query, resolve_optimize
from repro.nested.values import Bag, Tup

#: A signed row multiset: ``row -> count`` where counts may be negative
#: (net deletions) but never zero.
SignedCounts = "dict[Tup, int]"


class DeltaInconsistency(RuntimeError):
    """A memoized input multiset would go negative — the delta does not fit
    the memo (e.g. the caller skipped a version).  Callers rebase on this."""


def read_tables(query: Query) -> "frozenset[str]":
    """The relations *query* reads: every ``TableAccess`` table in the plan.

    This is the dependency set the version-aware result cache keys on — a
    cached entry stays valid while all of its read relations are unchanged.
    """
    return frozenset(
        op.table for op in query.ops if isinstance(op, TableAccess)
    )


def mutation_steps(
    base: Database, target: Database
) -> "Optional[list[Database]]":
    """The version-chain path from *base* (exclusive) to *target* (inclusive).

    Returns the intermediate versions oldest-first — each carries its
    ``last_mutation`` — or ``None`` when *target* does not descend from
    *base* (callers must then rebase).  ``base is target`` yields ``[]``.
    """
    steps: list[Database] = []
    node: Optional[Database] = target
    while node is not None and node is not base:
        if node.last_mutation is None:
            return None
        steps.append(node)
        node = node.parent
    if node is not base:
        return None
    steps.reverse()
    return steps


def _counter(rows: "list[Tup]") -> "dict[Tup, int]":
    counts: dict[Tup, int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    return counts


def _expand(counts: "dict[Tup, int]") -> "list[Tup]":
    return [row for row, c in counts.items() for _ in range(c)]


def _merge(into: "dict[Tup, int]", delta: "dict[Tup, int]") -> None:
    for row, c in delta.items():
        nc = into.get(row, 0) + c
        if nc:
            into[row] = nc
        else:
            into.pop(row, None)


def _bump(counts: "dict[Tup, int]", row: Tup, c: int) -> None:
    nc = counts.get(row, 0) + c
    if nc < 0:
        raise DeltaInconsistency(f"memoized multiset short {nc} of {row!r}")
    if nc:
        counts[row] = nc
    else:
        counts.pop(row, None)


def _diff(new: "dict[Tup, int]", old: "dict[Tup, int]") -> "dict[Tup, int]":
    out: dict[Tup, int] = {}
    for row, c in new.items():
        d = c - old.get(row, 0)
        if d:
            out[row] = d
    for row, c in old.items():
        if row not in new:
            out[row] = -c
    return out


def _pairs(counts: "dict[Tup, int]", key_fn: Callable[[Tup], Any]) -> list:
    pairs: list = []
    for row, c in counts.items():
        key = key_fn(row)
        pairs.extend([(key, row)] * c)
    return pairs


class DeltaEvaluator:
    """Maintains one query's result across a database version chain.

    Construction runs a full **rebase** on the base version (memoizing the
    per-operator partition state described in the module docstring); every
    subsequent :meth:`update` walks the version chain from the current
    version to the target and applies each step's mutation incrementally.
    ``last_stats`` records what the last update actually did::

        {"mode": "delta" | "rebase" | "noop", "steps": int,
         "tasks": int, "partitions_recomputed": int,
         "ops_recomputed": int, "wall_seconds": float}

    The evaluator mirrors the partitioned executor exactly — same segment
    plan, same ``stable_hash`` routing, same backend task kinds — so its
    maintained bag is identical to a from-scratch
    :class:`~repro.engine.executor.Executor` run on every version (the
    mutation fuzz oracle enforces this across serial/process backends and
    row/columnar engines).
    """

    def __init__(
        self,
        query: Query,
        db: Database,
        num_partitions: int = 4,
        backend: "str | ExecutionBackend | None" = None,
        workers: Optional[int] = None,
        optimize: Optional[bool] = None,
        engine: Optional[str] = None,
    ):
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self.query = query
        self.num_partitions = num_partitions
        self.backend = get_backend(backend, workers)
        self.optimize = resolve_optimize(optimize)
        self.engine = resolve_engine(engine)
        self.last_stats: dict[str, Any] = {}
        self.rebases = 0
        self.updates = 0
        self.rebase(db)

    # -- public API ----------------------------------------------------------

    def result(self) -> Bag:
        """The maintained result bag ``Q(D)`` for the current version."""
        return Bag.from_counts(self._result.items())

    @property
    def db(self) -> Database:
        """The version the maintained result currently corresponds to."""
        return self._db

    @property
    def reads(self) -> "frozenset[str]":
        """The relations the (possibly optimized) plan reads."""
        return self._reads

    def update(self, new_db: Database) -> Bag:
        """Advance the maintained result to *new_db* and return it.

        Walks the version chain from the current version to *new_db*,
        applying each step's mutation delta-incrementally.  Falls back to a
        full :meth:`rebase` when *new_db* is not a descendant of the current
        version, when a mutation widened the schema of a relation the plan
        reads, or when a memo inconsistency is detected.
        """
        started = time.perf_counter()
        if new_db is self._db:
            self.last_stats = {"mode": "noop", "steps": 0, "tasks": 0,
                               "partitions_recomputed": 0, "ops_recomputed": 0,
                               "wall_seconds": time.perf_counter() - started}
            return self.result()
        steps = mutation_steps(self._db, new_db)
        if steps is None or any(
            new_db.schema(t) != self._schemas[t]
            for t in self._reads
            if t in new_db
        ):
            return self._full_rebase(new_db, started)
        tasks = parts = ops = 0
        try:
            for step in steps:
                t, p, o = self._apply_mutation(step, step.last_mutation)
                tasks += t
                parts += p
                ops += o
        except DeltaInconsistency:
            return self._full_rebase(new_db, started)
        self.updates += 1
        self.last_stats = {
            "mode": "delta", "steps": len(steps), "tasks": tasks,
            "partitions_recomputed": parts, "ops_recomputed": ops,
            "wall_seconds": time.perf_counter() - started,
        }
        return self.result()

    def rebase(self, db: Database) -> Bag:
        """Full recompute on *db*, refreshing every memo; returns the bag."""
        plan = self.query
        if self.optimize:
            plan = optimize_query(self.query, db).optimized
        self._plan = plan
        self._segments = build_segments(plan)
        self._reads = read_tables(plan) | read_tables(self.query)
        ctx = EvalContext(db, plan.infer_schemas(db))
        self._wide_inputs: dict[int, list[list[dict[Tup, int]]]] = {}
        self._wide_outputs: dict[int, list[dict[Tup, int]]] = {}
        self._global_inputs: dict[int, list[dict[Tup, int]]] = {}
        self._global_outputs: dict[int, dict[Tup, int]] = {}
        flow: dict[int, list[Tup]] = {}
        for segment in self._segments:
            ops = segment.ops
            op = ops[0]
            out_id = ops[-1].op_id
            if segment.kind == "source":
                rows = op.eval_rows([], ctx)
            elif segment.kind == "chain":
                rows = flow[op.children[0].op_id]
                for o in ops:
                    rows = o.eval_rows([rows], ctx)
            elif segment.kind == "union":
                left, right = (flow[c.op_id] for c in op.children)
                rows = left + right
            elif segment.kind == "wide":
                rows = self._rebase_wide(
                    op, [flow[c.op_id] for c in op.children], ctx
                )
            else:  # driver: gather + global evaluation, memoized whole
                gathered = [flow[c.op_id] for c in op.children]
                self._global_inputs[op.op_id] = [_counter(g) for g in gathered]
                rows = op.eval_rows(gathered, ctx)
                self._global_outputs[op.op_id] = _counter(rows)
            flow[out_id] = rows
        self._result = _counter(flow[plan.root.op_id])
        self._db = db
        self._schemas = {t: db.schema(t) for t in self._reads if t in db}
        self.rebases += 1
        return self.result()

    # -- internals -----------------------------------------------------------

    def _full_rebase(self, new_db: Database, started: float) -> Bag:
        out = self.rebase(new_db)
        self.updates += 1
        self.last_stats = {
            "mode": "rebase", "steps": 0, "tasks": 0,
            "partitions_recomputed": self.num_partitions,
            "ops_recomputed": len(self._plan.ops),
            "wall_seconds": time.perf_counter() - started,
        }
        return out

    def _is_global(self, op: Operator) -> bool:
        return isinstance(op, GroupAggregation) and not op.key_specs

    def _rebase_wide(
        self, op: Operator, child_rows: "list[list[Tup]]", ctx: EvalContext
    ) -> "list[Tup]":
        n = self.num_partitions
        if self._is_global(op):
            self._global_inputs[op.op_id] = [_counter(child_rows[0])]
            rows = op.eval_rows([child_rows[0]], ctx)
            self._global_outputs[op.op_id] = _counter(rows)
            return rows
        routers = self._routers(op)
        inputs = [[{} for _ in range(n)] for _ in child_rows]
        for side, rows in enumerate(child_rows):
            route = routers[side]
            for row in rows:
                _bump(inputs[side][route(row)], row, 1)
        self._wide_inputs[op.op_id] = inputs
        outputs: list[dict[Tup, int]] = []
        out_rows: list[Tup] = []
        for p in range(n):
            rows = self._eval_partition(op, p, ctx)
            outputs.append(_counter(rows))
            out_rows.extend(rows)
        self._wide_outputs[op.op_id] = outputs
        return out_rows

    def _routers(self, op: Operator) -> "list[Callable[[Tup], int]]":
        """Per-child partition routers replaying the executor's shuffle."""
        n = self.num_partitions

        def by_key(key_fn):
            def route(row):
                key = key_fn(row)
                return 0 if key is None else stable_hash(key) % n

            return route

        if isinstance(op, Join):
            left_key, right_key = op.key_fns()
            return [by_key(left_key), by_key(right_key)]
        if isinstance(op, (GroupAggregation, RelationNesting)):
            return [by_key(op.key_fn())]
        # Deduplication / Difference: whole-row shuffle.
        return [lambda row: stable_hash(row) % n for _ in op.children]

    def _eval_partition(self, op: Operator, p: int, ctx: EvalContext) -> "list[Tup]":
        """Evaluate one partition of a wide op from its memoized inputs."""
        inputs = self._wide_inputs[op.op_id]
        if isinstance(op, Join):
            left_key, right_key = op.key_fns()
            return op.eval_keyed(
                _pairs(inputs[0][p], left_key), _pairs(inputs[1][p], right_key), ctx
            )
        if isinstance(op, (GroupAggregation, RelationNesting)):
            return op.eval_keyed(_pairs(inputs[0][p], op.key_fn()), ctx)
        return op.eval_rows([_expand(side[p]) for side in inputs], ctx)

    def _partition_task(self, op: Operator, p: int) -> tuple:
        """The backend task recomputing one partition of a wide op."""
        inputs = self._wide_inputs[op.op_id]
        if isinstance(op, Join):
            left_key, right_key = op.key_fns()
            return (
                "join_keyed", op.op_id,
                _pairs(inputs[0][p], left_key), _pairs(inputs[1][p], right_key),
            )
        if isinstance(op, (GroupAggregation, RelationNesting)):
            return ("group_keyed", op.op_id, _pairs(inputs[0][p], op.key_fn()))
        return ("rows", op.op_id, [_expand(side[p]) for side in inputs])

    def _apply_mutation(
        self, new_db: Database, mutation: Mutation
    ) -> "tuple[int, int, int]":
        """Propagate one mutation's deltas bottom-up; returns
        ``(tasks, partitions_recomputed, ops_recomputed)``."""
        plan = self._plan
        ctx = EvalContext(new_db, plan.infer_schemas(new_db))
        context = TaskContext(plan, new_db)
        mutated = set(mutation.tables())
        deltas: dict[int, dict[Tup, int]] = {}
        n_tasks = n_parts = n_ops = 0
        for segment in self._segments:
            ops = segment.ops
            op = ops[0]
            out_id = ops[-1].op_id
            if segment.kind == "source":
                deltas[out_id] = (
                    mutation.signed_delta(op.table) if op.table in mutated else {}
                )
                continue
            if segment.kind == "chain":
                din = deltas[op.children[0].op_id]
                if not din:
                    deltas[out_id] = {}
                    continue
                dout, t = self._chain_delta(ops, din, context)
                deltas[out_id] = dout
                n_tasks += t
                n_ops += len(ops)
                continue
            if segment.kind == "union":
                merged: dict[Tup, int] = {}
                for child in op.children:
                    _merge(merged, deltas[child.op_id])
                deltas[out_id] = merged
                continue
            child_deltas = [deltas[c.op_id] for c in op.children]
            if not any(child_deltas):
                deltas[out_id] = {}
                continue
            n_ops += 1
            if segment.kind == "driver" or self._is_global(op):
                deltas[out_id] = self._global_delta(op, child_deltas, ctx)
                n_parts += 1
                continue
            dout, t, p = self._wide_delta(op, child_deltas, context)
            deltas[out_id] = dout
            n_tasks += t
            n_parts += p
        root_delta = deltas[plan.root.op_id]
        for row, c in root_delta.items():
            _bump(self._result, row, c)
        self._db = new_db
        self._schemas = {t: new_db.schema(t) for t in self._reads if t in new_db}
        return n_tasks, n_parts, n_ops

    def _chain_delta(
        self, ops: "list[Operator]", din: "dict[Tup, int]", context: TaskContext
    ) -> "tuple[dict[Tup, int], int]":
        pos = [row for row, c in din.items() if c > 0 for _ in range(c)]
        neg = [row for row, c in din.items() if c < 0 for _ in range(-c)]
        kind = "kchain" if self.engine == "columnar" else "chain"
        op_ids = tuple(op.op_id for op in ops)
        tasks = []
        if pos:
            tasks.append((kind, op_ids, pos))
        if neg:
            tasks.append((kind, op_ids, neg))
        results = self.backend.run(context, tasks)
        out: dict[Tup, int] = {}
        index = 0
        if pos:
            for row in results[0][0]:
                out[row] = out.get(row, 0) + 1
            index = 1
        if neg:
            for row in results[index][0]:
                out[row] = out.get(row, 0) - 1
        return {row: c for row, c in out.items() if c}, len(tasks)

    def _wide_delta(
        self,
        op: Operator,
        child_deltas: "list[dict[Tup, int]]",
        context: TaskContext,
    ) -> "tuple[dict[Tup, int], int, int]":
        inputs = self._wide_inputs[op.op_id]
        outputs = self._wide_outputs[op.op_id]
        routers = self._routers(op)
        affected: set[int] = set()
        for side, delta in enumerate(child_deltas):
            route = routers[side]
            for row, c in delta.items():
                p = route(row)
                _bump(inputs[side][p], row, c)
                affected.add(p)
        parts = sorted(affected)
        tasks = [self._partition_task(op, p) for p in parts]
        results = self.backend.run(context, tasks)
        dout: dict[Tup, int] = {}
        for p, result in zip(parts, results):
            fresh = _counter(result[0])
            _merge(dout, _diff(fresh, outputs[p]))
            outputs[p] = fresh
        return dout, len(tasks), len(parts)

    def _global_delta(
        self,
        op: Operator,
        child_deltas: "list[dict[Tup, int]]",
        ctx: EvalContext,
    ) -> "dict[Tup, int]":
        inputs = self._global_inputs[op.op_id]
        for side, delta in enumerate(child_deltas):
            for row, c in delta.items():
                _bump(inputs[side], row, c)
        rows = op.eval_rows([_expand(side) for side in inputs], ctx)
        fresh = _counter(rows)
        dout = _diff(fresh, self._global_outputs[op.op_id])
        self._global_outputs[op.op_id] = fresh
        return dout


class IncrementalExplainer:
    """Maintains a why-not explanation across database versions.

    The base construction runs the full Algorithm 1 pipeline once and
    retains every piece that is data-independent or delta-maintainable:

    * the schema backtrace and the enumerated schema alternatives are
      **schema-level** artifacts — they are reused verbatim across versions
      (and invalidated only when a mutation widens a read relation's schema);
    * the answer path ``Q(D)`` is maintained by a :class:`DeltaEvaluator`;
    * the data trace is re-run **only for operators whose transitive reads
      intersect the mutated relations** — every other operator's annotated
      rows (with their per-SA validity/consistency bitmasks) are merged from
      the retained base trace via the tracer's ``reuse`` parameter.

    :meth:`apply` raises
    :class:`~repro.whynot.question.IllPosedQuestion` when a mutation inserts
    a row that satisfies the why-not question — exactly like a from-scratch
    ``explain`` on the mutated version would (the service layer turns this
    into its typed "question satisfied" response).
    """

    def __init__(
        self,
        question,
        alternatives=(),
        use_schema_alternatives: bool = True,
        revalidate: bool = True,
        max_sas: int = 64,
        backend: "str | ExecutionBackend | None" = None,
        workers: Optional[int] = None,
        num_partitions: int = 4,
        validate: bool = True,
    ):
        from repro.whynot.alternatives import enumerate_schema_alternatives
        from repro.whynot.approximate import approximate_msrs
        from repro.whynot.backtrace import backtrace
        from repro.whynot.explain import WhyNotResult
        from repro.whynot.tracing import trace

        self.question = question
        self.alternatives = alternatives
        self.use_schema_alternatives = use_schema_alternatives
        self.revalidate = revalidate
        self.max_sas = max_sas
        self.backend = get_backend(backend, workers)
        self.evaluator = DeltaEvaluator(
            question.query,
            question.db,
            num_partitions=num_partitions,
            backend=self.backend,
            optimize=False,
        )
        if question._result_cache is None:
            question._result_cache = self.evaluator.result()
        if validate:
            question.validate()
        query, db, nip = question.query, question.db, question.nip
        self._reads_of = self._compute_reads(query)
        self._all_reads = read_tables(query)
        self._base_schemas = {t: db.schema(t) for t in self._all_reads if t in db}
        base = backtrace(query, db, nip)
        groups = alternatives if use_schema_alternatives else ()
        sas = enumerate_schema_alternatives(
            query, db, nip, base, groups=groups, max_sas=max_sas
        )
        traced = trace(query, db, sas, revalidate=revalidate, backend=self.backend)
        explanations = approximate_msrs(question, sas, traced)
        self.backtrace = base
        self.sas = sas
        self.trace = traced
        self.last_result = WhyNotResult(question, explanations, sas, base, traced, {})
        #: tables mutated since the last successfully retained trace.
        self._stale_tables: set[str] = set()
        self._trace_db = db
        self.retraces = 0
        self.full_explains = 0
        self.last_stats: dict[str, Any] = {"mode": "base"}

    @staticmethod
    def _compute_reads(query: Query) -> "dict[int, frozenset[str]]":
        """Bottom-up transitive read sets, per operator id."""
        reads: dict[int, frozenset[str]] = {}
        for op in query.ops:
            acc: frozenset[str] = frozenset()
            if isinstance(op, TableAccess):
                acc = frozenset((op.table,))
            for child in op.children:
                acc |= reads[child.op_id]
            reads[op.op_id] = acc
        return reads

    def apply(self, new_db: Database):
        """Re-explain against *new_db*, reusing everything still valid.

        Returns a :class:`~repro.whynot.explain.WhyNotResult` identical to a
        from-scratch ``explain`` on *new_db* (the mutation fuzz oracle
        compares explanation sets).  Raises ``IllPosedQuestion`` when the
        mutated data now answers the question.
        """
        from repro.whynot.approximate import approximate_msrs
        from repro.whynot.explain import WhyNotResult, explain
        from repro.whynot.question import WhyNotQuestion
        from repro.whynot.tracing import trace

        started = time.perf_counter()
        result_bag = self.evaluator.update(new_db)
        steps = mutation_steps(self._trace_db, new_db)
        question = WhyNotQuestion(
            self.question.query, new_db, self.question.nip, name=self.question.name
        )
        question._result_cache = result_bag
        full = steps is None or any(
            new_db.schema(t) != self._base_schemas.get(t)
            for t in self._all_reads
            if t in new_db
        )
        stale = set(self._stale_tables)
        if steps:
            for step in steps:
                stale.update(step.last_mutation.tables())
        try:
            question.validate()
        except Exception:
            # Leave the retained trace marked stale for these tables so the
            # next successful apply re-traces them; the caller handles the
            # (typed) ill-posed outcome.
            self._stale_tables = stale
            self._trace_db = new_db if steps is not None else self._trace_db
            raise
        if full:
            self.full_explains += 1
            out = explain(
                question,
                alternatives=self.alternatives,
                use_schema_alternatives=self.use_schema_alternatives,
                revalidate=self.revalidate,
                max_sas=self.max_sas,
                validate=False,
                backend=self.backend,
                optimize=False,
            )
            self.backtrace = out.backtrace
            self.sas = out.sas
            self.trace = out.trace
            self._base_schemas = {
                t: new_db.schema(t) for t in self._all_reads if t in new_db
            }
            self.last_stats = {"mode": "full", "ops_retraced": len(question.query.ops)}
        else:
            reuse = {
                op.op_id: self.trace.traces[op.op_id]
                for op in question.query.ops
                if not (self._reads_of[op.op_id] & stale)
            }
            rid_start = self.trace.max_rid()
            traced = trace(
                question.query,
                new_db,
                self.sas,
                revalidate=self.revalidate,
                backend=self.backend,
                reuse=reuse,
                rid_start=rid_start,
            )
            explanations = approximate_msrs(question, self.sas, traced)
            self.trace = traced
            self.retraces += 1
            self.last_stats = {
                "mode": "delta",
                "ops_retraced": len(question.query.ops) - len(reuse),
                "ops_reused": len(reuse),
            }
            out = WhyNotResult(
                question, explanations, self.sas, self.backtrace, traced,
                {"total": time.perf_counter() - started},
            )
        self.question = question
        self._stale_tables = set()
        self._trace_db = new_db
        self.last_result = out
        self.last_stats["wall_seconds"] = time.perf_counter() - started
        return out
