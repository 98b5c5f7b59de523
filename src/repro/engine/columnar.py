"""Columnar batch evaluation: kernel chain tasks and key scatters.

This module is the glue between the executor's per-partition tasks and the
kernel code generator (:mod:`repro.engine.kernels`):

* **Kernel chain task.**  :func:`task_kernel_chain` runs one fused chain
  over one partition: the partition is checked for a uniform row layout,
  lowered to (or fetched from the cache as) one compiled kernel, and
  executed in a single call; any
  :class:`~repro.engine.kernels.KernelBailout`, unsupported operator or
  heterogeneous layout falls back to the row-at-a-time operators *for that
  partition*, which also reproduces their exact error behaviour.  Results
  equal ``Query.evaluate`` — the differential fuzzer and the scenario
  equivalence suites enforce it.
* **Scatter shuffles.**  Wide operators keep their shuffle-based plans, but
  the per-row key closures are replaced by one-pass scatter routines that
  read the key columns straight out of the shared ``Layout`` positions,
  hash them column-at-a-time and place each ``(key, row)`` pair directly in
  its destination partition — producing the targets of the per-row
  ``stable_hash`` loop.

``docs/KERNELS.md`` is the full walkthrough (batch layout, codegen
contract, cache keying, bailout semantics, scatter shuffles, operator-hook
checklist).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.algebra.operators import GroupAggregation, RelationNesting
from repro.engine.hashing import column_hashes, layout_hash, stable_hash
from repro.engine.kernels import KernelBailout, chain_kernel
from repro.nested.paths import Path
from repro.nested.values import Layout, NULL, Tup


def default_engine() -> str:
    """The chain-evaluation engine's name, ``"columnar"`` (the only one).

    Kept for readers that record it, such as execution metrics and
    benchmark notes.
    """
    return "columnar"


def new_kernel_info() -> dict:
    """A fresh kernel observability counter dict (``ExecutionMetrics.kernels``)."""
    return {"hits": 0, "misses": 0, "fallbacks": 0, "codegen_seconds": 0.0}


def merge_kernel_info(total: dict, part: dict) -> None:
    """Accumulate one task's kernel counters into the execution totals."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _row_chain(ops: list, rows: list, ctx) -> "tuple[list, list]":
    """The row-at-a-time chain evaluation (the kernel fallback path)."""
    stats = []
    for op in ops:
        started = time.perf_counter()
        out = op.eval_rows([rows], ctx)
        stats.append((op.op_id, len(rows), len(out), time.perf_counter() - started))
        rows = out
    return rows, stats


def task_kernel_chain(ops: list, rows: list, ctx, memo: dict) -> Any:
    """Evaluate a fused narrow chain over one partition, kernels first.

    Returns ``(rows, stats, info)`` — the row path's ``(rows, stats)`` plus
    the kernel counter dict.  Empty partitions always take the row path (it
    raises schema-resolution errors even on empty input, and kernels must
    not mask them); populated partitions take it when the layout is not
    uniform, the chain cannot be lowered, or the kernel bails out on a value
    shape it cannot reproduce bit-identically.

    *memo* is the execution's kernel memo: partitions of one execution
    share the plan, so the (semantic) global cache key is built once per
    chain and layout, and every further partition resolves by identity.
    A memo hit counts as a cache hit when it holds a kernel (the compiled
    kernel was reused); a memoized ``None`` counts as neither hit nor miss.
    """
    info = new_kernel_info()
    if rows:
        layout = rows[0]._layout
        if all(t._layout is layout for t in rows):
            mkey = (tuple(op.op_id for op in ops), layout)
            if mkey in memo:
                kernel = memo[mkey]
                if kernel is not None:
                    info["hits"] += 1
            else:
                kernel = memo[mkey] = chain_kernel(ops, layout, ctx, info)
            if kernel is not None:
                try:
                    out, stats = kernel.run(rows, ops)
                    return out, stats, info
                except KernelBailout:
                    pass
        info["fallbacks"] += 1
    out, stats = _row_chain(ops, rows, ctx)
    return out, stats, info


# -- vectorized shuffle-key extraction ---------------------------------------


def _scatter_pairs(
    key_fn: Callable[[Tup], Any], rows: list, nparts: int, out: list
) -> int:
    """The generic per-row shuffle: compute, hash and place each key.

    Byte-identical to the executor's row-path shuffle loop (``None`` keys go
    to partition 0); the scatter fast paths below fall back to this whenever
    a partition's shape defeats column extraction.
    """
    for t in rows:
        key = key_fn(t)
        target = 0 if key is None else stable_hash(key) % nparts
        out[target].append((key, t))
    return len(rows)


def join_key_scatter(
    paths: "tuple[Path, ...]", key_fn: Callable[[Tup], Optional[tuple]]
) -> "Callable[[list, int, list], int]":
    """A one-pass shuffle scatter for one join side.

    Reads single-step key columns straight out of the shared layout
    positions, hashes them column-at-a-time and appends ``(key, row)`` to
    the destination partition, producing exactly the pairs and targets of
    the per-row ``key_fn`` + :func:`stable_hash` loop (⊥-containing keys map
    to ``None`` and land in partition 0, per Table 1).  Multi-step paths,
    missing columns and mixed layouts fall back to that row loop.
    """
    single = all(len(p) == 1 for p in paths)
    names = tuple(p[0] for p in paths) if single else ()

    def scatter(rows: list, nparts: int, out: list) -> int:
        if not rows or not single or len(names) != 1:
            return _scatter_pairs(key_fn, rows, nparts, out)
        layout = rows[0]._layout
        i0 = layout.index.get(names[0])
        if i0 is None or not all(t._layout is layout for t in rows):
            return _scatter_pairs(key_fn, rows, nparts, out)
        column = [t._values[i0] for t in rows]
        hashes = column_hashes(column)
        nulls = out[0]
        for t, v, h in zip(rows, column, hashes):
            if v is NULL or v is None:
                nulls.append((None, t))
            else:
                # stable_hash((v,)) == hash((stable_hash(v),))
                out[hash((h,)) % nparts].append(((v,), t))
        return len(rows)

    return scatter


def group_key_scatter(op) -> "Callable[[list, int, list], int]":
    """A one-pass shuffle scatter for a grouping wide operator.

    Mirrors ``GroupAggregation.key_fn()`` (interned key layout over the
    source-path values) and ``RelationNesting.group_key`` (the row minus the
    nested attributes) using shared-layout positions, hashing the key column
    in one sweep; anything irregular falls back to the operator's own key
    function.  Group keys are ``Tup``s, which hash as
    ``hash((layout_hash, *value hashes))`` — reproduced literally here.
    """
    key_fn = op.key_fn()
    if isinstance(op, GroupAggregation):
        specs = op.key_specs
        single = all(len(src) == 1 for _, src in specs)
        names = tuple(src[0] for _, src in specs) if single else ()
        key_layout = Layout.of(out for out, _ in specs)

        def scatter(rows: list, nparts: int, out: list) -> int:
            if not rows or not single or len(names) != 1:
                return _scatter_pairs(key_fn, rows, nparts, out)
            layout = rows[0]._layout
            i0 = layout.index.get(names[0])
            if i0 is None or not all(t._layout is layout for t in rows):
                return _scatter_pairs(key_fn, rows, nparts, out)
            column = [t._values[i0] for t in rows]
            hashes = column_hashes(column)
            lh = layout_hash(key_layout)
            mk = Tup.from_layout
            for t, v, h in zip(rows, column, hashes):
                out[hash((lh, h)) % nparts].append((mk(key_layout, (v,)), t))
            return len(rows)

        return scatter
    if isinstance(op, RelationNesting):
        attrs = op.attrs

        def scatter(rows: list, nparts: int, out: list) -> int:
            if not rows:
                return 0
            layout = rows[0]._layout
            if not all(t._layout is layout for t in rows):
                return _scatter_pairs(key_fn, rows, nparts, out)
            kept_layout, _, gather = layout.drop(attrs)
            lh = layout_hash(kept_layout)
            mk = Tup.from_layout
            for t in rows:
                key_values = gather(t._values)
                key = mk(kept_layout, key_values)
                h = hash((lh,) + tuple(column_hashes(list(key_values))))
                out[h % nparts].append((key, t))
            return len(rows)

        return scatter

    def scatter(rows: list, nparts: int, out: list) -> int:
        return _scatter_pairs(key_fn, rows, nparts, out)

    return scatter
