"""Per-chain kernel code generation for the partitioned executor.

The row-at-a-time operators (``Operator.eval_rows``, the kernels'
per-partition fallback) evaluate a fused narrow chain by calling one
compiled closure per operator per row and materializing a full
:class:`~repro.nested.values.Tup` between every pair of operators.  This
module instead lowers the whole chain to a single Python function *source
string* — one loop over the partition, selective column extraction at the
top, inlined per-operator statements in the body, one output-row
materialization at the bottom (or the input row itself, when only
selections ran) — and compiles it once per ``(chain semantics, input
layout)``.

Contract (see ``docs/KERNELS.md`` for the full walkthrough):

* **Bit-equivalence.**  A kernel must produce exactly the rows the row path
  produces — same values, same canonical-NaN/⊥ handling, same output
  ``Layout`` (column names *and* order), same multiplicities and row order.
  Operator/expression hooks that cannot guarantee this raise
  :class:`~repro.algebra.expressions.KernelUnsupported` at build time, and
  generated code raises :class:`KernelBailout` at run time for value shapes
  it cannot reproduce (heterogeneous nested layouts, type errors); both make
  the caller rerun the partition on the row path, which also recreates the
  row path's exact error messages.
* **Caching.**  Kernels are cached globally, keyed by the tuple of
  per-operator :meth:`~repro.algebra.operators.Operator.kernel_key` values
  plus the input layout's name tuple and the nested layouts of the chain's
  inferred input type (which inline nested path reads bind) — a *semantic*
  key, so structurally fresh but equivalent ``Query`` objects (every
  benchmark round builds new ones) hit the cache.  Failed builds are cached
  as ``None`` (negative entries) so unsupported chains don't retry codegen
  per task.
* **Stats parity.**  A kernel returns per-operator row counters so the
  executor reports the same ``rows_in``/``rows_out``/``tasks`` metrics as
  the row path; only cardinality-changing operators
  (``kernel_changes_cardinality``) need live counters, every other operator
  is 1:1.
* **Relaxed trace kernels.**  :func:`trace_kernel` builds the tracer's
  variant (:mod:`repro.whynot.tracing`): one kernel per SA group per narrow
  run, where selections record retained row indices instead of filtering,
  each operator's strict/relaxed NIP checks run inline against its column
  variables (the generated Definition-4 tests of
  :mod:`repro.whynot.matching`), and the run's last row is returned as a
  plain value tuple of the kernel's output layout — no ``Tup`` is built.
  Its *recheck* build, which a re-annotation runs for other NIPs, keeps
  only the checks and what they read and returns their hits alone.
"""

from __future__ import annotations

import ast
import re
import time
from typing import Any, Callable, Optional, Sequence

from repro.algebra.expressions import KernelUnsupported
from repro.nested.paths import Path, parse_path
from repro.nested.types import TupleType
from repro.nested.values import NAN, NULL, Bag, Layout, Tup, is_null


class KernelBailout(Exception):
    """Raised inside a generated kernel for shapes it cannot reproduce.

    Bailing out is never an error: the caller reruns the partition through
    the row-at-a-time path, which either succeeds (e.g. heterogeneous nested
    tuple layouts the columnar representation cannot hold) or raises the
    genuine row-path exception with its exact message.
    """


def _rest_getter(rest: Path) -> Callable[[Any], Any]:
    """A value→value getter for the non-head steps of a multi-step path.

    Replicates :func:`repro.nested.paths.compile_path`'s ``get_chain``
    semantics (and error messages) from the second step on: the head step is
    resolved by the kernel as a column variable, the rest navigates the
    value.
    """

    def get_rest(current: Any, _rest: Path = rest) -> Any:
        for step in _rest:
            if is_null(current):
                return NULL
            if isinstance(current, Tup):
                i = current._index.get(step)
                if i is None:
                    raise KeyError(
                        f"path step {step!r} not in tuple attrs {current.attrs}"
                    )
                current = current._values[i]
            elif isinstance(current, Bag):
                raise TypeError(
                    f"cannot navigate path step {step!r} through a bag; flatten first"
                )
            else:
                raise TypeError(
                    f"cannot navigate path step {step!r} through primitive {current!r}"
                )
        return current

    return get_rest


_REST_GETTERS: "dict[Path, Callable[[Any], Any]]" = {}


def _rest_getter_for(rest: Path) -> Callable[[Any], Any]:
    """The interned :func:`_rest_getter` for *rest*."""
    getter = _REST_GETTERS.get(rest)
    if getter is None:
        getter = _REST_GETTERS[rest] = _rest_getter(rest)
    return getter


class KernelBuilder:
    """Accumulates the body of one chain kernel during codegen.

    The builder tracks the *logical row* as an ordered ``name → variable``
    map: input columns start as ``_c{i}_`` loop variables, operator hooks
    rewrite the map (project, rename, append, drop) and emit statements via
    :meth:`emit` at the current :attr:`indent`.  ``_g{n}`` names bind Python
    objects (layouts, pads, bound methods, non-literal constants) into the
    kernel's globals so generated code shares the row path's exact objects.
    """

    def __init__(self, layout: Layout, relaxed: bool = False):
        #: Relaxed (tracing) semantics: selections record retained row
        #: indices in ``_f{n}`` lists via :meth:`retain` instead of filtering.
        self.relaxed = relaxed
        #: The inferred type of the logical row (the emitting operator's
        #: input schema), which tells :meth:`path_value` the nested layouts
        #: to read inline; None reads every nested step through a getter.
        self.row_type: Optional[TupleType] = None
        self.flags: list[str] = []
        self.lines: list[str] = []
        self.indent = 2  # function body is one level, loop body two
        self._tmp = 0
        self._cols: "dict[str, str]" = {
            name: f"_c{i}_" for i, name in enumerate(layout.names)
        }
        self.globals: dict[str, Any] = {
            "_NULL": NULL,
            "_NAN": NAN,
            "_Tup": Tup,
            "_Bag": Bag,
            "_mk": Tup.from_layout,
            "_Bailout": KernelBailout,
        }
        self._bound: dict[int, str] = {}

    # -- statement emission --------------------------------------------------

    def emit(self, line: str) -> None:
        """Append one statement at the current indentation level."""
        self.lines.append("    " * self.indent + line)

    def tmp(self) -> str:
        """A fresh local variable name (deterministic per build)."""
        self._tmp += 1
        return f"_t{self._tmp}_"

    def capture(self, expr: str) -> str:
        """Ensure *expr* is a plain variable: assign to a temp if needed."""
        if expr.isidentifier():
            return expr
        var = self.tmp()
        self.emit(f"{var} = {expr}")
        return var

    def bind(self, obj: Any) -> str:
        """Bind *obj* into the kernel globals, returning its ``_g{n}`` name."""
        key = id(obj)
        name = self._bound.get(key)
        if name is None:
            name = f"_g{len(self._bound)}"
            self._bound[key] = name
            self.globals[name] = obj
        return name

    def retain(self, cond: str) -> None:
        """Relaxed selection: append the row index ``_k`` to a fresh flag list
        when *cond* holds (the row itself always flows on)."""
        var = f"_f{len(self.flags)}"
        self.flags.append(var)
        self.emit(f"if {cond}:")
        self.emit(f"    {var}.append(_k)")

    def null_test(self, var: str) -> str:
        """The ⊥ test for a captured variable (mirrors ``is_null``)."""
        return f"{var} is _NULL or {var} is None"

    # -- logical-row columns -------------------------------------------------

    def columns(self) -> "list[tuple[str, str]]":
        """The current logical row as ordered ``(name, variable)`` pairs."""
        return list(self._cols.items())

    def col(self, name: str) -> str:
        """The variable holding column *name* (KernelUnsupported: absent)."""
        var = self._cols.get(name)
        if var is None:
            raise KernelUnsupported(f"column {name!r} not in kernel row")
        return var

    def set_cols(self, pairs: "Sequence[tuple[str, str]]") -> None:
        """Replace the logical row wholesale (projection, renaming)."""
        names = [name for name, _ in pairs]
        if len(set(names)) != len(names):
            raise KernelUnsupported(f"duplicate column names {names}")
        self._cols = dict(pairs)

    def append_col(self, name: str, var: str) -> None:
        """Append a new column (KernelUnsupported on a name clash, matching
        the row path's per-row ``Layout.of`` duplicate error via fallback)."""
        if name in self._cols:
            raise KernelUnsupported(f"duplicate column {name!r}")
        self._cols[name] = var

    def replace_or_append(self, name: str, var: str) -> None:
        """``Tup.with_attr`` semantics: replace in place or append at the end."""
        self._cols[name] = var

    def drop_cols(self, names: "Sequence[str]") -> None:
        """Drop columns by name (absent names are ignored, like ``Tup.drop``)."""
        dropped = set(names)
        self._cols = {n: v for n, v in self._cols.items() if n not in dropped}

    def path_value(self, path: "str | Path") -> str:
        """An expression string for the value at *path* in the current row.

        The head step must be a live column.  Each later step that
        :attr:`row_type` says enters a nested tuple is read inline —
        ``v._values[i]`` when ``v`` is a :class:`Tup` of the inferred layout
        — and otherwise through an interned rest-getter with ``get_chain``
        semantics (⊥, other layouts, bags, primitives and their errors), as
        are the steps the type does not describe.
        """
        steps = parse_path(path)
        value = self.col(steps[0])
        typ: Any = self.row_type
        typ = typ.field(steps[0]) if typ is not None and typ.has_field(steps[0]) else None
        for k, step in enumerate(steps[1:], start=1):
            if not isinstance(typ, TupleType) or not typ.has_field(step):
                return f"{self.bind(_rest_getter_for(steps[k:]))}({value})"
            layout = Layout.of(typ.names)
            out = self.tmp()
            self.emit(
                f"{out} = {value}._values[{layout.index[step]}]"
                f" if {value}.__class__ is _Tup and {value}._layout is {self.bind(layout)}"
                f" else {self.bind(_rest_getter_for(steps[k:k + 1]))}({value})"
            )
            value, typ = out, typ.field(step)
        return value


class CompiledKernel:
    """One compiled chain kernel plus the metadata to derive per-op stats.

    ``layout`` is a relaxed trace kernel's output layout, the layout of the
    value tuples it returns (None for chain kernels, which return rows).
    """

    __slots__ = ("fn", "source", "changes", "last_changer", "layout")

    def __init__(
        self,
        fn: Callable,
        source: str,
        changes: "tuple[bool, ...]",
        last_changer: int,
        layout: Optional[Layout] = None,
    ):
        self.fn = fn
        self.source = source
        self.changes = changes
        self.last_changer = last_changer
        self.layout = layout

    def run(self, rows: list, ops: "Sequence[Any]") -> "tuple[list, list]":
        """Execute over one partition; returns rows plus row-path-shaped stats.

        Stats are ``(op_id, rows_in, rows_out, seconds)`` per operator, with
        the measured kernel time split evenly across the fused operators
        (individual operators are not separable inside one fused loop).
        """
        started = time.perf_counter()
        out, counts = self.fn(rows)
        seconds = time.perf_counter() - started
        per = seconds / len(ops)
        stats = []
        n = len(rows)
        k = 0
        for i, op in enumerate(ops):
            n_in = n
            if self.changes[i]:
                if i == self.last_changer:
                    n = len(out)
                else:
                    n = counts[k]
                    k += 1
            stats.append((op.op_id, n_in, n, per))
        return out, stats


def build_kernel(ops: "Sequence[Any]", layout: Layout, ctx) -> CompiledKernel:
    """Generate and compile the kernel for *ops* over input *layout*.

    Raises :class:`~repro.algebra.expressions.KernelUnsupported` (or any
    other exception) when the chain cannot be lowered; callers treat every
    build failure as "use the row path".
    """
    kb = KernelBuilder(layout)
    changer_idxs = [i for i, op in enumerate(ops) if op.kernel_changes_cardinality]
    counters: list[str] = []
    for i, op in enumerate(ops):
        kb.row_type = ctx.schema_of(op.children[0])
        op.emit_kernel(kb, ctx)
        if op.kernel_changes_cardinality and i != changer_idxs[-1]:
            var = f"_k{len(counters)}"
            counters.append(var)
            kb.emit(f"{var} += 1")
    fn, source = _compile_kernel(
        kb,
        layout,
        "rows",
        [f"    {var} = 0" for var in counters],
        f"_out, {_tuple_source(counters)}",
    )
    return CompiledKernel(
        fn,
        source,
        tuple(op.kernel_changes_cardinality for op in ops),
        changer_idxs[-1] if changer_idxs else -1,
    )


def _tuple_source(items: "Sequence[str]") -> str:
    """Source of a tuple display of *items* (``(a, b,)``; ``()`` when empty)."""
    return "(" + ", ".join(items) + ("," if items else "") + ")"


def _compile_kernel(
    kb: KernelBuilder,
    layout: Layout,
    params: str,
    prelude: "list[str]",
    returns: str,
    indexed: bool = False,
    output: Optional[str] = "rows",
) -> "tuple[Callable, str]":
    """Finish a kernel body and compile it; returns ``(function, source)``.

    Emits the output-row materialization, extracts exactly the input
    columns the body reads, and wraps everything in ``def _kernel(params)``
    with one loop over the rows (binding the row index ``_k`` when
    *indexed*), the extra *prelude* lines and ``return returns``.  When the
    final logical row is the input row (selection-only chains), the loop
    also binds the input row ``_r`` and appends it unchanged, as
    ``Selection.eval_rows`` does.  With *output* ``"values"`` the loop
    appends the final row's value tuple instead of a ``Tup`` (the input
    row's ``_values`` when the final row is the input row); with None it
    appends nothing, and the loop-level temporaries that no later line
    reads are dropped (:func:`_live_lines`) before the input columns are
    picked.
    """
    passthrough = False
    if output is None:
        body = _live_lines(kb.lines)
    else:
        values = list(kb._cols.values())
        passthrough = tuple(kb._cols) == layout.names and values == [
            f"_c{i}_" for i in range(len(values))
        ]
        if passthrough:
            kb.emit("_append(_r._values)" if output == "values" else "_append(_r)")
        elif output == "values":
            kb.emit(f"_append({_tuple_source(values)})")
        else:
            out_layout = kb.bind(Layout.of(tuple(kb._cols)))
            kb.emit(f"_append(_mk({out_layout}, {_tuple_source(values)}))")
        body = kb.lines
        prelude = ["    _out = []", "    _append = _out.append"] + prelude
    used = [
        i
        for i in range(len(layout.names))
        if any(f"_c{i}_" in line for line in body)
    ]
    prelude += [f"    _l{i} = [_r._values[{i}] for _r in rows]" for i in used]
    targets = [f"_c{i}_" for i in used]
    lists = [f"_l{i}" for i in used]
    if passthrough:
        targets.insert(0, "_r")
        lists.insert(0, "rows")
    if not targets:
        target, items = ("_k" if indexed else "_"), "range(len(rows))"
    else:
        target = ", ".join(targets)
        items = lists[0]
        if len(lists) > 1:
            items = "zip(" + ", ".join(lists) + ")"
        if indexed:
            target = f"_k, ({target})" if len(targets) > 1 else f"_k, {target}"
            items = f"enumerate({items})"
    loop = f"    for {target} in {items}:"
    header = f"def _kernel({params}):"
    source = "\n".join([header] + prelude + [loop] + body + [f"    return {returns}"]) + "\n"
    namespace = dict(kb.globals)
    exec(compile(source, "<repro-kernel>", "exec"), namespace)
    return namespace["_kernel"], source


#: A loop-level statement that assigns a temporary (``_tN_ = ...``).
_LOOP_TEMP = re.compile(r" {8}_t\d+_ = ")


def _live_lines(lines: "list[str]") -> "list[str]":
    """*lines* without the loop-level temporaries that no later line reads.

    A candidate is a loop-level single-line statement that binds one
    temporary and nothing else (no chained target, no ``:=``).  Scanning
    from the last line up drops every candidate whose temporary no kept
    later line mentions, so a temporary read only by dropped lines goes
    too: the result is what dropping one dead line at a time reaches when
    nothing changes any more.  Only recheck kernels drop lines
    (:func:`build_trace_kernel`): each replays a run whose full kernel
    already evaluated every dropped expression over the same input without
    error, so no dropped line could have raised or bailed out.
    """
    kept: "list[str]" = []
    for line in reversed(lines):
        if _LOOP_TEMP.match(line):
            (statement,) = ast.parse(line.strip()).body
            if (
                len(statement.targets) == 1
                and not any(isinstance(node, ast.NamedExpr) for node in ast.walk(statement))
                and not any(statement.targets[0].id in later for later in kept)
            ):
                continue
        kept.append(line)
    kept.reverse()
    return kept


def kernel_source(ops: "Sequence[Any]", layout: Layout, ctx) -> str:
    """The generated source for a chain (golden-snapshot tests, debugging)."""
    return build_kernel(ops, layout, ctx).source


def build_trace_kernel(
    ops: "Sequence[Any]",
    layout: Layout,
    ctx,
    shapes: "Sequence[tuple]",
    checks: "Sequence[Sequence[tuple[int, Optional[int]]]]",
    recheck: bool = False,
) -> CompiledKernel:
    """Generate and compile a relaxed trace kernel for one narrow run.

    *ops* are one SA group's operators (value-changing narrow operators and
    selections, all 1:1), *shapes* the shapes of the run's distinct NIPs
    (``"?"`` or tuple shapes, see :func:`repro.whynot.matching.nip_shape`)
    and ``checks[j]`` the ``(strict, relaxed)`` shape indices tested after
    ``ops[j]`` (relaxed None: equal to strict).  The kernel is called as
    ``fn(rows, args)`` with the NIPs' ``nip_shape(nip, row=True)`` arguments
    concatenated in shape order and returns ``(values, flags, hits)``: the
    run's output rows as value tuples of the kernel's ``layout``, one
    retained-index list per selection and, per operator, one hit-index
    list per check — the strict hits, or the relaxed ones when no row
    matched strictly.  Each check is the generated Definition-4 test of
    :func:`repro.whynot.matching.fields_test` over the column variables;
    checks repeated over an unchanged row (a selection re-testing its
    child's NIP) share one scan.

    A *recheck* build tests the same checks after the same operators and
    returns only ``hits``: selections emit nothing (a relaxed selection
    never changes the row), no value tuple or retained list is built, and
    the loop-level temporaries that no check reads are dropped before the
    input columns are picked (:func:`_live_lines`).  It is only run over
    input the run's full kernel has already traced without error, which is
    what makes dropping statements safe.
    """
    from repro.algebra.operators import Selection
    from repro.whynot.matching import arg_names, fields_test, shape_arity

    kb = KernelBuilder(layout, relaxed=True)
    firsts: list[int] = []
    n_args = 0
    for shape in shapes:
        firsts.append(n_args)
        n_args += shape_arity(shape)
    hit_lists: list[str] = []
    hits: list[list[str]] = []
    seen: "dict[tuple, str]" = {}

    def hit_list() -> str:
        hit_lists.append(f"_h{len(hit_lists)}")
        return hit_lists[-1]

    def condition(j: int) -> Optional[str]:
        return fields_test(shapes[j], kb._cols, arg_names("_a", firsts[j], shapes[j]), kb)

    for op, op_checks in zip(ops, checks):
        if not (recheck and isinstance(op, Selection)):
            kb.row_type = ctx.schema_of(op.children[0])
            op.emit_kernel(kb, ctx)
            if kb.indent != 2:
                raise KernelUnsupported(f"{type(op).__name__} expands rows")
        row = tuple(kb._cols.items())
        hits.append([])
        for strict, relaxed in op_checks:
            found = seen.get((row, strict, relaxed))
            if found is None:
                s_cond = condition(strict)
                found = strict_hits = hit_list()
                if s_cond is not None:
                    kb.emit(f"if {s_cond}:")
                    kb.emit(f"    {strict_hits}.append(_k)")
                if relaxed is not None:
                    relaxed_hits = hit_list()
                    r_cond = condition(relaxed)
                    if r_cond is not None:
                        guard = "" if s_cond is None else f"not {strict_hits} and "
                        kb.emit(f"if {guard}{r_cond}:")
                        kb.emit(f"    {relaxed_hits}.append(_k)")
                    found = f"({strict_hits} or {relaxed_hits})"
                seen[(row, strict, relaxed)] = found
            hits[-1].append(found)
    prelude = []
    if n_args:
        prelude.append("    " + ", ".join(f"_a{j}" for j in range(n_args)) + ", = _a")
    prelude += [f"    {var} = []" for var in kb.flags + hit_lists]
    per_op_hits = _tuple_source([_tuple_source(h) for h in hits])
    if recheck:
        fn, source = _compile_kernel(
            kb, layout, "rows, _a", prelude, per_op_hits, indexed=True, output=None
        )
        return CompiledKernel(fn, source, (), -1)
    returns = f"_out, {_tuple_source(kb.flags)}, {per_op_hits}"
    fn, source = _compile_kernel(
        kb, layout, "rows, _a", prelude, returns, indexed=True, output="values"
    )
    return CompiledKernel(fn, source, (), -1, Layout.of(tuple(kb._cols)))


_MISSING = object()

#: Global kernel cache: semantic chain key → CompiledKernel or None (a
#: negative entry: the chain is known not to lower, skip codegen retries).
#: Selection keys carry their predicate constants, so every new question
#: constant adds entries; the cache is cleared once it holds
#: ``_KERNEL_CACHE_CAP`` of them (recompiling is cheap).
_KERNEL_CACHE: "dict[Any, Optional[CompiledKernel]]" = {}
_KERNEL_CACHE_CAP = 1024


def kernel_cache_clear() -> None:
    """Drop every cached kernel (tests; never needed in production)."""
    _KERNEL_CACHE.clear()


def _cache_store(key: Any, kernel: Optional[CompiledKernel]) -> None:
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_CAP:
        _KERNEL_CACHE.clear()
    _KERNEL_CACHE[key] = kernel


def _cached_kernel(
    key_fn: "Callable[[], Any]", build: "Callable[[], CompiledKernel]"
) -> "tuple[Optional[CompiledKernel], Optional[float]]":
    """Look up (or build and cache) a kernel by its semantic key.

    Returns the kernel — ``None`` when the key cannot be built or hashed,
    or the build fails (cached as a negative entry) — and the codegen
    seconds spent, or ``None`` on a cache hit.
    """
    try:
        key = key_fn()
        hash(key)
    except Exception:
        return None, 0.0
    cached = _KERNEL_CACHE.get(key, _MISSING)
    if cached is not _MISSING:
        return cached, None
    started = time.perf_counter()
    try:
        kernel: Optional[CompiledKernel] = build()
    except Exception:
        kernel = None
    _cache_store(key, kernel)
    return kernel, time.perf_counter() - started


def _nested_layouts(row_type: TupleType) -> tuple:
    """The nested tuple layouts of a row of *row_type*, by field, at every
    depth: all that :meth:`KernelBuilder.path_value` may bind along a chain
    whose input rows have this type."""
    return tuple(
        (name, typ.names, _nested_layouts(typ))
        for name, typ in row_type.fields
        if isinstance(typ, TupleType)
    )


def _chain_key(ops: "Sequence[Any]", layout: Layout, ctx) -> tuple:
    """The semantic cache key of a chain over input *layout*: the operators'
    ``kernel_key`` values, the layout's names and the nested layouts its
    inferred type holds."""
    return (
        tuple(op.kernel_key(ctx) for op in ops),
        layout.names,
        _nested_layouts(ctx.schema_of(ops[0].children[0])),
    )


def chain_kernel(
    ops: "Sequence[Any]", layout: Layout, ctx, info: dict
) -> Optional[CompiledKernel]:
    """The cached kernel for ``(chain semantics, input layout)`` or ``None``.

    *info* accumulates the observability counters (``hits``/``misses``/
    ``codegen_seconds``) that the executor surfaces through
    ``ExecutionMetrics.kernels``: a hit is a cached kernel returned, a miss
    a lookup that keyed or built nothing cached; a negative entry counts as
    neither, so the hit ratio never credits the row path.  ``None`` means
    "row path, please": the chain contains an unsupported operator, a hook
    declined, or the key is unhashable (e.g. a constant holding an
    unhashable value).
    """
    kernel, codegen_seconds = _cached_kernel(
        lambda: _chain_key(ops, layout, ctx),
        lambda: build_kernel(ops, layout, ctx),
    )
    if codegen_seconds is None:
        if kernel is not None:
            info["hits"] += 1
    else:
        info["misses"] += 1
        info["codegen_seconds"] += codegen_seconds
    return kernel


def trace_kernel(
    ops: "Sequence[Any]",
    layout: Layout,
    ctx,
    shapes: "Sequence[tuple]",
    checks: "Sequence[Sequence[tuple[int, Optional[int]]]]",
    recheck: bool = False,
) -> Optional[CompiledKernel]:
    """The cached relaxed trace kernel for one narrow run, or ``None``.

    Keyed like :func:`chain_kernel` — the operators' ``kernel_key`` values,
    the input layout and its nested layouts — plus the NIP shapes (with the
    layouts of their tuple patterns) and checks, never the NIP constants
    (those reach the kernel as arguments), so a fresh question over the same
    query compiles nothing.  A *recheck* kernel (see
    :func:`build_trace_kernel`) is cached under its own ``"recheck"`` key.
    ``None`` means "trace (or scan) this run operator by operator".
    """

    def key() -> tuple:
        return (
            "recheck" if recheck else "trace",
            _chain_key(ops, layout, ctx),
            tuple(shapes),
            tuple(tuple(c) for c in checks),
        )

    kernel, _ = _cached_kernel(
        key, lambda: build_trace_kernel(ops, layout, ctx, shapes, checks, recheck)
    )
    return kernel
