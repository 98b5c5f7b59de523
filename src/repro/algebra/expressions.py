"""Expression language for selection/join conditions and computed columns.

Conditions θ (paper Table 2) consist of attribute references, comparison
operators ``{=, ≠, <, ≤, >, ≥}``, constants, and logical connectives.
Computed projection columns additionally use arithmetic.  The Twitter and
TPC-H scenarios also use substring containment (``"BTS" ∈ text``).

Null semantics follow SQL's pragmatic reading: any comparison involving ⊥
evaluates to False (so selections filter null-valued tuples), while grouping
and deduplication elsewhere use plain value equality.

Compilation
-----------

:meth:`Expr.compile` lowers an expression tree into a plain Python closure
(row → value) built once and reused for every row: attribute references
become interned path getters (:func:`repro.nested.paths.compile_path`),
comparisons bind their operator function directly, and connectives close over
their children's compiled forms — no tree walking, no ``isinstance`` dispatch
per row.  The compiled closure is cached on the expression instance;
expressions are immutable after construction, so the cache never goes stale.
``Expr.eval`` remains the reference (interpreted) semantics; ``compile`` must
always agree with it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, Optional

from repro.nested.paths import Path, compile_path, parse_path, path_str
from repro.nested.values import NAN, NULL, Bag, Tup, is_null

CompiledExpr = Callable[[Tup], Any]


class KernelUnsupported(Exception):
    """Raised by a codegen hook when a node cannot be lowered to kernel code.

    The kernel builder (:mod:`repro.engine.kernels`) treats this as "fall
    back to the row-at-a-time path for the whole chain" — never as an error,
    so hooks are free to decline any shape they cannot reproduce exactly.
    """


COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Python source operator per comparison token (for kernel codegen); the
#: inline operators agree with :data:`_CMP_FUNCS` exactly.
_CMP_SOURCE = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_CMP_FUNCS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH_FUNCS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Expr:
    """Base class for expressions evaluated against a single tuple."""

    def eval(self, tup: Tup) -> Any:
        """Evaluate this expression against one tuple (reference semantics)."""
        raise NotImplementedError

    def compile(self) -> CompiledExpr:
        """The compiled row→value closure, cached on this expression.

        Safe because expressions are immutable after construction; the
        closure agrees with :meth:`eval` on every input.
        """
        fn = getattr(self, "_compiled", None)
        if fn is None:
            fn = self._compile()
            self._compiled = fn
        return fn

    def _compile(self) -> CompiledExpr:
        raise NotImplementedError

    def emit_kernel(self, kb) -> str:
        """Lower this node into kernel source (see ``docs/KERNELS.md``).

        *kb* is the :class:`repro.engine.kernels.KernelBuilder` for the chain
        being compiled.  The hook may append statements through the builder
        and must return a Python expression string yielding the node's value
        for the current row; it must agree with :meth:`eval` /
        :meth:`compile` exactly (⊥ propagation, canonical NaN, comparison
        ``TypeError`` → ``False``).  Raise :class:`KernelUnsupported` when
        the node cannot be lowered — the whole chain then runs on the row
        path.
        """
        raise KernelUnsupported(type(self).__name__)

    def attr_paths(self) -> list[Path]:
        """All attribute paths referenced by this expression (with duplicates,
        one entry per reference — Table 2 treats repeated references to the
        same attribute as distinct reparameterization slots)."""
        return [node.path for node in self.walk() if isinstance(node, Attr)]

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and every descendant in deterministic pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> tuple["Expr", ...]:
        """The direct child expressions (empty for leaves)."""
        return ()

    def map_attrs(self, fn: Callable[[Path], Path]) -> "Expr":
        """Rebuild the expression with every attribute path rewritten by *fn*."""
        raise NotImplementedError

    # Builder helpers (explicit methods instead of overloading ``==`` so that
    # structural equality keeps working for sets and tests).
    def eq(self, other: "Expr | Any") -> "Cmp":
        """Comparison builder: ``self = other``."""
        return Cmp("=", self, _wrap(other))

    def ne(self, other: "Expr | Any") -> "Cmp":
        """Comparison builder: ``self != other``."""
        return Cmp("!=", self, _wrap(other))

    def lt(self, other: "Expr | Any") -> "Cmp":
        """Comparison builder: ``self < other``."""
        return Cmp("<", self, _wrap(other))

    def le(self, other: "Expr | Any") -> "Cmp":
        """Comparison builder: ``self <= other``."""
        return Cmp("<=", self, _wrap(other))

    def gt(self, other: "Expr | Any") -> "Cmp":
        """Comparison builder: ``self > other``."""
        return Cmp(">", self, _wrap(other))

    def ge(self, other: "Expr | Any") -> "Cmp":
        """Comparison builder: ``self >= other``."""
        return Cmp(">=", self, _wrap(other))

    def between(self, low: Any, high: Any) -> "And":
        """Range builder: ``low <= self <= high`` (inclusive on both ends)."""
        return And(self.ge(low), self.le(high))

    def contains(self, needle: "Expr | Any") -> "Contains":
        """Containment builder: ``needle in self`` (substring or bag membership)."""
        return Contains(self, _wrap(needle))

    def is_null(self) -> "IsNull":
        """Null-test builder: true when this expression evaluates to ⊥."""
        return IsNull(self)

    def __add__(self, other: "Expr | Any") -> "Arith":
        return Arith("+", self, _wrap(other))

    def __sub__(self, other: "Expr | Any") -> "Arith":
        return Arith("-", self, _wrap(other))

    def __rsub__(self, other: "Expr | Any") -> "Arith":
        return Arith("-", _wrap(other), self)

    def __mul__(self, other: "Expr | Any") -> "Arith":
        return Arith("*", self, _wrap(other))

    def __rmul__(self, other: "Expr | Any") -> "Arith":
        return Arith("*", _wrap(other), self)

    def __truediv__(self, other: "Expr | Any") -> "Arith":
        return Arith("/", self, _wrap(other))

    def __and__(self, other: "Expr") -> "And":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


def _wrap(value: "Expr | Any") -> Expr:
    return value if isinstance(value, Expr) else Const(value)


class Attr(Expr):
    """A reference to an attribute (possibly a dotted path through tuples)."""

    __slots__ = ("path",)

    def __init__(self, path: "str | Path"):
        self.path = parse_path(path)

    def eval(self, tup: Tup) -> Any:
        return tup.get_path(self.path)

    def _compile(self) -> CompiledExpr:
        return compile_path(self.path)

    def emit_kernel(self, kb) -> str:
        return kb.path_value(self.path)

    def map_attrs(self, fn: Callable[[Path], Path]) -> "Attr":
        return Attr(fn(self.path))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Attr) and self.path == other.path

    def __hash__(self) -> int:
        return hash(("attr", self.path))

    def __repr__(self) -> str:
        return path_str(self.path)


class Const(Expr):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def eval(self, tup: Tup) -> Any:
        return self.value

    def _compile(self) -> CompiledExpr:
        value = self.value
        return lambda t: value

    def emit_kernel(self, kb) -> str:
        # int/bool/str literals inline verbatim; anything else (floats with
        # NaN, tuples, bags, ⊥) is bound as a kernel global so the kernel
        # yields the *same object* the row path would.
        if type(self.value) in (int, bool, str):
            return repr(self.value)
        return kb.bind(self.value)

    def map_attrs(self, fn: Callable[[Path], Path]) -> "Const":
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and _typed(self.value) == _typed(other.value)

    def __hash__(self) -> int:
        return hash(("const", _typed(self.value)))

    def __repr__(self) -> str:
        return repr(self.value)


def _typed(value: Any) -> Any:
    """A key of *value* that is equal only for values of the same type
    throughout: ``1``, ``True`` and ``1.0`` differ, as do ``0.0`` and
    ``-0.0`` and tuples or bags holding them.  Kernels embed their
    constants, so ``Const`` equality — and with it every kernel cache key —
    must be this strict."""
    kind = type(value)
    if kind is float:
        return (kind, value, math.copysign(1.0, value))
    if kind is Tup:
        return (kind, value.attrs, tuple(_typed(v) for v in value.values()))
    if kind is Bag:
        return (kind, frozenset((_typed(e), n) for e, n in value.items()))
    return (kind, value)


class Cmp(Expr):
    """A comparison ``left op right`` with op ∈ {=, !=, <, <=, >, >=}."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, tup: Tup) -> bool:
        lhs = self.left.eval(tup)
        rhs = self.right.eval(tup)
        if is_null(lhs) or is_null(rhs):
            return False
        try:
            return _CMP_FUNCS[self.op](lhs, rhs)
        except TypeError:
            return False

    def _compile(self) -> CompiledExpr:
        left = self.left.compile()
        right = self.right.compile()
        cmp_fn = _CMP_FUNCS[self.op]

        def run(t: Tup) -> bool:
            lhs = left(t)
            rhs = right(t)
            if is_null(lhs) or is_null(rhs):
                return False
            try:
                return cmp_fn(lhs, rhs)
            except TypeError:
                return False

        return run

    def emit_kernel(self, kb) -> str:
        lhs, lhs_null = _kernel_operand(kb, self.left)
        rhs, rhs_null = _kernel_operand(kb, self.right)
        if lhs_null or rhs_null:
            return "False"
        out = kb.tmp()
        tests = _null_tests(kb, (lhs, lhs_null), (rhs, rhs_null))
        if tests:
            kb.emit(f"if {tests}:")
            kb.emit(f"    {out} = False")
            kb.emit("else:")
            kb.indent += 1
        kb.emit("try:")
        kb.emit(f"    {out} = {lhs} {_CMP_SOURCE[self.op]} {rhs}")
        kb.emit("except TypeError:")
        kb.emit(f"    {out} = False")
        if tests:
            kb.indent -= 1
        return out

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def map_attrs(self, fn: Callable[[Path], Path]) -> "Cmp":
        return Cmp(self.op, self.left.map_attrs(fn), self.right.map_attrs(fn))

    def with_op(self, op: str) -> "Cmp":
        """A copy of this comparison with the operator replaced (Table 2)."""
        return Cmp(op, self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cmp)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("cmp", self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Arith(Expr):
    """Arithmetic ``left op right`` with op ∈ {+, -, *, /}; ⊥ is absorbing.

    A NaN result is returned as the canonical
    :data:`~repro.nested.values.NAN` object, so computed columns feeding
    group/join keys obey the engine-wide single-NaN invariant (NaN produced
    per row by a compiled kernel must equal NaN produced by the reference
    evaluation).
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_FUNCS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, tup: Tup) -> Any:
        lhs = self.left.eval(tup)
        rhs = self.right.eval(tup)
        if is_null(lhs) or is_null(rhs):
            return NULL
        out = _ARITH_FUNCS[self.op](lhs, rhs)
        if type(out) is float and out != out:
            return NAN
        return out

    def _compile(self) -> CompiledExpr:
        left = self.left.compile()
        right = self.right.compile()
        arith_fn = _ARITH_FUNCS[self.op]

        def run(t: Tup) -> Any:
            lhs = left(t)
            rhs = right(t)
            if is_null(lhs) or is_null(rhs):
                return NULL
            out = arith_fn(lhs, rhs)
            if type(out) is float and out != out:
                return NAN
            return out

        return run

    def emit_kernel(self, kb) -> str:
        lhs = kb.capture(self.left.emit_kernel(kb))
        rhs = kb.capture(self.right.emit_kernel(kb))
        out = kb.tmp()
        kb.emit(f"if {kb.null_test(lhs)} or {kb.null_test(rhs)}:")
        kb.emit(f"    {out} = _NULL")
        kb.emit("else:")
        kb.emit(f"    {out} = {lhs} {self.op} {rhs}")
        kb.emit(f"    if type({out}) is float and {out} != {out}:")
        kb.emit(f"        {out} = _NAN")
        return out

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def map_attrs(self, fn: Callable[[Path], Path]) -> "Arith":
        return Arith(self.op, self.left.map_attrs(fn), self.right.map_attrs(fn))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Arith)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("arith", self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    """Conjunction of one or more boolean expressions."""

    __slots__ = ("terms",)

    def __init__(self, *terms: Expr):
        flattened: list[Expr] = []
        for term in terms:
            if isinstance(term, And):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        self.terms = tuple(flattened)

    def eval(self, tup: Tup) -> bool:
        return all(term.eval(tup) for term in self.terms)

    def _compile(self) -> CompiledExpr:
        fns = tuple(term.compile() for term in self.terms)

        def run(t: Tup) -> bool:
            for fn in fns:
                if not fn(t):
                    return False
            return True

        return run

    def emit_kernel(self, kb) -> str:
        # Nested ifs preserve short-circuit evaluation: term i+1's statements
        # only run when term i was truthy, exactly like the compiled closure.
        out = kb.tmp()
        kb.emit(f"{out} = False")
        opened = 0
        for term in self.terms:
            kb.emit(f"if {term.emit_kernel(kb)}:")
            kb.indent += 1
            opened += 1
        kb.emit(f"{out} = True")
        kb.indent -= opened
        return out

    def children(self) -> tuple[Expr, ...]:
        return self.terms

    def map_attrs(self, fn: Callable[[Path], Path]) -> "And":
        return And(*(term.map_attrs(fn) for term in self.terms))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("and", self.terms))

    def __repr__(self) -> str:
        return " ∧ ".join(repr(term) for term in self.terms)


class Or(Expr):
    """Disjunction of one or more boolean expressions."""

    __slots__ = ("terms",)

    def __init__(self, *terms: Expr):
        flattened: list[Expr] = []
        for term in terms:
            if isinstance(term, Or):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        self.terms = tuple(flattened)

    def eval(self, tup: Tup) -> bool:
        return any(term.eval(tup) for term in self.terms)

    def _compile(self) -> CompiledExpr:
        fns = tuple(term.compile() for term in self.terms)

        def run(t: Tup) -> bool:
            for fn in fns:
                if fn(t):
                    return True
            return False

        return run

    def emit_kernel(self, kb) -> str:
        out = kb.tmp()
        kb.emit(f"{out} = True")
        opened = 0
        for term in self.terms:
            kb.emit(f"if not ({term.emit_kernel(kb)}):")
            kb.indent += 1
            opened += 1
        kb.emit(f"{out} = False")
        kb.indent -= opened
        return out

    def children(self) -> tuple[Expr, ...]:
        return self.terms

    def map_attrs(self, fn: Callable[[Path], Path]) -> "Or":
        return Or(*(term.map_attrs(fn) for term in self.terms))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("or", self.terms))

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(term) for term in self.terms) + ")"


class Not(Expr):
    """Negation."""

    __slots__ = ("term",)

    def __init__(self, term: Expr):
        self.term = term

    def eval(self, tup: Tup) -> bool:
        return not self.term.eval(tup)

    def _compile(self) -> CompiledExpr:
        fn = self.term.compile()
        return lambda t: not fn(t)

    def emit_kernel(self, kb) -> str:
        return f"(not ({self.term.emit_kernel(kb)}))"

    def children(self) -> tuple[Expr, ...]:
        return (self.term,)

    def map_attrs(self, fn: Callable[[Path], Path]) -> "Not":
        return Not(self.term.map_attrs(fn))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.term == other.term

    def __hash__(self) -> int:
        return hash(("not", self.term))

    def __repr__(self) -> str:
        return f"¬{self.term!r}"


class Contains(Expr):
    """Containment: substring test on strings, membership test on bags.

    Used by the Twitter scenarios (``"BTS" ∈ text``) and TPC-H Q13
    (``"special" ∉ o_comment`` via ``Not(Contains(...))``).
    """

    __slots__ = ("haystack", "needle")

    def __init__(self, haystack: Expr, needle: Expr):
        self.haystack = haystack
        self.needle = needle

    def eval(self, tup: Tup) -> bool:
        haystack = self.haystack.eval(tup)
        needle = self.needle.eval(tup)
        if is_null(haystack) or is_null(needle):
            return False
        if isinstance(haystack, str):
            return str(needle) in haystack
        if isinstance(haystack, Bag):
            return needle in haystack
        return False

    def _compile(self) -> CompiledExpr:
        hay_fn = self.haystack.compile()
        needle_fn = self.needle.compile()

        def run(t: Tup) -> bool:
            haystack = hay_fn(t)
            needle = needle_fn(t)
            if is_null(haystack) or is_null(needle):
                return False
            if isinstance(haystack, str):
                return str(needle) in haystack
            if isinstance(haystack, Bag):
                return needle in haystack
            return False

        return run

    def emit_kernel(self, kb) -> str:
        hay, hay_null = _kernel_operand(kb, self.haystack)
        needle, needle_null = _kernel_operand(kb, self.needle)
        if hay_null or needle_null:
            return "False"
        out = kb.tmp()
        text = needle
        if not (isinstance(self.needle, Const) and type(self.needle.value) is str):
            text = f"str({needle})"
        tests = _null_tests(kb, (hay, hay_null), (needle, needle_null))
        if tests:
            kb.emit(f"if {tests}:")
            kb.emit(f"    {out} = False")
        kb.emit(f"{'el' if tests else ''}if isinstance({hay}, str):")
        kb.emit(f"    {out} = {text} in {hay}")
        kb.emit(f"elif isinstance({hay}, _Bag):")
        kb.emit(f"    {out} = {needle} in {hay}")
        kb.emit("else:")
        kb.emit(f"    {out} = False")
        return out

    def children(self) -> tuple[Expr, ...]:
        return (self.haystack, self.needle)

    def map_attrs(self, fn: Callable[[Path], Path]) -> "Contains":
        return Contains(self.haystack.map_attrs(fn), self.needle.map_attrs(fn))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Contains)
            and self.haystack == other.haystack
            and self.needle == other.needle
        )

    def __hash__(self) -> int:
        return hash(("contains", self.haystack, self.needle))

    def __repr__(self) -> str:
        return f"({self.needle!r} ∈ {self.haystack!r})"


class IsNull(Expr):
    """True when the operand evaluates to ⊥."""

    __slots__ = ("term",)

    def __init__(self, term: Expr):
        self.term = term

    def eval(self, tup: Tup) -> bool:
        return is_null(self.term.eval(tup))

    def _compile(self) -> CompiledExpr:
        fn = self.term.compile()
        return lambda t: is_null(fn(t))

    def emit_kernel(self, kb) -> str:
        value = kb.capture(self.term.emit_kernel(kb))
        return f"({kb.null_test(value)})"

    def children(self) -> tuple[Expr, ...]:
        return (self.term,)

    def map_attrs(self, fn: Callable[[Path], Path]) -> "IsNull":
        return IsNull(self.term.map_attrs(fn))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IsNull) and self.term == other.term

    def __hash__(self) -> int:
        return hash(("isnull", self.term))

    def __repr__(self) -> str:
        return f"isnull({self.term!r})"


def _kernel_operand(kb, expr: Expr) -> "tuple[str, Optional[bool]]":
    """A comparison operand's kernel source and whether it is ⊥, settled at
    codegen for a constant (inlined as it is) and None otherwise (captured
    into a variable and tested per row)."""
    if isinstance(expr, Const):
        return expr.emit_kernel(kb), is_null(expr.value)
    return kb.capture(expr.emit_kernel(kb)), None


def _null_tests(kb, *operands: "tuple[str, Optional[bool]]") -> str:
    """The per-row ⊥ tests of the operands not settled at codegen."""
    return " or ".join(kb.null_test(var) for var, null in operands if null is None)


def col(path: "str | Path") -> Attr:
    """Shorthand attribute reference: ``col("address2.city")``."""
    return Attr(path)


def lit(value: Any) -> Const:
    """Shorthand constant: ``lit(2019)``."""
    return Const(value)
