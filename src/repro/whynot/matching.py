"""NIP matching semantics (paper Definition 4).

An instance I matches a NIP I′ (written I ≃ I′) when:

1. I′ = ``?``; or
2. I = I′ (plain equality, including ⊥ = ⊥); or
3. both are tuples over the same attributes and every attribute matches; or
4. both are bags and there is a multiplicity-respecting assignment M between
   instance elements and pattern elements such that every instance element is
   fully assigned (4b) and every non-``*`` pattern element receives exactly
   its multiplicity (4c), with assignments only between matching elements
   (4a).  ``*`` absorbs any leftover elements.

Condition 4 is a transportation feasibility problem solved with an exact
integer max-flow (Edmonds–Karp; bags in why-not questions are small).

Compiled patterns
-----------------

NIPs are fixed per operator while the tracer tests thousands of rows against
them, so :func:`compile_pattern` lowers a pattern once into a value→bool
closure: ``?`` fields are skipped entirely, tuple-attribute compatibility is
checked per interned layout instead of per row, and bag patterns precompute
their item lists.  ``matches`` delegates to the compiled form's semantics and
stays the reference implementation; both must always agree.

Generated tests
---------------

The tracer's hot loops go one step further and test NIPs in generated
source.  :func:`nip_shape` splits a NIP into a *shape* — tuple layouts,
constants and ``?`` — and the *arguments* its test reads: constants,
:func:`compile_pattern` closures for predicates and bag patterns, and per
tuple pattern a fallback closure for values of any other layout (None for
the top pattern of a NIP that tests whole rows, whose layout is settled at
codegen).
:func:`value_test` and :func:`fields_test` turn a shape into a Python
expression (a value of the pattern's layout is read by position; anything
else goes to the fallback), :func:`compile_scan` compiles one column scan
per shape, and the trace kernels (:func:`repro.engine.kernels.trace_kernel`)
inline the same tests.  The Definition 5 check (:func:`matching_tuples`,
:func:`any_match`) runs the generated scan over a relation's distinct
tuples.  Constants reach the code as arguments, never as
source, so NIPs that differ only in constants share every compiled scan and
kernel.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.nested.values import Bag, Layout, Tup
from repro.whynot.placeholders import ANY, STAR, Predicate, _Any, _Star

Matcher = Callable[[Any], bool]


class InvalidNIP(ValueError):
    """Raised when a pattern violates Definition 3 (e.g. two ``*`` in a bag)."""


def validate_nip(pattern: Any) -> None:
    """Check Definition 3 structural rules; raises :class:`InvalidNIP`."""
    _validate(pattern, top=True)


def _validate(pattern: Any, top: bool) -> None:
    if isinstance(pattern, _Star):
        raise InvalidNIP("the multiplicity placeholder * may only appear inside a bag")
    if isinstance(pattern, Tup):
        for _, value in pattern.items():
            _validate(value, top=False)
        return
    if isinstance(pattern, Bag):
        if pattern.mult(STAR) > 1:
            raise InvalidNIP("a bag pattern may contain at most one *")
        for element in pattern.distinct():
            if isinstance(element, _Star):
                continue
            _validate(element, top=False)
        return
    # primitives, ?, Cond, NULL: always fine


def matches(instance: Any, pattern: Any) -> bool:
    """Test ``instance ≃ pattern`` per Definition 4."""
    if isinstance(pattern, _Any):
        return True
    if isinstance(pattern, Predicate):
        return pattern.test(instance)
    if isinstance(pattern, Tup):
        if not isinstance(instance, Tup):
            return False
        if set(instance.attrs) != set(pattern.attrs):
            return False
        return all(matches(instance[name], pattern[name]) for name in pattern.attrs)
    if isinstance(pattern, Bag):
        if not isinstance(instance, Bag):
            return False
        return _bag_matches(instance, pattern)
    return instance == pattern


_COMPILED_PATTERNS: dict[int, tuple[Any, Matcher]] = {}
_COMPILED_PATTERNS_CAP = 4096


def compile_pattern(pattern: Any) -> Matcher:
    """Compile *pattern* into a value→bool closure (interned per pattern).

    Semantics are exactly those of :func:`matches`.  The cache is keyed by
    object identity (patterns are immutable values held by backtrace results,
    which stay alive for the duration of a trace) and bounded: once it
    exceeds the cap it is cleared, so long-lived processes answering many
    why-not questions don't accumulate dead patterns — recompiling is cheap.
    """
    cached = _COMPILED_PATTERNS.get(id(pattern))
    if cached is not None and cached[0] is pattern:
        return cached[1]
    matcher = _compile_pattern(pattern)
    if len(_COMPILED_PATTERNS) >= _COMPILED_PATTERNS_CAP:
        _COMPILED_PATTERNS.clear()
    # Keep a reference to the pattern so the id() key cannot be reused while
    # the cache entry exists.
    _COMPILED_PATTERNS[id(pattern)] = (pattern, matcher)
    return matcher


def _compile_pattern(pattern: Any) -> Matcher:
    if isinstance(pattern, _Any):
        return lambda v: True
    if isinstance(pattern, Predicate):
        return pattern.test
    if isinstance(pattern, Tup):
        return _compile_tuple_pattern(pattern)
    if isinstance(pattern, Bag):
        return _compile_bag_pattern(pattern)

    def match_const(v: Any, _p: Any = pattern) -> bool:
        return v == _p

    return match_const


def _compile_tuple_pattern(pattern: Tup) -> Matcher:
    expected = frozenset(pattern.attrs)
    constrained = tuple(
        (name, _compile_pattern(sub))
        for name, sub in pattern.items()
        if not isinstance(sub, _Any)
    )
    # Attribute-set compatibility is a property of the instance *layout*;
    # layouts are interned, so remember the verdict per layout identity.
    layout_ok: dict[int, bool] = {}

    def match_tuple(v: Any) -> bool:
        if not isinstance(v, Tup):
            return False
        layout = v._layout
        ok = layout_ok.get(id(layout))
        if ok is None:
            ok = layout_ok[id(layout)] = frozenset(layout.names) == expected
        if not ok:
            return False
        index = v._index
        values = v._values
        for name, sub in constrained:
            i = index.get(name)
            if i is None or not sub(values[i]):
                return False
        return True

    return match_tuple


def _compile_bag_pattern(pattern: Bag) -> Matcher:
    star_count = pattern.mult(STAR)
    if star_count > 1:
        raise InvalidNIP("a bag pattern may contain at most one *")
    pattern_items = tuple(
        (_compile_pattern(p), n) for p, n in pattern.items() if not isinstance(p, _Star)
    )
    total_demand = sum(n for _, n in pattern_items)

    if not pattern_items:

        def match_empty(v: Any) -> bool:
            if not isinstance(v, Bag):
                return False
            return star_count > 0 or len(v) == 0

        return match_empty

    if len(pattern_items) == 1:
        element_matcher, demand = pattern_items[0]

        def match_single(v: Any) -> bool:
            if not isinstance(v, Bag):
                return False
            total_supply = len(v)
            if total_supply < demand:
                return False
            if star_count == 0 and total_supply != demand:
                return False
            available = sum(m for e, m in v.items() if element_matcher(e))
            if star_count:
                return available >= demand
            return available == demand == total_supply

        return match_single

    demands = [n for _, n in pattern_items]

    def match_flow(v: Any) -> bool:
        if not isinstance(v, Bag):
            return False
        total_supply = len(v)
        if total_supply < total_demand:
            return False
        if star_count == 0 and total_supply != total_demand:
            return False
        instance_items = list(v.items())
        edges = {
            (j, k)
            for j, (value, _) in enumerate(instance_items)
            for k, (matcher, _) in enumerate(pattern_items)
            if matcher(value)
        }
        supplies = [m for _, m in instance_items]
        return _max_flow_feasible(supplies, demands, edges)

    return match_flow


def _bag_matches(instance: Bag, pattern: Bag) -> bool:
    star_count = pattern.mult(STAR)
    if star_count > 1:
        raise InvalidNIP("a bag pattern may contain at most one *")
    pattern_items = [(p, n) for p, n in pattern.items() if not isinstance(p, _Star)]
    instance_items = list(instance.items())
    total_supply = len(instance)
    total_demand = sum(n for _, n in pattern_items)
    if total_supply < total_demand:
        return False
    if star_count == 0 and total_supply != total_demand:
        return False
    if total_demand == 0:
        return True

    # Fast path: single non-star pattern element.
    if len(pattern_items) == 1:
        p, n = pattern_items[0]
        available = sum(m for v, m in instance_items if matches(v, p))
        if star_count:
            return available >= n
        return available == n == total_supply

    # General case: max-flow feasibility.
    edges = {
        (j, k)
        for j, (v, _) in enumerate(instance_items)
        for k, (p, _) in enumerate(pattern_items)
        if matches(v, p)
    }
    supplies = [m for _, m in instance_items]
    demands = [n for _, n in pattern_items]
    return _max_flow_feasible(supplies, demands, edges)


def _max_flow_feasible(
    supplies: list[int], demands: list[int], edges: set[tuple[int, int]]
) -> bool:
    """True if every demand can be met from matching supplies (Edmonds–Karp)."""
    n_supply = len(supplies)
    n_demand = len(demands)
    source = 0
    sink = 1 + n_supply + n_demand
    size = sink + 1
    capacity = [dict() for _ in range(size)]

    def add_edge(u: int, v: int, cap: int) -> None:
        capacity[u][v] = capacity[u].get(v, 0) + cap
        capacity[v].setdefault(u, 0)

    for j, supply in enumerate(supplies):
        add_edge(source, 1 + j, supply)
    for k, demand in enumerate(demands):
        add_edge(1 + n_supply + k, sink, demand)
    big = sum(supplies) + 1
    for j, k in edges:
        add_edge(1 + j, 1 + n_supply + k, big)

    flow = 0
    target = sum(demands)
    while flow < target:
        # BFS for an augmenting path.
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, cap in capacity[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return False
        # Find bottleneck.
        bottleneck = target - flow
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, capacity[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            capacity[u][v] -= bottleneck
            capacity[v][u] = capacity[v].get(u, 0) + bottleneck
            v = u
        flow += bottleneck
    return True


def nip_shape(pattern: Any, row: bool = False) -> "tuple[Any, tuple]":
    """Split a NIP into its codegen shape and the arguments its test reads.

    The shape is ``"?"``; ``"="`` for a constant (tested with ``==``, as
    :func:`matches` does; the argument is the constant); ``"m"`` for a
    predicate or bag pattern (the argument is its :func:`compile_pattern`
    closure); or ``("tup", names, shapes)`` for a tuple pattern over *names*
    in the pattern's order, whose arguments are its own closure — the
    fallback for values of another layout — followed by its attributes'.
    With *row* the NIP tests whole rows (:func:`fields_test`), whose layout
    is settled at codegen: no test calls the top pattern's fallback, so its
    place holds None instead of a compiled closure.
    """
    args: list = []
    if row and isinstance(pattern, Tup):
        args.append(None)
        subs = tuple(_shape(v, args) for v in pattern.values())
        return ("tup", pattern.attrs, subs), tuple(args)
    return _shape(pattern, args), tuple(args)


def _shape(pattern: Any, args: list) -> Any:
    if isinstance(pattern, _Any):
        return "?"
    if isinstance(pattern, Tup):
        args.append(compile_pattern(pattern))
        return ("tup", pattern.attrs, tuple(_shape(v, args) for v in pattern.values()))
    if isinstance(pattern, (Predicate, Bag)):
        args.append(compile_pattern(pattern))
        return "m"
    args.append(pattern)
    return "="


def shape_arity(shape: Any) -> int:
    """The number of arguments a test of *shape* reads (see :func:`nip_shape`)."""
    if shape == "?":
        return 0
    if shape[0] == "tup":
        return 1 + sum(shape_arity(sub) for sub in shape[2])
    return 1


def value_test(shape: Any, value: str, args: Iterator[str], src: Any) -> str:
    """Source of a boolean expression: the value of *value* ``≃`` the NIP.

    *value* is an identifier or a ``var._values[i]`` read; *args* yields the
    names holding the shape's arguments, in :func:`nip_shape` order; *src*
    names temporaries (``tmp()``) and binds layouts into the generated
    code's globals (``bind(obj)``), where ``_Tup`` must name
    :class:`~repro.nested.values.Tup`.  A tuple of the pattern's layout is
    read by position; any other value goes to the pattern's closure.
    """
    if shape == "?":
        return "True"
    if shape == "=":
        return f"{value} == {next(args)}"
    if shape == "m":
        return f"{next(args)}({value})"
    _, names, subs = shape
    fallback = next(args)
    var = value
    if not value.isidentifier():
        var = src.tmp()
        value = f"({var} := {value})"
    guard = (
        f"{value}.__class__ is _Tup and {var}._layout is {src.bind(Layout.of(names))}"
    )
    tests = [
        test
        for i, sub in enumerate(subs)
        if (test := value_test(sub, f"{var}._values[{i}]", args, src)) != "True"
    ]
    if not tests:
        return f"({guard} or {fallback}({var}))"
    return f"({' and '.join(tests)} if {guard} else {fallback}({var}))"


def fields_test(
    shape: Any, fields: "Mapping[str, str]", args: Iterator[str], src: Any
) -> Optional[str]:
    """Source of the test of a row held as variables (``fields`` maps its
    attribute names to them) against a NIP of shape ``"?"`` or ``"tup"``.

    The row's attribute set is known, so it is settled here: None when no
    row can match.  Otherwise like :func:`value_test`; the top pattern's
    fallback is never called (``nip_shape(pattern, row=True)`` builds none).
    """
    if shape == "?":
        return "True"
    _, names, subs = shape
    next(args)  # the fallback: this row's layout is settled here
    if frozenset(fields) != frozenset(names):
        return None
    tests = [
        test
        for name, sub in zip(names, subs)
        if (test := value_test(sub, fields[name], args, src)) != "True"
    ]
    return " and ".join(tests) or "True"


def arg_names(prefix: str, first: int, shape: Any) -> Iterator[str]:
    """The argument names of a test of *shape* whose arguments start at
    ``{prefix}{first}``."""
    return iter([f"{prefix}{first + k}" for k in range(shape_arity(shape))])


class _ScanSource:
    """Temporaries and globals of one generated column scan."""

    def __init__(self) -> None:
        self.globals: dict = {"_Tup": Tup}
        self._tmp = 0

    def tmp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}_"

    def bind(self, obj: Any) -> str:
        name = f"_g{len(self.globals) - 1}"
        self.globals[name] = obj
        return name


def build_scan(shape: Any) -> "tuple[Callable[[list, tuple], list], str]":
    """Generate and compile the column scan for NIPs of *shape*.

    The scan is called as ``scan(column, args)`` with the arguments of
    :func:`nip_shape` and returns the indices of the present (not None)
    values that match.  Returns ``(scan, source)``.
    """
    src = _ScanSource()
    names = list(arg_names("_a", 0, shape))
    test = value_test(shape, "_v", iter(names), src)
    cond = "_v is not None" if test == "True" else f"_v is not None and {test}"
    lines = ["def _scan(column, _a):"]
    if names:
        lines.append(f"    {', '.join(names)}, = _a")
    lines += [
        "    _hits = []",
        "    _append = _hits.append",
        "    for _k, _v in enumerate(column):",
        f"        if {cond}:",
        "            _append(_k)",
        "    return _hits",
    ]
    source = "\n".join(lines) + "\n"
    namespace = dict(src.globals)
    exec(compile(source, "<repro-nip-scan>", "exec"), namespace)
    return namespace["_scan"], source


#: Compiled column scans by shape.  Shapes hold every layout a scan binds
#: and no constant, so the cache is semantic; it is cleared once it holds
#: ``_SCAN_CACHE_CAP`` scans (recompiling is cheap).
_SCAN_CACHE: "dict[Any, Callable[[list, tuple], list]]" = {}
_SCAN_CACHE_CAP = 1024


def compile_scan(shape: Any) -> "Callable[[list, tuple], list]":
    """The cached column scan for NIPs of *shape* (see :func:`build_scan`)."""
    scan = _SCAN_CACHE.get(shape)
    if scan is None:
        if len(_SCAN_CACHE) >= _SCAN_CACHE_CAP:
            _SCAN_CACHE.clear()
        scan = _SCAN_CACHE[shape] = build_scan(shape)[0]
    return scan


def matching_rows(column: list, pattern: Any) -> "list[int]":
    """Indices of the present (not None) values of *column* that match
    *pattern*, by one generated scan (equal to testing each with
    :func:`matches`)."""
    shape, args = nip_shape(pattern)
    return compile_scan(shape)(column, args)


def any_match(relation: Bag, pattern: Any) -> bool:
    """True when some tuple of *relation* matches *pattern*."""
    return bool(matching_tuples(relation, pattern))


def matching_tuples(relation: Bag, pattern: Any) -> list:
    """All distinct tuples of *relation* matching *pattern*, by one
    generated scan (:func:`matching_rows`) over them."""
    tuples = list(relation.distinct())
    return [tuples[k] for k in matching_rows(tuples, pattern)]
