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
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.nested.values import Bag, Tup
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


def pattern_shape(pattern: Any) -> "Optional[tuple[tuple, tuple]]":
    """Split a row-level NIP into a codegen shape and its sub-patterns.

    Trace kernels (:func:`repro.engine.kernels.trace_kernel`) test NIPs
    against column variables, so their source depends only on the shape:
    ``("any",)`` for ``?``, or ``("tup", attribute set, constrained names)``
    for a tuple pattern, whose constrained attributes' sub-patterns are
    compiled with :func:`compile_pattern` and passed in as kernel arguments
    (the same tests :func:`compile_pattern` runs on whole rows).  Returns
    ``(shape, sub_patterns)``, or None for other top-level patterns.
    """
    if isinstance(pattern, _Any):
        return ("any",), ()
    if not isinstance(pattern, Tup):
        return None
    constrained = [(n, v) for n, v in pattern.items() if not isinstance(v, _Any)]
    shape = ("tup", frozenset(pattern.attrs), tuple(n for n, _ in constrained))
    return shape, tuple(v for _, v in constrained)


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
    (_, expected, names), subs = pattern_shape(pattern)
    constrained = tuple(zip(names, map(_compile_pattern, subs)))
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


def any_match(relation: Bag, pattern: Any) -> bool:
    """True when some tuple of *relation* matches *pattern*."""
    return any(matches(t, pattern) for t in relation.distinct())


def matching_tuples(relation: Bag, pattern: Any) -> list:
    """All distinct tuples of *relation* matching *pattern*."""
    return [t for t in relation.distinct() if matches(t, pattern)]
