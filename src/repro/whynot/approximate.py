"""Step 4: approximating MSRs (paper Algorithm 4 and §5.4 bounds).

Operators are processed top-down (root first).  Every state carries the
partial successful reparameterization ``SR_i`` of a schema alternative plus
the *alive frontier*: the traced rows that can still witness the missing
answer given the extension/skip decisions taken so far.  At each operator:

* **extend** — some alive, consistent row was *not retained* by the operator
  as written in Sᵢ's query: changing the operator lets it through, so the
  operator joins ``SR_i`` (Algorithm 4 line 8); all consistent rows flow on.
* **skip** — some alive, consistent row *was* retained: the missing answer
  may be producible without touching this operator (line 13); only retained
  rows flow on.

Tracking the frontier per state (rather than testing flags globally) keeps a
single derivation chain honest across operators: a row that skipped σ_a
cannot later be the witness that extends σ_b if it never survived σ_a.

Side-effect bounds follow §5.4: upper bounds count final tuples touched by
non-retained flags of the explanation's operators (S1) or tuples deviating
from fully-retained originals (other SAs); lower bounds are 0 whenever the
explanation contains a selection or join ("full relaxation" may be avoidable)
and top-level cardinality differences otherwise.  Explanations are ranked by
the partial order of Definition 9: (|Δ|, original-SA first, UB, LB).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import and_, or_
from typing import Callable, Optional

from repro.algebra.operators import Join, Query, Selection
from repro.whynot.alternatives import SchemaAlternative
from repro.whynot.question import WhyNotQuestion
from repro.whynot.tracing import OpTrace, TraceResult, parent_reader


@dataclass
class Explanation:
    """One query-based explanation: a set of operators to reparameterize."""

    ops: frozenset[int]
    labels: tuple[str, ...]
    sa_index: int
    sa_description: str
    lb: float = 0.0
    ub: float = 0.0
    rank: int = 0

    def key(self) -> frozenset[int]:
        """The operator-id set identifying this explanation (Def. 9)."""
        return self.ops

    def __repr__(self) -> str:
        inner = ", ".join(self.labels)
        return f"{{{inner}}}"


class StateBudgetExceeded(RuntimeError):
    """Raised when the Algorithm-4 state queue grows beyond the cap."""


def approximate_msrs(
    question: WhyNotQuestion,
    sas: list[SchemaAlternative],
    trace: TraceResult,
    max_states: int = 100_000,
) -> list[Explanation]:
    """Run Algorithm 4 over the tracing snapshots and rank the results.

    Frontiers are sets of row ids; the rows of one operator's snapshot are
    the ids in ``(base, base + count]``, and their flags are read straight
    from the snapshot's mask columns.
    """
    query = question.query
    order = list(reversed(query.ops))  # root first
    snaps = [trace.traces[op.op_id] for op in order]

    found: dict[tuple[int, frozenset[int]], None] = {}
    queue: deque = deque()
    seen: set = set()

    final = trace.traces[trace.root_id]
    for i, sa in enumerate(sas):
        bit = 1 << i
        final_alive = frozenset(
            final.base + k + 1 for k, mask in enumerate(final.consistent) if mask & bit
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
        snap = snaps[pos]
        low, high = snap.base, snap.base + snap.count
        here = [rid for rid in frontier if low < rid <= high]
        passthrough = frontier.difference(here)

        def push(new_sr: frozenset[int], rids: list[int]) -> None:
            # An empty frontier is fine: it means every alive chain already
            # grounded at a table access; remaining operators are no-ops for
            # this state and it proceeds to finalization.
            new_frontier = passthrough.union(snap.parent_rids(rids))
            state = (pos + 1, new_sr, new_frontier, i)
            if state not in seen:
                seen.add(state)
                queue.append(state)

        if not here:
            push(sr, here)
            continue
        bit = 1 << i
        offset = low + 1
        consistent = snap.consistent
        cons = [rid for rid in here if consistent[rid - offset] & bit]
        if not cons:
            # The missing answer does not flow through this operator on any
            # alive chain; the subtree below is irrelevant for this state.
            push(sr, here)
            continue
        if op.op_id in sr or snap.retained is None:
            # Already reparameterized (SA prefix or earlier extension), or
            # the operator never filters: all consistent rows flow.
            push(sr, cons)
            continue
        retained = snap.retained
        kept = [rid for rid in cons if retained[rid - offset] & bit]
        if kept:
            push(sr, kept)
        if len(kept) < len(cons):
            push(sr | {op.op_id}, cons)

    bounds = _SideEffectBounds(question, trace)
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


def _prune_and_rank(explanations: list[Explanation]) -> list[Explanation]:
    """Definition 9 pruning with bounds, then deterministic ranking."""
    kept = []
    for e in explanations:
        dominated = any(
            other.ops < e.ops and other.ub <= e.lb for other in explanations
        )
        if not dominated:
            kept.append(e)
    kept.sort(key=lambda e: (len(e.ops), e.sa_index != 0, e.ub, e.lb, e.labels))
    return kept


def _fold_ancestry(
    query: Query,
    trace: TraceResult,
    own: Callable[[OpTrace], Optional[list[int]]],
    combine: Callable[[int, int], int],
    identity: int,
) -> list[int]:
    """Fold a per-row value over every row's ancestry, for the final rows.

    ``own(snap)`` gives a snapshot's own per-row values (None: ``identity``
    everywhere); each row's result combines its own value with its parents'
    results, in one forward pass over the snapshots (children first).
    """
    folded: dict[int, list[int]] = {}
    for op in query.ops:
        snap = trace.traces[op.op_id]
        values = own(snap)
        if snap.parents is None:
            if snap.child_base is None:
                column = values if values is not None else [identity] * snap.count
            else:
                inherited = folded[op.children[0].op_id]
                column = (
                    inherited if values is None else list(map(combine, values, inherited))
                )
        else:
            read = parent_reader(
                [trace.traces[c.op_id] for c in op.children],
                [folded[c.op_id] for c in op.children],
            )
            column = []
            for k, parents in enumerate(snap.parents):
                value = values[k] if values is not None else identity
                for p in parents:
                    value = combine(value, read(p))
                column.append(value)
        folded[op.op_id] = column
    return folded[trace.root_id]


class _SideEffectBounds:
    """Loose UB/LB on side effects (paper §5.4)."""

    def __init__(self, question: WhyNotQuestion, trace: TraceResult):
        self.trace = trace
        self.query = question.query
        self.n_orig = len(question.result())
        self._final = trace.traces[trace.root_id]
        full = (1 << trace.n_sas) - 1
        # Per final row, the bitmask of SAs under which the row's entire
        # ancestry carries no retained=False flag.
        self._fr_masks = _fold_ancestry(
            self.query,
            trace,
            lambda snap: snap.retained if snap.retained_known else None,
            and_,
            full,
        )
        self._position = {op.op_id: p for p, op in enumerate(self.query.ops)}
        self._blocked: Optional[list[int]] = None
        # Tuples of the original result derived with every flag retained
        # under S1 ("original tuples with only true valid/retained flags").
        column = self._final.column(0)
        self._fully_retained_s1 = {
            column[k]
            for k, (valid, fr) in enumerate(zip(self._final.valid, self._fr_masks))
            if valid & fr & 1
        }

    def _blocked_ops(self) -> list[int]:
        """Per final row, the operators (bits by plan position) with an
        ancestor row that S1's query does not retain (built on first use)."""
        if self._blocked is None:

            def own(snap: OpTrace) -> Optional[list[int]]:
                if not snap.retained_known & 1:
                    return None
                bit = 1 << self._position[snap.op_id]
                return [0 if r & 1 else bit for r in snap.retained]

            self._blocked = _fold_ancestry(self.query, self.trace, own, or_, 0)
        return self._blocked

    def compute(self, sr: frozenset[int], i: int) -> tuple[float, float]:
        final = self._final
        bit = 1 << i
        present = [k for k, valid in enumerate(final.valid) if valid & bit]
        column = final.column(i)
        fully_retained_s1 = self._fully_retained_s1
        matched = sum(1 for k in present if column[k] in fully_retained_s1)
        if i == 0:
            blocked = self._blocked_ops()
            sr_bits = 0
            for op_id in sr:
                sr_bits |= 1 << self._position[op_id]
            ub_plus = sum(1 for k in present if blocked[k] & sr_bits)
        else:
            ub_plus = len(present) - matched
        ub_minus = max(0, self.n_orig - matched)
        ub = ub_plus + ub_minus

        has_relaxable = any(
            isinstance(self.query.op(op_id), (Selection, Join)) for op_id in sr
        )
        if has_relaxable:
            lb = 0.0
        else:
            fr_masks = self._fr_masks
            n_vr = sum(1 for k in present if fr_masks[k] & bit)
            lb = float(max(n_vr - self.n_orig, 0) + max(self.n_orig - n_vr, 0))
        return lb, float(ub)
