"""Top-level why-not explanation API (Algorithm 1).

``explain`` runs the four steps of the paper's heuristic algorithm:

1. schema backtracing (:mod:`repro.whynot.backtrace`),
2. schema alternatives (:mod:`repro.whynot.alternatives`),
3. data tracing (:mod:`repro.whynot.tracing`),
4. approximate MSR computation (:mod:`repro.whynot.approximate`),

and returns a :class:`WhyNotResult` with the ranked explanations.

Modes:

* ``explain(q, alternatives=groups)`` — the full algorithm **RP**;
* ``explain(q)`` or ``use_schema_alternatives=False`` — **RPnoSA**
  (only the original schema S1 is traced);
* ``revalidate=False`` — ablation: compatibility is inherited blindly along
  lineage (the behaviour of prior lineage-based approaches, kept for the
  comparison experiments).

:func:`explain_reusing` answers a question from an earlier question's
:class:`RelaxedTrace` when both trace the same SA queries: the relaxed
evaluation does not depend on the NIP, so only the consistency annotation
and Algorithm 4 run again.  The serving layer keeps these per query
(:class:`~repro.api.service.ExplanationService`); :func:`explain` never
reuses anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.whynot.alternatives import SchemaAlternative, enumerate_schema_alternatives
from repro.whynot.approximate import Explanation, _SideEffectBounds, approximate_msrs
from repro.whynot.backtrace import BacktraceResult, backtrace
from repro.whynot.question import WhyNotQuestion
from repro.whynot.tracing import TraceResult, annotate, sa_signature, trace


@dataclass
class WhyNotResult:
    """Outcome of the heuristic algorithm for one why-not question."""

    question: WhyNotQuestion
    explanations: list[Explanation]
    sas: list[SchemaAlternative]
    backtrace: BacktraceResult
    trace: Optional[TraceResult] = field(repr=False, default=None)
    timings: dict[str, float] = field(default_factory=dict)
    #: Ontology-aware summary groups (:mod:`repro.whynot.summarize`);
    #: ``None`` until :func:`~repro.whynot.summarize.attach_summaries` runs.
    summaries: Optional[list] = None

    @property
    def n_sas(self) -> int:
        """Number of schema alternatives that were traced."""
        return len(self.sas)

    def explanation_sets(self) -> list[frozenset[int]]:
        """Ranked explanations as operator-id sets."""
        return [e.ops for e in self.explanations]

    def explanation_labels(self) -> list[tuple[str, ...]]:
        """Ranked explanations as operator-label tuples (Table 8 format)."""
        return [e.labels for e in self.explanations]

    def rows_traced(self) -> int:
        """Total number of rows the data-tracing step materialized."""
        return self.trace.total_rows() if self.trace is not None else 0

    def describe(self) -> str:
        """Multi-line human-readable summary of the ranked explanations."""
        lines = [
            f"Why-not question: {self.question.name or '(unnamed)'}",
            f"  missing answer: {self.question.nip!r}",
            f"  schema alternatives: {len(self.sas)}",
            f"  explanations ({len(self.explanations)}):",
        ]
        for e in self.explanations:
            lines.append(
                f"    {e.rank}. {{{', '.join(e.labels)}}}  "
                f"[side effects {e.lb:.0f}..{e.ub:.0f}, via {e.sa_description}]"
            )
        if not self.explanations:
            lines.append("    (none found)")
        if self.summaries is not None:
            lines.append(f"  summaries ({len(self.summaries)}):")
            for s in self.summaries:
                lines.append(f"    {s.describe()}")
        return "\n".join(lines)


def explain(
    question: WhyNotQuestion,
    alternatives: Sequence[Iterable] = (),
    use_schema_alternatives: bool = True,
    revalidate: bool = True,
    max_sas: int = 64,
    validate: bool = True,
) -> WhyNotResult:
    """Compute query-based explanations for *question* (Algorithm 1).

    ``alternatives`` is a sequence of groups of interchangeable source
    attributes, e.g. ``[["person.address2", "person.address1"]]`` — see
    paper §5.2 (attribute alternatives are an input to the algorithm).

    ``timings`` records each step's seconds; with ``validate`` it includes
    ``"validate"``: computing ``Q(D)`` plus the Definition 5 check.  ``Q(D)``
    always runs on the compiled answer path (:meth:`WhyNotQuestion.result`:
    the optimized plan on the kernel executor).  The explanation path
    (backtracing, SA enumeration, tracing, Algorithm 4) always runs against
    the original plan, because explanations are sets of *user* operators
    (paper Def. 9), so the optimizer can never change one.
    """
    return _explain(
        question, alternatives, use_schema_alternatives, revalidate, max_sas,
        validate,
    )[0]


@dataclass(frozen=True)
class RelaxedTrace:
    """The NIP-independent work of one explain run, for later questions.

    ``trace``'s value columns, validity, retained masks, parents and SA
    groups depend only on the database and the SA queries it was traced for
    (``signature``, see :func:`~repro.whynot.tracing.sa_signature`), and
    ``bounds`` (paper §5.4) only on those columns and ``|Q(D)|``.  A question
    over the same query, database version, alternatives and options whose
    SAs have the same signature re-annotates ``trace`` instead of tracing:
    its fused runs replay their kernels, and everything else is scanned.
    Any thread may re-annotate it: a lazy column that a fallback scan or a
    downstream step reads is built once, under the column's own lock.
    """

    trace: TraceResult
    signature: tuple
    bounds: _SideEffectBounds

    @classmethod
    def of(
        cls, question: WhyNotQuestion, sas: "list[SchemaAlternative]", trace: TraceResult
    ) -> "RelaxedTrace":
        """The reusable part of *question*'s run that traced *sas* into
        *trace* (the bounds are built lazily, on first use)."""
        return cls(trace, sa_signature(sas), _SideEffectBounds(question, trace))


def explain_reusing(
    question: WhyNotQuestion,
    relaxed: Optional[RelaxedTrace],
    alternatives: Sequence[Iterable] = (),
    use_schema_alternatives: bool = True,
    revalidate: bool = True,
    max_sas: int = 64,
) -> "tuple[WhyNotResult, RelaxedTrace]":
    """:func:`explain` without validation, reusing *relaxed* when it fits.

    *relaxed* must come from a question over the same query, database
    version, alternatives and ``use_schema_alternatives``/``max_sas``.
    When the question's SAs have *relaxed*'s signature, only the
    consistency annotation runs (``timings["annotate"]`` replaces
    ``timings["tracing"]``) and Algorithm 4 reuses its bounds; otherwise
    the question is traced in full.  Returns the result and the relaxed
    trace it used, which is new when it traced.
    """
    return _explain(
        question, alternatives, use_schema_alternatives, revalidate, max_sas,
        False, relaxed, keep=True,
    )


def _explain(
    question: WhyNotQuestion,
    alternatives: Sequence[Iterable],
    use_schema_alternatives: bool,
    revalidate: bool,
    max_sas: int,
    validate: bool,
    relaxed: Optional[RelaxedTrace] = None,
    keep: bool = False,
) -> "tuple[WhyNotResult, Optional[RelaxedTrace]]":
    """The four steps; with *keep*, also the :class:`RelaxedTrace` used."""
    timings: dict[str, float] = {}
    if validate:
        started = time.perf_counter()
        question.validate()
        timings["validate"] = time.perf_counter() - started

    started = time.perf_counter()
    base = backtrace(question.query, question.db, question.nip)
    timings["backtrace"] = time.perf_counter() - started

    started = time.perf_counter()
    groups = alternatives if use_schema_alternatives else ()
    sas = enumerate_schema_alternatives(
        question.query, question.db, question.nip, base, groups=groups, max_sas=max_sas
    )
    timings["alternatives"] = time.perf_counter() - started

    if relaxed is not None and relaxed.signature == sa_signature(sas):
        started = time.perf_counter()
        traced = annotate(
            relaxed.trace, question.query, question.db, sas, revalidate=revalidate
        )
        timings["annotate"] = time.perf_counter() - started
    else:
        started = time.perf_counter()
        traced = trace(question.query, question.db, sas, revalidate=revalidate)
        timings["tracing"] = time.perf_counter() - started
        relaxed = RelaxedTrace.of(question, sas, traced) if keep else None

    started = time.perf_counter()
    explanations = approximate_msrs(
        question, sas, traced, bounds=relaxed.bounds if relaxed is not None else None
    )
    timings["approximate"] = time.perf_counter() - started

    result = WhyNotResult(question, explanations, sas, base, traced, timings)
    return result, relaxed
