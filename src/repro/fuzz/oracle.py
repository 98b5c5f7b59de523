"""The differential oracle: cross-check every execution path on one case.

For a generated ``(database, query[, why-not question])`` case the oracle
runs:

* the reference semantics ``Query.evaluate``,
* the partitioned executor for every ``optimize × partitions``
  combination requested (defaults: on/off × 1/3/7),

and checks

1. **result bags** — every configuration must equal the reference bag;
2. **metrics invariants** — the root operator's ``rows_out`` equals the
   result size;
3. **explanations** — ``explain`` of the validated why-not question is
   the baseline that checks 5 and 6 compare with;
4. **matcher agreement** — the reference NIP matcher
   (:func:`repro.whynot.matching.matches`), the compiled matcher
   (:func:`repro.whynot.matching.compile_pattern`) and the generated column
   scan the tracer runs (:func:`repro.whynot.matching.matching_rows`) must
   agree on every result row;
5. **service agreement** — :meth:`repro.api.ExplanationService.explain`
   must return the same explanation payload as direct ``explain`` both with
   the result cache off and on, the cached re-request must be flagged as a
   hit, and a consistently-failing question must fail with the same
   exception type through the service; on the same service, the question's
   ``summarize`` twin and a sibling question (a second fresh constant,
   :func:`~repro.fuzz.plans.gen_sibling`), which the service answers from
   the question's explain state, must match direct ``explain`` too
   (summaries included);
6. **tracer agreement** — the columnar tracer and Algorithm 4 behind that
   explain must reproduce the row-at-a-time reference
   (:mod:`repro.fuzz.reference`): identical traced rows (ids, parents,
   values, valid/consistent/retained masks) and ranked explanations
   (labels, SA index, bounds, rank), or the identical exception type;
7. **grammar round-trip** (``grammar=True``, the CLI's ``fuzz --text``) —
   pretty-printing the plan and question to ``.rq`` text
   (:mod:`repro.lang`), reparsing and relowering must reproduce a
   structurally identical plan (wire-codec JSON equality) and NIP, the
   reparsed plan must evaluate to the identical result bag, and — when a
   question is present — direct ``explain`` over the reparsed program must
   produce the identical ranked explanation label sets.

A configuration raising the *same* exception type as the reference is
treated as consistently-unsupported (the case is reported as skipped, not
divergent); differing exception behaviour is a divergence like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.algebra.operators import Query
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.nested.values import Bag
from repro.whynot.matching import compile_pattern, matches, matching_rows
from repro.whynot.question import WhyNotQuestion

#: Default grid (the acceptance grid of the fuzz subsystem).
PARTITIONS = (1, 3, 7)
OPTIMIZE = (False, True)


@dataclass
class Divergence:
    """One observed disagreement between execution paths."""

    kind: str  #: "result" | "error" | "metrics" | "matcher" | "service" | "tracer" | "grammar" | "mutation"
    config: str  #: the configuration that disagreed with the reference
    detail: str  #: human-readable description (truncated values)

    def describe(self) -> str:
        """One-line rendering for CLI / test output."""
        return f"[{self.kind}] {self.config}: {self.detail}"


@dataclass
class OracleReport:
    """Outcome of checking one case across the configuration grid."""

    divergences: list = field(default_factory=list)
    configs_run: int = 0
    explain_configs_run: int = 0
    #: Traces compared against the row-at-a-time reference tracer.
    tracer_checks: int = 0
    #: Service answers derived from an explain state, compared with direct
    #: ``explain`` (summarize twins and sibling questions).
    stateful_checks: int = 0
    #: Result rows the NIP matchers were compared on.
    matcher_checks: int = 0
    #: Exception repr when the reference itself failed (case counted skipped).
    reference_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when no divergence was observed."""
        return not self.divergences

    def describe(self) -> str:
        """Multi-line summary of all divergences (empty string when ok)."""
        return "\n".join(d.describe() for d in self.divergences)


def _clip(value: Any, limit: int = 300) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _outcome(fn):
    """Run *fn*, folding exceptions into ("error", type-name) outcomes."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the oracle compares behaviours
        return ("error", type(exc).__name__)


def _bag_diff(reference: Bag, got: Bag) -> str:
    missing = reference.difference(got)
    extra = got.difference(reference)
    parts = []
    if len(missing):
        parts.append(f"missing {_clip(list(missing)[:3])}")
    if len(extra):
        parts.append(f"extra {_clip(list(extra)[:3])}")
    return "; ".join(parts) or "bags differ in multiplicities"


def check_case(
    db: Database,
    query: Query,
    question: Optional[WhyNotQuestion] = None,
    partitions: Sequence[int] = PARTITIONS,
    optimize: Sequence[bool] = OPTIMIZE,
    explanations: bool = True,
    grammar: bool = False,
) -> OracleReport:
    """Differentially test one case across the full configuration grid.

    ``explanations=False`` skips checks 3–6 (the explain runs) for a case
    with a question.
    """
    report = OracleReport()
    reference = _outcome(lambda: query.evaluate(db))

    for opt in optimize:
        for nparts in partitions:
            config = f"optimize={opt} partitions={nparts}"
            executor = Executor(num_partitions=nparts, optimize=opt)
            got = _outcome(lambda: executor.execute(query, db))
            report.configs_run += 1
            if got[0] != reference[0]:
                report.divergences.append(
                    Divergence(
                        "error",
                        config,
                        f"reference={reference[1] if reference[0] == 'error' else 'ok'}"
                        f" vs executor={got[1] if got[0] == 'error' else 'ok'}",
                    )
                )
                continue
            if reference[0] == "error":
                if got[1] != reference[1]:
                    report.divergences.append(
                        Divergence(
                            "error",
                            config,
                            f"exception {got[1]} vs reference {reference[1]}",
                        )
                    )
                continue
            if got[1] != reference[1]:
                report.divergences.append(
                    Divergence("result", config, _bag_diff(reference[1], got[1]))
                )
                continue
            root_id = (
                executor.last_report.optimized.root.op_id
                if executor.last_report is not None
                else query.root.op_id
            )
            root_metrics = executor.last_metrics.operators.get(root_id)
            if root_metrics is not None and root_metrics.rows_out != len(reference[1]):
                report.divergences.append(
                    Divergence(
                        "metrics",
                        config,
                        f"root rows_out={root_metrics.rows_out} "
                        f"!= |result|={len(reference[1])}",
                    )
                )

    if grammar:
        _check_grammar(report, db, query, question, reference)

    if reference[0] == "error":
        report.reference_error = reference[1]
        return report

    if question is not None:
        _check_matcher(report, reference[1], question.nip)
        if explanations:
            _check_explanations(report, query, db, question)
    return report


def _check_service(
    report: OracleReport,
    query: Query,
    db: Database,
    question: WhyNotQuestion,
    baseline,
    baseline_error: Optional[str],
) -> None:
    """Cross-check :class:`repro.api.ExplanationService` against ``explain``.

    Runs the service path with the cache disabled and enabled (twice, to
    exercise a hit); every response must carry the baseline's explanation
    payload, and the repeated cached request must be served as a hit with
    the hit counter incremented.  Then the stateful answers
    (:func:`_check_stateful`) on the same service.
    """
    from repro.api import ExplainRequest, ExplanationService

    baseline_key = _explanation_key(baseline) if baseline is not None else None

    def fresh_request() -> ExplainRequest:
        return ExplainRequest(
            query=query, nip=question.nip, database=db, name=question.name
        )

    service = ExplanationService(cache_size=8)
    runs = (
        ("service cache=off", lambda: service.explain(fresh_request(), use_cache=False)),
        ("service cache=miss", lambda: service.explain(fresh_request())),
        ("service cache=hit", lambda: service.explain(fresh_request())),
    )
    for config, run in runs:
        outcome = _outcome(run)
        report.explain_configs_run += 1
        if baseline_error is not None:
            if outcome[0] != "error" or outcome[1] != baseline_error:
                report.divergences.append(
                    Divergence(
                        "service",
                        config,
                        f"outcome {outcome[1] if outcome[0] == 'error' else 'ok'}"
                        f" vs direct-explain exception {baseline_error}",
                    )
                )
            continue
        if outcome[0] == "error":
            report.divergences.append(
                Divergence(
                    "service", config, f"raised {outcome[1]} but direct explain succeeded"
                )
            )
            continue
        response = outcome[1]
        got = _explanation_key(response.result)
        if got != baseline_key:
            report.divergences.append(
                Divergence(
                    "service", config, f"explanations {got} vs {baseline_key}"
                )
            )
        expect_hit = config == "service cache=hit"
        if response.cached != expect_hit:
            report.divergences.append(
                Divergence(
                    "service",
                    config,
                    f"cached={response.cached}, expected {expect_hit}",
                )
            )
    if baseline_error is None and service.cache_stats()["hits"] != 1:
        report.divergences.append(
            Divergence(
                "service",
                "cache counters",
                f"expected exactly 1 hit, got {service.cache_stats()}",
            )
        )
    if baseline_error is None:
        _check_stateful(report, service, query, db, question, baseline)


def _check_stateful(
    report: OracleReport,
    service,
    query: Query,
    db: Database,
    question: WhyNotQuestion,
    baseline,
) -> None:
    """The question's ``summarize`` twin and a sibling question, asked of a
    service holding the question's explain state, ≡ direct ``explain``."""
    import random

    from repro.api import ExplainOptions, ExplainRequest
    from repro.fuzz.plans import gen_sibling
    from repro.whynot.explain import explain
    from repro.whynot.summarize import summarize_explanations
    from repro.wire import summary_to_json

    def direct_summaries():
        summaries = summarize_explanations(baseline.explanations, baseline.sas)
        return _explanation_key(baseline), [summary_to_json(s) for s in summaries]

    checks = [("service summarize twin", question.nip, True, _outcome(direct_summaries))]
    sibling = gen_sibling(random.Random(f"{question.name}:{question.nip!r}"), question)
    if sibling is not None:
        checks.append(
            (
                "service sibling",
                sibling.nip,
                None,
                _outcome(lambda: (_explanation_key(explain(sibling, validate=False)), None)),
            )
        )
    for config, nip, summarize, expected in checks:
        request = ExplainRequest(
            query=query,
            nip=nip,
            database=db,
            name=question.name,
            options=ExplainOptions(summarize=summarize),
        )

        def served():
            result = service.explain(request).result
            summaries = result.summaries
            return _explanation_key(result), (
                None if summaries is None else [summary_to_json(s) for s in summaries]
            )

        got = _outcome(served)
        report.explain_configs_run += 1
        report.stateful_checks += 1
        if got != expected:
            report.divergences.append(
                Divergence("service", config, f"{_clip(got)} vs direct {_clip(expected)}")
            )


def _check_grammar(
    report: OracleReport,
    db: Database,
    query: Query,
    question: Optional[WhyNotQuestion],
    reference,
) -> None:
    """Grammar round-trip: pretty → reparse → relower must be the identity.

    Structural identity is wire-codec JSON equality of the operator trees
    (labels, parameters and expressions all participate).  On top of the
    structural check, the reparsed plan is re-evaluated against the
    reference bag, and — when the case carries a why-not question — a
    direct ``explain`` pair over the original and reparsed programs must
    produce identical ranked explanation label sets.
    """
    from repro.lang import PrettyError, compile_program, pretty_program
    from repro.wire import op_to_json, value_to_json

    nip = question.nip if question is not None else None
    try:
        text = pretty_program(query, nip=nip, name=query.name)
    except PrettyError as exc:
        report.divergences.append(
            Divergence("grammar", "pretty", f"plan not printable: {exc}")
        )
        return
    outcome = _outcome(lambda: compile_program(text, database=db))
    report.configs_run += 1
    if outcome[0] == "error":
        report.divergences.append(
            Divergence(
                "grammar",
                "reparse",
                f"pretty output failed to recompile ({outcome[1]}): {_clip(text)}",
            )
        )
        return
    lowered = outcome[1]
    if op_to_json(lowered.query.root) != op_to_json(query.root):
        report.divergences.append(
            Divergence(
                "grammar",
                "plan",
                f"reparsed plan differs structurally for {_clip(text)}",
            )
        )
        return
    if nip is not None and value_to_json(lowered.nip) != value_to_json(nip):
        report.divergences.append(
            Divergence(
                "grammar",
                "nip",
                f"reparsed NIP {_clip(lowered.nip)} vs {_clip(nip)}",
            )
        )
        return
    if reference[0] != "ok":
        return
    got = _outcome(lambda: lowered.query.evaluate(db))
    if got[0] == "error":
        report.divergences.append(
            Divergence(
                "grammar", "evaluate", f"reparsed plan raised {got[1]}"
            )
        )
        return
    if got[1] != reference[1]:
        report.divergences.append(
            Divergence("grammar", "evaluate", _bag_diff(reference[1], got[1]))
        )
        return
    if question is None:
        return
    from repro.whynot.explain import explain

    def run(program_query, program_nip):
        fresh = WhyNotQuestion(program_query, db, program_nip, name=query.name)
        return explain(fresh, validate=True)

    original = _outcome(lambda: run(query, nip))
    reparsed = _outcome(lambda: run(lowered.query, lowered.nip))
    report.explain_configs_run += 2
    if original[0] != reparsed[0]:
        report.divergences.append(
            Divergence(
                "grammar",
                "explain",
                f"outcome {reparsed[1] if reparsed[0] == 'error' else 'ok'} "
                f"vs original {original[1] if original[0] == 'error' else 'ok'}",
            )
        )
        return
    if original[0] == "ok":
        got_key = _explanation_key(reparsed[1])
        expected_key = _explanation_key(original[1])
        if got_key != expected_key:
            report.divergences.append(
                Divergence(
                    "grammar",
                    "explain",
                    f"explanations {got_key} vs {expected_key}",
                )
            )


def _check_matcher(report: OracleReport, result: Bag, nip: Any) -> None:
    """Reference vs compiled vs generated-scan NIP matcher agreement over
    (up to 64 of) the result rows."""
    compiled = compile_pattern(nip)
    rows = list(result.distinct())[:64]
    report.matcher_checks += len(rows)
    expected = []
    for k, row in enumerate(rows):
        ref = matches(row, nip)
        got = compiled(row)
        if ref != got:
            report.divergences.append(
                Divergence(
                    "matcher",
                    "compile_pattern",
                    f"matches={ref} but compiled={got} for row {_clip(row)}",
                )
            )
            return
        if ref:
            expected.append(k)
    scanned = matching_rows(rows, nip)
    if scanned != expected:
        report.divergences.append(
            Divergence(
                "matcher",
                "matching_rows",
                f"generated scan hit rows {scanned}, matches hit {expected}",
            )
        )


def _explanation_key(result) -> list:
    """Explanations as comparable data: ranked label sets + SA count."""
    return [tuple(sorted(e.labels)) for e in result.explanations]


def _check_tracer(
    report: OracleReport,
    query: Query,
    db: Database,
    question: WhyNotQuestion,
    outcome,
) -> None:
    """Compare one explain outcome with the reference tracer's (see
    :mod:`repro.fuzz.reference`): the same traced rows and ranked
    explanations, or the same exception type."""
    from repro.fuzz import reference

    fresh = WhyNotQuestion(query, db, question.nip, name=question.name)
    expected = _outcome(lambda: reference.reference_explain(fresh))
    report.tracer_checks += 1
    if expected[0] != outcome[0] or (
        expected[0] == "error" and expected[1] != outcome[1]
    ):
        report.divergences.append(
            Divergence(
                "tracer",
                "reference",
                f"outcome {outcome[1] if outcome[0] == 'error' else 'ok'} vs "
                f"reference {expected[1] if expected[0] == 'error' else 'ok'}",
            )
        )
        return
    if outcome[0] == "ok":
        _, ref_trace, ref_explanations = expected[1]
        result = outcome[1]
        difference = reference.compare(
            result.trace, result.explanations, ref_trace, ref_explanations
        )
        if difference is not None:
            report.divergences.append(
                Divergence("tracer", "reference", _clip(difference))
            )


def _check_explanations(
    report: OracleReport,
    query: Query,
    db: Database,
    question: WhyNotQuestion,
) -> None:
    """Explain the question; check its outcome against the reference
    tracer and the service (checks 5 and 6)."""
    from repro.whynot.explain import explain

    # A fresh question: ``explain`` seeds its ``Q(D)`` cache, which must
    # come from the answer path, not from an earlier check.
    fresh = WhyNotQuestion(query, db, question.nip, name=question.name)
    outcome = _outcome(lambda: explain(fresh, validate=True))
    report.explain_configs_run += 1
    _check_tracer(report, query, db, question, outcome)
    if outcome[0] == "ok":
        _check_service(report, query, db, question, outcome[1], None)
    else:
        _check_service(report, query, db, question, None, outcome[1])
