"""Fuzzed mutation sequences: the service write path ≡ from-scratch answers.

A registered database changes only through
:meth:`~repro.api.service.ExplanationService.mutate_database`, which
advances the name to the next version (``Database.apply_mutations``) and
evicts the cached results and explain states that read a mutated relation.
After every write the service must answer exactly as a fresh computation on
the new version does.  This module turns that promise into a differential
gate:

* :func:`gen_mutation` derives a random **valid** mutation against a live
  version — deletes sample existing rows (sometimes re-expressed in a
  canonically-equal surface form: ``2`` for ``2.0``, ``-0.0`` for ``0.0``, a
  fresh ``float('nan')`` for the canonical NaN), inserts are freshly
  generated rows for the relation's current schema;
* :func:`check_mutation_case` registers a case's base database with a fresh
  :class:`~repro.api.service.ExplanationService`, applies a generated chain
  of such mutations through ``mutate_database`` and cross-checks, at
  **every** version,

  1. ``query`` (asked twice: the first call plans the query for the new
     version, the second reuses that plan) against
     the reference ``Query.evaluate`` bag of the version, and
  2. ``explain`` of the case's question and of its sibling
     (:func:`~repro.fuzz.plans.gen_sibling`: the same attribute constrained
     to a second fresh value, answered from the question's explain state)
     against a fresh library :func:`~repro.whynot.explain.explain` on the
     version — identical ranked explanation label sets, or identical
     exception types when an insert satisfied the question (the service,
     asked again with ``satisfied_ok``, must then return matching
     witnesses) — with every fresh trace checked against the row-at-a-time
     reference tracer (:mod:`repro.fuzz.reference`);

* :func:`run_mutation_sweep` drives the whole thing from a seed, exactly
  like :func:`repro.fuzz.harness.run_sweep` (cases are the regular fuzz
  cases; the mutation chain has its own derived RNG stream, so adding this
  sweep does not perturb existing case generation).

The CLI entry point is ``python -m repro fuzz --mutations`` (see
``docs/FUZZING.md`` and ``docs/MUTATIONS.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.engine.database import Database, Mutation
from repro.fuzz.data import FuzzConfig, _gen_row
from repro.fuzz.harness import FuzzCase, generate_case
from repro.fuzz.oracle import (
    Divergence,
    OracleReport,
    _bag_diff,
    _clip,
    _explanation_key,
    _outcome,
)
from repro.nested.values import NAN, Bag, Tup

#: The name each case's base database is registered under.
DB_NAME = "fuzz"


def _variant_value(rng: random.Random, value: Any) -> Any:
    """Re-express *value* in a random canonically-equal surface form.

    The canonicalization layer (:func:`repro.nested.values.canonicalize_value`)
    and the value model's equality make these forms address the same stored
    rows: ``2`` ≡ ``2.0``, ``0.0`` ≡ ``-0.0``, any NaN ≡ the canonical
    ``NAN``.  Deletes written through a variant must therefore hit the
    original rows — exactly what the canonical-form edge-case tests pin.
    """
    if value is NAN:
        return float("nan") if rng.random() < 0.5 else value
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value) if rng.random() < 0.5 else value
    if isinstance(value, float):
        if value != value:
            return value  # non-canonical NaN cannot be stored; leave alone
        if value == 0.0 and rng.random() < 0.5:
            return -value  # flip the zero sign: 0.0 <-> -0.0
        if value.is_integer() and abs(value) < 2**53 and rng.random() < 0.5:
            return int(value)
        return value
    if isinstance(value, Tup):
        return Tup((k, _variant_value(rng, v)) for k, v in value.items())
    if isinstance(value, Bag):
        return Bag(_variant_value(rng, v) for v in value)
    return value


def _expanded_rows(db: Database, name: str) -> list:
    """The relation's rows with multiplicities expanded (sampling pool)."""
    return [
        row
        for row, count in db.relation(name).items()
        for _ in range(count)
    ]


def gen_mutation(
    rng: random.Random, db: Database, config: Optional[FuzzConfig] = None
) -> Mutation:
    """One random valid, non-empty mutation against the live version *db*.

    Validity is by construction: deletes sample rows that exist (at their
    current multiplicity), so :meth:`Database.apply_mutations` never raises
    on the generated batch.  Roughly half of the sampled delete rows are
    re-expressed through :func:`_variant_value` to exercise canonical-form
    addressing.
    """
    config = config or FuzzConfig()
    inserts: dict = {}
    deletes: dict = {}
    tables = db.tables()
    chosen = [t for t in tables if rng.random() < 0.6] or [rng.choice(tables)]
    for name in chosen:
        rows = _expanded_rows(db, name)
        n_del = rng.randint(0, min(2, len(rows)))
        if n_del:
            sampled = rng.sample(rows, n_del)
            deletes[name] = [
                _variant_value(rng, row) if rng.random() < 0.5 else row
                for row in sampled
            ]
        n_ins = rng.randint(0, 2)
        if n_ins:
            inserts[name] = [
                _gen_row(rng, config, db.schema(name)) for _ in range(n_ins)
            ]
    mutation = Mutation(inserts, deletes)
    if mutation.is_empty():
        name = rng.choice(tables)
        rows = _expanded_rows(db, name)
        row = rng.choice(rows) if rows else _gen_row(rng, config, db.schema(name))
        mutation = Mutation({name: [row]}, None)
    return mutation


def gen_mutation_chain(
    rng: random.Random,
    db: Database,
    steps: int,
    config: Optional[FuzzConfig] = None,
) -> "list[Database]":
    """A version chain ``[db, v1, ..., v_steps]`` of random valid mutations."""
    versions = [db]
    for _ in range(steps):
        mutation = gen_mutation(rng, versions[-1], config)
        versions.append(versions[-1].apply_mutations(mutation))
    return versions


def check_mutation_case(
    case: FuzzCase,
    rng: random.Random,
    steps: int = 3,
    config: Optional[FuzzConfig] = None,
) -> OracleReport:
    """Differentially test the service write path over one fuzzed chain.

    ``configs_run`` counts service ``query`` answers, ``explain_configs_run``
    service ``explain`` answers (``stateful_checks`` of them for the
    sibling) and ``tracer_checks`` fresh traces compared with the reference
    tracer.  Checking stops at a case's first divergence.
    """
    from repro.api import ExplanationService

    report = OracleReport()
    base = case.database()
    reference = _outcome(lambda: case.query.evaluate(base))
    if reference[0] == "error":
        report.reference_error = reference[1]
        return report
    versions = gen_mutation_chain(rng, base, steps, config)
    service = ExplanationService(cache_size=8)
    service.register_database(DB_NAME, base)
    nips = {} if case.nip is None else {"question": case.nip}
    for db_v in versions:
        label = f"version={db_v.version_id}"
        if db_v is not base:
            written = _outcome(lambda: service.mutate_database(DB_NAME, db_v.last_mutation))
            if written[0] == "error":
                report.divergences.append(
                    Divergence("mutation", label, f"mutate_database raised {written[1]}")
                )
                return report
            stale = _stale_answers(service)
            if stale:
                report.divergences.append(
                    Divergence(
                        "mutation", label,
                        f"{stale} cached answers read a relation the write replaced",
                    )
                )
                return report
        expected = (
            reference if db_v is base else _outcome(lambda: case.query.evaluate(db_v))
        )
        if not _check_query(report, service, case, expected, label):
            return report
        if expected[0] == "error":
            nips.clear()  # the query itself errors: no question to explain
        for kind in list(nips):
            if not _check_explain(report, service, case, db_v, kind, nips, label):
                return report
    return report


def _stale_answers(service) -> int:
    """Cached results and explain-state results of :data:`DB_NAME` that read
    a relation at another version than the registered one.  Their keys can
    no longer be hit, so a write that keeps them only holds old versions
    alive."""
    from repro.api.service import read_tables

    db = service.database(DB_NAME)
    with service._lock:
        held = list(service._cache.values())
        held.extend(r for state in service._states.values() for r in state.results.values())
    return sum(
        any(
            r.question.db.relation_stamp(t) != db.relation_stamp(t)
            for t in read_tables(r.question.query)
            if t in db
        )
        for r in held
    )


def _check_query(
    report: OracleReport,
    service,
    case: FuzzCase,
    expected,
    label: str,
) -> bool:
    """The service's ``query`` on the registered version ≡ *expected*, for
    the call that plans the version and the one that reuses the plan."""
    for attempt in ("miss", "hit"):
        got = _outcome(lambda: service.query(case.query, DB_NAME)[0])
        report.configs_run += 1
        config = f"query {attempt} {label}"
        if got[0] != expected[0] or (got[0] == "error" and got[1] != expected[1]):
            report.divergences.append(
                Divergence(
                    "mutation", config,
                    f"service={'ok' if got[0] == 'ok' else got[1]} vs "
                    f"from-scratch={'ok' if expected[0] == 'ok' else expected[1]}",
                )
            )
            return False
        if got[0] == "ok" and got[1] != expected[1]:
            report.divergences.append(
                Divergence("mutation", config, _bag_diff(expected[1], got[1]))
            )
            return False
    return True


def _check_explain(
    report: OracleReport,
    service,
    case: FuzzCase,
    db_v: Database,
    kind: str,
    nips: dict,
    label: str,
) -> bool:
    """The service's answer to ``nips[kind]`` ≡ a fresh ``explain`` on *db_v*.

    On the base version a successful question adds its sibling to *nips*.
    """
    from repro.api.service import ExplainRequest, SatisfiedResponse
    from repro.fuzz.plans import gen_sibling
    from repro.whynot.explain import explain
    from repro.whynot.matching import matches
    from repro.whynot.question import WhyNotQuestion

    nip = nips[kind]
    fresh = WhyNotQuestion(case.query, db_v, nip, name=case.name)
    expected = _outcome(lambda: explain(fresh, validate=True))
    request = ExplainRequest(query=case.query, nip=nip, database=DB_NAME, name=case.name)
    got = _outcome(lambda: service.explain(request).result)
    report.explain_configs_run += 1
    report.stateful_checks += kind == "sibling"
    config = f"explain {kind} {label}"
    if got[0] != expected[0] or (got[0] == "error" and got[1] != expected[1]):
        report.divergences.append(
            Divergence(
                "mutation-explain", config,
                f"service={'ok' if got[0] == 'ok' else got[1]} vs "
                f"from-scratch={'ok' if expected[0] == 'ok' else expected[1]}",
            )
        )
        return False
    if expected[0] == "error":
        if expected[1] != "IllPosedQuestion":
            return True
        # An insert satisfied the question: asked to, the service must say so.
        answer = _outcome(lambda: service.explain(replace(request, satisfied_ok=True)))
        if not (
            answer[0] == "ok"
            and isinstance(answer[1], SatisfiedResponse)
            and answer[1].witnesses
            and all(matches(w, nip) for w in answer[1].witnesses)
        ):
            report.divergences.append(
                Divergence(
                    "mutation-explain", f"{config} satisfied_ok",
                    f"expected matching witnesses, got {_clip(answer[1])}",
                )
            )
            return False
        return True
    if _explanation_key(got[1]) != _explanation_key(expected[1]):
        report.divergences.append(
            Divergence(
                "mutation-explain", config,
                f"explanations {_explanation_key(got[1])} "
                f"vs {_explanation_key(expected[1])}",
            )
        )
        return False
    if not _check_reference(report, expected[1], config):
        return False
    if kind == "question" and db_v.version_id == 0:
        sibling = gen_sibling(random.Random(f"{case.name}:{nip!r}"), fresh)
        if sibling is not None:
            nips["sibling"] = sibling.nip
    return True


def _check_reference(report: OracleReport, result, config: str) -> bool:
    """A fresh explain's trace and explanations ≡ the row-at-a-time
    reference tracer's; False (after recording a divergence) otherwise."""
    from repro.fuzz import reference

    question = result.question
    ref_trace = reference.trace(question.query, question.db, result.sas)
    ref_explanations = reference.approximate_msrs(question, result.sas, ref_trace)
    report.tracer_checks += 1
    difference = reference.compare(
        result.trace, result.explanations, ref_trace, ref_explanations
    )
    if difference is None:
        return True
    report.divergences.append(Divergence("mutation-tracer", config, _clip(difference)))
    return False


@dataclass
class MutationSweepResult:
    """Aggregate outcome of a seeded mutation-sequence sweep."""

    seed: int
    steps: int
    cases: int = 0
    with_question: int = 0
    skipped_errors: int = 0
    configs_run: int = 0  #: service ``query`` answers checked
    explain_configs_run: int = 0  #: service ``explain`` answers checked
    sibling_checks: int = 0  #: of those, answers to sibling questions
    tracer_checks: int = 0  #: fresh traces compared against the reference tracer
    failures: list = field(default_factory=list)  #: (FuzzCase, OracleReport)

    @property
    def ok(self) -> bool:
        """True when no version of any case diverged."""
        return not self.failures

    def summary(self) -> str:
        """One-paragraph human/CI-readable summary of the sweep."""
        status = "OK" if self.ok else f"{len(self.failures)} DIVERGENT CASES"
        return (
            f"mutation sweep seed={self.seed}: {self.cases} cases × "
            f"{self.steps} mutations ({self.with_question} with why-not "
            f"questions, {self.skipped_errors} consistently-erroring), "
            f"{self.configs_run} service result checks, "
            f"{self.explain_configs_run} service explanation checks "
            f"({self.sibling_checks} siblings), "
            f"{self.tracer_checks} reference-tracer checks — {status}"
        )


def run_mutation_sweep(
    seed: int,
    cases: int,
    config: Optional[FuzzConfig] = None,
    steps: int = 3,
    questions: bool = True,
) -> MutationSweepResult:
    """Fuzz *cases* mutation chains for one seed (CLI: ``fuzz --mutations``).

    Cases are the ordinary differential-fuzz cases of
    :func:`~repro.fuzz.harness.generate_case`; each gets a derived RNG
    stream ``"{seed}:mutations:{index}"`` for its mutation chain, so runs
    are exactly reproducible.
    """
    result = MutationSweepResult(seed=seed, steps=steps)
    for index in range(cases):
        case = generate_case(seed, index, config, questions=questions)
        rng = random.Random(f"{seed}:mutations:{index}")
        report = check_mutation_case(case, rng, steps=steps, config=config)
        result.cases += 1
        result.configs_run += report.configs_run
        result.explain_configs_run += report.explain_configs_run
        result.sibling_checks += report.stateful_checks
        result.tracer_checks += report.tracer_checks
        if case.nip is not None:
            result.with_question += 1
        if report.reference_error is not None:
            result.skipped_errors += 1
        if not report.ok:
            result.failures.append((case, report))
    return result
