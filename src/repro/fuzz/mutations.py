"""Fuzzed mutation sequences: the incremental ≡ from-scratch oracle.

The delta-incremental subsystem (:mod:`repro.engine.deltas`) promises that
maintaining a result (and a why-not explanation) across a database version
chain is observationally identical to recomputing from scratch on every
version.  This module turns that promise into a differential gate:

* :func:`gen_mutation` derives a random **valid** mutation against a live
  version — deletes sample existing rows (sometimes re-expressed in a
  canonically-equal surface form: ``2`` for ``2.0``, ``-0.0`` for ``0.0``, a
  fresh ``float('nan')`` for the canonical NaN), inserts are freshly
  generated rows for the relation's current schema;
* :func:`check_mutation_case` applies a generated chain of such mutations
  and cross-checks, at **every** version,

  1. :class:`~repro.engine.deltas.DeltaEvaluator` (per requested
     backend × engine) against the reference ``Query.evaluate`` bag, and
  2. :class:`~repro.engine.deltas.IncrementalExplainer` against a
     from-scratch ``explain`` — identical ranked explanation label sets,
     and identical exception types when a version flips the question
     ill-posed (an insert satisfied it) or back — and every trace it keeps,
     including delta re-traces that reuse retained column snapshots,
     against the row-at-a-time reference tracer
     (:mod:`repro.fuzz.reference`) replayed with the same reuse;

* :func:`run_mutation_sweep` drives the whole thing from a seed, exactly
  like :func:`repro.fuzz.harness.run_sweep` (cases are the regular fuzz
  cases; the mutation chain has its own derived RNG stream, so adding this
  sweep does not perturb existing case generation).

The CLI entry point is ``python -m repro fuzz --mutations`` (see
``docs/FUZZING.md`` and ``docs/MUTATIONS.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.engine.database import Database, Mutation
from repro.engine.deltas import DeltaEvaluator, IncrementalExplainer
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


def _variant_value(rng: random.Random, value: Any) -> Any:
    """Re-express *value* in a random canonically-equal surface form.

    The canonicalization layer (:func:`repro.nested.values.canonicalize_value`)
    and the value model's equality make these forms address the same stored
    rows: ``2`` ≡ ``2.0``, ``0.0`` ≡ ``-0.0``, any NaN ≡ the canonical
    ``NAN``.  Deletes written through a variant must therefore hit the
    original rows — exactly what the satellite edge-case tests pin.
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
    backends: Sequence[str] = ("serial",),
    engines: Sequence[str] = ("row", "columnar"),
    workers: int = 2,
    num_partitions: int = 3,
    config: Optional[FuzzConfig] = None,
) -> OracleReport:
    """Differentially test one case across a fuzzed mutation chain.

    At every version the maintained state must equal a from-scratch
    recomputation — identical result bags for each requested backend/engine
    point and identical explanation label sets (or identical exception
    types when the reference itself errors / the question flips ill-posed).
    """
    report = OracleReport()
    base = case.database()
    reference = _outcome(lambda: case.query.evaluate(base))
    if reference[0] == "error":
        report.reference_error = reference[1]
        return report
    versions = gen_mutation_chain(rng, base, steps, config)
    references = [reference]
    for db_v in versions[1:]:
        references.append(_outcome(lambda db_v=db_v: case.query.evaluate(db_v)))

    for backend in backends:
        for engine in engines:
            _check_delta_evaluator(
                report, case, versions, references, backend, engine,
                workers, num_partitions,
            )
    if case.nip is not None:
        _check_incremental_explainer(
            report, case, versions, references, workers, num_partitions
        )
    return report


def _check_delta_evaluator(
    report: OracleReport,
    case: FuzzCase,
    versions: "list[Database]",
    references: list,
    backend: str,
    engine: str,
    workers: int,
    num_partitions: int,
) -> None:
    label = f"delta backend={backend} engine={engine}"
    try:
        evaluator = DeltaEvaluator(
            case.query,
            versions[0],
            num_partitions=num_partitions,
            backend=backend,
            workers=workers,
            optimize=False,
            engine=engine,
        )
    except Exception as exc:  # noqa: BLE001 - reference succeeded, so must this
        report.divergences.append(
            Divergence(
                "mutation", label,
                f"base rebase raised {type(exc).__name__} "
                "but the reference evaluated",
            )
        )
        return
    report.configs_run += 1
    if evaluator.result() != references[0][1]:
        report.divergences.append(
            Divergence(
                "mutation", f"{label} version=0",
                _bag_diff(references[0][1], evaluator.result()),
            )
        )
        return
    for k, db_v in enumerate(versions[1:], start=1):
        expected = references[k]
        got = _outcome(lambda: evaluator.update(db_v))
        report.configs_run += 1
        config_label = f"{label} version={db_v.version_id} [{evaluator.last_stats.get('mode', '?')}]"
        if got[0] != expected[0]:
            report.divergences.append(
                Divergence(
                    "mutation", config_label,
                    f"incremental={'ok' if got[0] == 'ok' else got[1]} vs "
                    f"from-scratch={'ok' if expected[0] == 'ok' else expected[1]}",
                )
            )
            return
        if expected[0] == "error":
            if got[1] != expected[1]:
                report.divergences.append(
                    Divergence(
                        "mutation", config_label,
                        f"exception {got[1]} vs reference {expected[1]}",
                    )
                )
            return  # the chain is consistently-erroring from here on
        if got[1] != expected[1]:
            report.divergences.append(
                Divergence("mutation", config_label, _bag_diff(expected[1], got[1]))
            )
            return


def _check_incremental_explainer(
    report: OracleReport,
    case: FuzzCase,
    versions: "list[Database]",
    references: list,
    workers: int,
    num_partitions: int,
) -> None:
    from repro.whynot.explain import explain
    from repro.whynot.question import WhyNotQuestion

    def fresh(db_v: Database) -> WhyNotQuestion:
        return WhyNotQuestion(case.query, db_v, case.nip, name=case.name)

    def scratch(db_v: Database):
        return explain(
            fresh(db_v), backend="serial", workers=workers, engine="row",
            validate=True, optimize=False,
        )

    baseline = _outcome(lambda: scratch(versions[0]))
    try:
        explainer = IncrementalExplainer(
            fresh(versions[0]), backend="serial", workers=workers,
            num_partitions=num_partitions,
        )
        incremental = ("ok", explainer.last_result)
    except Exception as exc:  # noqa: BLE001 - compared against the baseline
        explainer = None
        incremental = ("error", type(exc).__name__)
    report.explain_configs_run += 1
    if incremental[0] != baseline[0]:
        report.divergences.append(
            Divergence(
                "mutation-explain", "version=0",
                f"incremental={'ok' if incremental[0] == 'ok' else incremental[1]}"
                f" vs from-scratch={'ok' if baseline[0] == 'ok' else baseline[1]}",
            )
        )
        return
    if baseline[0] == "error":
        if incremental[1] != baseline[1]:
            report.divergences.append(
                Divergence(
                    "mutation-explain", "version=0",
                    f"exception {incremental[1]} vs {baseline[1]}",
                )
            )
        return  # both consistently refuse the base question; nothing to maintain
    if _explanation_key(incremental[1]) != _explanation_key(baseline[1]):
        report.divergences.append(
            Divergence(
                "mutation-explain", "version=0",
                f"explanations {_explanation_key(incremental[1])} "
                f"vs {_explanation_key(baseline[1])}",
            )
        )
        return
    if not _check_retrace(report, explainer, None, "version=0"):
        return
    for k, db_v in enumerate(versions[1:], start=1):
        if references[k][0] == "error":
            return  # the query itself errors from this version on
        expected = _outcome(lambda db_v=db_v: scratch(db_v))
        previous = explainer.trace
        got = _outcome(lambda db_v=db_v: explainer.apply(db_v))
        report.explain_configs_run += 1
        label = f"version={db_v.version_id}"
        if got[0] != expected[0]:
            report.divergences.append(
                Divergence(
                    "mutation-explain", label,
                    f"incremental={'ok' if got[0] == 'ok' else got[1]} vs "
                    f"from-scratch={'ok' if expected[0] == 'ok' else expected[1]}",
                )
            )
            return
        if expected[0] == "error":
            if got[1] != expected[1]:
                report.divergences.append(
                    Divergence(
                        "mutation-explain", label,
                        f"exception {got[1]} vs {expected[1]}",
                    )
                )
                return
            continue  # both ill-posed here (e.g. an insert satisfied the
            # question); the explainer keeps its stale-set and must recover
            # on the next well-posed version.
        if _explanation_key(got[1]) != _explanation_key(expected[1]):
            report.divergences.append(
                Divergence(
                    "mutation-explain",
                    f"{label} [{explainer.last_stats.get('mode', '?')}]",
                    f"explanations {_explanation_key(got[1])} "
                    f"vs {_explanation_key(expected[1])}",
                )
            )
            return
        if not _check_retrace(report, explainer, previous, label):
            return


def _check_retrace(
    report: OracleReport,
    explainer: IncrementalExplainer,
    previous,
    label: str,
) -> bool:
    """The explainer's latest trace ≡ the row-at-a-time reference tracer's.

    A delta re-trace is replayed on the reference with the same reused
    operators (as row snapshots) and the same row-id offset, so row ids
    line up exactly; a base or full trace is compared with a from-scratch
    reference trace.  Returns False (after recording a divergence) when
    they differ.
    """
    from repro.fuzz import reference

    result = explainer.last_result
    question = result.question
    reuse, rid_start = None, 0
    if explainer.last_stats.get("mode") == "delta":
        reuse = reference.reuse_rows(previous, result.trace)
        rid_start = previous.max_rid()
    ref_trace = reference.trace(
        question.query, question.db, explainer.sas,
        revalidate=explainer.revalidate, reuse=reuse, rid_start=rid_start,
    )
    ref_explanations = reference.approximate_msrs(question, explainer.sas, ref_trace)
    report.tracer_checks += 1
    difference = reference.compare(
        result.trace, result.explanations, ref_trace, ref_explanations
    )
    if difference is None:
        return True
    report.divergences.append(
        Divergence(
            "mutation-tracer",
            f"{label} [{explainer.last_stats.get('mode', '?')}]",
            _clip(difference),
        )
    )
    return False


@dataclass
class MutationSweepResult:
    """Aggregate outcome of a seeded mutation-sequence sweep."""

    seed: int
    steps: int
    cases: int = 0
    with_question: int = 0
    skipped_errors: int = 0
    configs_run: int = 0
    explain_configs_run: int = 0
    tracer_checks: int = 0  #: (re-)traces compared against the reference tracer
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
            f"{self.configs_run} incremental-vs-scratch result checks, "
            f"{self.explain_configs_run} explanation checks, "
            f"{self.tracer_checks} reference-tracer checks — {status}"
        )


def run_mutation_sweep(
    seed: int,
    cases: int,
    config: Optional[FuzzConfig] = None,
    steps: int = 3,
    questions: bool = True,
    backends: Sequence[str] = ("serial",),
    engines: Sequence[str] = ("row", "columnar"),
    workers: int = 2,
    num_partitions: int = 3,
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
        report = check_mutation_case(
            case,
            rng,
            steps=steps,
            backends=backends,
            engines=engines,
            workers=workers,
            num_partitions=num_partitions,
            config=config,
        )
        result.cases += 1
        result.configs_run += report.configs_run
        result.explain_configs_run += report.explain_configs_run
        result.tracer_checks += report.tracer_checks
        if case.nip is not None:
            result.with_question += 1
        if report.reference_error is not None:
            result.skipped_errors += 1
        if not report.ok:
            result.failures.append((case, report))
    return result
