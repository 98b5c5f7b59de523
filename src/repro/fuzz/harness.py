"""Seeded fuzz sweeps and failure shrinking.

A case is fully determined by ``(seed, index, config)``: the per-case RNG is
``random.Random(f"{seed}:{index}")`` (string seeding is hash-independent),
so any failure reported by a sweep can be regenerated exactly.  Failures are
shrunk — rows first (greedy halving, then singles), then operators (each
replaced by a child), then the question — to a minimal case that still
diverges, ready to be serialized into ``tests/fuzz/corpus/`` and pinned as a
regression test (see ``docs/FUZZING.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from repro.algebra.operators import Operator, Query, TableAccess
from repro.engine.database import Database
from repro.fuzz.data import DbSpec, FuzzConfig, TableSpec, gen_db_spec
from repro.fuzz.oracle import OracleReport, check_case
from repro.fuzz.plans import gen_query, gen_question
from repro.whynot.question import WhyNotQuestion


@dataclass
class FuzzCase:
    """One reproducible differential-testing case."""

    name: str
    db_spec: DbSpec
    query: Query
    nip: Any = None  #: why-not pattern over the query output (None: no question)

    def database(self) -> Database:
        """Materialize the case's database."""
        return self.db_spec.build()

    def question(self, db: Optional[Database] = None) -> Optional[WhyNotQuestion]:
        """The why-not question of this case, if it carries one."""
        if self.nip is None:
            return None
        return WhyNotQuestion(
            self.query, db if db is not None else self.database(), self.nip, name=self.name
        )

    def check(self, **oracle_options: Any) -> OracleReport:
        """Run the differential oracle on this case."""
        db = self.database()
        return check_case(db, self.query, self.question(db), **oracle_options)


def generate_case(
    seed: int, index: int, config: Optional[FuzzConfig] = None, questions: bool = True
) -> FuzzCase:
    """Generate case *index* of sweep *seed* (deterministic, hash-independent)."""
    config = config or FuzzConfig()
    rng = random.Random(f"{seed}:{index}")
    name = f"seed{seed}-case{index}"
    db_spec = gen_db_spec(rng, config)
    db = db_spec.build()
    query = gen_query(rng, db, config, name=name)
    nip = None
    if questions:
        try:
            question = gen_question(rng, query, db, name=name)
        except Exception:  # noqa: BLE001 - a crashing query is still a case
            question = None
        if question is not None:
            nip = question.nip
    return FuzzCase(name, db_spec, query, nip)


@dataclass
class SweepResult:
    """Aggregate outcome of a seeded fuzz sweep."""

    seed: int
    cases: int = 0
    with_question: int = 0
    skipped_errors: int = 0  #: cases whose reference evaluation raised (consistently)
    configs_run: int = 0
    explain_configs_run: int = 0
    tracer_checks: int = 0  #: traces compared against the reference tracer
    stateful_checks: int = 0  #: explain-state service answers vs direct explain
    reannotated_checks: int = 0  #: stateful answers that re-annotated a relaxed trace
    recheck_runs: int = 0  #: recheck kernels those re-annotations ran
    matcher_checks: int = 0  #: result rows the NIP matchers were compared on
    failures: list = field(default_factory=list)  #: (FuzzCase, OracleReport) pairs

    @property
    def ok(self) -> bool:
        """True when the sweep observed no divergence at all."""
        return not self.failures

    def summary(self) -> str:
        """One-paragraph human/CI-readable summary of the sweep."""
        status = "OK" if self.ok else f"{len(self.failures)} DIVERGENT CASES"
        return (
            f"fuzz sweep seed={self.seed}: {self.cases} cases "
            f"({self.with_question} with why-not questions, "
            f"{self.skipped_errors} consistently-erroring), "
            f"{self.configs_run} executor configs, "
            f"{self.explain_configs_run} explain configs, "
            f"{self.tracer_checks} reference-tracer checks, "
            f"{self.stateful_checks} stateful-service checks "
            f"({self.reannotated_checks} re-annotated, "
            f"{self.recheck_runs} recheck kernel runs), "
            f"{self.matcher_checks} matcher checks — {status}"
        )


def run_sweep(
    seed: int,
    cases: int,
    config: Optional[FuzzConfig] = None,
    questions: bool = True,
    on_case: Optional[Callable[[int, FuzzCase, OracleReport], None]] = None,
    **oracle_options: Any,
) -> SweepResult:
    """Generate and differentially check *cases* cases for one seed."""
    result = SweepResult(seed=seed)
    for index in range(cases):
        case = generate_case(seed, index, config, questions=questions)
        report = case.check(**oracle_options)
        result.cases += 1
        result.configs_run += report.configs_run
        result.explain_configs_run += report.explain_configs_run
        result.tracer_checks += report.tracer_checks
        result.stateful_checks += report.stateful_checks
        result.reannotated_checks += report.reannotated_checks
        result.recheck_runs += report.recheck_runs
        result.matcher_checks += report.matcher_checks
        if case.nip is not None:
            result.with_question += 1
        if report.reference_error is not None:
            result.skipped_errors += 1
        if not report.ok:
            result.failures.append((case, report))
        if on_case is not None:
            on_case(index, case, report)
    return result


# -- shrinking ----------------------------------------------------------------


def _without_op(query: Query, op_id: int, child_index: int = 0) -> Optional[Query]:
    """*query* with operator *op_id* replaced by its child (None: not possible)."""
    target = query.op(op_id)
    if not target.children:
        return None

    def rebuild(op: Operator) -> Operator:
        if op.op_id == op_id:
            return rebuild(op.children[child_index])
        if not op.children:
            return op.clone(())
        return op.clone([rebuild(c) for c in op.children])

    try:
        return Query(rebuild(query.root), name=query.name)
    except Exception:  # noqa: BLE001 - invalid rewrite: not a candidate
        return None


def _shrink_rows(
    case: FuzzCase, still_fails: Callable[[FuzzCase], bool]
) -> FuzzCase:
    """Greedy delta-debugging over every table's rows (halves, then singles)."""
    for table in list(case.db_spec.tables):
        spec = case.db_spec.tables[table]
        rows = list(spec.rows)
        chunk = max(1, len(rows) // 2)
        while chunk >= 1:
            i = 0
            while i < len(rows):
                candidate_rows = rows[:i] + rows[i + chunk :]
                candidate = _with_rows(case, table, candidate_rows)
                if still_fails(candidate):
                    rows = candidate_rows
                    case = candidate
                else:
                    i += chunk
            chunk //= 2
    return case


def _with_rows(case: FuzzCase, table: str, rows: list) -> FuzzCase:
    tables = dict(case.db_spec.tables)
    tables[table] = TableSpec(tables[table].schema, rows)
    return replace(case, db_spec=DbSpec(tables))


def _shrink_plan(case: FuzzCase, still_fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    """Repeatedly try replacing operators by a child (drops the NIP if needed)."""
    progress = True
    while progress:
        progress = False
        for op in list(case.query.ops):
            if isinstance(op, TableAccess):
                continue
            for child_index in range(len(op.children)):
                smaller = _without_op(case.query, op.op_id, child_index)
                if smaller is None:
                    continue
                # The NIP is typed against the old output schema; keep it only
                # if the shrunk case still fails with it, else try without.
                for nip in (case.nip, None) if case.nip is not None else (None,):
                    candidate = replace(case, query=smaller, nip=nip)
                    if still_fails(candidate):
                        case = candidate
                        progress = True
                        break
                if progress:
                    break
            if progress:
                break
    return case


def shrink_case(
    case: FuzzCase,
    still_fails: Optional[Callable[[FuzzCase], bool]] = None,
    **oracle_options: Any,
) -> FuzzCase:
    """Shrink *case* to a minimal version on which the oracle still fails.

    ``still_fails`` defaults to "the differential oracle reports at least one
    divergence"; tests inject synthetic predicates to exercise the shrinker
    itself.  Candidate cases that crash during checking count as not-failing
    (a broken candidate is consistent, not divergent).
    """
    if still_fails is None:

        def still_fails(candidate: FuzzCase) -> bool:
            try:
                return not candidate.check(**oracle_options).ok
            except Exception:  # noqa: BLE001
                return False

    case = _shrink_rows(case, still_fails)
    case = _shrink_plan(case, still_fails)
    case = _shrink_rows(case, still_fails)
    if case.nip is not None:
        candidate = replace(case, nip=None)
        if still_fails(candidate):
            case = candidate
    return case
