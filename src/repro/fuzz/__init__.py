"""Seeded differential fuzzing for the query/why-not pipeline.

Results must agree bag-for-bag between the reference ``Query.evaluate``
and the partitioned executor with the logical optimizer on or off, at
every partition count; explanations must agree between ``explain``, the
service and the row-at-a-time reference tracer.  The
hand-written paper scenarios only cover a sliver of the input space, so this
package generates the rest: random nested databases seeded with adversarial
values (NaN, ±0.0, ``2`` vs ``2.0`` vs ``True``, empty bags, all-null
columns, unicode/surrogate strings), random well-typed operator trees over
them, and derived why-not questions — then cross-checks every path against
the reference and shrinks any divergence to a minimal repro case.

Modules:

* :mod:`repro.fuzz.data` — random nested-database generation;
* :mod:`repro.fuzz.plans` — random well-typed plans and why-not questions;
* :mod:`repro.fuzz.oracle` — the differential oracle (results, metrics
  invariants, explanation sets, matcher agreement);
* :mod:`repro.fuzz.harness` — seeded sweeps and failure shrinking;
* :mod:`repro.fuzz.mutations` — fuzzed mutation chains applied through the
  service's write path, whose answers must equal from-scratch ones;
* :mod:`repro.fuzz.reference` — the row-at-a-time reference tracer and
  Algorithm 4 that the columnar tracer is checked against;
* :mod:`repro.fuzz.serialize` — JSON round-tripping of cases for the pinned
  corpus in ``tests/fuzz/corpus/``.

Entry points: ``python -m repro fuzz --seed 4 --cases 200`` (CLI; add
``--mutations`` for the write-path sweep) and
``tests/fuzz/test_differential.py`` (pinned corpus + tier-1 mini sweep).
See ``docs/FUZZING.md`` for the workflow.
"""

from repro.fuzz.data import FuzzConfig, gen_database
from repro.fuzz.harness import FuzzCase, SweepResult, generate_case, run_sweep, shrink_case
from repro.fuzz.mutations import (
    MutationSweepResult,
    check_mutation_case,
    gen_mutation,
    gen_mutation_chain,
    run_mutation_sweep,
)
from repro.fuzz.oracle import Divergence, OracleReport, check_case
from repro.fuzz.plans import gen_query, gen_question

__all__ = [
    "FuzzConfig",
    "gen_database",
    "gen_query",
    "gen_question",
    "Divergence",
    "OracleReport",
    "check_case",
    "FuzzCase",
    "SweepResult",
    "generate_case",
    "run_sweep",
    "shrink_case",
    "MutationSweepResult",
    "check_mutation_case",
    "gen_mutation",
    "gen_mutation_chain",
    "run_mutation_sweep",
]
