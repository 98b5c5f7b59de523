"""Debugging a TPC-H style revenue report (the paper's Q10 scenario).

A returned-items report misses a customer who definitely generated revenue.
The lineage baseline blames the join (misleading: fixing the join cannot
produce non-zero revenue); the holistic algorithm pinpoints the two
selections and — via a schema alternative — the projection computing the
revenue from the wrong column.

Along the way this example shows the logical plan optimizer
(docs/OPTIMIZER.md): the answer path runs a rewritten plan (CLI
``--show-plan`` prints it) while the explanations keep naming the
operators the analyst wrote.

Run:  PYTHONPATH=src python examples/tpch_report_debugging.py   (from the repository root)
"""

from repro import explain, optimize_query, wnpp_explain
from repro.scenarios import get_scenario


def main() -> None:
    scenario = get_scenario("Q10")
    question = scenario.question(scale=60)
    # No explicit validate() here: explain() below computes Q(D) through the
    # optimized plan and then validates Definition 5 itself.

    # The optimizer rewrites the answer path (fused selections, reordered
    # join) but every rewritten operator links back to the user's plan, and
    # the explanations below trace the plan as written.
    report = optimize_query(question.query, question.db)
    fired = ", ".join(f"{r}×{n}" for r, n in report.rule_fires.items() if n)
    print(f"Answer-path optimizer: {fired}")
    print()

    print(f"Scenario: {scenario.description}")
    print(f"Missing answer: {question.nip!r}")
    print()

    print("Lineage-based WN++ says:", wnpp_explain(question))
    print("  ... but making the join outer only adds a customer with ⊥ revenue.")
    print()

    result = explain(question, alternatives=scenario.alternatives)
    print(result.describe())
    print()
    print(
        "Explanation 4 pinpoints all three planted bugs: the returnflag\n"
        "selection σ35, the orderdate window σ36, and the revenue projection\n"
        "π37 (l_tax instead of l_discount)."
    )
    gold = scenario.gold
    ranks = [e.rank for e in result.explanations if e.ops == result.explanations[-1].ops]
    assert frozenset(result.explanations[-1].labels) == gold and ranks


if __name__ == "__main__":
    main()
