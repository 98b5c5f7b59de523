"""Grammar round-trip: ``parse(pretty(Q)) ≡ Q`` for scenarios and fuzz plans.

The full property lives in the fuzz oracle (``repro.fuzz.oracle`` with
``grammar=True``; CI runs ``python -m repro fuzz --text --cases 200``).
These tier-1 tests pin the same property on every registered paper
scenario and a fixed sample of fuzz-generated cases so a printer/parser
regression fails fast in the normal suite.
"""

import pytest

from repro.fuzz import FuzzConfig, generate_case
from repro.fuzz.oracle import check_case
from repro.lang import compile_program, pretty_program
from repro.scenarios import SCENARIOS, get_scenario
from repro.wire import op_to_json, value_to_json

#: Tier-1 sample of the fuzz space (the CI lang job sweeps 200 more).
FUZZ_SEED = 11
FUZZ_CASES = 40


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_roundtrip_structural(name):
    """pretty → parse → lower reproduces each scenario's plan, NIP and alts."""
    scenario = get_scenario(name)
    db = scenario.make_db(scenario.default_scale)
    query, nip = scenario.make_query(), scenario.make_nip()
    text = pretty_program(
        query, nip=nip, alternatives=scenario.alternatives, name=name
    )
    lowered = compile_program(text, database=db)
    assert op_to_json(lowered.query.root) == op_to_json(query.root)
    assert value_to_json(lowered.nip) == value_to_json(nip)
    assert lowered.alternatives == list(scenario.alternatives)
    assert lowered.name == name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_roundtrip_evaluation(name):
    """The reparsed plan evaluates to the byte-identical result bag."""
    scenario = get_scenario(name)
    db = scenario.make_db(scenario.default_scale)
    query = scenario.make_query()
    text = pretty_program(query, nip=scenario.make_nip(), name=name)
    lowered = compile_program(text, database=db)
    assert lowered.query.evaluate(db) == query.evaluate(db)


def test_pretty_is_canonical_fixed_point():
    """pretty(parse(pretty(Q))) == pretty(Q) — printing is idempotent."""
    for name in sorted(SCENARIOS):
        scenario = get_scenario(name)
        text = pretty_program(
            scenario.make_query(),
            nip=scenario.make_nip(),
            alternatives=scenario.alternatives,
            name=name,
        )
        lowered = compile_program(text)
        again = pretty_program(
            lowered.query,
            nip=lowered.nip,
            alternatives=lowered.alternatives,
            name=lowered.name,
        )
        assert again == text, f"pretty not idempotent for {name}"


@pytest.mark.parametrize("index", range(FUZZ_CASES))
def test_fuzz_case_roundtrip(index):
    """Seeded fuzz plans+questions pass the oracle's grammar check."""
    case = generate_case(f"{FUZZ_SEED}:{index}", FuzzConfig(), questions=True)
    db = case.db_spec.build()
    question = None
    if case.nip is not None:
        from repro.whynot.question import WhyNotQuestion

        question = WhyNotQuestion(case.query, db, case.nip, name=case.name)
    report = check_case(
        db,
        case.query,
        question=question,
        partitions=(1,),
        optimize=(False,),
        explanations=False,
        grammar=True,
    )
    grammar_divergences = [d for d in report.divergences if d.kind == "grammar"]
    assert not grammar_divergences, "\n".join(
        d.describe() for d in grammar_divergences
    )
