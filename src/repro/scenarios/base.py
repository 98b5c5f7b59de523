"""Scenario framework: declarative descriptions of the evaluation queries.

A :class:`Scenario` bundles a dataset builder, the (deliberately erroneous)
query, the why-not question, the attribute-alternative groups, and — where
the paper defines one — the gold-standard explanation.  ``run_scenario``
executes the three competing approaches (WN++, RPnoSA, RP) and reports their
explanations as label sets, the format of the paper's Table 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.algebra.operators import Query
from repro.baselines import conseil_explain, wnpp_explain
from repro.baselines.common import build_s1_trace
from repro.engine.database import Database
from repro.whynot.explain import WhyNotResult, explain
from repro.whynot.question import WhyNotQuestion


@dataclass
class Scenario:
    """One evaluation scenario (query + question + alternatives + gold)."""

    name: str
    description: str
    make_db: Callable[[int], Database]
    make_query: Callable[[], Query]
    make_nip: Callable[[], Any]
    alternatives: Sequence[Sequence[str]] = ()
    gold: Optional[frozenset[str]] = None
    default_scale: int = 60
    notes: str = ""
    #: True for factory-generated scenarios (:mod:`repro.factory`), whose
    #: *scale* means the generator's scale factor; excluded from the paper's
    #: Table 7 reproduction, which covers the hand-built corpus only.
    generated: bool = False

    def question(self, scale: Optional[int] = None) -> WhyNotQuestion:
        db = self.make_db(scale if scale is not None else self.default_scale)
        return WhyNotQuestion(self.make_query(), db, self.make_nip(), name=self.name)


@dataclass
class ScenarioRun:
    """Explanations of all approaches for one scenario, as label sets."""

    scenario: Scenario
    wnpp: list[frozenset[str]]
    conseil: list[frozenset[str]]
    rp_nosa: list[frozenset[str]]
    rp: list[frozenset[str]]
    n_sas: int
    rp_result: WhyNotResult = field(repr=False, default=None)
    timings: dict[str, float] = field(default_factory=dict)

    def gold_position(self) -> Optional[int]:
        """1-based rank of the gold explanation in RP's output (None: absent)."""
        if self.scenario.gold is None:
            return None
        for i, labels in enumerate(self.rp, start=1):
            if labels == self.scenario.gold:
                return i
        return None

    def counts(self) -> tuple[int, int, int]:
        """(#WN++, #RPnoSA, #RP) — the three Table 7 columns."""
        return (len(self.wnpp), len(self.rp_nosa), len(self.rp))


SCENARIOS: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")


def run_scenario(
    scenario: "Scenario | str",
    scale: Optional[int] = None,
    with_baselines: bool = True,
) -> ScenarioRun:
    """Run all approaches on *scenario* and collect their explanations."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    question = scenario.question(scale)
    question.validate()
    timings: dict[str, float] = {}

    started = time.perf_counter()
    wnpp = []
    conseil = []
    if with_baselines:
        s1 = build_s1_trace(question)
        wnpp = [frozenset(e.labels) for e in wnpp_explain(question, s1)]
        conseil = [frozenset(e.labels) for e in conseil_explain(question, s1)]
    timings["baselines"] = time.perf_counter() - started

    started = time.perf_counter()
    nosa = explain(question, use_schema_alternatives=False, validate=False)
    timings["rp_nosa"] = time.perf_counter() - started

    started = time.perf_counter()
    rp = explain(question, alternatives=scenario.alternatives, validate=False)
    timings["rp"] = time.perf_counter() - started

    return ScenarioRun(
        scenario=scenario,
        wnpp=wnpp,
        conseil=conseil,
        rp_nosa=[frozenset(e.labels) for e in nosa.explanations],
        rp=[frozenset(e.labels) for e in rp.explanations],
        n_sas=rp.n_sas,
        rp_result=rp,
        timings=timings,
    )
