"""ExplanationService behaviour: registry, validation, cache, dispatch."""

import pytest

from repro.api import (
    BadRequest,
    ExplainOptions,
    ExplainRequest,
    ExplanationService,
    UnknownDatabase,
)
from repro.nested.values import Bag, Tup
from repro.scenarios import get_scenario
from repro.whynot.explain import explain
from repro.whynot.placeholders import ANY, STAR
from repro.whynot.question import IllPosedQuestion


def _request(question, alternatives=(), **kwargs):
    return ExplainRequest(
        query=question.query,
        nip=question.nip,
        database=question.db,
        alternatives=alternatives,
        **kwargs,
    )


class TestRegistry:
    def test_register_and_lookup(self, person_db):
        service = ExplanationService()
        service.register_database("people", person_db)
        assert service.database("people") is person_db
        assert service.databases() == ["people"]

    def test_unknown_database(self):
        service = ExplanationService()
        with pytest.raises(UnknownDatabase, match="nope"):
            service.database("nope")

    def test_by_name_requests_resolve(self, person_db, running_question):
        service = ExplanationService(databases={"people": person_db})
        request = ExplainRequest(
            query=running_question.query, nip=running_question.nip, database="people"
        )
        response = service.explain(request)
        direct = explain(running_question)
        assert response.explanation_sets() == [
            frozenset(e.labels) for e in direct.explanations
        ]

    def test_scenarios_listing(self):
        entries = ExplanationService().scenarios()
        names = {e["name"] for e in entries}
        assert {"Q1", "Q10", "T2", "C3", "D3"} <= names
        q10 = next(e for e in entries if e["name"] == "Q10")
        assert q10["gold"]  # the paper defines a gold explanation for Q10


class TestValidation:
    def test_incomplete_request(self):
        with pytest.raises(BadRequest, match="scenario name or query"):
            ExplanationService().explain(ExplainRequest())

    def test_unknown_scenario(self):
        with pytest.raises(BadRequest, match="unknown scenario"):
            ExplanationService().explain(ExplainRequest(scenario="Q999"))

    def test_ill_posed_question(self, person_db, running_query):
        # ⟨city: LA, ...⟩ is present in the result: Definition 5 fails.
        request = ExplainRequest(
            query=running_query,
            nip=Tup(city="LA", nList=Bag([ANY, STAR])),
            database=person_db,
        )
        with pytest.raises(IllPosedQuestion):
            ExplanationService().explain(request)

    @pytest.mark.parametrize("scale", [0, -3, "20", 2.5, True])
    def test_bad_scenario_scale_rejected(self, scale):
        with pytest.raises(BadRequest, match="scale"):
            ExplanationService().explain(ExplainRequest(scenario="Q1", scale=scale))

    def test_huge_scenario_scale_rejected(self):
        # scale sizes a synchronous database build from network input.
        with pytest.raises(BadRequest, match="serving limit"):
            ExplanationService().explain(ExplainRequest(scenario="Q1", scale=10**8))

    def test_scenario_db_cache_is_bounded(self):
        service = ExplanationService()
        service._scenario_db_limit = 2
        for scale in (5, 6, 7, 8):
            service.prepare(ExplainRequest(scenario="Q1", scale=scale))
        assert len(service._scenario_dbs) == 2

    def test_unknown_option_fields_rejected(self):
        with pytest.raises(BadRequest, match="unknown option"):
            ExplainOptions.from_json({"backend": "serial", "typo": 1})

    @pytest.mark.parametrize("engine", [None, "row", "columnar"])
    def test_retired_engine_option_is_accepted_and_dropped(self, engine):
        options = ExplainOptions.from_json({"engine": engine, "max_sas": 7})
        assert options == ExplainOptions(max_sas=7)
        assert "engine" not in options.to_json()
        with pytest.raises(BadRequest, match="unknown option"):
            ExplainOptions.from_json({"engine": engine, "typo": 1})

    def test_retired_engine_option_rejects_other_values(self):
        with pytest.raises(BadRequest, match="unknown engine"):
            ExplainOptions.from_json({"engine": "vectorized"})

    def test_prepare_validates(self, running_question):
        service = ExplanationService()
        question, alternatives, key = service.prepare(_request(running_question))
        assert question.nip == running_question.nip
        assert isinstance(key, int)


class TestCache:
    def test_hit_counters_and_flag(self, running_question):
        service = ExplanationService(cache_size=4)
        request = _request(running_question)
        first = service.explain(request)
        second = service.explain(_request(running_question))
        assert not first.cached and second.cached
        assert second.cache == {"hits": 1, "misses": 1, "size": 1}
        assert second.explanation_sets() == first.explanation_sets()
        # The cached response reuses the computed result object: no re-trace.
        assert second.result is first.result

    def test_use_cache_false_bypasses(self, running_question):
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question), use_cache=False)
        response = service.explain(_request(running_question), use_cache=False)
        assert not response.cached
        assert service.cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_execution_knobs_share_cache_entries(self, running_question):
        # The retired partitions/optimize fields change no explanation, so
        # a request carrying them shares the entry of one without them.
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        retired = ExplainOptions.from_json({"optimize": True, "partitions": 3})
        response = service.explain(_request(running_question, options=retired))
        assert response.cached

    def test_semantic_knobs_get_separate_entries(self, running_question):
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        response = service.explain(
            _request(
                running_question,
                options=ExplainOptions(use_schema_alternatives=False),
            )
        )
        assert not response.cached
        assert service.cache_stats()["size"] == 2

    def test_alternatives_change_the_key(self, running_question):
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        response = service.explain(
            _request(
                running_question,
                alternatives=[["person.address2", "person.address1"]],
            )
        )
        assert not response.cached

    def test_lru_eviction(self, running_question):
        service = ExplanationService(cache_size=1)
        service.explain(_request(running_question))
        service.explain(ExplainRequest(scenario="Q1", scale=10))
        assert service.cache_stats()["size"] == 1
        response = service.explain(_request(running_question))
        assert not response.cached  # evicted by the Q1 entry

    def test_clear_cache(self, running_question):
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        service.clear_cache()
        assert service.cache_stats()["size"] == 0
        assert not service.explain(_request(running_question)).cached


class TestScenarioShorthand:
    def test_matches_direct_run(self):
        scenario = get_scenario("Q1")
        direct = explain(scenario.question(20), alternatives=scenario.alternatives)
        response = ExplanationService().explain(ExplainRequest(scenario="Q1", scale=20))
        assert response.explanation_sets() == [
            frozenset(e.labels) for e in direct.explanations
        ]
        assert response.result.n_sas == direct.n_sas

    def test_directed_alternative_groups_served(self):
        # T2's alternatives use the directed (from, [to, ...]) pair form.
        scenario = get_scenario("T2")
        direct = explain(scenario.question(20), alternatives=scenario.alternatives)
        response = ExplanationService().explain(ExplainRequest(scenario="T2", scale=20))
        assert response.explanation_sets() == [
            frozenset(e.labels) for e in direct.explanations
        ]


class TestConcurrentDispatch:
    def test_submit_fans_out_and_caches(self, running_question):
        service = ExplanationService(cache_size=8, max_concurrency=4)
        futures = [service.submit(_request(running_question)) for _ in range(6)]
        responses = [f.result(timeout=120) for f in futures]
        sets = {
            tuple(tuple(sorted(s)) for s in r.explanation_sets()) for r in responses
        }
        assert len(sets) == 1  # all six agree
        stats = service.cache_stats()
        assert stats["hits"] + stats["misses"] == 6
        assert stats["hits"] >= 1  # repeats were served from the cache
        service.close()

    def test_close_is_idempotent(self):
        service = ExplanationService()
        service.close()
        service.close()


class TestRequestWire:
    def test_request_round_trip_inline_db(self, running_question):
        request = _request(running_question, name="rt")
        decoded = ExplainRequest.from_json(request.to_json())
        assert decoded.name == "rt"
        response_a = ExplanationService().explain(decoded)
        response_b = ExplanationService().explain(request)
        assert response_a.explanation_sets() == response_b.explanation_sets()

    def test_request_round_trip_scenario(self):
        request = ExplainRequest(scenario="Q1", scale=20)
        decoded = ExplainRequest.from_json(request.to_json())
        assert decoded.scenario == "Q1" and decoded.scale == 20

    def test_response_wire_document(self, running_question):
        response = ExplanationService().explain(_request(running_question))
        document = response.to_json()
        assert document["format"] == 2 and document["kind"] == "explain-response"
        assert document["result"]["kind"] == "result"
        assert document["cached"] is False
