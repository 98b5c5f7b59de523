"""Wire-format round-trip guarantees (format v2) and the compat policy.

The heart of the contract: for every registered scenario, the query, NIP and
database survive ``to_json → json.dumps → json.loads → from_json`` with an
identical result bag and identical explanation sets.  Plus: adversarial
values round-trip exactly, operator labels are preserved (new in v2),
format-v1 documents still decode, and unknown versions are rejected.
"""

import json
import math

import pytest

from repro.algebra.expressions import col, lit
from repro.engine.metrics import ExecutionMetrics, OperatorMetrics
from repro.nested.values import NAN, NULL, Bag, Tup
from repro.scenarios import SCENARIOS, get_scenario
from repro.whynot.explain import explain
from repro.whynot.placeholders import ANY, STAR, Cond
from repro.wire import (
    SUPPORTED_VERSIONS,
    WIRE_VERSION,
    check_envelope,
    database_from_json,
    database_to_json,
    expr_from_json,
    expr_to_json,
    metrics_from_json,
    metrics_to_json,
    op_from_json,
    op_to_json,
    query_from_json,
    query_to_json,
    question_from_json,
    question_to_json,
    relation_from_json,
    relation_to_json,
    result_to_json,
    value_from_json,
    value_to_json,
)

#: Scale every scenario is round-tripped at (small but non-trivial data).
SCALE = 20


def _wire_trip(document):
    """to_json → actual JSON text → from_json, like the HTTP layer does."""
    return json.loads(json.dumps(document, ensure_ascii=True))


class TestValueRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            NULL,
            ANY,
            STAR,
            Cond(">=", 2019),
            True,
            2,
            2.0,
            -0.0,
            "",
            "x\udc80y",
            "\U0001f680",
            Tup(city="NY", n=Bag([ANY, STAR])),
            Bag([]),
            Bag([NULL, NULL, Tup(a=1)]),
        ],
    )
    def test_exact(self, value):
        restored = value_from_json(_wire_trip(value_to_json(value)))
        assert restored == value
        assert type(restored) is type(value)

    def test_nan_restores_canonical_object(self):
        restored = value_from_json(_wire_trip(value_to_json(float("nan"))))
        assert restored is NAN

    def test_negative_zero_sign_survives(self):
        restored = value_from_json(_wire_trip(value_to_json(-0.0)))
        assert math.copysign(1.0, restored) == -1.0

    def test_int_float_bool_stay_distinct(self):
        for value in (2, 2.0, True):
            restored = value_from_json(_wire_trip(value_to_json(value)))
            assert type(restored) is type(value)


class TestOperatorLabels:
    def test_labels_survive_the_trip(self, person_db, running_query):
        restored = query_from_json(_wire_trip(query_to_json(running_query)))
        assert [op.label for op in restored.ops] == [
            op.label for op in running_query.ops
        ]
        assert restored.name == running_query.name

    def test_v1_documents_without_labels_decode(self, running_query):
        document = op_to_json(running_query.root)

        def strip(node):
            node.pop("label", None)
            for child in node.values():
                if isinstance(child, dict):
                    strip(child)

        strip(document)
        restored = op_from_json(document)
        assert restored.describe() != ""  # decodes to an unlabeled operator tree


class TestEnvelope:
    def test_supported_versions_accepted(self):
        for version in SUPPORTED_VERSIONS:
            check_envelope({"format": version})

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported wire format"):
            check_envelope({"format": WIRE_VERSION + 1})

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected a"):
            check_envelope({"format": WIRE_VERSION, "kind": "database"}, "question")

    def test_v1_documents_skip_the_kind_check(self):
        # v1 predates payload envelopes: no kind field, still accepted.
        check_envelope({"format": 1}, "question")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestScenarioRoundTrip:
    def test_result_bag_identical(self, name):
        question = get_scenario(name).question(SCALE)
        db = database_from_json(_wire_trip(database_to_json(question.db)))
        query = query_from_json(_wire_trip(query_to_json(question.query)))
        nip = value_from_json(_wire_trip(value_to_json(question.nip)))
        assert query.evaluate(db) == question.query.evaluate(question.db)
        assert nip == question.nip

    def test_explanation_sets_identical(self, name):
        scenario = get_scenario(name)
        question = scenario.question(SCALE)
        restored, alternatives = question_from_json(
            _wire_trip(question_to_json(question, alternatives=scenario.alternatives))
        )
        original = explain(question, alternatives=scenario.alternatives)
        roundtripped = explain(restored, alternatives=alternatives)
        assert [e.labels for e in roundtripped.explanations] == [
            e.labels for e in original.explanations
        ]
        assert roundtripped.n_sas == original.n_sas
        # The full result payloads agree modulo timings.
        doc_a, doc_b = result_to_json(original), result_to_json(roundtripped)
        doc_a["timings"] = doc_b["timings"] = None
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)


class TestRelationAndMetricsPayloads:
    def test_relation_preserves_multiplicities(self):
        bag = Bag([Tup(a=1), Tup(a=1), Tup(a=NULL)])
        assert relation_from_json(_wire_trip(relation_to_json(bag))) == bag

    def test_metrics_round_trip(self):
        metrics = ExecutionMetrics(wall_seconds=1.25)
        metrics.operators[3] = OperatorMetrics(
            op_id=3, label="σ3", rows_in=10, rows_out=4, shuffled_rows=10,
            partitions=3, tasks=3, wall_seconds=0.5, cpu_seconds=0.9, origins=(1, 2),
        )
        document = _wire_trip(metrics_to_json(metrics))
        # Every run is serial: format-2 readers still find the fields.
        assert document["backend"] == "serial" and document["workers"] == 1
        restored = metrics_from_json(document)
        assert restored.wall_seconds == 1.25
        assert restored.operators[3].origins == (1, 2)
        assert restored.operators[3].rows_out == 4

    def test_question_name_reference_needs_registry(self, person_db, running_query):
        from repro.whynot.question import WhyNotQuestion

        question = WhyNotQuestion(
            running_query, person_db, Tup(city="NY", nList=Bag([ANY, STAR]))
        )
        document = _wire_trip(question_to_json(question, database="people"))
        assert document["database"] == "people"
        with pytest.raises(ValueError, match="no registry"):
            question_from_json(document)
        restored, _ = question_from_json(
            document, resolve_database=lambda name: person_db
        )
        assert restored.query.evaluate(restored.db) == running_query.evaluate(person_db)


class TestServingStatsPayload:
    def _serving(self, **overrides):
        serving = {
            "mode": "sharded",
            "uptime_s": 12.5,
            "requests": 10,
            "completed": 7,
            "errors": 1,
            "rejected": 1,
            "coalesced": 1,
            "timeouts": 0,
            "qps": 0.56,
            "latency_ms": {"count": 7, "p50_ms": 30.0, "p95_ms": 90.0, "p99_ms": 90.0},
            "cache": {"hits": 3, "misses": 4, "size": 4, "hit_rate": 3 / 7},
        }
        serving.update(overrides)
        return serving

    def test_round_trip_with_workers(self):
        from repro.wire import serving_stats_from_json, serving_stats_to_json

        workers = [{"index": 0, "pid": 123, "alive": True, "restarts": 0}]
        document = _wire_trip(serving_stats_to_json(self._serving(), workers))
        check_envelope(document, "stats")
        serving, decoded_workers = serving_stats_from_json(document)
        assert serving == self._serving()
        assert decoded_workers == workers

    def test_optional_state_section_round_trips(self):
        from repro.wire import serving_stats_from_json, serving_stats_to_json

        state = {"entries": 2, "rows": 1812, "reuses": 5}
        workers = [{"index": 0, "pid": 123, "alive": True, "state": state}]
        document = _wire_trip(serving_stats_to_json(self._serving(state=state), workers))
        serving, decoded_workers = serving_stats_from_json(document)
        assert serving["state"] == state
        assert decoded_workers == workers
        # Documents without the section (older servers) still decode.
        assert "state" not in serving_stats_from_json(
            serving_stats_to_json(self._serving())
        )[0]

    def test_workers_default_to_empty(self):
        from repro.wire import serving_stats_from_json, serving_stats_to_json

        document = serving_stats_to_json(self._serving(mode="inprocess"))
        serving, workers = serving_stats_from_json(document)
        assert serving["mode"] == "inprocess" and workers == []

    def test_missing_counter_fields_rejected_both_ways(self):
        from repro.wire import serving_stats_from_json, serving_stats_to_json

        incomplete = self._serving()
        del incomplete["qps"]
        with pytest.raises(ValueError, match="qps"):
            serving_stats_to_json(incomplete)
        document = serving_stats_to_json(self._serving())
        del document["serving"]["latency_ms"]
        with pytest.raises(ValueError, match="latency_ms"):
            serving_stats_from_json(document)
