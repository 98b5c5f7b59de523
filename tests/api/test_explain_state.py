"""Per-query explain states: every stateful answer equals a fresh explain.

Per database version the oracle asks each factory family's planted
question, its ``summarize`` twin, its ``.rq`` text twin and three
NIP-constant variants; between versions it deletes and re-inserts filler
rows the way perfbench's serve-mixed workload does.  Every response must
equal ``service.explain(request, use_cache=False)`` on the wire (timings
emptied, summaries included), and the reuse counter must show the state at
work.  The rest pins the state's lifecycle: eviction, bounds, bypasses,
concurrency, ``/v1/stats`` and the registry race that would poison it.
"""

import threading

import pytest

from repro.algebra.operators import TableAccess
from repro.api import Client, ExplainOptions, ExplainRequest, ExplanationService
from repro.api import service as service_module
from repro.api.http import make_server
from repro.engine.database import Database
from repro.factory import make_bundle
from repro.lang import pretty_program
from repro.nested.values import Tup
from repro.whynot import tracing
from repro.whynot.tracing import LazyColumns
from repro.wire import result_to_json, serving_stats_from_json

SF = 2


@pytest.fixture(scope="module", params=["social", "tpch"])
def bundle(request):
    return make_bundle(request.param, SF)


@pytest.fixture(scope="module")
def social():
    return make_bundle("social", SF)


def _wire(response) -> dict:
    document = result_to_json(response.result)
    document["timings"] = {}
    return document


def _explicit(bundle, nip, **options) -> ExplainRequest:
    return ExplainRequest(
        query=bundle.query,
        nip=nip,
        database=bundle.family,
        alternatives=bundle.alternatives,
        options=ExplainOptions(**options),
    )


def _questions(bundle, variants) -> "list[ExplainRequest]":
    """The planted question, its summarize and text twins, the variants."""
    text = pretty_program(bundle.query, bundle.nip, bundle.alternatives)
    return [
        _explicit(bundle, bundle.nip),
        _explicit(bundle, bundle.nip, summarize=True),
        ExplainRequest(text=text, database=bundle.family),
    ] + [_explicit(bundle, nip) for nip in variants]


def _service(bundle, **kwargs) -> ExplanationService:
    service = ExplanationService(**kwargs)
    service.register_database(bundle.family, bundle.database)
    return service


def _assert_fresh(service, request):
    got = service.explain(request)
    fresh = service.explain(request, use_cache=False)
    assert _wire(got) == _wire(fresh)
    return got


def test_stateful_answers_equal_fresh_across_versions(
    bundle, nip_variants, filler_rows
):
    variants = nip_variants(bundle, 3)
    relation, fillers = filler_rows(bundle, variants, 2)
    writes = [
        {"deletes": {relation: fillers}},
        {"inserts": {relation: fillers[:1]}},
        {"inserts": {relation: fillers[1:]}},
    ]
    service = _service(bundle)
    try:
        for version in range(len(writes) + 1):
            if version:
                service.mutate_database(bundle.family, **writes[version - 1])
            before = service.state_stats()["reuses"]
            for request in _questions(bundle, variants):
                _assert_fresh(service, request)
            assert service.state_stats()["reuses"] - before >= 3, version
            assert service.state_stats()["entries"] == 1
    finally:
        service.close()


def test_reused_miss_records_annotation(social, nip_variants):
    service = _service(social)
    first = service.explain(_explicit(social, social.nip))
    variant = service.explain(_explicit(social, nip_variants(social, 1)[0]))
    assert "tracing" in first.result.timings
    assert "annotate" in variant.result.timings
    assert "tracing" not in variant.result.timings
    assert variant.result.rows_traced() == first.result.rows_traced()
    assert service.cache_stats()["misses"] == 2


def test_reannotation_evaluates_no_fused_run_column(social, nip_variants, monkeypatch):
    """A NIP-variant miss reruns only the fused run's checks over the
    state's relaxed trace: every kernel it runs is a recheck kernel (no
    full trace kernel runs), no column of the run is built, in the state
    or in the answer, and the answer equals a fresh explain."""
    service = _service(social)
    service.explain(_explicit(social, social.nip))
    variant = _explicit(social, nip_variants(social, 1)[0])
    kernels = []
    trace_kernel = tracing.trace_kernel

    def spy(*args):
        kernel = trace_kernel(*args)
        kernels.append((args[5:] == (True,), kernel))
        return kernel

    with monkeypatch.context() as patch:
        patch.setattr(tracing, "trace_kernel", spy)
        reused = service.explain(variant)
    assert "annotate" in reused.result.timings
    assert kernels and all(recheck and kernel is not None for recheck, kernel in kernels)
    assert not any("_append(" in kernel.source for _, kernel in kernels)
    assert reused.result.trace.rechecks == len(kernels)
    traces = reused.result.trace.traces
    run_cols = [traces[op.op_id].cols for op in social.query.ops if not isinstance(op, TableAccess)]
    assert all(isinstance(cols, LazyColumns) for cols in run_cols)
    assert all(column is None for cols in run_cols for column in cols._cols)
    assert _wire(reused) == _wire(service.explain(variant, use_cache=False))


def test_summarize_twin_leaves_stored_result_unsummarized(social):
    service = _service(social)
    summarized = _assert_fresh(service, _explicit(social, social.nip, summarize=True))
    plain = _assert_fresh(service, _explicit(social, social.nip))
    assert summarized.result.summaries is not None
    assert plain.result.summaries is None
    assert service.state_stats()["reuses"] == 1


def test_write_to_read_relation_evicts_state(social, nip_variants, filler_rows):
    service = _service(social)
    service.explain(_explicit(social, social.nip))
    assert service.state_stats()["entries"] == 1
    relation, filler = filler_rows(social, nip_variants(social, 3), 1)
    service.mutate_database("social", deletes={relation: filler})
    assert service.state_stats()["entries"] == 0
    response = _assert_fresh(service, _explicit(social, nip_variants(social, 1)[0]))
    assert "tracing" in response.result.timings


def test_state_survives_write_to_other_database(social, nip_variants):
    service = _service(social)
    service.register_database("other", Database({"U": [Tup(a=1), Tup(a=2)]}))
    service.explain(_explicit(social, social.nip))
    service.mutate_database("other", inserts={"U": [Tup(a=3)]})
    assert service.state_stats()["entries"] == 1
    response = _assert_fresh(service, _explicit(social, nip_variants(social, 1)[0]))
    assert "annotate" in response.result.timings


def test_clear_cache_drops_states(social):
    service = _service(social)
    service.explain(_explicit(social, social.nip))
    service.clear_cache()
    assert service.state_stats()["entries"] == 0
    response = service.explain(_explicit(social, social.nip, summarize=True))
    assert "tracing" in response.result.timings


def test_use_cache_false_and_cache_size_zero_bypass_state(social):
    service = _service(social)
    service.explain(_explicit(social, social.nip), use_cache=False)
    assert service.state_stats() == {"entries": 0, "rows": 0, "reuses": 0}
    service = _service(social, cache_size=0)
    service.explain(_explicit(social, social.nip))
    service.explain(_explicit(social, social.nip, summarize=True))
    assert service.state_stats() == {"entries": 0, "rows": 0, "reuses": 0}


def test_states_bounded_by_cache_size(social):
    service = _service(social, cache_size=2)
    # Three option settings, so three states of the same query.
    for options in ({}, {"revalidate": False}, {"use_schema_alternatives": False}):
        service.explain(_explicit(social, social.nip, **options))
    assert service.state_stats()["entries"] == 2


def test_states_bounded_by_traced_rows(social, monkeypatch):
    service = _service(social)
    service.explain(_explicit(social, social.nip))
    rows = service.state_stats()["rows"]
    monkeypatch.setattr(service_module, "STATE_MAX_ROWS", rows)
    service.explain(_explicit(social, social.nip, revalidate=False))
    assert service.state_stats() == {"entries": 1, "rows": rows, "reuses": 0}
    monkeypatch.setattr(service_module, "STATE_MAX_ROWS", rows - 1)
    service.clear_cache()
    service.explain(_explicit(social, social.nip))
    assert service.state_stats()["entries"] == 0


def test_concurrent_variants_share_one_state(bundle, nip_variants):
    service = _service(bundle, max_concurrency=4)
    try:
        service.explain(_explicit(bundle, bundle.nip))
        requests = [_explicit(bundle, nip) for nip in nip_variants(bundle, 3)]
        requests.append(_explicit(bundle, bundle.nip, summarize=True))
        futures = [service.submit(request) for request in requests]
        responses = [future.result(timeout=120) for future in futures]
        for request, response in zip(requests, responses):
            assert _wire(response) == _wire(service.explain(request, use_cache=False))
        assert service.state_stats()["reuses"] == len(requests)
    finally:
        service.close()


def test_put_between_database_and_token_reads_cannot_poison_cache():
    """A ``PUT`` that replaces a name while a request resolves it must not
    let the old database's answer be cached under the new registration.

    Databases built alike share relation stamps, so only the registration
    token tells SF 1 from SF 2 apart in the key."""
    small, large = make_bundle("social", 1), make_bundle("social", SF)
    service = ExplanationService()
    service.register_database("social", small.database)
    lookup, replaced = service.database, []

    def lookup_then_put(name):
        db = lookup(name)
        if not replaced:
            replaced.append(True)
            service.register_database("social", large.database)
        return db

    service.database = lookup_then_put
    request = _explicit(small, small.nip)
    raced = service.explain(request)
    if not replaced:  # resolution did not look the name up a second time
        service.register_database("social", large.database)
    service.database = lookup
    assert raced.result.question.db is small.database
    _assert_fresh(service, request)
    assert service.explain(request).result.question.db is large.database


def test_stats_report_state_section(social, nip_variants):
    server = make_server(ExplanationService())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = Client(f"http://{host}:{port}")
        client.register_database("social", social.database)
        client.explain(request=_explicit(social, social.nip))
        client.explain(request=_explicit(social, nip_variants(social, 1)[0]))
        serving, _ = serving_stats_from_json(client._request("GET", "/stats"))
        assert serving["state"]["entries"] == 1
        assert serving["state"]["reuses"] == 1
        assert serving["state"]["rows"] > 0
        assert set(client.health()["cache"]) == {"hits", "misses", "size"}
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
