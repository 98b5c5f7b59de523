"""Wire payloads: databases, why-not questions, explanations, metrics.

Every top-level document carries an **envelope** — ``{"format": <version>,
"kind": "<payload kind>", ...}`` — so a reader can reject unknown versions
up front with a useful error.  The payload bodies are built from the core
codecs in :mod:`repro.wire.codec`.

Payload kinds:

* ``database``   — named tables, each a declared row schema plus rows;
* ``question``   — ⟨Q, D, t⟩ plus attribute-alternative groups, with the
  database either inline or referenced by registered name (the
  :class:`~repro.api.ExplanationService` registry resolves references);
* ``result``     — a full :class:`~repro.whynot.explain.WhyNotResult`
  payload: ranked explanations, SA count/descriptions, step timings and the
  optimizer summary (backtrace/trace internals stay in-process — they are
  unbounded and carry no API contract);
* ``metrics``    — an :class:`~repro.engine.metrics.ExecutionMetrics` dump
  (per-operator counters + backend/engine/optimizer/kernel summaries);
* ``relation``   — a bag of tuples (query results on the wire);
* ``mutation``   — per-relation inserted/deleted rows (``[row, count]``
  pairs), the body of ``POST /v1/databases/{name}/mutate``;
* ``database-info`` — one registered database's version summary (name,
  version id, per-table row counts and version stamps);
* ``hierarchy``  — a concept hierarchy for explanation summarization
  (:class:`~repro.whynot.summarize.ConceptHierarchy`): concept→parent map
  plus the member map from explanation vocabulary to concepts.

``result`` payloads gained an **optional** ``summaries`` section (absent
unless summarization was requested) — older readers ignore it, older
payloads decode without it.

The request/response envelopes of the serving layer (``explain-request`` /
``explain-response``) are defined next to their dataclasses in
:mod:`repro.api.service`, built from these payloads.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.engine.database import Database, Mutation
from repro.engine.metrics import ExecutionMetrics, OperatorMetrics
from repro.nested.values import Bag
from repro.whynot.approximate import Explanation
from repro.whynot.explain import WhyNotResult
from repro.whynot.question import WhyNotQuestion
from repro.whynot.summarize import ConceptHierarchy, ExplanationSummary
from repro.wire.codec import (
    SUPPORTED_VERSIONS,
    WIRE_VERSION,
    query_from_json,
    query_to_json,
    type_from_json,
    type_to_json,
    value_from_json,
    value_to_json,
)


def envelope(kind: str, body: dict) -> dict:
    """Wrap a payload body in the versioned wire envelope."""
    document = {"format": WIRE_VERSION, "kind": kind}
    document.update(body)
    return document


def check_envelope(data: Any, kind: Optional[str] = None) -> dict:
    """Validate a wire document's envelope and return the document.

    Raises ``ValueError`` on an unsupported format version or (when *kind*
    is given) a mismatched payload kind.  Format-v1 documents have no
    ``kind`` field — they predate the payload envelopes — and are accepted
    as-is for backward compatibility.
    """
    if not isinstance(data, dict):
        raise ValueError(f"wire document must be a JSON object, got {type(data).__name__}")
    version = data.get("format")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported wire format {version!r}; supported: {SUPPORTED_VERSIONS}"
        )
    if kind is not None and version >= 2 and data.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} payload, got {data.get('kind')!r}")
    return data


# -- databases ----------------------------------------------------------------


def database_to_json(db: Database) -> dict:
    """Encode a full database: every table's declared schema plus its rows.

    Rows are written with explicit multiplicities (``[row, count]`` pairs),
    so bag semantics survive the trip exactly.
    """
    tables = {}
    for name in db.tables():
        tables[name] = {
            "schema": type_to_json(db.schema(name)),
            "rows": [[value_to_json(row), count] for row, count in db.relation(name).items()],
        }
    return envelope("database", {"tables": tables})


def database_from_json(data: dict) -> Database:
    """Decode :func:`database_to_json` output into a fresh :class:`Database`."""
    check_envelope(data, "database")
    db = Database()
    for name, table in data["tables"].items():
        rows = Bag.from_counts(
            (value_from_json(row), count) for row, count in table["rows"]
        )
        db.add(name, rows, schema=type_from_json(table["schema"]))
    return db


# -- mutations and database info ----------------------------------------------


def mutation_to_json(mutation: Mutation) -> dict:
    """Encode a :class:`~repro.engine.database.Mutation` as a ``mutation``
    document: per-relation inserted/deleted rows as ``[row, count]`` pairs."""

    def side(bags: "dict[str, Bag]") -> dict:
        return {
            name: [[value_to_json(row), count] for row, count in bag.items()]
            for name, bag in bags.items()
        }

    return envelope(
        "mutation", {"inserts": side(mutation.inserts), "deletes": side(mutation.deletes)}
    )


def mutation_from_json(data: dict) -> Mutation:
    """Decode :func:`mutation_to_json` output (rows re-canonicalize on entry)."""
    check_envelope(data, "mutation")

    def side(key: str) -> dict:
        return {
            name: Bag.from_counts(
                (value_from_json(row), count) for row, count in rows
            )
            for name, rows in (data.get(key) or {}).items()
        }

    return Mutation(side("inserts"), side("deletes"))


def database_info_to_json(name: str, db: Database, extra: Optional[dict] = None) -> dict:
    """Encode one registered database's version summary as ``database-info``.

    The body carries the database ``name``, its chain ``version_id``, and a
    per-table map of row counts and relation version stamps; *extra* merges
    additional serving-layer fields (e.g. per-shard versions).
    """
    body: dict = {
        "name": name,
        "version_id": db.version_id,
        "tables": {
            t: {"rows": db.size(t), "version_id": db.relation_version(t)}
            for t in db.tables()
        },
    }
    if extra:
        body.update(extra)
    return envelope("database-info", body)


def database_info_from_json(data: dict) -> dict:
    """Validate a ``database-info`` document and return its body fields."""
    check_envelope(data, "database-info")
    return {k: v for k, v in data.items() if k not in ("format", "kind")}


# -- attribute-alternative groups ---------------------------------------------


def _source_to_str(spec: Any) -> str:
    """Normalize a ``(table, path)`` source tuple to its dotted-string form."""
    if isinstance(spec, str):
        return spec
    table, path = spec
    return ".".join((table, *path))


def alternatives_to_json(groups: Sequence) -> list:
    """Encode attribute-alternative groups, preserving both shapes.

    A *mutual* group (plain iterable of interchangeable attributes) encodes
    as a list of dotted strings; a *directed* pair ``(from, [to, ...])``
    (the paper's ``place.country → user.location`` arrows) encodes as
    ``{"from": ..., "to": [...]}`` — see
    :func:`repro.whynot.alternatives.enumerate_schema_alternatives`.
    """
    out = []
    for group in groups:
        if (
            isinstance(group, tuple)
            and len(group) == 2
            and isinstance(group[0], str)
            and not isinstance(group[1], str)
        ):
            out.append(
                {"from": group[0], "to": [_source_to_str(s) for s in group[1]]}
            )
        else:
            out.append([_source_to_str(s) for s in group])
    return out


def alternatives_from_json(data: Sequence) -> list:
    """Decode :func:`alternatives_to_json` output (shapes preserved)."""
    groups: list = []
    for group in data or ():
        if isinstance(group, dict):
            groups.append((group["from"], [str(s) for s in group["to"]]))
        else:
            groups.append([str(s) for s in group])
    return groups


# -- why-not questions --------------------------------------------------------


def question_to_json(
    question: WhyNotQuestion,
    alternatives: Sequence[Sequence[str]] = (),
    database: Optional[str] = None,
) -> dict:
    """Encode a why-not question ⟨Q, D, t⟩ plus its attribute alternatives.

    When *database* is given the payload references the database by that
    registered name instead of inlining the data (the service registry
    resolves it); otherwise the full database is embedded.
    """
    body = {
        "name": question.name,
        "query": query_to_json(question.query),
        "nip": value_to_json(question.nip),
        "alternatives": alternatives_to_json(alternatives),
        "database": database if database is not None else database_to_json(question.db),
    }
    return envelope("question", body)


def question_from_json(
    data: dict, resolve_database=None
) -> "tuple[WhyNotQuestion, list[list[str]]]":
    """Decode :func:`question_to_json` output.

    Returns ``(question, alternatives)``.  A by-name database reference is
    resolved through *resolve_database* (a ``name -> Database`` callable,
    typically the service registry); without one, a name reference raises
    ``ValueError``.
    """
    check_envelope(data, "question")
    db_field = data["database"]
    if isinstance(db_field, str):
        if resolve_database is None:
            raise ValueError(
                f"question references database {db_field!r} by name but no "
                "registry was provided"
            )
        db = resolve_database(db_field)
    else:
        db = database_from_json(db_field)
    question = WhyNotQuestion(
        query_from_json(data["query"]),
        db,
        value_from_json(data["nip"]),
        name=data.get("name", ""),
    )
    return question, alternatives_from_json(data.get("alternatives"))


def text_query_request(
    text: str, database: "str | Database", options: Optional[dict] = None
) -> dict:
    """Build a ``query-request`` document carrying a textual ``.rq`` program.

    The ``text`` variant of ``POST /v1/query``: instead of a structured
    ``query`` payload, the body ships the program source (grammar:
    ``docs/LANGUAGE.md``) and the server parses, validates and lowers it
    against *database* (a registered name or an inline
    :class:`~repro.engine.database.Database`).  ``options`` is an
    already-encoded options object (the wire layer stays agnostic of the
    API's option dataclasses).
    """
    body: dict = {
        "text": text,
        "database": database if isinstance(database, str) else database_to_json(database),
    }
    if options is not None:
        body["options"] = options
    return envelope("query-request", body)


# -- relations ----------------------------------------------------------------


def relation_to_json(bag: Bag) -> dict:
    """Encode a query result (a bag of tuples) as a ``relation`` payload."""
    return envelope("relation", {"rows": [[value_to_json(r), c] for r, c in bag.items()]})


def relation_from_json(data: dict) -> Bag:
    """Decode :func:`relation_to_json` output."""
    check_envelope(data, "relation")
    return Bag.from_counts((value_from_json(r), c) for r, c in data["rows"])


# -- explanations and results -------------------------------------------------


def explanation_to_json(explanation: Explanation) -> dict:
    """Encode one ranked explanation (operator ids, labels, SA, bounds)."""
    return {
        "ops": sorted(explanation.ops),
        "labels": list(explanation.labels),
        "sa_index": explanation.sa_index,
        "sa_description": explanation.sa_description,
        "lb": explanation.lb,
        "ub": explanation.ub,
        "rank": explanation.rank,
    }


def explanation_from_json(data: dict) -> Explanation:
    """Decode :func:`explanation_to_json` output."""
    return Explanation(
        ops=frozenset(data["ops"]),
        labels=tuple(data["labels"]),
        sa_index=data["sa_index"],
        sa_description=data["sa_description"],
        lb=data["lb"],
        ub=data["ub"],
        rank=data["rank"],
    )


def summary_to_json(summary: ExplanationSummary) -> dict:
    """Encode one explanation summary group (concepts, count, bounds)."""
    return {
        "concepts": list(summary.concepts),
        "count": summary.count,
        "ranks": list(summary.ranks),
        "lb": summary.lb,
        "ub": summary.ub,
        "witnesses": [dict(w) for w in summary.witnesses],
        "level": summary.level,
    }


def summary_from_json(data: dict) -> ExplanationSummary:
    """Decode :func:`summary_to_json` output."""
    return ExplanationSummary(
        concepts=tuple(data["concepts"]),
        count=data["count"],
        ranks=(data["ranks"][0], data["ranks"][1]),
        lb=data["lb"],
        ub=data["ub"],
        witnesses=tuple(dict(w) for w in data.get("witnesses") or ()),
        level=data.get("level", 0),
    )


def hierarchy_to_json(hierarchy: ConceptHierarchy) -> dict:
    """Encode a concept hierarchy as a ``hierarchy`` wire document."""
    return hierarchy.to_json()


def hierarchy_from_json(data: dict) -> ConceptHierarchy:
    """Decode a ``hierarchy`` wire document (validates structure)."""
    return ConceptHierarchy.from_json(data)


def result_to_json(result: WhyNotResult) -> dict:
    """Encode a :class:`WhyNotResult` as a ``result`` payload.

    The payload is the API contract of an explanation run: the question
    identity (name + NIP), the ranked explanations, the number and
    descriptions of the traced schema alternatives, per-step timings, rows
    traced, and the optimizer summary.  When the result carries summary
    groups (:mod:`repro.whynot.summarize`), an optional ``summaries``
    section is included; it is omitted entirely otherwise, keeping the
    payload byte-identical to pre-summarization encoders.  The
    in-process-only fields (``backtrace``, ``trace``, the SA queries
    themselves) are deliberately not wire-visible.
    """
    body = {
        "question": result.question.name,
        "nip": value_to_json(result.question.nip),
        "explanations": [explanation_to_json(e) for e in result.explanations],
        "n_sas": result.n_sas,
        "sa_descriptions": [sa.describe() for sa in result.sas],
        "rows_traced": result.rows_traced(),
        "timings": dict(result.timings),
        "optimizer": result.optimizer,
    }
    if result.summaries is not None:
        body["summaries"] = [summary_to_json(s) for s in result.summaries]
    return envelope("result", body)


def metrics_to_json(metrics: ExecutionMetrics) -> dict:
    """Encode an :class:`ExecutionMetrics` as a ``metrics`` payload."""
    operators = {}
    for op_id, m in metrics.operators.items():
        operators[str(op_id)] = {
            "label": m.label,
            "rows_in": m.rows_in,
            "rows_out": m.rows_out,
            "shuffled_rows": m.shuffled_rows,
            "partitions": m.partitions,
            "tasks": m.tasks,
            "wall_seconds": m.wall_seconds,
            "cpu_seconds": m.cpu_seconds,
            "origins": list(m.origins),
        }
    body = {
        "operators": operators,
        "wall_seconds": metrics.wall_seconds,
        # Every run is serial, in one process: fixed values, kept for
        # readers of format-2 documents.
        "backend": "serial",
        "workers": 1,
        "optimizer": metrics.optimizer,
        "engine": metrics.engine,
        "kernels": metrics.kernels,
    }
    return envelope("metrics", body)


def metrics_from_json(data: dict) -> ExecutionMetrics:
    """Decode :func:`metrics_to_json` output."""
    check_envelope(data, "metrics")
    metrics = ExecutionMetrics(
        wall_seconds=data["wall_seconds"],
        optimizer=data["optimizer"],
        engine=data.get("engine", "row"),  # older documents: row-engine runs
        kernels=data.get("kernels"),
    )
    for op_id, m in data["operators"].items():
        metrics.operators[int(op_id)] = OperatorMetrics(
            op_id=int(op_id),
            label=m["label"],
            rows_in=m["rows_in"],
            rows_out=m["rows_out"],
            shuffled_rows=m["shuffled_rows"],
            partitions=m["partitions"],
            tasks=m["tasks"],
            wall_seconds=m["wall_seconds"],
            cpu_seconds=m["cpu_seconds"],
            origins=tuple(m["origins"]),
        )
    return metrics


#: Counter fields every ``stats`` payload's ``serving`` section must carry.
SERVING_STAT_FIELDS = (
    "mode",
    "uptime_s",
    "requests",
    "completed",
    "errors",
    "rejected",
    "coalesced",
    "timeouts",
    "qps",
    "latency_ms",
    "cache",
)


def serving_stats_to_json(serving: dict, workers: "Sequence[dict]" = ()) -> dict:
    """Encode serving metrics as a ``stats`` payload (``GET /v1/stats``).

    ``serving`` is the front-end-wide section (see
    :data:`SERVING_STAT_FIELDS`; ``mode`` is ``"inprocess"`` or
    ``"sharded"``, ``cache`` the aggregated hit/miss/size counters);
    ``workers`` holds one dict per shard worker (pid, liveness, restarts,
    queue depth, per-worker cache counters and latency percentiles) and is
    empty for the single-process server.  Both may carry an optional
    ``state`` section (explain-state ``entries``, ``rows`` and ``reuses``;
    summed over the workers in ``serving``), which is not in
    :data:`SERVING_STAT_FIELDS` so documents without it still decode.
    """
    missing = [f for f in SERVING_STAT_FIELDS if f not in serving]
    if missing:
        raise ValueError(f"serving stats are missing fields {missing}")
    return envelope("stats", {"serving": dict(serving), "workers": [dict(w) for w in workers]})


def serving_stats_from_json(data: dict) -> "tuple[dict, list[dict]]":
    """Decode :func:`serving_stats_to_json` output into ``(serving, workers)``."""
    check_envelope(data, "stats")
    serving = data["serving"]
    missing = [f for f in SERVING_STAT_FIELDS if f not in serving]
    if missing:
        raise ValueError(f"stats payload is missing serving fields {missing}")
    return dict(serving), [dict(w) for w in data.get("workers", [])]
