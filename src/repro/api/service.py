"""Request/response layer: ``ExplanationService`` and its dataclasses.

The service is the stateful, production-facing entry point the ROADMAP's
north star asks for.  It owns

* a **database registry** — named :class:`~repro.engine.database.Database`
  objects requests can reference instead of shipping data inline.  The
  registry is *versioned*: :meth:`ExplanationService.mutate_database`
  advances a name to the next version of its chain
  (``Database.apply_mutations``), and cache keys for named databases fold
  in the version stamps of exactly the relations a query reads, so a
  mutation leaves every entry that does not read a mutated relation warm
  (a dependency map actively purges the entries that do);
* **prepared questions** — every request is resolved and validated
  (Definition 5) before work is dispatched, so malformed or ill-posed
  questions fail fast with a typed error;
* a **result cache** — an LRU keyed by a 128-bit BLAKE2 digest of the
  request's canonical wire encoding, with hit/miss counters surfaced in
  every response.  The key covers everything that determines the
  *explanations* (query, NIP, database content, alternatives, SA
  toggles), and the differential fuzz oracle cross-checks the service
  against direct :func:`~repro.whynot.explain.explain`;
* **per-query explain states** — an LRU keyed like the result cache but
  without the NIP and ``summarize``.  A state holds ``Q(D)``, the first
  question's relaxed trace with its SA signature and §5.4 bounds
  (:class:`~repro.whynot.explain.RelaxedTrace`) and each question's
  unsummarized result, so a miss that differs from an earlier question
  only in the NIP's constants re-annotates the shared columns instead of
  tracing, and a ``summarize`` twin copies the stored result.  States are
  bounded by ``cache_size`` entries and :data:`STATE_MAX_ROWS` traced rows,
  evicted with the result entries of a mutated relation, and skipped by
  ``use_cache=False`` and ``cache_size=0``;
* **concurrent dispatch** — :meth:`ExplanationService.submit` fans requests
  out over a thread pool.

:func:`~repro.whynot.explain.explain` remains the in-process computational
core; the service wraps it (and the scenario registry) with the request
lifecycle, so existing callers and tests keep working unchanged.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.algebra.operators import Query, TableAccess
from repro.engine.database import Database, Mutation
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionMetrics
from repro.nested.values import Bag
from repro.whynot.alternatives import TooManyAlternatives
from repro.whynot.explain import RelaxedTrace, WhyNotResult, explain_reusing
from repro.whynot.matching import matching_tuples
from repro.whynot.question import IllPosedQuestion, WhyNotQuestion
from repro.whynot.summarize import ConceptHierarchy, attach_summaries, resolve_summarize
from repro.wire import (
    WIRE_VERSION,
    check_envelope,
    database_from_json,
    database_info_to_json,
    database_to_json,
    envelope,
    query_from_json,
    query_to_json,
    result_to_json,
    value_from_json,
    value_to_json,
)
from repro.wire.payloads import alternatives_from_json, alternatives_to_json

#: Serving API version (the ``/v1/...`` HTTP prefix).
API_VERSION = "v1"

#: Largest scenario ``scale`` the service accepts from a request.  ``scale``
#: is network-controlled input that sizes a synchronous database build, so
#: it is bounded like any other request knob (the paper's evaluation uses
#: scales up to the low hundreds).
MAX_SCENARIO_SCALE = 10_000


#: Traced rows the explain states of one service may hold in total (a
#: GenSocial SF 10 explain traces about 9,000; SF 50 about 45,000).
STATE_MAX_ROWS = 500_000
#: Unsummarized results one explain state keeps for twin questions.
STATE_MAX_RESULTS = 8


def read_tables(query: Query) -> "frozenset[str]":
    """The relations *query* reads: every ``TableAccess`` table in the plan.

    This is the dependency set the version-aware result cache and the
    explain states key on: an entry stays valid while all of its read
    relations are unchanged.
    """
    return frozenset(op.table for op in query.ops if isinstance(op, TableAccess))


class UnknownDatabase(KeyError):
    """Raised when a request references a database name not in the registry."""


def scenarios_listing() -> "list[dict]":
    """Metadata of every registered paper scenario (the ``/v1/scenarios`` body).

    Module-level so the HTTP handler answers this route in both serving
    modes without asking a service (or a worker) for it.
    """
    from repro.scenarios import SCENARIOS

    return [
        {
            "name": s.name,
            "description": s.description,
            "default_scale": s.default_scale,
            "alternatives": [list(g) for g in s.alternatives],
            "gold": sorted(s.gold) if s.gold is not None else None,
            "notes": s.notes,
        }
        for s in SCENARIOS.values()
    ]


class BadRequest(ValueError):
    """Raised when a request payload is structurally invalid or incomplete."""


#: ``engine`` values older format-2 clients may send (accepted, ignored).
_RETIRED_ENGINES = (None, "row", "columnar")
#: ``backend`` values older format-2 clients may send (accepted, ignored).
_RETIRED_BACKENDS = (None, "serial", "process")

#: Largest ``partitions`` an older format-2 client may send (accepted,
#: ignored: every query runs on one partition).
MAX_PARTITIONS = 64


def _is_count(value: Any, high: Optional[int] = None) -> bool:
    """Is *value* an int (a bool is not) of at least 1, and at most *high*?"""
    return type(value) is int and value >= 1 and (high is None or value <= high)


@dataclass(frozen=True)
class ExplainOptions:
    """Algorithm knobs of one explain request.

    ``use_schema_alternatives``/``revalidate``/``max_sas`` select *what* is
    computed (the paper's RP vs RPnoSA vs no-revalidation ablation) and
    therefore participate in the cache key.  Every run takes the answer
    path's one configuration (``Executor()``), so no field selects *how*
    the engine runs.

    ``summarize`` requests ontology-aware explanation summaries
    (:mod:`repro.whynot.summarize`): ``None`` (default) skips them, ``True``
    summarizes with defaults, and an object with any of
    :data:`~repro.whynot.summarize.SUMMARIZE_SPEC_FIELDS` supplies a concept
    hierarchy (inline :class:`~repro.whynot.summarize.ConceptHierarchy` or
    its wire document), the group budget and the witness sample size.  It
    changes response content, so it participates in the cache key.
    """

    use_schema_alternatives: bool = True
    revalidate: bool = True
    max_sas: int = 64
    summarize: Any = None

    def summarize_json(self) -> Any:
        """The ``summarize`` spec in canonical JSON form (hierarchy encoded)."""
        spec = self.summarize
        if isinstance(spec, dict):
            spec = dict(spec)
            if isinstance(spec.get("hierarchy"), ConceptHierarchy):
                spec["hierarchy"] = spec["hierarchy"].to_json()
        return spec

    def semantic_fields(self) -> dict:
        """The option fields that change explanation content (cache key part)."""
        return {
            "use_schema_alternatives": self.use_schema_alternatives,
            "revalidate": self.revalidate,
            "max_sas": self.max_sas,
            "summarize": self.summarize_json(),
        }

    def to_json(self) -> dict:
        """Encode as a plain JSON object (all fields, defaults included)."""
        return {
            "use_schema_alternatives": self.use_schema_alternatives,
            "revalidate": self.revalidate,
            "max_sas": self.max_sas,
            "summarize": self.summarize_json(),
        }

    @classmethod
    def from_json(cls, data: Optional[dict]) -> "ExplainOptions":
        """Decode :meth:`to_json` output, checking every field's value.

        Unknown fields and ill-typed or out-of-range values raise
        :class:`BadRequest`: ``revalidate`` and ``use_schema_alternatives``
        are booleans and ``max_sas`` an integer of at least 1 (a boolean is
        not an integer).  Format-2 clients written while other execution
        configurations existed may still send ``engine`` (``null``,
        ``"row"`` or ``"columnar"``), ``backend`` (``null``, ``"serial"`` or
        ``"process"``), ``workers`` (``null`` or an integer of at least 1),
        ``optimize`` (a boolean or null) and ``partitions`` (null or an
        integer from 1 to :data:`MAX_PARTITIONS`); they are checked, then
        ignored, since every run takes the answer path's configuration.
        """
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise BadRequest("options must be a JSON object")
        data = dict(data)
        engine = data.pop("engine", None)
        if engine not in _RETIRED_ENGINES:
            raise BadRequest(
                f"unknown engine {engine!r}; expected one of {_RETIRED_ENGINES}"
            )
        backend = data.pop("backend", None)
        if backend not in _RETIRED_BACKENDS:
            raise BadRequest(
                f"unknown backend {backend!r}; expected one of {_RETIRED_BACKENDS}"
            )
        workers = data.pop("workers", None)
        if workers is not None and not _is_count(workers):
            raise BadRequest(f"workers must be null or an integer >= 1, got {workers!r}")
        optimize = data.pop("optimize", None)
        if optimize is not None and not isinstance(optimize, bool):
            raise BadRequest(f"optimize must be true, false or null, got {optimize!r}")
        partitions = data.pop("partitions", None)
        if partitions is not None and not _is_count(partitions, MAX_PARTITIONS):
            raise BadRequest(
                f"partitions must be null or an integer from 1 to {MAX_PARTITIONS}, "
                f"got {partitions!r}"
            )
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise BadRequest(f"unknown option fields: {sorted(extra)}")
        for name in ("use_schema_alternatives", "revalidate"):
            if name in data and not isinstance(data[name], bool):
                raise BadRequest(f"{name} must be true or false, got {data[name]!r}")
        if "max_sas" in data and not _is_count(data["max_sas"]):
            raise BadRequest(f"max_sas must be an integer >= 1, got {data['max_sas']!r}")
        return cls(**data)


@dataclass
class ExplainRequest:
    """One why-not request: ⟨Q, D, t⟩ plus alternatives and options.

    Three forms are accepted:

    * **explicit** — ``query`` + ``nip`` + ``database`` (a registered name
      or an inline :class:`Database`);
    * **textual** — ``text`` (an ``.rq`` program with a ``whynot`` block;
      grammar: ``docs/LANGUAGE.md``) + ``database``: the server parses,
      validates and lowers the program, taking query, NIP and attribute
      alternatives from the text;
    * **scenario shorthand** — ``scenario`` (+ optional ``scale``): the
      server builds query, database, NIP and attribute alternatives from
      its scenario registry.
    """

    query: Optional[Any] = None
    nip: Any = None
    database: "str | Database | None" = None
    alternatives: Sequence[Sequence[str]] = ()
    options: ExplainOptions = field(default_factory=ExplainOptions)
    name: str = ""
    scenario: Optional[str] = None
    scale: Optional[int] = None
    text: Optional[str] = None
    #: Opt-in: when the "missing" answer is actually present (the question is
    #: ill-posed, e.g. after an insert satisfied it), return a typed
    #: :class:`SatisfiedResponse` instead of raising ``IllPosedQuestion``.
    satisfied_ok: bool = False

    def to_json(self) -> dict:
        """Encode as an ``explain-request`` wire document."""
        body: dict = {"options": self.options.to_json(), "name": self.name}
        if self.satisfied_ok:
            body["satisfied_ok"] = True
        if self.text is not None:
            if self.database is None:
                raise BadRequest("text request needs a database (name or inline)")
            body["text"] = self.text
            body["database"] = (
                self.database
                if isinstance(self.database, str)
                else database_to_json(self.database)
            )
        elif self.scenario is not None:
            body["scenario"] = self.scenario
            if self.scale is not None:
                body["scale"] = self.scale
        else:
            if self.query is None or self.database is None:
                raise BadRequest(
                    "request needs either a scenario name or query+nip+database"
                )
            body["query"] = query_to_json(self.query)
            body["nip"] = value_to_json(self.nip)
            body["alternatives"] = alternatives_to_json(self.alternatives)
            body["database"] = (
                self.database
                if isinstance(self.database, str)
                else database_to_json(self.database)
            )
        return envelope("explain-request", body)

    @classmethod
    def from_json(cls, data: dict) -> "ExplainRequest":
        """Decode :meth:`to_json` output (databases stay name refs/inline).

        ``satisfied_ok`` must be a boolean and ``name`` a string (absent:
        ``""``); any other value raises :class:`BadRequest`, like a bad
        option.
        """
        check_envelope(data, "explain-request")
        options = ExplainOptions.from_json(data.get("options"))
        satisfied_ok = data.get("satisfied_ok", False)
        if not isinstance(satisfied_ok, bool):
            raise BadRequest(f"satisfied_ok must be true or false, got {satisfied_ok!r}")
        name = data.get("name", "")
        if not isinstance(name, str):
            raise BadRequest(f"name must be a string, got {name!r}")
        if "text" in data:
            if not isinstance(data["text"], str):
                raise BadRequest("the 'text' field must be an .rq program string")
            db_field = data.get("database")
            if db_field is None:
                raise BadRequest("text request needs a database (name or inline)")
            return cls(
                text=data["text"],
                database=(
                    db_field
                    if isinstance(db_field, str)
                    else database_from_json(db_field)
                ),
                options=options,
                name=name,
                satisfied_ok=satisfied_ok,
            )
        if "scenario" in data:
            return cls(
                scenario=data["scenario"],
                scale=data.get("scale"),
                options=options,
                name=name,
                satisfied_ok=satisfied_ok,
            )
        try:
            query = query_from_json(data["query"])
            nip = value_from_json(data["nip"])
            db_field = data["database"]
        except KeyError as exc:
            raise BadRequest(f"explain-request is missing field {exc}") from None
        database = db_field if isinstance(db_field, str) else database_from_json(db_field)
        return cls(
            query=query,
            nip=nip,
            database=database,
            alternatives=alternatives_from_json(data.get("alternatives")),
            options=options,
            name=name,
            satisfied_ok=satisfied_ok,
        )


@dataclass
class ExplainResponse:
    """One explain answer: the result plus serving metadata.

    ``cached`` is True when the response was served from the LRU without
    re-tracing; ``cache`` carries the service-wide hit/miss counters at
    response time.
    """

    result: WhyNotResult
    cached: bool
    cache: dict
    api_version: str = API_VERSION

    @property
    def explanations(self):
        """The ranked :class:`~repro.whynot.approximate.Explanation` list."""
        return self.result.explanations

    def explanation_sets(self) -> "list[frozenset[str]]":
        """Ranked explanations as label sets (the Table-8 comparison format)."""
        return [frozenset(e.labels) for e in self.result.explanations]

    def to_json(self) -> dict:
        """Encode as an ``explain-response`` wire document."""
        return envelope(
            "explain-response",
            {
                "api_version": self.api_version,
                "cached": self.cached,
                "cache": dict(self.cache),
                "result": result_to_json(self.result),
            },
        )


@dataclass
class SatisfiedResponse:
    """Typed "question satisfied" answer (opt-in via ``satisfied_ok``).

    Returned instead of a 4xx ``IllPosedQuestion`` error when the request
    sets ``satisfied_ok`` and the "missing" answer is actually present —
    the normal outcome after a mutation inserts a row that answers the
    question.  ``witnesses`` lists result tuples matching the NIP (at most
    three, like the error message).
    """

    witnesses: "list[Any]"
    cache: dict
    cached: bool = False
    satisfied: bool = True
    api_version: str = API_VERSION

    def to_json(self) -> dict:
        """Encode as an ``explain-response`` document with ``satisfied: true``."""
        return envelope(
            "explain-response",
            {
                "api_version": self.api_version,
                "cached": self.cached,
                "cache": dict(self.cache),
                "satisfied": True,
                "witnesses": [value_to_json(w) for w in self.witnesses],
            },
        )


class _ExplainState:
    """What the explain misses over one query and database version share.

    ``answer`` is ``Q(D)``; ``relaxed`` the traced relaxed evaluation, its
    SA signature and bounds, replaced as one object when a question with
    other SA queries traces in full; ``results`` the unsummarized result of
    each NIP (by canonical NIP document).  ``db_name``/``reads`` let a
    mutation evict the state like the result entries of the same query, or
    rebind it to the new version when it reads no mutated relation.
    """

    __slots__ = ("answer", "relaxed", "results", "db_name", "reads")

    def __init__(
        self,
        answer: Bag,
        relaxed: RelaxedTrace,
        db_name: Optional[str],
        reads: "frozenset[str]",
    ):
        self.answer = answer
        self.relaxed = relaxed
        self.results: "OrderedDict[str, WhyNotResult]" = OrderedDict()
        self.db_name = db_name
        self.reads = reads

    def rebind(self, db: Database) -> None:
        """Refer to *db*, a later version that changed none of ``reads``."""
        self.relaxed.trace.rebind(db)
        for nip_doc, result in self.results.items():
            self.results[nip_doc] = _rebound(result, db)


class ExplanationService:
    """Stateful explanation server core (registry + cache + dispatch).

    Thread-safe: the registry and cache take an internal lock, and
    :meth:`submit` dispatches requests on a shared thread pool, so one
    service instance can back a threaded HTTP front end
    (:mod:`repro.api.http`) directly.
    """

    def __init__(
        self,
        databases: Optional[dict] = None,
        cache_size: int = 128,
        max_concurrency: int = 4,
    ):
        self._lock = threading.Lock()
        self._databases: "OrderedDict[str, tuple[Database, int]]" = OrderedDict()
        self._registrations = 0
        self._cache: "OrderedDict[int, WhyNotResult]" = OrderedDict()
        #: Dependency map: cache key -> (database name, relations the cached
        #: query reads).  Lets :meth:`mutate_database` purge exactly the
        #: entries whose read set intersects the mutated relations.
        self._cache_deps: "dict[int, tuple[str, frozenset[str]]]" = {}
        #: Per-query explain states by state key (see :class:`_ExplainState`).
        self._states: "OrderedDict[int, _ExplainState]" = OrderedDict()
        self.cache_size = cache_size
        self.hits = 0
        self.misses = 0
        #: Misses answered from an explain state (re-annotated or twins).
        self.state_reuses = 0
        self._max_concurrency = max_concurrency
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Small LRU of built scenario databases — bounded, because ``scale``
        #: arrives from the network and every distinct value builds a fresh
        #: database.
        self._scenario_dbs: "OrderedDict[tuple, Database]" = OrderedDict()
        self._scenario_db_limit = 16
        for name, db in (databases or {}).items():
            self.register_database(name, db)

    # -- registry -------------------------------------------------------------

    def register_database(self, name: str, db: Database) -> None:
        """Register (or replace) a named database for by-name requests."""
        with self._lock:
            self._registrations += 1
            self._databases[name] = (db, self._registrations)

    def database(self, name: str) -> Database:
        """Look up a registered database (``UnknownDatabase`` when absent)."""
        return self._registered(name)[0]

    def _registered(self, name: str) -> "tuple[Database, int]":
        """A name's database and registration token, read in one lock
        section so a concurrent re-registration cannot pair them wrongly."""
        with self._lock:
            try:
                return self._databases[name]
            except KeyError:
                raise UnknownDatabase(
                    f"no database registered as {name!r}; "
                    f"have {sorted(self._databases)}"
                ) from None

    def databases(self) -> "list[str]":
        """Registered database names, in registration order."""
        with self._lock:
            return list(self._databases)

    def mutate_database(
        self,
        name: str,
        inserts: "Any | Mutation | None" = None,
        deletes: Optional[Any] = None,
    ) -> Database:
        """Advance the named database to its next version and return it.

        *inserts*/*deletes* are per-relation row mappings (or *inserts* a
        prebuilt :class:`~repro.engine.database.Mutation`); the new version
        is produced by ``Database.apply_mutations`` and replaces the name's
        registry entry **without** bumping the registration token, so cache
        keys stay comparable across versions.  Cached entries whose read set
        intersects the mutated relations are purged via the dependency map;
        every other entry (same or other databases) stays warm, and the
        surviving entries and explain states of this database are rebound
        to the new version, so none keeps the old one alive.

        Raises :class:`UnknownDatabase` for an unknown name and the
        underlying ``KeyError``/``ValueError`` for invalid mutations.
        """
        with self._lock:
            entry = self._databases.get(name)
            if entry is None:
                raise UnknownDatabase(
                    f"no database registered as {name!r}; "
                    f"have {sorted(self._databases)}"
                )
            db, token = entry
            new_db = db.apply_mutations(inserts, deletes)
            self._databases[name] = (new_db, token)
            mutated = set(new_db.last_mutation.tables())
            stale = [
                key
                for key, (dep_name, reads) in self._cache_deps.items()
                if dep_name == name and reads & mutated
            ]
            for key in stale:
                self._cache.pop(key, None)
                self._cache_deps.pop(key, None)
            for key, (dep_name, _) in self._cache_deps.items():
                if dep_name == name:
                    self._cache[key] = _rebound(self._cache[key], new_db)
            for key, state in list(self._states.items()):
                if state.db_name != name:
                    continue
                if state.reads & mutated:
                    del self._states[key]
                else:
                    state.rebind(new_db)
        return new_db

    def database_info(self, name: str) -> dict:
        """One registered database's ``database-info`` document
        (name, chain version id, per-table row counts and version stamps)."""
        return database_info_to_json(name, self.database(name))

    def database_listing(self) -> dict:
        """The ``GET /v1/databases`` body: every registered database's info."""
        return envelope(
            "database-listing",
            {"databases": [self.database_info(name) for name in self.databases()]},
        )

    def scenarios(self) -> "list[dict]":
        """Metadata of every registered paper scenario (for ``/v1/scenarios``)."""
        return scenarios_listing()

    # -- request lifecycle ----------------------------------------------------

    def prepare(self, request: ExplainRequest) -> "tuple[WhyNotQuestion, list, int]":
        """Resolve and validate a request into ``(question, alternatives, key)``.

        Raises :class:`BadRequest` for structurally invalid requests,
        :class:`UnknownDatabase` for unresolved database names, and
        :class:`~repro.whynot.question.IllPosedQuestion` when the "missing"
        answer is already present (Definition 5).
        """
        question, alternatives, (key, _state_key, _nip) = self._resolve(request)
        question.validate()
        return question, alternatives, key

    def _resolve_database(self, request: ExplainRequest):
        """Resolve the request's database field into ``(db, cache_token)``."""
        if isinstance(request.database, str):
            db, token = self._registered(request.database)
            # The version-aware part of the key — the stamps of the relations
            # the query actually reads — is appended in ``_resolve`` once the
            # query is known.
            return db, ("named", request.database, token)
        db = request.database
        return db, ("inline", database_to_json(db))

    def _resolve(self, request: ExplainRequest):
        """Build the question and its keys without validating it.

        The keys are ``(result key, state key, NIP document)``: the state
        key covers everything the result key does but the NIP and
        ``summarize``.
        """
        if request.options.summarize is not None:
            # Reject malformed summarize specs before any cache or engine
            # work — resolution is repeated (cheaply) after the explain run.
            try:
                resolve_summarize(request.options.summarize)
            except ValueError as exc:
                raise BadRequest(str(exc)) from None
        if request.text is not None:
            from repro.lang import compile_program

            if request.database is None:
                raise BadRequest("text request needs a database (name or inline)")
            db, cache_token = self._resolve_database(request)
            lowered = compile_program(request.text, database=db)
            if not lowered.has_question:
                raise BadRequest(
                    "the text program has no whynot block — use POST /v1/query "
                    "to evaluate a plain query"
                )
            question = WhyNotQuestion(
                lowered.query, db, lowered.nip, name=request.name or lowered.name
            )
            alternatives = list(lowered.alternatives)
        elif request.scenario is not None:
            from repro.scenarios import SCENARIOS, get_scenario

            try:
                scenario = get_scenario(request.scenario)
            except KeyError:
                raise BadRequest(
                    f"unknown scenario {request.scenario!r}; "
                    f"have {sorted(SCENARIOS)}"
                ) from None
            scale = request.scale if request.scale is not None else scenario.default_scale
            if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
                raise BadRequest(f"scale must be a positive integer, got {scale!r}")
            if scale > MAX_SCENARIO_SCALE:
                raise BadRequest(
                    f"scale {scale} exceeds the serving limit {MAX_SCENARIO_SCALE}"
                )
            cache_token = ("scenario", scenario.name, scale)
            with self._lock:
                entry = self._scenario_dbs.get((scenario.name, scale))
                if entry is not None:
                    self._scenario_dbs.move_to_end((scenario.name, scale))
            if entry is None:
                entry = scenario.make_db(scale)
                with self._lock:
                    self._scenario_dbs[(scenario.name, scale)] = entry
                    while len(self._scenario_dbs) > self._scenario_db_limit:
                        self._scenario_dbs.popitem(last=False)
            question = WhyNotQuestion(
                scenario.make_query(), entry, scenario.make_nip(), name=scenario.name
            )
            alternatives = list(scenario.alternatives)
        else:
            if request.query is None or request.nip is None or request.database is None:
                raise BadRequest(
                    "request needs either a scenario name or query+nip+database"
                )
            db, cache_token = self._resolve_database(request)
            question = WhyNotQuestion(
                request.query, db, request.nip, name=request.name
            )
            alternatives = list(request.alternatives)
        if cache_token[0] == "named":
            # Version-aware keys: fold in the stamps of exactly the relations
            # the query reads.  Mutating any *other* relation of the same
            # database (or any other database) leaves this key — and hence
            # the cached entry — valid and warm.
            db = question.db
            stamps = tuple(
                (t, db.relation_stamp(t))
                for t in sorted(read_tables(question.query))
                if t in db
            )
            if not stamps:  # no reads resolved: be conservative, pin the version
                stamps = (("*", (db.version_id, db.version)),)
            cache_token = cache_token + (stamps,)
        options = request.options.semantic_fields()
        summarize = options.pop("summarize")
        state_doc = _canonical(
            {
                "db": cache_token,
                "query": query_to_json(question.query),
                "alternatives": alternatives_to_json(alternatives),
                "options": options,
            }
        )
        nip_doc = _canonical(value_to_json(question.nip))
        # JSON text never holds a raw NUL, so the joined parts cannot collide.
        key = _digest("\0".join((state_doc, nip_doc, _canonical(summarize))))
        return question, alternatives, (key, _digest(state_doc), nip_doc)

    def explain(
        self, request: ExplainRequest, use_cache: bool = True
    ) -> "ExplainResponse | SatisfiedResponse":
        """Answer one request (through the cache unless ``use_cache=False``).

        With ``request.satisfied_ok`` set, a question whose "missing" answer
        is already present returns a :class:`SatisfiedResponse` instead of
        raising ``IllPosedQuestion`` (satisfied answers are never cached).
        """
        question, alternatives, (key, state_key, nip_doc) = self._resolve(request)
        caching = use_cache and self.cache_size > 0
        state = stored = None
        if caching:
            with self._lock:
                hit = self._cache.get(key)
                if hit is not None:
                    self._cache.move_to_end(key)
                    self.hits += 1
                    if hit.question.name != question.name:
                        # The key leaves the display name out; answer
                        # under the requester's.
                        hit = replace(hit, question=question)
                    return ExplainResponse(hit, True, self._stats_locked())
                self.misses += 1
                state = self._states.get(state_key)
                if state is not None:
                    self._states.move_to_end(state_key)
                    stored = state.results.get(nip_doc)
                    # Seed Q(D) for the Definition 5 check.
                    question._result_cache = state.answer
        try:
            question.validate()
        except IllPosedQuestion:
            if not request.satisfied_ok:
                raise
            witnesses = matching_tuples(question.result(), question.nip)[:3]
            with self._lock:
                return SatisfiedResponse(witnesses, self._stats_locked())
        options = request.options
        if stored is not None:
            # A twin: same question, other ``summarize``.  Copy the stored
            # result, since summaries are attached in place.
            result = replace(
                stored, question=question, timings=dict(stored.timings), summaries=None
            )
        else:
            result, relaxed = explain_reusing(
                question,
                state.relaxed if state is not None else None,
                alternatives=alternatives,
                use_schema_alternatives=options.use_schema_alternatives,
                revalidate=options.revalidate,
                max_sas=options.max_sas,
            )
            if caching:
                self._keep_state(state_key, nip_doc, request, question, result, relaxed)
        reused = stored is not None or "annotate" in result.timings
        if options.summarize is not None:
            if stored is None:
                result = replace(result)  # the state keeps the unsummarized one
            hierarchy, max_summaries, sample = resolve_summarize(options.summarize)
            attach_summaries(
                result, hierarchy, max_summaries=max_summaries, sample=sample
            )
        if caching:
            with self._lock:
                self.state_reuses += reused
                self._cache[key] = result
                self._cache.move_to_end(key)
                if isinstance(request.database, str):
                    self._cache_deps[key] = (
                        request.database,
                        read_tables(question.query),
                    )
                while len(self._cache) > self.cache_size:
                    evicted, _ = self._cache.popitem(last=False)
                    self._cache_deps.pop(evicted, None)
        with self._lock:
            return ExplainResponse(result, False, self._stats_locked())

    def _keep_state(
        self,
        state_key: int,
        nip_doc: str,
        request: ExplainRequest,
        question: WhyNotQuestion,
        result: WhyNotResult,
        relaxed: RelaxedTrace,
    ) -> None:
        """Record a computed miss in its query's explain state."""
        if relaxed.trace.total_rows() > STATE_MAX_ROWS:
            return
        with self._lock:
            state = self._states.get(state_key)
            if state is None:
                state = self._states[state_key] = _ExplainState(
                    question.result(),
                    relaxed,
                    request.database if isinstance(request.database, str) else None,
                    read_tables(question.query),
                )
            else:
                state.relaxed = relaxed
                self._states.move_to_end(state_key)
            state.results[nip_doc] = result
            state.results.move_to_end(nip_doc)
            while len(state.results) > STATE_MAX_RESULTS:
                state.results.popitem(last=False)
            rows = self._state_rows_locked()
            while len(self._states) > self.cache_size or rows > STATE_MAX_ROWS:
                _, evicted = self._states.popitem(last=False)
                rows -= evicted.relaxed.trace.total_rows()

    def submit(self, request: ExplainRequest, use_cache: bool = True) -> "Future[ExplainResponse]":
        """Dispatch a request on the service thread pool (concurrent serving)."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_concurrency,
                    thread_name_prefix="repro-api",
                )
            pool = self._pool
        return pool.submit(self.explain, request, use_cache)

    def query(
        self, query: Any, database: "str | Database"
    ) -> "tuple[Bag, ExecutionMetrics]":
        """Evaluate a plain query on the answer path's configuration.

        ``Executor()`` runs it like the ``Q(D)`` of a why-not question: the
        optimized plan, one partition.  Returns ``(result bag, execution
        metrics)``; the metrics carry the optimizer's rewrite summary.
        """
        db = self.database(database) if isinstance(database, str) else database
        executor = Executor()
        result = executor.execute(query, db)
        return result, executor.last_metrics

    # -- cache ----------------------------------------------------------------

    def _stats_locked(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._cache)}

    def _state_rows_locked(self) -> int:
        return sum(s.relaxed.trace.total_rows() for s in self._states.values())

    def cache_stats(self) -> dict:
        """Current cache counters: ``{"hits", "misses", "size"}``."""
        with self._lock:
            return self._stats_locked()

    def state_stats(self) -> dict:
        """Explain-state counters: ``{"entries", "rows", "reuses"}`` (held
        states, their traced rows, misses answered from a state)."""
        with self._lock:
            return {
                "entries": len(self._states),
                "rows": self._state_rows_locked(),
                "reuses": self.state_reuses,
            }

    def clear_cache(self) -> None:
        """Drop every cached result and explain state (counters keep
        accumulating)."""
        with self._lock:
            self._cache.clear()
            self._cache_deps.clear()
            self._states.clear()

    def close(self) -> None:
        """Shut the dispatch pool down (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def _rebound(result: WhyNotResult, db: Database) -> WhyNotResult:
    """*result* as an answer over *db*, a later version that changed none
    of the relations its query reads (so ``Q(D)`` and the explanations are
    unchanged), holding no reference to the version it was computed over."""
    if result.trace is not None:
        result.trace.rebind(db)
    return replace(result, question=replace(result.question, db=db))


def _canonical(document: Any) -> str:
    """Canonical JSON text of a key part."""
    return json.dumps(document, sort_keys=True, ensure_ascii=True)


def _digest(text: str) -> int:
    """A cache or state key: 128 bits of BLAKE2 over canonical JSON text,
    so distinct requests do not collide the way 32-bit checksums can."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("ascii"), digest_size=16).digest(), "big"
    )


#: Error types the HTTP layer maps to 4xx responses.  ``TooManyAlternatives``
#: is one: the request's own ``max_sas`` is what its SA candidates exceed.
CLIENT_ERRORS = (
    BadRequest,
    UnknownDatabase,
    IllPosedQuestion,
    TooManyAlternatives,
    ValueError,
    KeyError,
)
