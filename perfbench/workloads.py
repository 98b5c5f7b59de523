"""The three seeded workloads: explain-nested, query-relational, serve-mixed.

Each workload exposes ``setup()`` (one complete set-up: data generation,
invariant checks, registration and warm-up; the run calls it several times
and keeps the last), ``measure(seconds)`` (the closed loop that times every
op and checks every answer) and ``close()``.  Why each workload exists, and
which end-to-end metric each layer should move on it, is in ``README.md``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import measure
import spans
from repro.api import ExplainOptions, ExplainRequest
from repro.datasets.tpch import tpch_database
from repro.engine.database import Mutation
from repro.engine.executor import Executor
from repro.factory import social_bundle, tpch_bundle
from repro.lang import pretty_program, pretty_query
from repro.nested.values import Tup
from repro.scenarios import get_scenario
from repro.whynot.explain import explain
from repro.whynot.placeholders import ANY
from repro.whynot.question import WhyNotQuestion
from repro.wire import (
    check_envelope,
    database_info_from_json,
    database_to_json,
    explanation_from_json,
    metrics_from_json,
    mutation_to_json,
    query_to_json,
    relation_from_json,
    summary_from_json,
    text_query_request,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds the server may take to print its "listening on" line.
BOOT_TIMEOUT_S = 60.0
#: Seconds one HTTP request may take before it counts as failed.
REQUEST_TIMEOUT_S = 120.0
#: Reference loops per host-speed checkpoint of a measured phase.
CHECKPOINT_LOOPS = 3


class WrongAnswer(AssertionError):
    """An op completed but its answer failed the workload's check."""


@dataclass
class Outcome:
    """What one measured phase observed."""

    latencies: "list[float]"  # seconds, of the ops that completed correctly
    slowdowns: "list[float]"  # the host's slowdown around each of those ops
    attempted: int
    failed: int
    wall_s: float  # of the measured phase, host-speed checkpoints left out
    scaled_wall_s: float  # wall_s at reference speed
    peak_rss_mb: float  # of the process that runs the program
    layers: dict = field(default_factory=dict)  # per-layer metrics (traced)
    notes: dict = field(default_factory=dict)  # diagnostics


def _report_failure(op) -> None:
    print(f"perfbench: op {op} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _ranked_labels(explanations) -> "tuple[tuple[str, ...], ...]":
    return tuple(tuple(e.labels) for e in explanations)


# -- library workloads ----------------------------------------------------------


class _LibraryWorkload:
    """A closed loop of one caller invoking the library in this process."""

    name = ""

    def __init__(self, seed: int, recorder: "spans.Recorder | None", out_dir: Path):
        self.seed = seed
        self.recorder = recorder
        self.out_dir = out_dir

    def op(self):
        raise NotImplementedError

    def check(self, answer) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Outcome:
        recorder = self.recorder
        op = self.op if recorder is None else recorder.wrap("op", self.op)
        latencies: "list[float]" = []
        starts: "list[float]" = []
        done: "list[int]" = []
        attempted = failed = 0
        speed = measure.HostSpeed(CHECKPOINT_LOOPS)
        cpu_before = time.process_time()
        speed.checkpoint()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            attempted += 1
            if recorder is not None:
                recorder.set_op(attempted)
            try:
                t0 = perf_counter()
                answer = op()
                elapsed = perf_counter() - t0
                if recorder is not None:
                    recorder.set_op(None)
                self.check(answer)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                if recorder is not None:
                    recorder.set_op(None)
                _report_failure(attempted)
                failed += 1
            else:
                latencies.append(elapsed)
                starts.append(t0)
                done.append(attempted)
            speed.checkpoint()
        cpu = time.process_time() - cpu_before - speed.checkpoints_s()
        outcome = Outcome(
            latencies=latencies,
            slowdowns=[speed.slowdown(t0) for t0 in starts],
            attempted=attempted,
            failed=failed,
            wall_s=speed.wall_s(),
            scaled_wall_s=speed.scaled_wall_s(),
            peak_rss_mb=measure.peak_rss_mb(),
        )
        if recorder is not None and done:
            outcome.layers = self._layers(recorder, done, cpu)
            recorder.dump(self.out_dir / f"{self.name}-seed{self.seed}.trace.json")
        return outcome

    @staticmethod
    def _layers(recorder: "spans.Recorder", ops: "list[int]", cpu_s: float) -> dict:
        per_op = spans.self_times(recorder.spans)
        counts = spans.counts_by_op(recorder.counts)
        layers = spans.layer_metrics(per_op, counts, recorder.gc_events, ops)
        layers["unattributed.ms"] = spans.median_over(per_op, ops, "op", 1000.0)
        layers["cpu.ms"] = 1000.0 * cpu_s / len(ops)
        return layers


class ExplainNested(_LibraryWorkload):
    """RP with default settings on GenSocial SF 10 (nested data, 2 SAs)."""

    name = "explain-nested"
    SF = 10
    WARM_UP_OPS = 3

    def setup(self) -> dict:
        t0 = perf_counter()
        bundle = social_bundle(self.SF, seed=measure.sub_seed(self.seed, "social"))
        t1 = perf_counter()
        bundle.check()
        t2 = perf_counter()
        self.bundle = bundle
        self.reference = None
        for _ in range(self.WARM_UP_OPS):
            self.check(self.op())
        return {"generate_s": t1 - t0, "check_s": t2 - t1}

    def op(self):
        bundle = self.bundle
        question = WhyNotQuestion(
            bundle.query, bundle.database, bundle.nip, name=bundle.name
        )
        return explain(question, alternatives=bundle.alternatives)

    def close(self) -> None:
        self.bundle = None

    def check(self, result) -> None:
        if self.bundle.gold not in {frozenset(e.labels) for e in result.explanations}:
            raise WrongAnswer(f"gold {sorted(self.bundle.gold)} missing")
        ranked = _ranked_labels(result.explanations)
        if self.reference is None:
            self.reference = ranked
        elif ranked != self.reference:
            raise WrongAnswer(f"explanations {ranked} != warm-up {self.reference}")


class QueryRelational(_LibraryWorkload):
    """One pass of ``Executor().execute`` over the 12 Fig. 10 TPC-H plans."""

    name = "query-relational"
    SCALE = 1000
    PLANS = ("Q1", "Q3", "Q4", "Q6", "Q10", "Q13",
             "Q1F", "Q3F", "Q4F", "Q6F", "Q10F", "Q13F")

    def setup(self) -> dict:
        t0 = perf_counter()
        db = tpch_database(self.SCALE, seed=measure.sub_seed(self.seed, "tpch"))
        t1 = perf_counter()
        queries = [get_scenario(name).make_query() for name in self.PLANS]
        references = [query.evaluate(db) for query in queries]
        t2 = perf_counter()
        self.db, self.queries, self.references = db, queries, references
        self.check(self.op())
        return {"generate_s": t1 - t0, "check_s": t2 - t1}

    def op(self):
        return [Executor().execute(query, self.db) for query in self.queries]

    def close(self) -> None:
        self.db = self.queries = self.references = None

    def check(self, results) -> None:
        for name, result, reference in zip(self.PLANS, results, self.references):
            if result != reference:
                raise WrongAnswer(f"{name}: executor result != Query.evaluate")


# -- serve-mixed ----------------------------------------------------------------


class _Server:
    """``repro serve`` in its own process, on an ephemeral port.

    Readiness comes from the server's unbuffered "listening on" line; a
    reader thread drains its output until it exits.
    """

    def __init__(self, trace_path: "Path | None"):
        if trace_path is None:
            args = [sys.executable, "-u", "-m", "repro"]
        else:
            args = [sys.executable, "-u", str(HERE / "launcher.py"), str(trace_path)]
        args += ["serve", "--quiet", "--host", "127.0.0.1", "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            args,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: "list[str]" = []
        self._ready: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.host = ""
        self.port = 0

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            if "listening on" in line:
                self._ready.put(line)
        self._ready.put(None)

    def wait_ready(self) -> None:
        line = self._ready.get(timeout=BOOT_TIMEOUT_S)
        match = re.search(r"http://([^:/\s]+):(\d+)", line or "")
        if match is None:
            raise RuntimeError("server exited before listening:\n" + "".join(self.output))
        self.host, self.port = match.group(1), int(match.group(2))

    def call(self, method: str, path: str, body: "bytes | None", op) -> "tuple[dict, int]":
        """One request; returns the decoded JSON document and its byte size."""
        headers = {"Content-Type": "application/json"}
        if op is not None:
            headers[spans.OP_HEADER] = str(op)
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, "/v1" + path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise WrongAnswer(f"{method} {path}: HTTP {response.status} {raw[:300]!r}")
        return json.loads(raw), len(raw)

    def stop(self) -> None:
        """Interrupt the server (it shuts down cleanly) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=10)


@dataclass
class _Request:
    """One prepared read request of the mix."""

    db: str  # the registered database it reads
    qid: str  # requests sharing a qid must get the same explanations
    path: str
    body: bytes
    kind: str  # "explain" | "query"
    gold: "frozenset | None" = None
    summarize: bool = False
    reference: object = None  # expected result bag of a query request


def _encode(document: dict) -> bytes:
    return json.dumps(document, ensure_ascii=True).encode("ascii")


class ServeMixed:
    """``repro serve`` driven by one closed-loop client.

    The plan is a sequence of rounds.  Round *r* writes one database, then,
    in seeded order, explains that database's whole pool once (misses: the
    write evicted them), sends two query requests and sends cache hits on
    the other database's pool.  Every round does the same work; the seed
    picks the order, the hits, the variant questions and the filler rows.
    """

    name = "serve-mixed"
    SF = 10
    DATABASES = ("social", "tpch")
    VARIANTS = 3  # well-posed variant questions per database
    #: Database each round of a cycle writes: the nested one three times as
    #: often, so that its misses are the slowest 15% of requests.
    CYCLE = ("social", "social", "social", "tpch")
    #: Query requests per round, taken in turn from all of them.
    ROUND_QUERIES = 2
    #: Cache hits on the other database's pool per round.
    ROUND_HITS = 14

    def __init__(self, seed: int, recorder: "spans.Recorder | None", out_dir: Path):
        self.seed = seed
        self.traced = recorder is not None
        self.out_dir = out_dir
        self.server: "_Server | None" = None
        self._trace_path = out_dir / f"{self.name}-seed{seed}.server.trace.json"
        # The server inherits this CPU: client and server take turns on it, so
        # the checkpoint after each request times the CPU the request ran on,
        # with nothing else running (see ``measure.HostSpeed``).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> dict:
        self.server = _Server(self._trace_path if self.traced else None)
        t0 = perf_counter()
        bundles = {
            "social": social_bundle(self.SF, seed=measure.sub_seed(self.seed, "social")),
            "tpch": tpch_bundle(self.SF, seed=measure.sub_seed(self.seed, "gentpch")),
        }
        t1 = perf_counter()
        for bundle in bundles.values():
            bundle.check()
        t2 = perf_counter()
        documents = {name: _encode(database_to_json(b.database)) for name, b in bundles.items()}
        self.server.wait_ready()
        for name, document in documents.items():
            self.server.call("PUT", f"/databases/{name}", document, None)
        self._prepare(bundles)
        self._warm_up()
        return {"generate_s": t1 - t0, "check_s": t2 - t1}

    def _prepare(self, bundles: dict) -> None:
        """Build the request pools, the query requests and the write plans."""
        rng = random.Random(measure.sub_seed(self.seed, "plan"))
        self.pool: "dict[str, list[_Request]]" = {}
        self.queries: "list[_Request]" = []
        self.writes: "dict[str, list[Mutation]]" = {}
        for db_name, bundle in bundles.items():
            answer = bundle.query.evaluate(bundle.database)
            variants, fillers = self._variants(db_name, bundle, answer, rng)

            def explain_request(qid, nip, text=False, summarize=False, gold=None):
                options = ExplainOptions(summarize=True if summarize else None)
                if text:
                    request = ExplainRequest(
                        text=pretty_program(bundle.query, nip, bundle.alternatives),
                        database=db_name,
                        options=options,
                    )
                else:
                    request = ExplainRequest(
                        query=bundle.query,
                        nip=nip,
                        database=db_name,
                        alternatives=bundle.alternatives,
                        options=options,
                    )
                return _Request(db_name, qid, "/explain", _encode(request.to_json()),
                                "explain", gold, summarize)

            planted = f"{db_name}:planted"
            pool = [
                explain_request(planted, bundle.nip, gold=bundle.gold),
                explain_request(planted, bundle.nip, text=True, gold=bundle.gold),
                explain_request(planted, bundle.nip, summarize=True, gold=bundle.gold),
            ]
            for i, nip in enumerate(variants):
                pool.append(explain_request(f"{db_name}:variant{i}", nip))
            pool.append(explain_request(f"{db_name}:variant0", variants[0], text=True))
            self.pool[db_name] = pool

            options = ExplainOptions().to_json()
            structured = {"format": 2, "kind": "query-request",
                          "query": query_to_json(bundle.query),
                          "database": db_name, "options": options}
            textual = text_query_request(pretty_query(bundle.query), db_name, options)
            for document in (structured, textual):
                self.queries.append(_Request(db_name, f"{db_name}:query", "/query",
                                             _encode(document), "query", reference=answer))

            # Delete a filler row, re-insert it with the next write to this
            # database; no row is deleted twice.
            relation = _MUTATED[db_name]
            self.writes[db_name] = [
                Mutation(**{side: {relation: [row]}})
                for row in fillers
                for side in ("deletes", "inserts")
            ]
        self.plan_rng = random.Random(measure.sub_seed(self.seed, "mix"))

    def _variants(self, db_name: str, bundle, answer, rng: random.Random):
        """Well-posed variant NIPs (constant absent from ``Q(D)``) and the
        filler rows writes may delete (never planted, never in a variant, never
        in ``Q(D)``, so writes leave every query result unchanged)."""
        rows = sorted(bundle.database.relation(_MUTATED[db_name]).distinct(),
                      key=_FILLER_KEY[db_name])
        if db_name == "social":
            present = {t["uName"] for t in answer.distinct()}
            planted = bundle.nip["uName"]
            names = sorted({r["user"]["name"] for r in rows} - present - {planted})
            chosen = rng.sample(names, self.VARIANTS)
            nips = [Tup(text=ANY, country=ANY, uName=name) for name in chosen]
            keep = set(chosen) | present | {planted}
            fillers = [r for r in rows if r["user"]["name"] not in keep]
        else:
            present = {t["o_orderkey"] for t in answer.distinct()}
            planted = bundle.nip["o_orderkey"]
            keys = sorted({r["o_orderkey"] for r in rows} - present - {planted})
            chosen = rng.sample(keys, self.VARIANTS)
            nips = [Tup(o_orderkey=key, revenue=ANY) for key in chosen]
            keep = set(chosen) | present | {planted}
            fillers = [r for r in rows if r["o_orderkey"] not in keep]
        rng.shuffle(fillers)
        return nips, fillers

    def _warm_up(self) -> None:
        """Answer every pool and query request once: fills the result cache
        and records the answers later requests are checked against."""
        self.answers: "dict[tuple, tuple]" = {}
        self.writes_done = dict.fromkeys(self.DATABASES, 0)
        for db_name in self.DATABASES:
            for request in self.pool[db_name] + self.queries:
                if request.db == db_name:
                    document, _size = self.server.call(
                        "POST", request.path, request.body, None
                    )
                    self._check(request, document, (db_name, "base"))

    # -- checks -----------------------------------------------------------------

    def _check(self, request: _Request, document: dict, state) -> bool:
        """Decode *document* as its wire kind and check it; return ``cached``."""
        if request.kind == "query":
            check_envelope(document, "query-response")
            metrics_from_json(document["metrics"])
            if relation_from_json(document["result"]) != request.reference:
                raise WrongAnswer(f"{request.qid}: result differs from Query.evaluate")
            return False
        check_envelope(document, "explain-response")
        result = document["result"]
        explanations = [explanation_from_json(e) for e in result["explanations"]]
        if request.summarize:
            for summary in result["summaries"]:
                summary_from_json(summary)
        ranked = _ranked_labels(explanations)
        if request.gold is not None and request.gold not in map(frozenset, ranked):
            raise WrongAnswer(f"{request.qid}: gold {sorted(request.gold)} missing")
        if state is not None:
            expected = self.answers.setdefault((request.qid, state), ranked)
            if ranked != expected:
                raise WrongAnswer(f"{request.qid}: {ranked} != {expected} at {state}")
        return bool(document["cached"])

    # -- measured phase -----------------------------------------------------------

    def _round(self, number: int) -> list:
        """Round *number*'s requests; a database name stands for a write to
        it, which comes first."""
        db_name = self.CYCLE[number % len(self.CYCLE)]
        kept = self.DATABASES[1 - self.DATABASES.index(db_name)]
        queries = [
            self.queries[(number * self.ROUND_QUERIES + i) % len(self.queries)]
            for i in range(self.ROUND_QUERIES)
        ]
        hits = [self.plan_rng.choice(self.pool[kept]) for _ in range(self.ROUND_HITS)]
        reads = self.pool[db_name] + queries + hits
        self.plan_rng.shuffle(reads)
        return [db_name] + reads

    def _read(self, op: int, request: _Request) -> "tuple[float, float, int, bool]":
        # Writes come in delete/re-insert pairs, so after an even number of
        # them the data equals the registered data again.
        done = self.writes_done[request.db]
        state = (request.db, "base" if done % 2 == 0 else done)
        t0 = perf_counter()
        document, size = self.server.call("POST", request.path, request.body, op)
        elapsed = perf_counter() - t0
        return t0, elapsed, size, self._check(request, document, state)

    def _write(self, op: int, db_name: str) -> "tuple[float, float, int]":
        mutation = self.writes[db_name][self.writes_done[db_name]]
        body = _encode(mutation_to_json(mutation))
        t0 = perf_counter()
        try:
            document, size = self.server.call(
                "POST", f"/databases/{db_name}/mutate", body, op
            )
        finally:
            self.writes_done[db_name] += 1
        elapsed = perf_counter() - t0
        check_envelope(document, "database-info")
        database_info_from_json(document)
        return t0, elapsed, size

    def measure(self, seconds: float) -> Outcome:
        server = self.server
        records: "list[tuple]" = []  # (op, label, start, end, size, cached)
        failures: "list[int]" = []
        plan = itertools.chain.from_iterable(map(self._round, itertools.count()))
        speed = measure.HostSpeed(CHECKPOINT_LOOPS)
        cpu_before = measure.cpu_seconds(server.process.pid)
        speed.checkpoint()
        deadline = perf_counter() + seconds
        for op, item in enumerate(plan, 1):
            if perf_counter() >= deadline:
                break
            try:
                if isinstance(item, str):
                    label, cached = f"write:{item}", False
                    start, elapsed, size = self._write(op, item)
                else:
                    label = f"{item.kind}:{item.qid}"
                    start, elapsed, size, cached = self._read(op, item)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                _report_failure(op)
                failures.append(op)
            else:
                records.append((op, label, start, start + elapsed, size, cached))
            speed.checkpoint()
        cpu = measure.cpu_seconds(server.process.pid) - cpu_before
        rss = measure.peak_rss_mb(server.process.pid)
        outcome = Outcome(
            latencies=[end - start for _op, _l, start, end, _s, _c in records],
            slowdowns=[speed.slowdown(start) for _op, _l, start, _e, _s, _c in records],
            attempted=len(records) + len(failures),
            failed=len(failures),
            wall_s=speed.wall_s(),
            scaled_wall_s=speed.scaled_wall_s(),
            peak_rss_mb=rss,
        )
        outcome.notes = self._notes(records)
        self.close()
        if self.traced and records:
            outcome.layers = self._layers(records, cpu)
        return outcome

    def _notes(self, records) -> dict:
        """Share, p50 and p90 of each request kind (misses split by database)."""
        kinds: "dict[str, list[float]]" = {}
        for _op, label, start, end, _size, cached in records:
            kind, db_name = label.split(":")[:2]
            if kind == "explain":
                kind = "explain-hit" if cached else f"explain-miss:{db_name}"
            kinds.setdefault(kind, []).append(1000.0 * (end - start))
        total = max(len(records), 1)
        return {
            "writes": dict(self.writes_done),
            "kinds": {
                k: {"share": round(len(v) / total, 4),
                    "p50_ms": round(measure.percentile(v, 0.5), 2),
                    "p90_ms": round(measure.percentile(v, 0.9), 2)}
                for k, v in sorted(kinds.items())
            },
        }

    def _layers(self, records, cpu_s: float) -> dict:
        with open(self._trace_path, encoding="utf-8") as trace_file:
            trace = json.load(trace_file)
        server_spans = trace["spans"]
        ops = [record[0] for record in records]
        per_op = spans.self_times(server_spans)
        counts = spans.counts_by_op(trace["counts"])
        layers = spans.layer_metrics(per_op, counts, trace["gc"], ops)
        http_spans = {s[0] for s in server_spans if s[2] == "api.http"}
        handled: "dict[int, float]" = {}
        covered: "dict[int, float]" = {}
        for span_id, parent, _name, start, end, op in server_spans:
            if span_id in http_spans and op is not None:
                handled[op] = handled.get(op, 0.0) + end - start
            elif parent in http_spans and op is not None:
                covered[op] = covered.get(op, 0.0) + end - start
        walls = {op: end - start for op, _l, start, end, _s, _c in records}
        layers["api.http.ms"] = 1000.0 * measure.percentile(
            [walls[op] - covered.get(op, 0.0) for op in ops], 0.5
        )
        layers["unattributed.ms"] = 1000.0 * measure.percentile(
            [walls[op] - handled.get(op, 0.0) for op in ops], 0.5
        )
        explains = [r for r in records if r[1].startswith("explain:")]
        layers["api.cache_hit_ratio"] = (
            sum(1 for r in explains if r[5]) / len(explains) if explains else 0.0
        )
        layers["wire.response_bytes"] = measure.percentile([r[4] for r in records], 0.5)
        layers["wire.database_decode.s"] = sum(
            end - start for _i, _p, name, start, end, op in server_spans
            if name == "wire.database_decode" and op is None
        )
        layers["cpu.ms"] = 1000.0 * cpu_s / len(ops)
        with open(self.out_dir / f"{self.name}-seed{self.seed}.ops.json", "w",
                  encoding="utf-8") as ops_file:
            json.dump({"ops": records}, ops_file)
        return layers

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


#: The relation each database's writes delete from and re-insert into.
_MUTATED = {"social": "T", "tpch": "nestedOrders"}
#: Deterministic order of candidate filler rows before the seeded shuffle.
_FILLER_KEY = {"social": lambda r: r["id"], "tpch": lambda r: r["o_orderkey"]}

WORKLOADS = {w.name: w for w in (ExplainNested, QueryRelational, ServeMixed)}
