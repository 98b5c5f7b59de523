"""Command-line interface: run paper scenarios and inspect explanations.

Usage::

    python -m repro list                     # all registered scenarios
    python -m repro run Q10 [--scale 60]     # one scenario, all approaches
    python -m repro run Q10 --show-plan      # original vs optimized plan
    python -m repro run --query-file f.rq    # run a textual .rq program
    python -m repro repl [--scenario Q10]    # interactive .rq REPL
    python -m repro table7 [--scale 40]      # the Table-7 summary
    python -m repro fuzz --seed 4 --cases 200   # differential fuzz sweep
    python -m repro fuzz --text --cases 200     # + grammar round-trip oracle
    python -m repro serve --port 8080        # HTTP explanation service
    python -m repro generate tpch --sf 10    # factory database → stdout/file
    python -m repro run GenSocial --summarize   # + explanation summaries

``generate`` builds one :mod:`repro.factory` family (``tpch`` or ``social``)
at the given scale factor and seed, verifies its cardinality invariants, and
writes the database as a wire-format JSON document (``--out FILE`` or
stdout) — see ``docs/SCENARIOS.md``.  ``run --summarize`` rolls the RP
explanations up into ontology-aware summary groups
(:mod:`repro.whynot.summarize`); ``--hierarchy FILE`` supplies a concept
hierarchy document and ``--max-summaries N`` bounds the group count.

Every ``Q(D)`` and every query ``serve`` answers runs one configuration:
the logical plan optimizer's rewrite on the kernel executor, one partition
(see ``docs/OPTIMIZER.md``).  ``--show-plan`` prints the scenario query's
original vs. optimized plan with per-rule provenance annotations before
running it.

``fuzz`` runs the seeded differential-testing sweep of :mod:`repro.fuzz`
(see ``docs/FUZZING.md``): random nested databases and plans are checked
across ``Query.evaluate`` × optimizer on/off × partition counts;
any divergence is shrunk to a minimal repro and (with ``--corpus-dir``)
written as a corpus JSON file ready to pin as a regression test.  Exit code
1 signals at least one divergence.

``run --query-file`` executes a textual ``.rq`` program (grammar:
``docs/LANGUAGE.md``) against a scenario database — the scenario named by
``--db``, or the one matching the program's own ``query NAME``.  ``repl``
starts the interactive read-eval-print loop of :mod:`repro.lang.repl`.
``fuzz --text`` adds the grammar round-trip oracle: every generated plan and
question is pretty-printed, reparsed and checked structurally identical;
divergences are shrunk and (with ``--corpus-dir``) also written as ``.rq``
files.

``serve`` boots the HTTP serving front end (:mod:`repro.api.http`): the
versioned wire-format endpoints ``POST /v1/explain``, ``POST /v1/query``,
``GET /v1/scenarios``, ``GET /v1/health`` and ``GET /v1/stats`` backed by an
:class:`~repro.api.ExplanationService` with an LRU result cache — see
``docs/API.md`` for the endpoint reference and ``repro.api.Client`` for the
Python client.  ``serve --processes N`` puts the same front end over the
sharded dispatcher (:mod:`repro.api.sharded`): N pre-forked workers,
consistent-hash request routing, in-flight coalescing, queue-depth 503
backpressure and automatic crash respawn (``docs/SERVING.md``).  Both modes
shut down cleanly on Ctrl-C or SIGTERM.

Count-like flags (``--partitions``, ``--cases``, ``--depth``, ``--rows``,
``--ops``, ``--cache-size``) validate their values up front:
zero or negative counts fail with a usage error instead of a traceback from
deep inside the executor.
"""

from __future__ import annotations

import argparse
import sys


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (friendly error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _partition_list(text: str) -> "tuple[int, ...]":
    """argparse type: comma-separated positive partition counts, e.g. ``1,3,7``."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected at least one partition count")
    return tuple(_positive_int(p) for p in parts)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIOS

    width = max(len(name) for name in SCENARIOS)
    for name, scenario in SCENARIOS.items():
        gold = " [gold]" if scenario.gold else ""
        print(f"{name:<{width}}  {scenario.description}{gold}")
    return 0


def _fmt(sets) -> str:
    if not sets:
        return "∅"
    return ", ".join("{" + ", ".join(sorted(s)) + "}" for s in sets)


def _run_query_file(args: argparse.Namespace) -> int:
    """``run --query-file``: execute one textual .rq program."""
    from repro.lang import LangError, lower_program, parse_program
    from repro.lang.repl import print_explanation, print_result
    from repro.scenarios import SCENARIOS, get_scenario

    try:
        with open(args.query_file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.query_file}: {exc}", file=sys.stderr)
        return 2
    try:
        program = parse_program(text)
    except LangError as exc:
        print(exc.render(), file=sys.stderr)
        return 2
    db_name = args.db or args.scenario or program.name
    if not db_name:
        print(
            "error: the program is unnamed; pick its database with --db NAME",
            file=sys.stderr,
        )
        return 2
    if db_name not in SCENARIOS:
        print(
            f"error: no scenario named {db_name!r} to supply the database "
            "(see `python -m repro list`); override with --db NAME",
            file=sys.stderr,
        )
        return 2
    scenario = get_scenario(db_name)
    scale = args.scale if args.scale is not None else scenario.default_scale
    db = scenario.make_db(scale)
    try:
        lowered = lower_program(program, database=db, source=text)
    except LangError as exc:
        print(exc.render(), file=sys.stderr)
        return 2
    print(f"{args.query_file}: database {db_name} (scale {scale})")
    if lowered.has_question:
        print_explanation(lowered, db)
    else:
        print_result(lowered, db)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIOS, get_scenario, run_scenario

    if args.query_file is not None:
        return _run_query_file(args)
    if args.scenario is None:
        print("error: a scenario name (or --query-file) is required", file=sys.stderr)
        return 2
    if args.scenario not in SCENARIOS:
        print(
            f"error: no scenario named {args.scenario!r} "
            "(see `python -m repro list`)",
            file=sys.stderr,
        )
        return 2
    scenario = get_scenario(args.scenario)
    print(f"{scenario.name}: {scenario.description}")
    if scenario.notes:
        print(f"  note: {scenario.notes}")
    if args.show_plan:
        from repro.engine.optimizer import optimize_query

        question = scenario.question(args.scale)
        print(optimize_query(question.query, question.db).describe())
        print()
    run = run_scenario(scenario, scale=args.scale)
    print(f"  WN++    : {_fmt(run.wnpp)}")
    print(f"  Conseil : {_fmt(run.conseil)}")
    print(f"  RPnoSA  : {_fmt(run.rp_nosa)}")
    print(f"  RP      : {_fmt(run.rp)}   ({run.n_sas} schema alternatives)")
    gold = run.gold_position()
    if scenario.gold is not None:
        status = f"rank {gold}" if gold else "NOT FOUND"
        print(f"  gold {{{', '.join(sorted(scenario.gold))}}}: {status}")
    if args.summarize:
        return _print_summaries(run.rp_result, args)
    return 0


def _print_summaries(result, args: argparse.Namespace) -> int:
    """Summarize an RP result per the ``--summarize`` flags and print it."""
    import json

    from repro.whynot.summarize import ConceptHierarchy, attach_summaries

    hierarchy = None
    if args.hierarchy is not None:
        try:
            with open(args.hierarchy, encoding="utf-8") as fh:
                hierarchy = ConceptHierarchy.from_json(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"error: cannot load hierarchy {args.hierarchy}: {exc}", file=sys.stderr)
            return 2
    summaries = attach_summaries(result, hierarchy, max_summaries=args.max_summaries)
    total = sum(s.count for s in summaries)
    print(f"  summaries ({len(summaries)} group(s), {total} explanation(s)):")
    for s in summaries:
        print(f"    {s.describe()}")
    if not summaries:
        print("    (none)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: build one factory family, check it, write wire JSON."""
    import json

    from repro.factory import make_bundle
    from repro.wire import database_to_json

    try:
        bundle = make_bundle(args.family, args.sf, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    observed = bundle.check()
    document = database_to_json(bundle.database)
    header = (
        f"{bundle.name}: family={bundle.family} sf={bundle.sf} seed={bundle.seed}"
    )
    counts = ", ".join(f"{k}={v}" for k, v in observed.items())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, ensure_ascii=True, sort_keys=True)
            fh.write("\n")
        print(header, file=sys.stderr)
        print(f"  invariants ok: {counts}", file=sys.stderr)
        print(f"  written: {args.out}", file=sys.stderr)
    else:
        print(header, file=sys.stderr)
        print(f"  invariants ok: {counts}", file=sys.stderr)
        json.dump(document, sys.stdout, ensure_ascii=True, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def _cmd_table7(args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIOS, run_scenario

    # The Table-7 reproduction covers the paper's hand-built corpus: crime
    # scenarios (no Table-7 row) and factory-generated families stay out.
    names = [
        n for n, s in SCENARIOS.items() if not n.startswith("C") and not s.generated
    ]
    print(f"{'scen.':>6} {'WN++':>6} {'RPnoSA':>7} {'RP':>6}  gold-rank")
    for name in names:
        run = run_scenario(name, scale=args.scale)
        wn, nosa, rp = run.counts()
        gold = run.gold_position()
        print(f"{name:>6} {wn:>6} {nosa:>7} {rp:>6}  {f'({gold})' if gold else '-'}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import os

    from repro.fuzz import FuzzConfig, run_sweep, shrink_case
    from repro.fuzz.serialize import dump_case

    config = FuzzConfig(depth=args.depth, rows=args.rows, ops=args.ops)
    if args.mutations:
        from repro.fuzz.mutations import run_mutation_sweep

        print(
            f"mutation fuzzing: seed={args.seed} cases={args.cases} "
            f"steps={args.steps} depth={args.depth} rows={args.rows} ops={args.ops}"
        )
        result = run_mutation_sweep(
            args.seed,
            args.cases,
            config,
            steps=args.steps,
            questions=not args.no_questions,
        )
        for case, report in result.failures:
            print(f"\nDIVERGENT: {case.name}")
            for divergence in report.divergences:
                print(f"  {divergence.describe()}")
        print()
        print(result.summary())
        return 0 if result.ok else 1
    oracle_options = dict(partitions=args.partitions, grammar=args.text)
    print(
        f"fuzzing: seed={args.seed} cases={args.cases} depth={args.depth} "
        f"rows={args.rows} ops={args.ops} partitions={','.join(map(str, args.partitions))}"
        f"{' grammar=on' if args.text else ''}"
    )
    result = run_sweep(
        args.seed,
        args.cases,
        config,
        questions=not args.no_questions,
        **oracle_options,
    )
    for case, report in result.failures:
        print(f"\nDIVERGENT: {case.name}")
        for divergence in report.divergences:
            print(f"  {divergence.describe()}")
        if not args.no_shrink:
            shrunk = shrink_case(case, **oracle_options)
            tables = sum(len(s.rows) for s in shrunk.db_spec.tables.values())
            print(
                f"  shrunk to {len(shrunk.query.ops)} operators, {tables} rows"
                f"{'' if shrunk.nip is None else ', with why-not question'}"
            )
            case = shrunk
        if args.corpus_dir:
            os.makedirs(args.corpus_dir, exist_ok=True)
            path = os.path.join(args.corpus_dir, f"{case.name}.json")
            found_by = (
                f"python -m repro fuzz --seed {args.seed} --cases {args.cases} "
                f"--depth {args.depth} --rows {args.rows} --ops {args.ops} "
                f"--partitions {','.join(map(str, args.partitions))}"
                + (" --text" if args.text else "")
            )
            dump_case(
                case,
                path,
                description=(
                    "divergent case, unshrunk (verify before pinning)"
                    if args.no_shrink
                    else "shrunken divergent case (verify before pinning)"
                ),
                found_by=found_by,
            )
            print(f"  corpus file written: {path}")
            if args.text and any(
                d.kind == "grammar" for d in report.divergences
            ):
                from repro.lang import PrettyError, pretty_program

                rq_path = os.path.join(args.corpus_dir, f"{case.name}.rq")
                try:
                    text = pretty_program(
                        case.query, nip=case.nip, name=case.name
                    )
                except PrettyError as exc:
                    print(f"  (.rq corpus skipped: {exc})")
                else:
                    with open(rq_path, "w", encoding="utf-8") as fh:
                        fh.write(f"-- {found_by}\n{text}")
                    print(f"  corpus file written: {rq_path}")
    print()
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_repl(args: argparse.Namespace) -> int:
    from repro.lang.repl import run_repl

    return run_repl(scenario=args.scenario, scale=args.scale)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.http import make_server, serve

    if args.processes is not None:
        from repro.api.sharded import ShardedConfig, make_sharded_server

        config = ShardedConfig(
            processes=args.processes,
            queue_depth=args.queue_depth,
            cache_size=args.cache_size,
        )
        server = make_sharded_server(config, args.host, args.port, quiet=args.quiet)
        return serve(
            server,
            f" [{config.processes} worker processes, queue depth {config.queue_depth}]",
        )
    from repro.api import ExplanationService

    service = ExplanationService(cache_size=args.cache_size)
    return serve(make_server(service, args.host, args.port, quiet=args.quiet))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Why-not explanations over nested data"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered scenarios")

    run_parser = sub.add_parser("run", help="run one scenario or .rq program")
    run_parser.add_argument(
        "scenario", nargs="?", default=None, help="scenario name, e.g. Q10"
    )
    run_parser.add_argument("--scale", type=int, default=None)
    run_parser.add_argument(
        "--show-plan",
        action="store_true",
        help="print the original vs optimized plan with rule annotations",
    )
    run_parser.add_argument(
        "--query-file",
        default=None,
        help="execute a textual .rq program (docs/LANGUAGE.md) instead of a "
        "registered scenario query",
    )
    run_parser.add_argument(
        "--db",
        default=None,
        help="scenario whose database the .rq program runs against "
        "(default: the scenario matching the program's name)",
    )
    run_parser.add_argument(
        "--summarize",
        action="store_true",
        help="roll the RP explanations up into ontology-aware summary groups "
        "(repro.whynot.summarize)",
    )
    run_parser.add_argument(
        "--hierarchy",
        default=None,
        help="concept-hierarchy wire document (JSON file) for --summarize",
    )
    run_parser.add_argument(
        "--max-summaries",
        type=_positive_int,
        default=8,
        help="summary group budget for --summarize (default 8)",
    )

    gen_parser = sub.add_parser(
        "generate",
        help="generate a scale-factor factory database (docs/SCENARIOS.md)",
    )
    gen_parser.add_argument(
        "family",
        choices=("tpch", "social"),
        help="generator family: nested TPC-H shapes or the twitter shape",
    )
    gen_parser.add_argument(
        "--sf", type=_positive_int, default=1, help="scale factor (default 1)"
    )
    gen_parser.add_argument(
        "--seed", type=int, default=None, help="generator seed (default: per-family)"
    )
    gen_parser.add_argument(
        "--out", default=None, help="output file (default: stdout)"
    )

    repl_parser = sub.add_parser(
        "repl", help="interactive .rq query REPL (docs/LANGUAGE.md)"
    )
    repl_parser.add_argument(
        "--scenario",
        default=None,
        help="load this scenario's database on startup (like \\use)",
    )
    repl_parser.add_argument(
        "--scale", type=_positive_int, default=None, help="database scale for --scenario"
    )

    t7 = sub.add_parser("table7", help="regenerate the Table-7 summary")
    t7.add_argument("--scale", type=int, default=40)

    fuzz = sub.add_parser(
        "fuzz", help="run the seeded differential fuzz sweep (docs/FUZZING.md)"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    fuzz.add_argument(
        "--cases", type=_positive_int, default=100, help="number of cases (default 100)"
    )
    fuzz.add_argument(
        "--depth", type=_positive_int, default=2, help="max schema nesting depth"
    )
    fuzz.add_argument(
        "--rows", type=_positive_int, default=8, help="max rows per generated table"
    )
    fuzz.add_argument(
        "--ops", type=_positive_int, default=6, help="max operators per generated plan"
    )
    fuzz.add_argument(
        "--partitions",
        type=_partition_list,
        default=(1, 3, 7),
        help="comma-separated partition counts to cross-check (default 1,3,7; "
        "--mutations ignores it)",
    )
    fuzz.add_argument(
        "--no-questions",
        action="store_true",
        help="skip why-not question derivation and the explanation differential",
    )
    fuzz.add_argument(
        "--text",
        action="store_true",
        help="also check the grammar round-trip oracle: pretty-print each "
        "plan+question to .rq text, reparse, require identical evaluation",
    )
    fuzz.add_argument(
        "--mutations",
        action="store_true",
        help="fuzz mutation sequences instead: a service that applies each "
        "write with mutate_database must answer query and explain like a "
        "fresh computation at every database version (docs/MUTATIONS.md)",
    )
    fuzz.add_argument(
        "--mutation-steps",
        dest="steps",
        type=_positive_int,
        default=3,
        help="mutations applied per case in --mutations mode (default 3)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergent cases without shrinking them",
    )
    fuzz.add_argument(
        "--corpus-dir",
        default=None,
        help="write shrunken divergent cases as JSON into this directory",
    )

    serve_parser = sub.add_parser(
        "serve", help="run the HTTP explanation service (docs/API.md)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port; 0 binds an ephemeral free port (default 8080)",
    )
    serve_parser.add_argument(
        "--cache-size",
        type=_positive_int,
        default=128,
        help="LRU result-cache capacity (per worker when sharded, default 128)",
    )
    serve_parser.add_argument(
        "--processes",
        type=_positive_int,
        default=None,
        help="boot the sharded multi-process front end with N worker "
        "processes (docs/SERVING.md); default: single-process server",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=16,
        help="per-worker in-flight bound before 503 backpressure "
        "(sharded mode only, default 16)",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "repl":
        return _cmd_repl(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "table7":
        return _cmd_table7(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
