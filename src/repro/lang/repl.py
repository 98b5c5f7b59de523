"""Interactive REPL for the ``.rq`` query language (``python -m repro repl``).

Reads programs line by line (input buffers until every ``{``/``(``/``[`` is
balanced, so multi-line queries paste naturally), runs them against the
currently loaded scenario database and prints result rows — or, when the
program carries a ``whynot`` block, the ranked explanation label sets.

Backslash commands::

    \\help            this summary
    \\scenarios       list the registered paper scenarios
    \\use NAME [N]    load scenario NAME's database (at scale N)
    \\schema          show the table schemas of the loaded database
    \\explain         re-run the why-not explanation of the last program
    \\summarize [FILE] [N]  roll the last explanations up into summary
                     groups (:mod:`repro.whynot.summarize`) — FILE is an
                     optional ``hierarchy`` wire document, N the group budget
    \\quit            exit (EOF / Ctrl-D also works)

Parse and lowering errors print their caret diagnostics and the input
buffer resets, so a typo never wedges the session.  When stdin is not a TTY
(scripted transcripts, ``tests/lang/test_repl.py``) every line read is
echoed after its prompt, which makes pinned transcripts self-contained.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.lang.errors import LangError
from repro.lang.lower import LoweredProgram
from repro.lang.parser import parse_program
from repro.lang.lexer import tokenize

#: Prompt for a fresh statement and for continuation lines.
PROMPT = "rq> "
CONTINUATION = "...> "
#: Result rows printed before eliding the remainder.
MAX_ROWS = 20


class Repl:
    """One interactive session: a current database plus the last program."""

    def __init__(self, scenario: Optional[str] = None, scale: Optional[int] = None):
        self.db = None
        self.db_name: Optional[str] = None
        self.last: Optional[LoweredProgram] = None
        #: Full result of the last explanation run (feeds ``\summarize``).
        self.last_result = None
        self._buffer: list = []
        if scenario is not None:
            self._cmd_use([scenario] if scale is None else [scenario, str(scale)])

    # -- I/O ------------------------------------------------------------------

    def run(self) -> int:
        """The blocking read-eval-print loop (the ``repl`` subcommand)."""
        try:  # line editing when available; immaterial for piped stdin
            import readline  # noqa: F401
        except ImportError:  # pragma: no cover - platform-dependent
            pass
        try:
            return self._loop()
        except BrokenPipeError:  # stdout gone (e.g. piped into head) — quit
            try:
                sys.stdout.close()
            except BrokenPipeError:
                pass
            return 0

    def _loop(self) -> int:
        print("repro why-not REPL — nested algebra over SIGMOD'21 scenarios.")
        print("Type \\help for commands; queries run once braces balance.")
        echo = not sys.stdin.isatty()
        while True:
            prompt = CONTINUATION if self._buffer else PROMPT
            try:
                line = input(prompt)
            except EOFError:
                print("bye")
                return 0
            if echo:
                print(line)
            try:
                if not self.feed(line):
                    print("bye")
                    return 0
            except LangError as exc:
                print(exc.render())
                self._buffer = []
            except Exception as exc:  # noqa: BLE001 - REPL must not die
                print(f"error: {type(exc).__name__}: {exc}")
                self._buffer = []

    def feed(self, line: str) -> bool:
        """Process one input line; False means the session should end."""
        stripped = line.strip()
        if not self._buffer and not stripped:
            return True
        if not self._buffer and stripped.startswith("\\"):
            return self.command(stripped)
        self._buffer.append(line)
        text = "\n".join(self._buffer)
        if self._balanced(text):
            self._buffer = []
            self.execute(text)
        return True

    @staticmethod
    def _balanced(text: str) -> bool:
        """True when every bracket in *text* is closed (lexes it to check)."""
        try:
            tokens = tokenize(text)
        except LangError:
            return True  # let the parser report the real diagnostic
        depth = 0
        for token in tokens:
            if token.kind in ("{", "(", "["):
                depth += 1
            elif token.kind in ("}", ")", "]"):
                depth -= 1
        return depth <= 0

    # -- commands -------------------------------------------------------------

    def command(self, line: str) -> bool:
        """Dispatch one ``\\command`` line; False ends the session."""
        parts = line[1:].split()
        name, args = (parts[0] if parts else ""), parts[1:]
        if name in ("quit", "q", "exit"):
            return False
        handlers = {
            "help": self._cmd_help,
            "scenarios": self._cmd_scenarios,
            "use": self._cmd_use,
            "schema": self._cmd_schema,
            "explain": self._cmd_explain,
            "summarize": self._cmd_summarize,
        }
        handler = handlers.get(name)
        if handler is None:
            print(f"unknown command \\{name} — try \\help")
        else:
            handler(args)
        return True

    def _cmd_help(self, args=()) -> None:
        print("commands:")
        print("  \\scenarios       list registered scenarios")
        print("  \\use NAME [N]    load scenario NAME's database at scale N")
        print("  \\schema          show the loaded database's table schemas")
        print("  \\explain         re-run the last program's whynot question")
        print("  \\summarize [FILE] [N]  group the last explanations (FILE:")
        print("                   hierarchy JSON, N: summary budget)")
        print("  \\quit            exit")
        print("anything else is parsed as an .rq program (docs/LANGUAGE.md).")

    def _cmd_scenarios(self, args=()) -> None:
        from repro.scenarios import SCENARIOS

        width = max(len(name) for name in SCENARIOS)
        for name, scenario in SCENARIOS.items():
            print(f"  {name:<{width}}  {scenario.description}")

    def _cmd_use(self, args) -> None:
        from repro.scenarios import get_scenario

        if not args:
            print("usage: \\use NAME [SCALE]")
            return
        try:
            scenario = get_scenario(args[0])
        except KeyError:
            print(f"unknown scenario {args[0]!r} — try \\scenarios")
            return
        try:
            scale = int(args[1]) if len(args) > 1 else scenario.default_scale
        except ValueError:
            print(f"scale must be an integer, got {args[1]!r}")
            return
        self.db = scenario.make_db(scale)
        self.db_name = scenario.name
        tables = ", ".join(
            f"{name} ({self.db.size(name)} rows)" for name in self.db.tables()
        )
        print(f"database {scenario.name} (scale {scale}): {tables}")

    def _cmd_schema(self, args=()) -> None:
        if self.db is None:
            print("no database loaded — \\use a scenario first")
            return
        for name in self.db.tables():
            print(f"  {name}: {self.db.schema(name)}")

    def _cmd_explain(self, args=()) -> None:
        if self.last is None or not self.last.has_question:
            print("nothing to explain — run a program with a whynot block first")
            return
        self._explain(self.last)

    def _cmd_summarize(self, args=()) -> None:
        import json

        from repro.whynot.summarize import (
            ConceptHierarchy,
            HierarchyError,
            attach_summaries,
        )

        if self.last_result is None:
            print("nothing to summarize — run a whynot question first")
            return
        hierarchy = None
        max_summaries = 8
        for arg in args:
            if arg.isdigit():
                max_summaries = int(arg)
                continue
            try:
                with open(arg, encoding="utf-8") as fh:
                    hierarchy = ConceptHierarchy.from_json(json.load(fh))
            except (OSError, ValueError, HierarchyError) as exc:
                print(f"cannot load hierarchy {arg!r}: {exc}")
                return
        if max_summaries < 1:
            print("the summary budget must be at least 1")
            return
        summaries = attach_summaries(
            self.last_result, hierarchy, max_summaries=max_summaries
        )
        total = sum(s.count for s in summaries)
        print(f"-- summaries: {len(summaries)} group(s) covering {total} explanation(s)")
        for s in summaries:
            print(f"   {s.describe()}")
        if not summaries:
            print("   (no explanations to summarize)")

    # -- program execution ----------------------------------------------------

    def execute(self, text: str) -> None:
        """Parse, lower and run one complete input.

        Besides full programs, two continuation forms attach to the last
        query — ``whynot {…}`` asks a question of it, and a further
        ``with alternatives {…}`` refines that question — so pasting a
        ``.rq`` file block by block works naturally.
        """
        if self.db is None:
            print("no database loaded — \\use a scenario first (\\scenarios lists them)")
            return
        tokens = tokenize(text)
        first = tokens[0]
        if first.kind == "kw" and first.value in ("whynot", "with"):
            self._continuation(first.value, text)
            return
        program = parse_program(text)
        from repro.lang.lower import lower_program

        lowered = lower_program(program, database=self.db, source=text)
        self.last = lowered
        if lowered.has_question:
            self._explain(lowered)
        else:
            self._print_result(lowered)

    def _continuation(self, kind: str, text: str) -> None:
        """Attach a ``whynot`` / ``with alternatives`` block to the last query."""
        from repro.lang.lower import lower_alternatives
        from repro.lang.parser import parse_alternatives, parse_question

        if self.last is None:
            print(f"'{kind}' continues the previous query — run one first")
            return
        if kind == "whynot":
            nip, _, groups = parse_question(text)
            self.last = LoweredProgram(
                query=self.last.query,
                nip=nip,
                alternatives=lower_alternatives(groups),
                name=self.last.name,
            )
        else:
            if not self.last.has_question:
                print("'with alternatives' needs a whynot question — ask one first")
                return
            self.last = LoweredProgram(
                query=self.last.query,
                nip=self.last.nip,
                alternatives=lower_alternatives(parse_alternatives(text)),
                name=self.last.name,
            )
        self._explain(self.last)

    def _print_result(self, lowered: LoweredProgram) -> None:
        print_result(lowered, self.db)

    def _explain(self, lowered: LoweredProgram) -> None:
        self.last_result = print_explanation(lowered, self.db)


def print_result(lowered: LoweredProgram, db) -> None:
    """Evaluate the program's query and print its rows (REPL format).

    Shared by the REPL and ``python -m repro run --query-file`` so both
    surfaces render byte-identical listings.
    """
    from repro.lang.pretty import pattern_text

    result = lowered.query.evaluate(db)
    print(f"-- result: {len(result)} row(s)")
    for i, (row, count) in enumerate(result.items()):
        if i >= MAX_ROWS:
            print(f"   ... ({len(result) - MAX_ROWS} more)")
            break
        times = f" ×{count}" if count > 1 else ""
        print(f"   {pattern_text(row)}{times}")


def print_explanation(lowered: LoweredProgram, db):
    """Run the program's why-not question and print the ranked label sets.

    Returns the full :class:`~repro.whynot.explain.WhyNotResult` (``None``
    for an ill-posed question), which the REPL keeps as ``last_result`` so
    ``\\summarize`` can roll the explanations up afterwards.
    """
    from repro.whynot.explain import explain
    from repro.whynot.question import IllPosedQuestion, WhyNotQuestion

    question = WhyNotQuestion(lowered.query, db, lowered.nip, name=lowered.name)
    try:
        result = explain(question, alternatives=lowered.alternatives)
    except IllPosedQuestion as exc:
        print(f"ill-posed question: {exc}")
        return None
    print(
        f"-- explanations: {len(result.explanations)} "
        f"({result.n_sas} schema alternatives)"
    )
    for e in result.explanations:
        print(f"   {e.rank}. {{{', '.join(e.labels)}}}")
    if not result.explanations:
        print("   (none found)")
    return result


def run_repl(scenario: Optional[str] = None, scale: Optional[int] = None) -> int:
    """Entry point used by ``python -m repro repl``."""
    return Repl(scenario=scenario, scale=scale).run()
