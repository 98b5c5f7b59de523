"""Documentation health: required pages exist, intra-repo links resolve,
the commands the README documents reference real entry points, the public
API meets the docstring-coverage gate, and the plan renderings quoted in
``docs/OPTIMIZER.md`` match the pretty-printer's output verbatim."""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docstrings import check_all as check_docstrings  # noqa: E402
from check_links import check_all, doc_files  # noqa: E402


def test_required_docs_exist():
    for name in (
        "README.md",
        "docs/API.md",
        "docs/ARCHITECTURE.md",
        "docs/BENCHMARKS.md",
        "docs/LANGUAGE.md",
        "docs/OPTIMIZER.md",
    ):
        assert (REPO_ROOT / name).exists(), f"missing documentation page {name}"


def test_no_broken_intra_repo_links():
    assert check_all() == []


def test_docs_cover_readme_and_docs_dir():
    names = {str(p.relative_to(REPO_ROOT)) for p in doc_files()}
    assert "README.md" in names
    assert "docs/ARCHITECTURE.md" in names and "docs/BENCHMARKS.md" in names


def test_readme_documents_backend_flags():
    """One backend: the README names ``serve --processes`` as the way to
    use several cores and documents no retired backend knob."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert "serve --processes N" in readme
    for retired in ("--backend", "--workers", "REPRO_BACKEND", "REPRO_WORKERS"):
        assert retired not in readme, f"README still documents {retired}"


def test_readme_file_references_exist():
    """Every `path`-style reference to tracked files/dirs must resolve."""
    readme = (REPO_ROOT / "README.md").read_text()
    for ref in re.findall(r"`((?:src|docs|examples|benchmarks|tests)/[\w./]*)`", readme):
        assert (REPO_ROOT / ref).exists(), f"README references missing path {ref}"


def test_readme_documents_optimizer_flags():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "--optimize" in readme and "--show-plan" in readme
    assert "REPRO_OPTIMIZE" in readme
    assert "docs/OPTIMIZER.md" in readme


def test_optimizer_doc_linked_from_architecture_and_benchmarks():
    assert "OPTIMIZER.md" in (REPO_ROOT / "docs/ARCHITECTURE.md").read_text()
    assert "OPTIMIZER.md" in (REPO_ROOT / "docs/BENCHMARKS.md").read_text()
    optimizer_doc = (REPO_ROOT / "docs/OPTIMIZER.md").read_text()
    for rule in (
        "fuse-selections",
        "pushdown-projection",
        "pushdown-rename",
        "pushdown-join",
        "pushdown-nesting",
        "reorder-join",
        "prune-columns",
    ):
        assert rule in optimizer_doc, f"rule {rule} missing from the catalog"


def test_quickstart_docstring_is_verbatim_runnable():
    """The package docstring's quickstart blocks must execute as written
    (they drift silently as the API evolves otherwise)."""
    import textwrap

    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro

    blocks = re.findall(r"::\n\n((?:    .*\n|\n)+)", repro.__doc__)
    assert len(blocks) >= 2, "expected the library and service quickstart blocks"
    namespace = {}
    for block in blocks:
        exec(textwrap.dedent(block), namespace)  # noqa: S102 - doc under test
    assert namespace["result"].explanations, "quickstart found no explanations"
    assert namespace["response"].explanation_sets()


def test_api_doc_covers_wire_format_and_endpoints():
    api_doc = (REPO_ROOT / "docs/API.md").read_text()
    for needle in (
        "/v1/explain",
        "/v1/query",
        "/v1/scenarios",
        "/v1/health",
        "curl",
        "ExplanationService",
        "Client",
        '"format": 2',
        "Compatibility policy",
        "python -m repro serve",
    ):
        assert needle in api_doc, f"docs/API.md is missing {needle!r}"


def test_api_doc_linked_from_readme_and_architecture():
    assert "docs/API.md" in (REPO_ROOT / "README.md").read_text()
    assert "API.md" in (REPO_ROOT / "docs/ARCHITECTURE.md").read_text()


def test_readme_documents_serve():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "python -m repro serve" in readme


def test_public_api_docstring_coverage():
    """The docstring gate (also a CI docs-job step) must be clean."""
    assert check_docstrings() == []


def test_optimizer_doc_plan_renderings_are_verbatim():
    """The before/after plans quoted in docs/OPTIMIZER.md are regenerated
    here and compared verbatim against the pretty-printer's output."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.engine.optimizer import optimize_query
    from repro.scenarios import get_scenario

    optimizer_doc = (REPO_ROOT / "docs/OPTIMIZER.md").read_text()
    for name in ("Q3", "T2"):
        question = get_scenario(name).question(scale=60)
        rendered = optimize_query(question.query, question.db).describe()
        assert rendered in optimizer_doc, (
            f"docs/OPTIMIZER.md is stale for {name}: regenerate the fenced "
            "block with optimize_query(question.query, question.db).describe()"
        )


def test_language_doc_linked_from_readme_architecture_and_api():
    assert "docs/LANGUAGE.md" in (REPO_ROOT / "README.md").read_text()
    assert "LANGUAGE.md" in (REPO_ROOT / "docs/ARCHITECTURE.md").read_text()
    assert "LANGUAGE.md" in (REPO_ROOT / "docs/API.md").read_text()


def test_language_doc_covers_grammar_and_repl():
    language_doc = (REPO_ROOT / "docs/LANGUAGE.md").read_text()
    for needle in (
        "```ebnf",
        "whynot",
        "with alternatives",
        "\\scenarios",
        "python -m repro repl",
        "--query-file",
        "fuzz --text",
        "tools/gen_golden_queries.py",
    ):
        assert needle in language_doc, f"docs/LANGUAGE.md is missing {needle!r}"


def test_language_doc_rq_examples_compile_and_run():
    """Every ```rq block in docs/LANGUAGE.md must compile — and when it
    declares its database (``-- db: NAME``), evaluate — as written."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.lang import compile_program
    from repro.scenarios import get_scenario

    language_doc = (REPO_ROOT / "docs/LANGUAGE.md").read_text()
    blocks = re.findall(r"```rq\n(.*?)```", language_doc, flags=re.DOTALL)
    assert blocks, "docs/LANGUAGE.md has no ```rq example blocks"
    for block in blocks:
        header = block.splitlines()[0]
        database = None
        if header.startswith("-- db:"):
            scenario = get_scenario(header.split(":", 1)[1].strip())
            database = scenario.make_db(scenario.default_scale)
        lowered = compile_program(block, database=database)
        if database is not None:
            lowered.query.evaluate(database)


def test_language_doc_c3_walkthrough_matches_golden():
    """The worked example is the C3 golden file — it must not drift."""
    language_doc = (REPO_ROOT / "docs/LANGUAGE.md").read_text()
    golden = (REPO_ROOT / "queries" / "C3.rq").read_text()
    body = golden.split("\n\n", 1)[1].strip()  # drop the header comment
    assert body in language_doc, (
        "the C3 walkthrough in docs/LANGUAGE.md no longer matches "
        "queries/C3.rq — update the doc after regenerating goldens"
    )
