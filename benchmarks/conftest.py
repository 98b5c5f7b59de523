"""Benchmark configuration: make the harness importable and keep test runs
from rewriting tracked result files.

``harness.write_result``/``write_json`` write to a per-session temporary
directory unless pytest is given ``--bench-results DIR``; baselines are
still read from ``benchmarks/results/``.  Regenerate the tracked files with::

    PYTHONPATH=src python -m pytest benchmarks -q --bench-results benchmarks/results
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--bench-results",
        metavar="DIR",
        default=None,
        help="write benchmark result files to DIR (default: a session "
        "temporary directory, leaving benchmarks/results/ untouched)",
    )


@pytest.fixture(scope="session", autouse=True)
def bench_output_dir(request, tmp_path_factory):
    """Point the harness's result writers at the session's output directory."""
    chosen = request.config.getoption("--bench-results", default=None)
    target = Path(chosen) if chosen else tmp_path_factory.mktemp("bench-results")
    previous = harness.OUTPUT_DIR
    harness.OUTPUT_DIR = target
    yield target
    harness.OUTPUT_DIR = previous
