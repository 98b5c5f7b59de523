"""Self-test of the benchmark: manifest contract, metric names and smoke runs.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` meets the benchmark contract and agrees with
``run.py``, that a smoke-sized pass of every workload (untraced and traced)
prints every metric with its unit and has zero failed ops, that a run leaves
``git status`` unchanged, and that the benchmark refuses to run from a
directory holding only the manifest and ``perfbench/``.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
SMOKE_SECONDS = "2"


def check_manifest(manifest: dict) -> "list[str]":
    """Every way *manifest* breaks the benchmark contract (empty: valid)."""
    problems = []

    def need(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    need(MANIFEST.stat().st_size <= 64 * 1024, "manifest exceeds 64 KiB")
    need(set(manifest) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}, f"keys {sorted(manifest)}")
    paths = manifest.get("paths", [])
    need(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1 to 16 entries")
    for path in paths:
        need(isinstance(path, str) and PATH.fullmatch(path) is not None
             and not path.startswith("/") and ".." not in path.split("/"),
             f"path {path!r}")
        need((ROOT / path).is_dir(), f"path {path!r} is not a directory")
        for file in (ROOT / path).rglob("*"):
            if "out" in file.relative_to(ROOT / path).parts[:1]:
                continue  # run outputs, ignored by git
            need(not file.is_symlink(), f"{file} is a link")
    command = manifest.get("command", [])
    need(isinstance(command, list) and 1 <= len(command) <= 32, "command: 1 to 32 strings")
    for arg in command:
        need(isinstance(arg, str) and len(arg) <= 200, f"command arg {arg!r}")
        need(not arg.startswith("/") and ".." not in arg.split("/"),
             f"command arg {arg!r} leaves the repository")
        if "/" in arg:
            need(any(arg.startswith(p.rstrip("/") + "/") for p in paths),
                 f"command names {arg!r} outside paths")
    seconds = manifest.get("run_seconds")
    need(isinstance(seconds, int) and not isinstance(seconds, bool)
         and 1 <= seconds <= 60, "run_seconds: whole number 1..60")

    names: "list[str]" = []
    workloads = manifest.get("workloads", [])
    need(2 <= len(workloads) <= 8, "workloads: 2 to 8")
    for workload in workloads:
        need(set(workload) == {"name", "why"}, f"workload keys {sorted(workload)}")
        why = workload.get("why", "")
        need(isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
             f"why of {workload.get('name')!r}")
        names.append(workload.get("name", ""))
    end_to_end = manifest.get("end_to_end", [])
    need(1 <= len(end_to_end) <= 16, "end_to_end: 1 to 16")
    for metric in end_to_end:
        need(set(metric) == {"name", "unit", "better", "bound"},
             f"end_to_end keys {sorted(metric)}")
        bound = metric.get("bound")
        need(isinstance(bound, (int, float)) and 0 < bound <= 0.25,
             f"bound of {metric.get('name')!r}")
    setup = [m for m in end_to_end if m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0].get("unit") == "s"
         and setup[0].get("better") == "lower", "setup_s: unit s, better lower")
    if setup:
        need(all(setup[0]["bound"] >= m["bound"] for m in end_to_end),
             "setup_s must have the largest bound")
    per_layer = manifest.get("per_layer", [])
    need(1 <= len(per_layer) <= 128, "per_layer: 1 to 128")
    for metric in per_layer:
        need(set(metric) == {"name", "unit", "better"}, f"per_layer keys {sorted(metric)}")
    for metric in end_to_end + per_layer:
        need(metric.get("better") in ("higher", "lower"), f"better of {metric.get('name')!r}")
        need(isinstance(metric.get("unit"), str) and UNIT.fullmatch(metric["unit"]) is not None,
             f"unit of {metric.get('name')!r}")
        names.append(metric.get("name", ""))
    for name in names:
        need(isinstance(name, str) and NAME.fullmatch(name) is not None, f"name {name!r}")
    need(len(names) == len(set(names)), "a name is used twice")

    # The manifest and the command agree on workloads, metrics and units.
    import workloads as workload_module

    need({w["name"] for w in workloads} <= set(workload_module.WORKLOADS),
         "a listed workload is missing from workloads.WORKLOADS")
    need({m["name"]: m["unit"] for m in end_to_end} == run.END_TO_END,
         "end_to_end differs from run.END_TO_END")
    need({m["name"]: m["unit"] for m in per_layer} == run.PER_LAYER,
         "per_layer differs from run.PER_LAYER")
    return problems


def git_status() -> "str | None":
    try:
        done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout
    return done.stdout


def run_benchmark(cwd: Path, workload: str, trace: int) -> "tuple[int, list[str], str]":
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def check_result(lines: "list[str]", units: dict) -> "list[str]":
    """Every way a run's last stdout line breaks the output contract."""
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} missing or extra")
    for name, metric in metrics.items():
        value = metric.get("value")
        if metric.get("unit") != units.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    for name in run.END_TO_END if units is run.END_TO_END else ():
        if metrics.get(name, {}).get("value", 0) <= 0:
            problems.append(f"{name} reads 0")
    return problems


def main() -> int:
    failures: "list[str]" = []
    with open(MANIFEST, encoding="utf-8") as manifest_file:
        manifest = json.load(manifest_file)
    sys.path.insert(0, str(ROOT / "src"))
    failures += [f"manifest: {p}" for p in check_manifest(manifest)]

    from workloads import WORKLOADS

    before = git_status()
    for workload in WORKLOADS:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, lines, stderr = run_benchmark(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                failures.append(f"{label}: exit {code}\n{stderr[-2000:]}")
                continue
            failures += [f"{label}: {p}" for p in check_result(lines, units)]
            print(f"ok  {label}: {lines[-1][:100]}...")
    after = git_status()
    if before is None:
        print("skip git status check: not a git checkout")
    elif before != after:
        failures.append(f"git status changed:\n{before}---\n{after}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(MANIFEST, bare / "BENCHMARK.json")
    code, lines, _ = run_benchmark(bare, manifest["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        failures.append(f"bare directory: exit {code}, printed {lines[-1:]}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
