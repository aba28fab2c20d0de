"""The settable surface is a closed list: a new environment variable or
an engine/timing-model flag has to be added here on purpose.

Which engine executes a launch and how it is timed are things the code
observes (``batchable()`` / ``timed_batchable()`` on the decoded
program, the degradation ladder on a failure) — never something a
caller, a CLI flag or the environment sets.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser

REPO = pathlib.Path(__file__).resolve().parent.parent

ENV_VARS = {
    "REPRO_TRACE_CACHE", "REPRO_TRACE_CACHE_DIR", "REPRO_TRACE_CACHE_MB",
    "REPRO_METRICS", "REPRO_LOG", "REPRO_LOG_LEVEL",
}


def test_env_vars_read_by_src_are_exactly_the_documented_set():
    found = set()
    for path in (REPO / "src").rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert found == ENV_VARS
    readme = (REPO / "README.md").read_text()
    undocumented = {v for v in ENV_VARS if f"`{v}`" not in readme}
    assert not undocumented


@pytest.mark.parametrize("command", ["analyze", "serve"])
@pytest.mark.parametrize("flag", ["--fast", "--latency-table"])
def test_no_engine_or_timing_model_flag(command, flag, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as helped:
        parser.parse_args([command, "--help"])
    assert helped.value.code == 0
    assert flag not in capsys.readouterr().out
    argv = [command, flag]
    if command == "analyze":
        argv += ["--kernel", "sgemm:naive"]
    with pytest.raises(SystemExit) as rejected:
        parser.parse_args(argv)
    assert rejected.value.code == 2


def test_simulator_takes_a_spec_and_nothing_else():
    import inspect

    from repro.gpu import Simulator

    assert list(inspect.signature(Simulator.__init__).parameters) == \
        ["self", "spec"]


def test_the_ladder_has_two_launching_rungs():
    from repro.core.engine import LADDER

    assert {rung for rung, _ in LADDER} == {"timed-trace",
                                            "functional-only"}


def test_one_file_holds_an_lru_and_the_cache_counters():
    """Every cache is a ``repro.cache.TieredCache`` instance: nothing
    else under ``src/repro`` evicts by hand or declares a cache series."""
    src = REPO / "src" / "repro"
    for needle in ("OrderedDict", "popitem", "gpuscout_cache_hits_total",
                   "class FileStore"):
        holders = {str(path.relative_to(src)) for path in src.rglob("*.py")
                   if needle in path.read_text()}
        assert holders == {"cache.py"}, needle


def test_the_serve_tiers_import_nothing_from_the_simulator():
    text = (REPO / "src" / "repro" / "serve" / "cache.py").read_text()
    assert "repro.gpu" not in text
    assert re.findall(r"^(?:from|import) (repro[\w.]*)", text, re.M) == \
        ["repro.cache"]


def test_nothing_below_the_cli_imports_it():
    """The kernel catalog lives in ``repro.kernels`` and the exit codes
    in ``repro.errors``: the serving layer and the core reach down for
    them, never up into the argparse module."""
    src = REPO / "src" / "repro"
    importers = {
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if re.search(r"from repro\.cli import|import repro\.cli",
                     path.read_text())
    }
    assert importers <= {"cli.py"}
    for path in (src / "serve").glob("*.py"):
        assert "SystemExit" not in path.read_text(), path.name


def test_the_oracle_stays_out_of_the_product():
    src = REPO / "src" / "repro"
    mentions = {
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if "ReferenceSimulator" in path.read_text()
        and path.parent != src / "testing"
    }
    assert not mentions
    # a fresh interpreter: other tests in this process import the oracle
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import importlib, sys; importlib.import_module('repro.cli'); "
         "print('repro.testing.reference' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "False"


def _calls(name: str, keyword: str = ""):
    """Files under ``src/repro`` whose code calls ``name(...)`` (with
    ``keyword=`` when given); docstrings and comments do not count."""
    import ast

    src = REPO / "src" / "repro"
    holders = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if called == name and (not keyword or any(
                    kw.arg == keyword for kw in node.keywords)):
                holders.add(str(path.relative_to(src)))
    return holders


def test_one_request_to_report_path():
    """``analyze``, ``compare``, ``overlay --sampled`` and the service
    build an ``AnalyzeRequest`` and run it through
    ``repro.core.request``: the analyzer, a deadline's budget and the
    arch config are made there, not per surface."""
    assert _calls("GPUscout") == {"core/request.py"}
    assert _calls("SimBudget", "max_wall_seconds") == {
        "core/request.py", "core/validate.py"}
    cli = (REPO / "src" / "repro" / "cli.py").read_text()
    assert "GPUSpec" not in cli
