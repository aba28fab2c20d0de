"""A one-shot imports what its subcommand runs (DESIGN "Start-up").

Each subcommand runs in a fresh interpreter that prints
``sorted(sys.modules)`` after ``repro.cli.main([...])``; the tables
below are the ones DESIGN documents.  The in-process half checks that
laziness changed no public name: every package root still exports what
it did, the analysis sets are the paper's in the paper's order, and
every import line the benchmark harness uses still works.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

_RUN_MAIN = """
import contextlib, io, json, sys
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = repro.cli.main(sys.argv[1:])
    except SystemExit as exc:   # argparse --help
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def fresh(script: str, *argv: str, env: dict = ENV) -> dict:
    """The JSON a fresh interpreter prints last after running ``script``."""
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by(*argv: str) -> set:
    out = fresh(_RUN_MAIN, *argv)
    assert out["code"] == 0
    return set(out["modules"])


def under(modules: set, prefix: str) -> set:
    return {m for m in modules if m == prefix or m.startswith(prefix + ".")}


#: what ``import repro.cli`` loads of ``repro.kernels``: the table of
#: spec names, never a kernel family
CATALOG = {"repro.kernels", "repro.kernels.catalog"}

SIMULATOR = {"repro.gpu.simulator", "repro.gpu.scheduler", "repro.gpu.batch",
             "repro.gpu.timed_trace", "repro.gpu.trace_cache", "repro.cache"}


class TestSubcommandsLoadWhatTheyRun:
    def test_bare_cli_is_argparse_and_errors(self):
        out = fresh("import repro.cli, sys, json; "
                    "print(json.dumps(sorted(sys.modules)))")
        ours = under(set(out), "repro")
        assert ours == {"repro", "repro._lazy", "repro.cli",
                        "repro.errors"} | CATALOG
        assert len(ours) <= 12
        assert "numpy" not in out

    @pytest.mark.parametrize("argv", [
        ["--help"], ["analyze", "--help"], ["list-kernels"],
        ["explain", "long_scoreboard"],
    ], ids=lambda a: "-".join(a))
    def test_no_numpy_no_gpu_without_an_analysis(self, argv):
        mods = loaded_by(*argv)
        assert "numpy" not in mods
        assert under(mods, "repro.gpu") <= {"repro.gpu", "repro.gpu.stalls"}
        assert not under(mods, "repro.core")
        assert under(mods, "repro.kernels") == CATALOG

    def test_dry_run_loads_no_simulator(self, tmp_path):
        sass = tmp_path / "k.sass"
        sass.write_text(
            "        /*0000*/ MOV R1, c[0x0][0x28] ;\n"
            "        /*0010*/ EXIT ;\n")
        for argv in (
            ["analyze", "--kernel", "sgemm:shared", "--size", "96",
             "--dry-run", "--json", "-"],
            ["analyze", "--sass", str(sass), "--dry-run"],
        ):
            mods = loaded_by(*argv)
            assert not mods & SIMULATOR, argv
            assert not under(mods, "repro.serve")
            assert not mods & {"repro.core.html_report", "repro.core.compare"}
        # raw SASS needs no compiler and no kernel family either
        assert not under(mods, "repro.cudalite")
        assert under(mods, "repro.kernels") == CATALOG

    def test_full_analyze_loads_one_family_and_one_report_format(self):
        mods = loaded_by("analyze", "--kernel", "heat:naive", "--size", "96",
                         "--json", "-")
        assert SIMULATOR <= mods
        assert under(mods, "repro.kernels") == CATALOG | {
            "repro.kernels.heat"}
        assert not mods & {
            "repro.core.coalescing", "repro.core.divergence",
            "repro.core.html_report", "repro.core.compare",
            "repro.core.reproducer", "repro.gpu.session", "repro.gpu.trace",
            "repro.testing.reference",
        }
        assert not under(mods, "repro.serve")
        # DESIGN records 314 before the lazy roots, 295 with them,
        # 296 with ``repro.cache`` and 297 with ``repro.kernels.catalog``
        assert len(mods) <= 300

    def test_extended_loads_the_two_extensions(self):
        mods = loaded_by("analyze", "--kernel", "heat:naive", "--size", "96",
                         "--dry-run", "--extended", "--json", "-")
        assert {"repro.core.coalescing", "repro.core.divergence"} <= mods


#: ``__all__`` of every PEP 562 root, as at PR 21 (minus ``repro.gpu``'s
#: two ``microbench`` names, deleted with the module; plus
#: ``repro.kernels.resolve_kernel``, the catalog's entry point)
ROOTS = {
    "repro": 10, "repro.core": 17, "repro.gpu": 11, "repro.obs": 21,
    "repro.sass": 23, "repro.cudalite": 17, "repro.kernels": 11,
    "repro.metrics": 6, "repro.sampling": 5, "repro.ptx": 6,
    "repro.testing": 4,
}

DEFAULT_ANALYSES = [
    "VectorizeLoadsAnalysis", "RegisterSpillingAnalysis",
    "SharedMemoryAnalysis", "SharedAtomicsAnalysis", "RestrictAnalysis",
    "TextureMemoryAnalysis", "DatatypeConversionsAnalysis",
]
EXTENSION_ANALYSES = ["UncoalescedAccessAnalysis",
                      "PredicationEfficiencyAnalysis"]

#: the import lines ROADMAP's standing rules promise the harness
HARNESS_NAMES = {
    "repro": ["GPUscout", "Simulator"],
    "repro.cli": ["resolve_kernel"],
    "repro.kernels": ["resolve_kernel"],
    "repro.core": ["GPUscout", "report_to_json"],
    "repro.gpu": ["GPUSpec", "Simulator"],
    "repro.gpu.trace_cache": ["trace_cache", "FileStore"],
    "repro.serve.cache": ["ReportCache", "StaticCache"],
    "repro.serve.pool": ["WorkerPool"],
    "repro.serve.protocol": ["AnalyzeRequest", "arch_spec",
                             "content_address", "strip_volatile"],
    "repro.serve.server": ["ScoutServer"],
    "repro.serve.service": ["KernelRunner"],
    "repro.metrics.names": ["METRIC_SETS"],
    "repro.sass.parser": ["parse_sass"],
}


class TestPublicNamesUnchanged:
    @pytest.mark.parametrize("root", sorted(ROOTS))
    def test_every_exported_name_resolves(self, root):
        module = importlib.import_module(root)
        assert len(module.__all__) == ROOTS[root]
        assert dir(module) == sorted(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is not None
            assert name in vars(module), "resolved names are cached"
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")

    def test_star_import_binds_all_of_core(self):
        namespace = {}
        exec("from repro.core import *", namespace)
        import repro.core

        assert len(repro.core.__all__) == 17
        assert set(repro.core.__all__) <= set(namespace)

    def test_submodule_from_import_still_works(self):
        from repro.cudalite import ast
        from repro.gpu import stalls

        assert ast.__name__ == "repro.cudalite.ast"
        assert stalls.__name__ == "repro.gpu.stalls"

    @pytest.mark.parametrize("module", sorted(HARNESS_NAMES))
    def test_harness_import_lines(self, module):
        namespace = {}
        exec(f"from {module} import {', '.join(HARNESS_NAMES[module])}",
             namespace)
        assert set(HARNESS_NAMES[module]) <= set(namespace)

    def test_analysis_sets_are_the_papers_in_the_papers_order(self):
        from repro.core import (
            all_analyses,
            default_analyses,
            extension_analyses,
        )

        names = [type(a).__name__ for a in default_analyses()]
        assert names == DEFAULT_ANALYSES
        assert [type(a).__name__ for a in extension_analyses()] == \
            EXTENSION_ANALYSES
        assert [type(a).__name__ for a in all_analyses()] == \
            DEFAULT_ANALYSES + EXTENSION_ANALYSES

    def test_order_survives_a_detector_imported_first(self):
        out = fresh(
            "import json\n"
            "import repro.core.divergence, repro.core.texture\n"
            "from repro.core import all_analyses\n"
            "print(json.dumps([type(a).__name__ for a in all_analyses()]))")
        assert out == DEFAULT_ANALYSES + EXTENSION_ANALYSES


_ARMED = """
import json, sys
import repro.cli
first, second = sys.argv[1:]
__import__(first); __import__(second)
from repro.obs.metrics import armed
print(json.dumps(armed()))
"""


class TestMetricsArmingIsNotAnImportSideEffect:
    @pytest.mark.parametrize("value, want", [("1", True), ("0", False),
                                              (None, False)])
    def test_same_answer_in_either_import_order(self, value, want):
        env = {k: v for k, v in ENV.items() if k != "REPRO_METRICS"}
        if value is not None:
            env["REPRO_METRICS"] = value
        order = ["repro.obs.metrics", "repro.core.engine"]
        assert fresh(_ARMED, *order, env=env) is want
        assert fresh(_ARMED, *reversed(order), env=env) is want

    def test_variable_is_read_at_the_first_call_not_at_import(self):
        out = fresh(
            "import json, os\n"
            "os.environ.pop('REPRO_METRICS', None)\n"
            "import repro.obs.metrics as m\n"
            "os.environ['REPRO_METRICS'] = '1'\n"
            "first = m.armed()\n"
            "os.environ['REPRO_METRICS'] = '0'\n"
            "m.arm(True)\n"
            "print(json.dumps([first, m.armed()]))")
        assert out == [True, True]   # resolved once; '0' pins only arm()


_FORKED_WORKER = """
import json, sys
import repro.serve.pool as pool

class Runner(pool.KernelRunner):
    def __init__(self, *args, **kwargs):
        self.at_start = set(sys.modules)
        super().__init__(*args, **kwargs)

    def run(self, payload):
        env = super().run(payload)
        return {"ok": env["ok"], "at_start": sorted(self.at_start),
                "imported": sorted(set(sys.modules) - self.at_start)}

pool.KernelRunner = Runner
with pool.WorkerPool(1) as workers:
    print(json.dumps(workers.submit(
        {"kernel": "heat:naive", "size": 96, "max_blocks": 2})))
"""


def test_forked_worker_inherits_the_engine_and_simulator():
    """``gpuscout serve`` imports eagerly before it forks: a worker's
    first request loads its kernel family and nothing else of ours."""
    env = fresh(_FORKED_WORKER)
    assert env["ok"]
    assert {"repro.gpu.simulator", "repro.core.engine",
            "repro.core.vectorize"} <= set(env["at_start"])
    ours = under(set(env["imported"]), "repro")
    assert ours <= {"repro.kernels.heat"}, ours
