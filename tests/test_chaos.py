"""Deterministic chaos suite: inject a fault at every registered
fail-point and assert the engine still produces a well-formed partial
report — findings from the surviving stages, at least one diagnostic
naming the failure, valid schema-v3 JSON, and renderable text/HTML.

Scenario notes: the fail-points live on different execution paths, so
each one pins how the engine reaches it: ``dry_run`` reaches the parser
sites; ``kernel="varloop_barrier"`` is the input whose timed build
dissolves, so the product itself runs it on the per-warp interpreter;
``also_arm`` sinks the timed rung so functional-only actually executes.
"""

import json

import numpy as np
import pytest

from repro.core import GPUscout
from repro.core.jsonout import SCHEMA_VERSION, report_to_dict
from repro.errors import (
    AnalysisError,
    MetricError,
    SimulationError,
)
from repro.gpu import GPUSpec, LaunchConfig
from repro.testing import fail_at, fail_points
from repro.testing.faultinject import REGISTRY, SERVE_SITES, fail_point

from tests.conftest import LOOP_SASS, build_saxpy, build_varloop_barrier

N = 512
CONFIG = LaunchConfig(grid=(4, 1), block=(128, 1))


@pytest.fixture(scope="module")
def saxpy_ck():
    return build_saxpy()


def saxpy_args():
    return {
        "x": np.arange(N, dtype=np.float32),
        "y": np.ones(N, dtype=np.float32),
        "a": 2.0,
        "n": N,
    }


#: per-site scenario: how to reach the site, and what to inject there
SCENARIOS = {
    "parser.program": dict(kind="sass"),
    "parser.instruction": dict(kind="sass"),
    "executor.step": dict(exc=SimulationError, kernel="varloop_barrier"),
    "caches.l2_lookup": dict(exc=SimulationError),
    "scheduler.run_wave": dict(exc=SimulationError,
                               kernel="varloop_barrier"),
    "scheduler.run_wave_trace": dict(exc=SimulationError),
    "trace.build": dict(exc=SimulationError),
    "batch.functional": dict(
        exc=SimulationError, also_arm=["scheduler.run_wave_trace"],
    ),
    "simulator.launch": dict(exc=SimulationError),
    "sampler.sample": dict(exc=SimulationError),
    "metrics.collect": dict(exc=MetricError),
    "engine.analysis": dict(exc=AnalysisError),
    "engine.predictions": dict(exc=AnalysisError),
}


def scenario_launch(scenario, saxpy_ck):
    """The (kernel, config, args) a dynamic scenario analyzes."""
    if scenario.get("kernel") == "varloop_barrier":
        return (build_varloop_barrier(),
                LaunchConfig(grid=(2, 1), block=(32, 2)),
                {"dst": np.zeros(128, dtype=np.float32)})
    return saxpy_ck, CONFIG, saxpy_args()


def _run_scenario(site, scenario, saxpy_ck):
    exc = scenario.get("exc", SimulationError)
    if scenario.get("kind") == "sass":
        scout = GPUscout()
        with fail_at(site, exc) as fp:
            report = scout.analyze(LOOP_SASS, dry_run=True)
        return fp, report
    scout = GPUscout(spec=GPUSpec.small(1))
    from contextlib import ExitStack

    with ExitStack() as stack:
        for extra in scenario.get("also_arm", []):
            stack.enter_context(fail_at(extra, SimulationError))
        fp = stack.enter_context(fail_at(site, exc))
        report = scout.analyze(*scenario_launch(scenario, saxpy_ck),
                               max_blocks=2)
    return fp, report


def assert_reached_through_ladder(scenario, report):
    """A site below the timed rung is reached by the ladder demoting
    onto it, never by a caller's option: the demotion must be on
    record."""
    if "scheduler.run_wave_trace" in scenario.get("also_arm", []):
        assert any(d.detail.get("rung") == "timed-trace"
                   and d.detail.get("fallback") == "functional-only"
                   for d in report.diagnostics)


def test_every_fail_point_has_a_scenario():
    # serve.* sites live outside the analyze() pipeline; their chaos
    # scenarios are tests/serve/test_chaos_serve.py
    assert set(SCENARIOS) | SERVE_SITES == set(fail_points()) == set(REGISTRY)
    assert not set(SCENARIOS) & SERVE_SITES


@pytest.mark.parametrize("site", sorted(SCENARIOS))
def test_single_point_failure_yields_partial_report(site, saxpy_ck):
    fp, report = _run_scenario(site, SCENARIOS[site], saxpy_ck)

    # the injection actually fired, exactly where we armed it
    assert fp.triggered >= 1, f"fail-point {site} never reached"
    assert_reached_through_ladder(SCENARIOS[site], report)

    # a well-formed report came back regardless
    assert report.kernel
    assert isinstance(report.findings, list)
    assert report.diagnostics, f"{site}: no diagnostic recorded"

    # at least one diagnostic names the failed site (directly, or via
    # the injected exception's message)
    def mentions(d):
        return site in d.site or site in d.message
    assert any(mentions(d) for d in report.diagnostics), (
        site, [str(d) for d in report.diagnostics],
    )

    # schema-v3 JSON round-trips
    data = json.loads(json.dumps(report_to_dict(report)))
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["mode"] in ("full", "functional", "static", "dry-run")
    assert data["diagnostics"]
    for d in data["diagnostics"]:
        for key in ("stage", "site", "error", "message", "severity"):
            assert key in d

    # both renderers cope with the degraded report
    text = report.render()
    assert "[health]" in text
    html = report.render_html()
    assert "Run health" in html


class TestChaosDetails:
    def test_dead_analysis_spares_the_others(self, saxpy_ck):
        scout = GPUscout(spec=GPUSpec.small(1))
        healthy = scout.analyze(saxpy_ck, dry_run=True)
        with fail_at("engine.analysis", AnalysisError) as fp:
            report = scout.analyze(saxpy_ck, dry_run=True)
        assert fp.triggered == 1
        # one analysis died; every other analysis still reported
        dead = {d.detail.get("analysis") for d in report.diagnostics}
        assert len(dead) == 1
        survivors = {f.analysis for f in report.findings}
        assert survivors == {
            f.analysis for f in healthy.findings
            if f.analysis not in dead
        }

    def test_dead_analysis_on_a_reused_program(self, saxpy_ck):
        """The scout's second full analysis reuses the first one's
        static artifacts; the analysis fault still fires there, once,
        and costs exactly the findings it costs a fresh run."""
        scout = GPUscout(spec=GPUSpec.small(1))
        healthy = scout.analyze(saxpy_ck, CONFIG, saxpy_args())
        with fail_at("engine.analysis", AnalysisError) as fp:
            report = scout.analyze(saxpy_ck, CONFIG, saxpy_args())
        assert "static:cached" in {s.name for s in report.profile.spans}
        assert fp.triggered == 1
        dead = {d.detail.get("analysis") for d in report.diagnostics}
        assert len(dead) == 1
        survivors = {f.analysis for f in report.findings}
        assert survivors == {
            f.analysis for f in healthy.findings
            if f.analysis not in dead
        }

    def test_persistent_failure_exhausts_the_ladder(self, saxpy_ck):
        # times=None: the component is broken on *every* rung
        scout = GPUscout(spec=GPUSpec.small(1))
        with fail_at("simulator.launch", SimulationError,
                     times=None) as fp:
            report = scout.analyze(saxpy_ck, CONFIG, saxpy_args())
        assert fp.triggered == 2  # timed-trace, functional-only
        assert report.mode == "static"
        assert report.launch is None
        assert any("static-only" in d.message for d in report.diagnostics)

    def test_total_parse_failure_still_reports(self):
        scout = GPUscout()
        with fail_at("parser.program", SimulationError) as fp:
            report = scout.analyze(LOOP_SASS, dry_run=True)
        assert fp.triggered == 1
        assert report.findings == []
        assert len(report.program) == 0
        assert any(d.severity == "error" for d in report.diagnostics)

    def test_unexpected_crash_writes_reproducer_bundle(
            self, saxpy_ck, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        scout = GPUscout(spec=GPUSpec.small(1))
        with fail_at("engine.predictions", RuntimeError) as fp:
            report = scout.analyze(saxpy_ck, CONFIG, saxpy_args(),
                                   max_blocks=2)
        assert fp.triggered == 1
        bundles = [d for d in report.diagnostics
                   if "reproducer" in d.detail]
        assert len(bundles) == 1
        bundle = bundles[0]
        assert bundle.detail["reproducer"] in bundle.message
        import pathlib

        bdir = pathlib.Path(bundle.detail["reproducer"])
        assert bdir.is_dir()
        for name in ("kernel.sass", "launch.json", "environment.json",
                     "traceback.txt"):
            assert (bdir / name).exists(), name
        env = json.loads((bdir / "environment.json").read_text())
        assert "python" in env
        launch = json.loads((bdir / "launch.json").read_text())
        assert launch["grid"] == [4, 1]

    def test_expected_errors_write_no_bundle(self, saxpy_ck, tmp_path,
                                             monkeypatch):
        import os
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        scout = GPUscout(spec=GPUSpec.small(1))
        with fail_at("simulator.launch", SimulationError):
            report = scout.analyze(saxpy_ck, CONFIG, saxpy_args())
        assert report.diagnostics
        assert not any("reproducer" in d.detail
                       for d in report.diagnostics)
        assert os.listdir(tmp_path) == []

    def test_fail_point_noop_when_unarmed(self):
        fail_point("caches.l2_lookup")  # must not raise

    def test_unknown_fail_point_rejected(self):
        with pytest.raises(ValueError):
            with fail_at("no.such.site"):
                pass

    def test_double_arming_rejected(self):
        with fail_at("caches.l2_lookup", SimulationError):
            with pytest.raises(RuntimeError):
                with fail_at("caches.l2_lookup", SimulationError):
                    pass
