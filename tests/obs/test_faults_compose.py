"""Observability composes with fault injection.

``--trace`` / ``--profile`` must not weaken the fault boundaries: with
a fault injected at every registered fail-point, the engine still
yields a well-formed partial report, the profiler still covers the
stages that ran, and the exported trace is structurally valid (the
abandoned rung's partial event stream rolled back, every warp thread
declared, ts monotone).
"""

import numpy as np
import pytest

from repro.core import GPUscout
from repro.errors import SimulationError
from repro.gpu import GPUSpec, LaunchConfig
from repro.obs import TimelineCapture, to_chrome_trace, validate_chrome_trace
from repro.testing import fail_at, fail_points

from tests.conftest import LOOP_SASS, build_saxpy
from tests.test_chaos import (
    SCENARIOS,
    assert_reached_through_ladder,
    scenario_launch,
)

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


def test_scenarios_cover_every_fail_point():
    from repro.testing.faultinject import SERVE_SITES

    # the serving-layer sites fire outside the engine (cache reads,
    # worker processes); tests/serve/test_chaos_serve.py composes them
    assert set(SCENARIOS) | SERVE_SITES == set(fail_points())
    assert not set(SCENARIOS) & SERVE_SITES


@pytest.mark.parametrize("site", sorted(SCENARIOS))
def test_trace_and_profile_survive_every_fault(site, saxpy_ck):
    scenario = SCENARIOS[site]
    exc = scenario.get("exc", SimulationError)
    capture = TimelineCapture()
    if scenario.get("kind") == "sass":
        scout = GPUscout()
        with fail_at(site, exc) as fp:
            report = scout.analyze(LOOP_SASS, dry_run=True, trace=capture)
    else:
        from contextlib import ExitStack

        scout = GPUscout(spec=GPUSpec.small(1))
        with ExitStack() as stack:
            for extra in scenario.get("also_arm", []):
                stack.enter_context(fail_at(extra, SimulationError))
            fp = stack.enter_context(fail_at(site, exc))
            report = scout.analyze(*scenario_launch(scenario, saxpy_ck),
                                   max_blocks=2, trace=capture)
    assert fp.triggered >= 1, f"fail-point {site} never reached"
    assert_reached_through_ladder(scenario, report)

    # partial report is well-formed, and the profiler covered the
    # stages that ran (parse and static always run)
    assert report.diagnostics, f"{site}: no diagnostic recorded"
    assert report.profile is not None
    stages = report.profile.stage_totals()
    assert "parse" in stages and "static" in stages
    assert all(s.end_ns is not None for s in report.profile.spans), (
        f"{site}: a span was left open"
    )
    # every diagnostic carries the timing of the stage it fired in
    assert all("elapsed_s" in d.detail for d in report.diagnostics), (
        f"{site}: diagnostic without stage timing"
    )

    # the [prof] footer renders on the degraded report
    text = report.render(profile=True)
    assert "[prof]" in text

    # whatever the capture holds exports to a structurally valid trace
    data = to_chrome_trace(capture, program=report.program,
                           kernel=report.kernel)
    problems = validate_chrome_trace(data)
    assert problems == [], f"{site}: invalid trace: {problems[:3]}"


class TestRetryAttribution:
    def test_abandoned_rung_becomes_launch_retry_span(self, saxpy_ck):
        """Satellite: wall time spent on a failed degradation-ladder
        rung is attributed to a ``launch:retry`` span naming the rung,
        and the winning rung's span keeps its own name."""
        scout = GPUscout(spec=GPUSpec.small(1))
        with fail_at("scheduler.run_wave_trace", SimulationError):
            report = scout.analyze(saxpy_ck, CONFIG, saxpy_args(),
                                   max_blocks=2)
        assert report.mode == "functional"
        names = [s.name for s in report.profile.spans]
        retries = [s for s in report.profile.spans
                   if s.name == "launch:retry"]
        assert len(retries) == 1
        assert retries[0].counters["rung"] == "timed-trace"
        assert "launch:functional-only" in names
        # retry time rolls up under the depth-0 launch stage, untainted
        assert retries[0].depth == 1

    def test_abandoned_rung_events_rolled_back(self, saxpy_ck):
        """A rung that fails mid-simulation leaves no partial events in
        the exported trace: only the winning rung's stream remains.

        The trace build succeeds (recording a ``trace`` wave note and a
        counter sample) before ``run_wave_trace`` dies, so without the
        engine's mark/reset_to rollback a stale note would survive —
        and the winning functional-only rung records nothing of its
        own to hide it behind."""
        capture = TimelineCapture()
        scout = GPUscout(spec=GPUSpec.small(1))
        with fail_at("scheduler.run_wave_trace", SimulationError) as fp:
            report = scout.analyze(saxpy_ck, CONFIG, saxpy_args(),
                                   max_blocks=2, trace=capture)
        assert fp.triggered == 1
        assert report.mode == "functional"
        assert not report.launch.timed_fast_path
        # no leftovers from the abandoned trace-driven rung
        assert capture.wave_notes == []
        assert capture.counter_samples == []
        assert capture.events == []
