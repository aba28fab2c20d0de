"""Resource-guard (SimBudget) and degradation-ladder tests."""

import numpy as np
import pytest

from repro.core import GPUscout
from repro.errors import SimulationError, SimulationTimeout
from repro.gpu import GPUSpec, LaunchConfig, Simulator
from repro.gpu.budget import SimBudget
from repro.testing import fail_at

from tests.conftest import build_saxpy, make_simulator


@pytest.fixture(scope="module")
def saxpy_ck():
    return build_saxpy()


N = 1024
CONFIG = LaunchConfig(grid=(8, 1), block=(128, 1))


def saxpy_args():
    return {
        "x": np.arange(N, dtype=np.float32),
        "y": np.ones(N, dtype=np.float32),
        "a": 2.0,
        "n": N,
    }


class TestSimBudget:
    def test_instruction_limit_trips(self):
        b = SimBudget(max_instructions=10)
        with pytest.raises(SimulationTimeout) as exc:
            b.spend(11)
        assert exc.value.limit == "instructions"

    def test_cycle_limit_trips(self):
        b = SimBudget(max_cycles=100.0)
        with pytest.raises(SimulationTimeout) as exc:
            b.check(cycles=101.0)
        assert exc.value.limit == "cycles"

    def test_wall_clock_limit_trips(self):
        b = SimBudget(max_wall_seconds=0.0)
        b.arm()
        with pytest.raises(SimulationTimeout) as exc:
            b.check()
        assert exc.value.limit == "wall-clock"

    def test_latches_once_tripped(self):
        b = SimBudget(max_instructions=10)
        with pytest.raises(SimulationTimeout):
            b.spend(11)
        # a later check with no further spending still fails fast
        with pytest.raises(SimulationTimeout):
            b.check()
        assert b.exhausted == "instructions"

    def test_unlimited_budget_never_trips(self):
        b = SimBudget()
        b.arm()
        b.spend(10**9, cycles=10**12)
        assert b.exhausted == ""

    def test_seconds_left(self):
        assert SimBudget().seconds_left is None
        b = SimBudget(max_wall_seconds=60.0)
        b.arm()
        assert 0 < b.seconds_left <= 60.0


class TestLaunchUnderBudget:
    @pytest.mark.parametrize("fast", [True, False])
    def test_instruction_budget_raises_timeout(self, saxpy_ck, fast):
        sim = make_simulator(fast, GPUSpec.small(1))
        with pytest.raises(SimulationTimeout):
            sim.launch(saxpy_ck, CONFIG, saxpy_args(),
                       budget=SimBudget(max_instructions=10))

    def test_generous_budget_changes_nothing(self, saxpy_ck):
        sim = Simulator(GPUSpec.small(1))
        base = sim.launch(saxpy_ck, CONFIG, saxpy_args())
        budget = SimBudget(max_instructions=10**9, max_cycles=1e12,
                           max_wall_seconds=600.0)
        guarded = sim.launch(saxpy_ck, CONFIG, saxpy_args(), budget=budget)
        assert guarded.cycles == base.cycles
        assert guarded.counters.inst_issued == base.counters.inst_issued
        assert budget.instructions > 0

    def test_timed_false_skips_timing(self, saxpy_ck):
        sim = Simulator(GPUSpec.small(1))
        launch = sim.launch(saxpy_ck, CONFIG, saxpy_args(), timed=False)
        assert launch.cycles == 0.0
        assert launch.counters.inst_issued == 0
        assert launch.counters.inst_functional > 0
        # output buffers are still complete
        ys = launch.read_buffer("y")
        expected = 2.0 * np.arange(N, dtype=np.float32) + 1.0
        np.testing.assert_allclose(ys, expected)


class TestDegradationLadder:
    def test_cycle_budget_demotes_to_static_only(self, saxpy_ck,
                                                 stage_memory_calls):
        # the acceptance scenario: a kernel that exceeds its cycle
        # budget completes static-only — never raises — and the latched
        # budget ends the ladder there: no rung re-uploads the buffers
        # to rediscover the same exhaustion
        scout = GPUscout(spec=GPUSpec.small(1))
        report = scout.analyze(saxpy_ck, CONFIG, saxpy_args(),
                               budget=SimBudget(max_cycles=1.0))
        assert report.mode == "static"
        assert report.launch is None
        assert report.degraded
        assert len(stage_memory_calls) == 1
        assert [d.error for d in report.diagnostics] == ["SimulationTimeout"]
        (d,) = report.diagnostics
        assert d.detail["rung"] == "timed-trace"
        assert d.detail["fallback"] == "static-only"
        assert "static-only" in d.message
        # findings from the static pillar survive
        assert isinstance(report.findings, list)
        assert "[health]" in report.render()

    def test_per_call_budget_overrides_engine_default(self, saxpy_ck):
        scout = GPUscout(spec=GPUSpec.small(1))
        report = scout.analyze(saxpy_ck, CONFIG, saxpy_args(),
                               budget=SimBudget(max_cycles=1.0))
        assert report.mode == "static"

    def test_timed_failure_demotes_to_functional(self, saxpy_ck):
        # the timed rung dies -> the functional rung still runs and
        # the report says so
        scout = GPUscout(spec=GPUSpec.small(1))
        with fail_at("scheduler.run_wave_trace", SimulationError) as t:
            report = scout.analyze(saxpy_ck, CONFIG, saxpy_args())
        assert t.triggered == 1
        assert report.mode == "functional"
        assert report.launch is not None
        assert report.launch.counters.inst_functional > 0
        assert report.sampling is None  # no stall data without timing
        (d,) = report.diagnostics
        assert d.detail["rung"] == "timed-trace"
        assert d.detail["fallback"] == "functional-only"

    def test_healthy_run_is_full_mode(self, saxpy_ck):
        scout = GPUscout(spec=GPUSpec.small(1))
        report = scout.analyze(saxpy_ck, CONFIG, saxpy_args())
        assert report.mode == "full"
        assert report.diagnostics == []
        assert not report.degraded
        assert "[health]" not in report.render()


class TestFunctionalPhaseCharging:
    """The functional phase charges each pack (batched) or block
    (per-warp) as it completes: the budget sees exactly what ran, and a
    tripped launch has overshot by at most one pack."""

    @pytest.mark.parametrize("fast", [True, False])
    def test_short_budget_trips_inside_the_phase(self, fast):
        from repro.cli import resolve_kernel
        from repro.gpu.batch import MAX_PACK_WARPS

        # a small grid, to learn what a (uniform) block costs
        ck, config, args, _ = resolve_kernel("reduction:warp", 1024, 4)
        per_block = make_simulator(fast).launch(
            ck, config, args, timed=False
        ).counters.inst_functional // config.num_blocks
        ck, config, args, _ = resolve_kernel("reduction:warp", 262144, 4)
        budget = SimBudget(max_instructions=5000)
        with pytest.raises(SimulationTimeout):
            make_simulator(fast).launch(ck, config, args, timed=False,
                                        budget=budget)
        assert budget.exhausted == "instructions"
        blocks = MAX_PACK_WARPS // config.warps_per_block if fast else 1
        assert config.num_blocks > 2 * blocks  # tripped well before the end
        assert 5000 < budget.instructions <= max(5000 + per_block,
                                                 blocks * per_block)

    def test_blocks_past_tripped_pack_never_ran(self, saxpy_ck,
                                                      monkeypatch):
        # 8 blocks of 4 warps, two blocks to a pack
        monkeypatch.setattr("repro.gpu.batch.MAX_PACK_WARPS", 8)
        sim = Simulator(GPUSpec.small(1))
        args = dict(saxpy_args(), x=np.arange(1, N + 1, dtype=np.float32),
                    y=np.zeros(N, dtype=np.float32))
        whole = sim.launch(saxpy_ck, CONFIG, args, timed=False)
        assert whole.func_packs == 4
        assert whole.read_buffer("y").all()

        mem, params, buffers, tex = sim._stage_memory(saxpy_ck, args, {})
        budget = SimBudget(max_instructions=10)
        with pytest.raises(SimulationTimeout):
            sim._launch_staged(saxpy_ck, CONFIG, mem, params, buffers, tex,
                               timed=False, budget=budget)
        assert budget.instructions == whole.counters.inst_functional // 4
        offset, _, _ = buffers["y"]
        ys = mem.buf[offset : offset + 4 * N].view(np.float32)
        assert ys[:256].all() and not ys[256:].any()

    @pytest.mark.parametrize("fast", [True, False])
    def test_untripped_budget_equals_counter(self, saxpy_ck,
                                                            fast):
        budget = SimBudget(max_instructions=10**9)
        launch = make_simulator(fast, GPUSpec.small(1)).launch(
            saxpy_ck, CONFIG, saxpy_args(), timed=False, budget=budget)
        assert budget.instructions == launch.counters.inst_functional > 0
