"""Trace-on vs trace-off bit-identity.

The timeline capture is strictly passive, so attaching it must change
nothing observable: cycles, the full ``Counters`` block, device memory
and the PC-sample stream are compared over the timed-equivalence kernel
subset, on both timed paths.
"""

import numpy as np
import pytest

from repro.cli import resolve_kernel
from repro.obs import TimelineCapture
from repro.sampling.pcsampler import PCSampler

from tests.conftest import make_simulator

# one kernel per case-study family, covering the trace-driven path,
# the legacy path and the float-atomic (trace-ineligible) fallback
CASES = [
    ("sgemm:naive", 64),
    ("sgemm:shared", 64),
    ("heat:naive", 64),
    ("mixbench:sp:vec", 512),
    ("histogram:shared", 1024),
    ("reduction:atomic", 512),
]


def _run(spec, size, fast, capture=None):
    ck, config, args, textures = resolve_kernel(spec, size, 4)
    sim = make_simulator(fast)
    res = sim.launch(ck, config, args, textures=textures,
                     max_blocks=2, functional_all=True, trace=capture)
    return res


@pytest.mark.parametrize("fast", [False, True], ids=["legacy", "trace"])
@pytest.mark.parametrize("spec,size", CASES,
                         ids=[f"{s}-{n}" for s, n in CASES])
def test_capture_changes_nothing_observable(spec, size, fast):
    bare = _run(spec, size, fast)
    capture = TimelineCapture()
    traced = _run(spec, size, fast, capture=capture)

    assert bare.cycles == traced.cycles, (
        f"{spec}: cycle counts differ with capture attached"
    )
    assert bare.counters == traced.counters, (
        f"{spec}: counters differ with capture attached"
    )
    assert np.array_equal(bare.memory.buf, traced.memory.buf), (
        f"{spec}: device memory differs with capture attached"
    )
    sampler = PCSampler(period_cycles=128)
    assert sampler.sample(bare).samples == sampler.sample(traced).samples, (
        f"{spec}: PC-sample streams differ with capture attached"
    )

    # and the capture actually saw the run
    assert capture.events, f"{spec}: capture recorded no events"
    assert capture.events[-1].cycle <= traced.cycles + 1e-9
    assert len(capture.events) == traced.counters.inst_issued
    assert capture.wave_notes, f"{spec}: no wave-boundary notes"


def test_capture_sees_identical_stream_on_both_paths():
    """The two timed paths drive the same ``record`` hook: the captured
    (cycle, warp, block, pc, stall) stream must be identical, modulo
    issue order within a cycle (sort for comparison)."""
    streams = {}
    for fast in (False, True):
        capture = TimelineCapture()
        _run("sgemm:naive", 64, fast, capture=capture)
        streams[fast] = sorted(
            (e.cycle, e.block, e.warp, e.pc, e.stall_cycles)
            for e in capture.events
        )
    assert streams[False] == streams[True]


class TestCaptureMechanics:
    def test_mark_reset_drops_partial_run(self):
        capture = TimelineCapture()
        _run("sgemm:naive", 64, True, capture=capture)
        mark = capture.mark()
        _run("sgemm:naive", 64, False, capture=capture)
        assert len(capture.events) > mark[0]
        capture.reset_to(mark)
        assert capture.mark() == mark

    def test_max_events_truncates_without_breaking_the_run(self):
        capture = TimelineCapture(max_events=100)
        res = _run("sgemm:naive", 64, True, capture=capture)
        assert capture.truncated
        assert len(capture.events) == 100
        assert res.cycles > 0
        # counter sampling keeps going past the slice cap
        assert capture.counter_samples

    def test_counter_samples_are_monotone_in_cycle(self):
        capture = TimelineCapture(counter_stride=16)
        _run("heat:naive", 64, True, capture=capture)
        cycles = [s.cycle for s in capture.counter_samples]
        assert cycles == sorted(cycles)

    def test_counter_samples_see_live_counters_on_legacy_path(self):
        # the legacy path accounts per issue, so mid-wave samples watch
        # inst_issued grow (the trace path batches accounting per wave)
        capture = TimelineCapture(counter_stride=16)
        _run("heat:naive", 64, False, capture=capture)
        issued = [s.inst_issued for s in capture.counter_samples]
        assert issued == sorted(issued)
        assert issued[-1] > 0

    def test_warps_are_block_warp_pairs(self):
        from repro.gpu import GPUSpec, Simulator

        ck, config, args, textures = resolve_kernel(
            "histogram:global", 2048, 4)
        capture = TimelineCapture()
        sim = Simulator(GPUSpec.small(1))
        sim.launch(ck, config, args, textures=textures,
                   max_blocks=2, functional_all=True, trace=capture)
        warps = capture.warps()
        assert warps == sorted(set(warps))
        # a one-SM spec with max_blocks=2 times blocks 0 and 1, each
        # with multiple warps
        assert {b for b, _ in warps} == {0, 1}
        assert len(warps) > 2
