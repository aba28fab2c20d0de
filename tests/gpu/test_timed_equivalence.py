"""Differential regression tests: trace-consumer vs. legacy timed wave.

The timed fast path's hard contract (see ``repro.gpu.timed_trace``) is
that driving the event-heap scheduler from a precomputed effect trace
changes **nothing observable**: for every in-tree kernel the cycle
count, the full ``Counters`` block (including per-(PC, reason) stall
cycles), device memory and the derived PC-sample stream must be
bit-identical to the legacy ``Executor.step``-per-issue path.  These
tests run every case-study kernel in both modes with a multi-block
timed window and compare all four surfaces, plus the dissolve path
(mid-trace divergence rolls committed effects back and replays the
wave warp-by-warp).
"""

import numpy as np
import pytest

from repro.cli import resolve_kernel
from repro.cudalite import KernelBuilder, compile_kernel, f32, i32, ptr, u32
from repro.errors import LaunchError
from repro.gpu.predecode import predecode
from repro.gpu.session import DeviceSession
from repro.gpu.simulator import LaunchConfig, Simulator
from repro.gpu.timed_trace import timed_batchable
from repro.sampling.pcsampler import PCSampler

from tests.conftest import build_varloop_barrier, make_simulator

# every case-study family from the paper; reduction:* exercises the
# order-tagged float-atomic replay (deferred commit in legacy heap order)
CASES = [
    ("sgemm:naive", 64), ("sgemm:naive", 96),
    ("sgemm:shared", 64),
    ("sgemm:shared_vec", 64),
    ("heat:naive", 64), ("heat:naive", 96),
    ("heat:restrict", 64),
    ("heat:texture", 64),
    ("mixbench:sp:naive", 512), ("mixbench:sp:naive", 1024),
    ("mixbench:sp:vec", 512),
    ("mixbench:dp:naive", 512),
    ("mixbench:int:naive", 512),
    ("histogram:global", 1024), ("histogram:global", 2048),
    ("histogram:shared", 1024),
    ("reduction:atomic", 512),
    ("reduction:shared", 512),
    ("reduction:warp", 512),
]


def _run(spec: str, size: int, fast: bool):
    ck, config, args, textures = resolve_kernel(spec, size, 4)
    sim = make_simulator(fast)
    res = sim.launch(ck, config, args, textures=textures,
                     max_blocks=2, functional_all=True)
    return ck, res


@pytest.mark.parametrize("spec,size", CASES,
                         ids=[f"{s}-{n}" for s, n in CASES])
def test_timed_identical_across_paths(spec, size):
    ck, legacy = _run(spec, size, fast=False)
    _, fast = _run(spec, size, fast=True)
    eligible = timed_batchable(predecode(ck.program))
    assert fast.timed_fast_path == eligible, (
        f"{spec}: trace path taken={fast.timed_fast_path}, "
        f"eligibility says {eligible}"
    )
    assert not legacy.timed_fast_path
    assert legacy.cycles == fast.cycles, (
        f"{spec} size={size}: cycle counts differ "
        f"({legacy.cycles} vs {fast.cycles})"
    )
    assert legacy.counters == fast.counters, (
        f"{spec} size={size}: counters differ between timed paths"
    )
    assert np.array_equal(legacy.memory.buf, fast.memory.buf), (
        f"{spec} size={size}: device memory differs between timed paths"
    )
    sampler = PCSampler(period_cycles=128)
    assert sampler.sample(legacy).samples == sampler.sample(fast).samples, (
        f"{spec} size={size}: PC-sample streams differ"
    )


def _build_varloop_rmw():
    """Per-block loop trip counts diverge mid-wave, after a committed
    global RMW store and a global atomic: the trace build must dissolve,
    roll those effects back exactly, and replay the wave on the legacy
    engine — no double-applied store or atomic."""
    kb = KernelBuilder("varloop_rmw")
    dst = kb.param("dst", ptr(f32))
    cnt = kb.param("cnt", ptr(u32))
    g = kb.let("g", kb.block_idx.x * kb.block_dim.x + kb.thread_idx.x,
               dtype=i32)
    old = kb.let("old", dst[g], dtype=f32)
    kb.store(dst, g, old + 1.0)
    kb.atomic_add_global(cnt, 0, 1)
    acc = kb.let("acc", 0.0, dtype=f32)
    with kb.for_range("i", 0, kb.block_idx.x + 1):
        kb.assign(acc, acc + 1.5)
    kb.store(dst, g, acc + old)
    return compile_kernel(kb.build())


class TestDivergenceSegments:
    def test_divergent_wave_runs_trace_timed(self):
        """grid=(81,) on an 80-SM part puts blocks 0 and 80 in SM0's
        first timed wave; their trip counts (1 vs 81) diverge after the
        RMW+atomic prefix has executed in the batched build.  Per-warp
        trace segments keep the build valid across the pack split, so
        the wave replays trace-timed — bit-identical to legacy."""
        ck = _build_varloop_rmw()
        config = LaunchConfig(grid=(81, 1), block=(64, 1))
        n = 81 * 64
        results = {}
        for fast in (False, True):
            sim = make_simulator(fast)
            args = {"dst": np.full(n, 0.25, dtype=np.float32),
                    "cnt": np.zeros(1, dtype=np.uint32)}
            results[fast] = sim.launch(ck, config, args,
                                       max_blocks=2, functional_all=True)
        legacy, fast = results[False], results[True]
        assert timed_batchable(predecode(ck.program))
        # divergence no longer dissolves: segments carry the split
        assert fast.timed_fast_path
        assert legacy.cycles == fast.cycles
        assert legacy.counters == fast.counters
        assert np.array_equal(legacy.memory.buf, fast.memory.buf)
        sampler = PCSampler(period_cycles=128)
        assert (sampler.sample(legacy).samples
                == sampler.sample(fast).samples)
        # functional exactness through the split: each thread bumped
        # cnt exactly once and saw the original dst in its final store
        got_cnt = fast.read_buffer("cnt")
        assert got_cnt[0] == n, "atomic applied a wrong number of times"
        got = fast.read_buffer("dst").reshape(81, 64)
        expected = 1.5 * (np.arange(81, dtype=np.float32) + 1) + 0.25
        assert np.array_equal(got, np.broadcast_to(expected[:, None],
                                                   (81, 64)))

    def test_divergent_warps_at_barrier_still_dissolve(self):
        """Intra-block divergence upstream of a barrier cannot be
        segmented (the block's warps must re-meet at the BAR), so the
        build dissolves and replays legacy — still bit-identical."""
        ck = build_varloop_barrier()
        config = LaunchConfig(grid=(2, 1), block=(32, 2))
        n = 2 * 64
        results = {}
        for fast in (False, True):
            sim = make_simulator(fast)
            args = {"dst": np.zeros(n, dtype=np.float32)}
            results[fast] = sim.launch(ck, config, args,
                                       max_blocks=2, functional_all=True)
        legacy, fast = results[False], results[True]
        assert timed_batchable(predecode(ck.program))
        assert not fast.timed_fast_path
        assert legacy.cycles == fast.cycles
        assert legacy.counters == fast.counters
        assert np.array_equal(legacy.memory.buf, fast.memory.buf)
        # each lane reads its partner warp's accumulator: warp 0 lanes
        # see 3.0 (y=1 ran 2 trips), warp 1 lanes see 1.5
        got = fast.read_buffer("dst").reshape(2, 2, 32)
        assert np.array_equal(got[:, 0, :], np.full((2, 32), 3.0,
                                                    dtype=np.float32))
        assert np.array_equal(got[:, 1, :], np.full((2, 32), 1.5,
                                                    dtype=np.float32))


def test_zero_dissolves_across_suite():
    """Every in-tree case-study kernel is trace-eligible *and* every
    timed wave actually replays trace-driven — zero legacy dissolves.
    ``reduction:*`` (order-tagged float atomics) and the variable-trip
    kernels (per-warp segments) used to be the two dissolve cases."""
    seen = set()
    for spec, size in CASES:
        if spec in seen:
            continue
        seen.add(spec)
        ck, res = _run(spec, size, fast=True)
        assert timed_batchable(predecode(ck.program)), (
            f"{spec}: not trace-eligible"
        )
        assert res.timed_fast_path, f"{spec}: a wave dissolved to legacy"


class TestDeterminism:
    @pytest.mark.parametrize("fast", [False, True], ids=["legacy", "trace"])
    def test_repeated_launch_bit_equal(self, fast):
        runs = []
        for _ in range(2):
            ck, config, args, textures = resolve_kernel("sgemm:naive", 64, 4)
            sim = make_simulator(fast)
            r = sim.launch(ck, config, args, textures=textures,
                           max_blocks=2, functional_all=True)
            runs.append(r)
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].counters == runs[1].counters
        assert np.array_equal(runs[0].memory.buf, runs[1].memory.buf)


class TestMaxBlocksValidation:
    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_non_positive_max_blocks_rejected(self, bad):
        ck, config, args, textures = resolve_kernel("heat:naive", 64, 4)
        sim = Simulator()
        with pytest.raises(LaunchError, match="max_blocks must be positive"):
            sim.launch(ck, config, args, textures=textures, max_blocks=bad)


class TestSessionWarmCaches:
    def test_warm_cache_launches_identical_across_paths(self):
        """Back-to-back launches in a session share cache state; the
        trace consumer must replay tag lookups in exactly the legacy
        order or the *second* launch diverges."""
        per_mode = {}
        for fast in (False, True):
            sess = DeviceSession()
            if not fast:
                sess.sim = make_simulator(False, sess.spec)  # the oracle
            ck, config, args, _ = resolve_kernel("sgemm:naive", 64, 4)
            # upload once and reuse the handles, so the second launch
            # touches the same addresses the first one warmed
            handles = {k: sess.upload(v) if isinstance(v, np.ndarray) else v
                       for k, v in args.items()}
            first = sess.launch(ck, config, handles,
                                max_blocks=2, functional_all=True)
            second = sess.launch(ck, config, handles,
                                 max_blocks=2, functional_all=True)
            per_mode[fast] = (first, second)
        for i in range(2):
            legacy, fast = per_mode[False][i], per_mode[True][i]
            assert legacy.cycles == fast.cycles
            assert legacy.counters == fast.counters
        # the warm second launch must actually differ from the cold one
        assert per_mode[True][0].cycles != per_mode[True][1].cycles or (
            per_mode[True][0].counters != per_mode[True][1].counters
        )
