"""Differential regression tests: batched vs. per-warp execution.

The fast path's hard contract (see ``repro.gpu.batch``) is that for
every in-tree kernel it produces **bit-identical** device memory and
identical counters vs. the legacy per-warp functional loop.  These
tests run each case-study kernel in both modes at two grid sizes and
compare the raw memory images and the full ``Counters`` blocks.
"""

import numpy as np
import pytest

from repro.cli import resolve_kernel
from repro.cudalite import KernelBuilder, compile_kernel, f32, i32, ptr
from repro.errors import SimulationError
from repro.gpu.batch import BatchEngine, WarpPack
from repro.gpu.executor import Executor, WarpState
from repro.gpu.simulator import LaunchConfig, Simulator
from repro.gpu.timed_trace import build_timed_trace

from tests.conftest import make_simulator

# every case-study family from the paper, two grid sizes each
CASES = [
    ("sgemm:naive", 64), ("sgemm:naive", 96),
    ("sgemm:shared", 64), ("sgemm:shared", 96),
    ("sgemm:shared_vec", 64), ("sgemm:shared_vec", 96),
    ("heat:naive", 64), ("heat:naive", 96),
    ("heat:restrict", 64), ("heat:restrict", 96),
    ("heat:texture", 64), ("heat:texture", 96),
    ("mixbench:sp:naive", 512), ("mixbench:sp:naive", 1024),
    ("mixbench:sp:vec", 512), ("mixbench:sp:vec", 1024),
    ("mixbench:dp:naive", 512), ("mixbench:dp:naive", 1024),
    ("mixbench:int:naive", 512), ("mixbench:int:naive", 1024),
    ("histogram:global", 1024), ("histogram:global", 2048),
    ("histogram:shared", 1024), ("histogram:shared", 2048),
    ("reduction:atomic", 512), ("reduction:atomic", 1024),
    ("reduction:shared", 512), ("reduction:shared", 1024),
    ("reduction:warp", 512), ("reduction:warp", 1024),
]


def _run(spec: str, size: int, fast: bool):
    ck, config, args, textures = resolve_kernel(spec, size, 4)
    sim = make_simulator(fast)
    return sim.launch(ck, config, args, textures=textures,
                      max_blocks=1, functional_all=True)


@pytest.mark.parametrize("spec,size", CASES,
                         ids=[f"{s}-{n}" for s, n in CASES])
def test_bit_identical_memory_and_counters(spec, size):
    legacy = _run(spec, size, fast=False)
    fast = _run(spec, size, fast=True)
    assert fast.fast_path, f"{spec} did not take the batched path"
    assert not legacy.fast_path
    assert np.array_equal(legacy.memory.buf, fast.memory.buf), (
        f"{spec} size={size}: device memory differs between paths"
    )
    assert legacy.counters == fast.counters, (
        f"{spec} size={size}: counters differ between paths"
    )
    assert legacy.counters.inst_functional > 0, (
        f"{spec} size={size}: no functional work executed — the "
        "differential test proved nothing"
    )


def _build_varloop():
    """A kernel whose loop trip count varies per *block*: warps stay
    warp-uniform (legal), but the pack's warps disagree on the branch,
    forcing the batched engine to dissolve mid-flight."""
    kb = KernelBuilder("varloop")
    dst = kb.param("dst", ptr(f32))
    g = kb.let("g", kb.block_idx.x * kb.block_dim.x + kb.thread_idx.x,
               dtype=i32)
    acc = kb.let("acc", 0.0, dtype=f32)
    with kb.for_range("i", 0, kb.block_idx.x + 1):
        kb.assign(acc, acc + 1.5)
    kb.store(dst, g, acc)
    return compile_kernel(kb.build())


class TestDivergenceFallback:
    def test_divergent_pack_dissolves_to_legacy(self):
        ck = _build_varloop()
        config = LaunchConfig(grid=(8, 1), block=(64, 1))
        results = {}
        for fast in (False, True):
            sim = make_simulator(fast)
            out = np.zeros(8 * 64, dtype=np.float32)
            results[fast] = sim.launch(ck, config, {"dst": out},
                                       max_blocks=1, functional_all=True)
        legacy, fast = results[False], results[True]
        assert np.array_equal(legacy.memory.buf, fast.memory.buf)
        assert legacy.counters == fast.counters
        got = fast.read_buffer("dst").reshape(8, 64)
        expected = 1.5 * (np.arange(8, dtype=np.float32) + 1)
        assert np.array_equal(got, np.broadcast_to(expected[:, None], (8, 64)))

    def test_functional_inst_counter_equal_after_dissolve(self):
        ck = _build_varloop()
        config = LaunchConfig(grid=(6, 1), block=(96, 1))
        counts = []
        for fast in (False, True):
            sim = make_simulator(fast)
            out = np.zeros(6 * 96, dtype=np.float32)
            r = sim.launch(ck, config, {"dst": out},
                           max_blocks=1, functional_all=True)
            counts.append(r.counters.inst_functional)
        assert counts[0] == counts[1] > 0

    def test_fast_path_says_what_ran(self):
        """A launch whose pack dissolved still ran batched — and says
        how much of it did not; a uniform launch reports no per-warp
        work; the per-warp route reports no packs at all."""
        ck = _build_varloop()
        config = LaunchConfig(grid=(8, 1), block=(64, 1))
        out = np.zeros(8 * 64, dtype=np.float32)
        r = Simulator().launch(ck, config, {"dst": out},
                               max_blocks=1, functional_all=True)
        assert r.fast_path
        assert (r.func_packs, r.func_dissolved) == (1, 1)
        assert 0 < r.func_legacy_inst < r.counters.inst_functional
        legacy = make_simulator(False).launch(ck, config, {"dst": out},
                                              max_blocks=1,
                                              functional_all=True)
        assert not legacy.fast_path
        assert (legacy.func_packs, legacy.func_legacy_inst) == (0, 0)
        uniform = _run("sgemm:naive", 64, fast=True)
        assert uniform.fast_path and uniform.func_packs == 1
        assert (uniform.func_dissolved, uniform.func_legacy_inst) == (0, 0)

    def test_shared_partial_warp_dissolves_mid_pack(self):
        """Shared stores made in lockstep must be visible to the
        per-warp loop after the dissolve (and vice versa), with a
        half-empty second warp in every block."""
        ck = _build_shared_varloop()
        config = LaunchConfig(grid=(6, 1), block=(48, 1))
        results = {}
        for fast in (False, True):
            out = np.zeros(6 * 48, dtype=np.float32)
            results[fast] = make_simulator(fast).launch(
                ck, config, {"dst": out}, max_blocks=1, functional_all=True)
        legacy, fast = results[False], results[True]
        assert fast.func_dissolved == 1
        # dissolved at the first disagreeing back-edge: part of the
        # work ran in lockstep, the rest (two barriers included) per warp
        assert 0 < fast.func_legacy_inst < fast.counters.inst_functional
        assert np.array_equal(legacy.memory.buf, fast.memory.buf)
        assert legacy.counters == fast.counters
        got = fast.read_buffer("dst").reshape(6, 48)
        expected = 99.0 * np.arange(6, dtype=np.float32) + 50.0
        assert np.array_equal(got, np.broadcast_to(expected[:, None], (6, 48)))


def _build_shared_varloop():
    """:func:`_build_varloop` around a shared-memory exchange: every
    thread publishes a value before the block-dependent loop (executed
    by the pack) and another after it (executed per warp), and reads
    its mirror thread's slot both times."""
    kb = KernelBuilder("shared_varloop")
    dst = kb.param("dst", ptr(f32))
    tid = kb.let("tid", kb.thread_idx.x, dtype=i32)
    g = kb.let("g", kb.block_idx.x * kb.block_dim.x + tid, dtype=i32)
    buf = kb.shared_array("buf", f32, 48)
    buf[tid] = g.cast(f32)
    kb.sync_threads()
    acc = kb.let("acc", buf[47 - tid], dtype=f32)
    with kb.for_range("i", 0, kb.block_idx.x + 1):
        kb.assign(acc, acc + 1.5)
    kb.sync_threads()
    buf[tid] = acc
    kb.sync_threads()
    kb.store(dst, g, buf[47 - tid] + acc)
    return compile_kernel(kb.build())


class TestDissolvedWarpStates:
    def test_states_match_factory_and_alias_pack(self):
        ck = _build_shared_varloop()
        config = LaunchConfig(grid=(3, 2), block=(48, 1))
        blocks = [1, 4, 5]
        pack = WarpPack(ck.program, config, blocks)
        pack.regs[3] = 7
        warps = pack.dissolve(9)
        fresh = [w for b in blocks
                 for w in Simulator._make_block_warps(ck.program, config, b)]
        assert len(warps) == len(fresh) == 6
        for got, ref in zip(warps, fresh):
            assert (got.block_id, got.warp_id) == (ref.block_id, ref.warp_id)
            assert (got.ctaid, got.ntid, got.nctaid) == \
                (ref.ctaid, ref.ntid, ref.nctaid)
            assert all(type(c) is int for c in got.ctaid)
            for a, b in zip(got.tid, ref.tid):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(got.active, ref.active)
            assert got.regs.shape == ref.regs.shape
            assert got.local.shape == ref.local.shape
            assert (got.regs[3] == 7).all() and got.pc == 9 and not got.done
            assert np.array_equal(got.preds, ref.preds)
        # one region of the pack's buffer per block, shared by its warps
        nbytes = ck.program.shared_bytes
        for i, w in enumerate(warps):
            assert w.shared.size == nbytes
            assert np.shares_memory(w.shared, pack.shared)
            assert np.shares_memory(w.shared, warps[i ^ 1].shared)
            other_block = warps[(i + 2) % 6]
            assert not np.shares_memory(w.shared, other_block.shared)
        warps[2].shared[:4] = 255
        word = int(pack.shared_word_off[2, 0])
        assert pack.shared.view(np.uint32)[word] == 0xFFFFFFFF


class TestMultiPackSlicing:
    """``MAX_PACK_WARPS`` smaller than the grid: the lazy block iterable
    is cut into several packs, whole blocks each."""

    @pytest.mark.parametrize("cap", [8, 12, 20])
    @pytest.mark.parametrize("spec,size", [("reduction:warp", 1024),
                                           ("sgemm:shared", 64)])
    def test_matches_per_warp(self, spec, size, cap,
                                            monkeypatch):
        legacy = _run(spec, size, fast=False)
        whole = _run(spec, size, fast=True)
        monkeypatch.setattr("repro.gpu.batch.MAX_PACK_WARPS", cap)
        sliced = _run(spec, size, fast=True)
        # whole blocks only: reduction's 8-warp blocks go 1, 1 and 2 to
        # a pack (12 and 20 leave room over), sgemm's 4-warp blocks 2, 3, 5
        rest = legacy.config.num_blocks - 1
        per_pack = max(cap // legacy.config.warps_per_block, 1)
        assert whole.func_packs == 1
        assert sliced.func_packs == -(-rest // per_pack) > 1
        assert np.array_equal(legacy.memory.buf, sliced.memory.buf)
        assert legacy.counters == sliced.counters


def _build_shared_shift():
    """STS then LDS ``shift`` slots further on: in bounds for small
    shifts, out of the block's 512-byte allocation for large ones."""
    kb = KernelBuilder("shared_shift")
    dst = kb.param("dst", ptr(f32))
    shift = kb.param("shift", i32)
    tid = kb.let("tid", kb.thread_idx.x, dtype=i32)
    g = kb.let("g", kb.block_idx.x * kb.block_dim.x + tid, dtype=i32)
    buf = kb.shared_array("buf", f32, 128)
    buf[tid] = g.cast(f32)
    buf[tid + 64] = g.cast(f32) + 0.5
    kb.sync_threads()
    kb.store(dst, g, buf[tid + shift])
    return compile_kernel(kb.build())


class TestDenseAndMaskedShared:
    """The whole-plane LDS/STS (no lane masked) and the guarded one
    (partial warp) are the same instruction."""

    @pytest.fixture
    def dense_seen(self, monkeypatch):
        seen = []
        real = BatchEngine._smem_words

        def spy(self, pack, mem, width, guard):
            seen.append(pack.dense)
            return real(self, pack, mem, width, guard)

        monkeypatch.setattr(BatchEngine, "_smem_words", spy)
        return seen

    @pytest.mark.parametrize("threads,dense", [(64, True), (48, False)])
    def test_matches_the_oracle(self, threads, dense, dense_seen):
        ck = _build_shared_shift()
        config = LaunchConfig(grid=(5, 1), block=(threads, 1))
        results = {}
        for fast in (False, True):
            args = {"dst": np.zeros(5 * threads, dtype=np.float32),
                    "shift": 64}
            results[fast] = make_simulator(fast).launch(
                ck, config, args, timed=False)
        legacy, fast = results[False], results[True]
        assert dense_seen == [dense] * 3  # two STS and an LDS, one pack
        assert np.array_equal(legacy.memory.buf, fast.memory.buf)
        assert legacy.counters == fast.counters
        assert np.array_equal(
            fast.read_buffer("dst"),
            np.arange(5 * threads, dtype=np.float32) + 0.5)

    @pytest.mark.parametrize("threads,dense", [(64, True), (48, False)])
    @pytest.mark.parametrize("side", ["high", "low"])
    def test_out_of_bounds_raises(self, threads, dense, side,
                                       dense_seen):
        ck = _build_shared_shift()
        config = LaunchConfig(grid=(5, 1), block=(threads, 1))
        # only the block's last thread steps over the end: slot 128
        shift = 129 - threads if side == "high" else -200
        args = {"dst": np.zeros(5 * threads, dtype=np.float32),
                "shift": shift}
        for fast in (False, True):
            with pytest.raises(SimulationError,
                               match="shared memory access out of bounds"):
                make_simulator(fast).launch(ck, config, args, timed=False)
        assert dense_seen == [dense] * 3


class TestConstructionCounts:
    """Call counts, not wall times: what the fast paths no longer do."""

    def test_batched_launch_builds_no_warp_states(self, monkeypatch):
        built = []
        real = WarpState.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("block_id"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(WarpState, "__init__", counting)
        res = _run("heat:naive", 256, fast=True)
        assert res.timed_fast_path and res.fast_path
        assert res.counters.inst_functional > 0
        assert built == []
        # the per-warp route still builds every warp of every block
        _run("heat:naive", 64, fast=False)
        assert len(built) > 0

    def test_one_base_guard_per_control_flow_change(self, monkeypatch):
        calls = []
        real = WarpPack.lanes

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(WarpPack, "lanes", counting)
        for spec, size in (("heat:naive", 256), ("sgemm:shared", 64),
                           ("mixbench:sp:naive", 512)):
            ck, config, args, textures = resolve_kernel(spec, size, 4)
            sim = Simulator()
            mem, params, _, tex = sim._stage_memory(ck, args, textures)
            executor = Executor(ck, mem, sim.spec, params, tex)
            del calls[:]
            trace = build_timed_trace(executor, config, range(4))
            table = executor.decoded.table
            control = sum(table[pc].base in ("BRA", "EXIT")
                          for pc in trace.pcs)
            assert 0 < control < len(trace.pcs) / 2
            assert len(calls) <= 1 + control
