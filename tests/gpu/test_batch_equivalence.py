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
from repro.gpu.simulator import LaunchConfig, Simulator

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
    sim = Simulator(fast=fast)
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
            sim = Simulator(fast=fast)
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
            sim = Simulator(fast=fast)
            out = np.zeros(6 * 96, dtype=np.float32)
            r = sim.launch(ck, config, {"dst": out},
                           max_blocks=1, functional_all=True)
            counts.append(r.counters.inst_functional)
        assert counts[0] == counts[1] > 0
