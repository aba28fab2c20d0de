"""Histogram workload for the §4.4 (shared atomics) analysis.

The paper describes the detector and the expected dynamics — global
atomics serialize kernel-wide and resolve in L2, shared atomics
serialize per block at the cost of MIO pressure — but has no dedicated
case study.  This workload supplies one:

* ``global`` — every element update is an ``atomicAdd`` on the global
  histogram, inside the per-thread loop: the §4.4 worst case ("GPUscout
  warns of global atomics especially detected in a for-loop");
* ``shared`` — the recommended fix: block-private bins in shared
  memory updated with ``ATOMS``, merged to global once per block.

``histogram_reference`` provides the NumPy oracle; counts are exact
(integer bins).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cudalite import KernelBuilder, compile_kernel, i32, ptr
from repro.cudalite.compiler import CompiledKernel
from repro.gpu.config import LaunchConfig

__all__ = ["build_histogram", "histogram_args", "histogram_launch",
           "histogram_reference", "HISTOGRAM_VARIANTS", "NUM_BINS"]

HISTOGRAM_VARIANTS = ("global", "shared")
NUM_BINS = 64
ITEMS_PER_THREAD = 8


def build_histogram(variant: str = "global",
                    max_registers: Optional[int] = None) -> CompiledKernel:
    """Compile one histogram variant (see the module docstring)."""
    if variant not in HISTOGRAM_VARIANTS:
        raise ValueError(f"variant must be one of {HISTOGRAM_VARIANTS}")
    kb = KernelBuilder(f"histogram_{variant}", max_registers=max_registers)
    data = kb.param("data", ptr(i32, readonly=True))
    bins = kb.param("bins", ptr(i32))
    t = kb.let("t", kb.block_idx.x * kb.block_dim.x + kb.thread_idx.x,
               dtype=i32)
    base = kb.let("base", t * ITEMS_PER_THREAD, dtype=i32)
    if variant == "global":
        with kb.for_range("i", 0, ITEMS_PER_THREAD) as i:
            v = kb.let("v", data[base + i])
            kb.atomic_add_global(bins, v % NUM_BINS, 1)
    else:
        local = kb.shared_array("local_bins", i32, NUM_BINS)
        tid = kb.let("tid", kb.thread_idx.x, dtype=i32)
        # zero the block-private bins (blockDim >= NUM_BINS assumed)
        with kb.if_then(tid < NUM_BINS):
            local[tid] = 0
        kb.sync_threads()
        with kb.for_range("i", 0, ITEMS_PER_THREAD) as i:
            v = kb.let("v", data[base + i])
            kb.atomic_add_shared(local, v % NUM_BINS, 1)
        kb.sync_threads()
        with kb.if_then(tid < NUM_BINS):
            kb.atomic_add_global(bins, tid, local[tid])
    return compile_kernel(kb.build(), max_registers=max_registers)


def histogram_launch(n_threads: int,
                     block: int = 256) -> LaunchConfig:
    """Launch shape covering ``n_threads`` threads."""
    if n_threads % block:
        raise ValueError("n_threads must be a multiple of the block size")
    return LaunchConfig(grid=(n_threads // block, 1), block=(block, 1))


def histogram_args(n_threads: int, rng_seed: int = 5,
                   skew: float = 0.0) -> dict:
    """Host-side staging.

    ``skew`` in [0, 1]: 0 = uniform bins (little atomic contention),
    1 = every element hits bin 0 (maximal serialization).
    """
    rng = np.random.default_rng(rng_seed)
    n = n_threads * ITEMS_PER_THREAD
    uniform = rng.integers(0, NUM_BINS, size=n)
    mask = rng.random(n) < skew
    data = np.where(mask, 0, uniform).astype(np.int32)
    return {"data": data, "bins": np.zeros(NUM_BINS, dtype=np.int32)}


def histogram_reference(data: np.ndarray) -> np.ndarray:
    """Exact NumPy histogram over NUM_BINS bins."""
    return np.bincount(data % NUM_BINS, minlength=NUM_BINS).astype(np.int32)
