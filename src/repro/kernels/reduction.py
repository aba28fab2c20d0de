"""Sum-reduction workload (extension; exercises §4.3/§4.4 together).

The classic CUDA optimization ladder for reductions, each rung mapping
to GPUscout territory:

* ``atomic`` — every thread ``atomicAdd``s its element into one global
  accumulator: the §4.4 worst case (kernel-wide serialization);
* ``shared`` — block-level tree reduction in shared memory with
  ``__syncthreads()`` between halving steps, one global atomic per
  block;
* ``warp`` — the modern idiom: shared tree down to warp width, then
  ``__shfl_down_sync`` finishes within registers — no memory traffic
  for the last five steps.

All variants reduce ``block_size`` elements per block into a single
float accumulator (deterministic data keeps float rounding identical
enough for tests to use modest tolerances).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cudalite import KernelBuilder, compile_kernel, f32, i32, ptr
from repro.cudalite.compiler import CompiledKernel
from repro.gpu.config import LaunchConfig

__all__ = ["build_reduction", "reduction_args", "reduction_launch",
           "reduction_reference", "REDUCTION_VARIANTS", "BLOCK"]

REDUCTION_VARIANTS = ("atomic", "shared", "warp")
BLOCK = 256


def build_reduction(variant: str = "shared",
                    max_registers: Optional[int] = None) -> CompiledKernel:
    """Compile one reduction variant (see the module docstring)."""
    if variant not in REDUCTION_VARIANTS:
        raise ValueError(f"variant must be one of {REDUCTION_VARIANTS}")
    kb = KernelBuilder(f"reduce_{variant}", max_registers=max_registers)
    src = kb.param("src", ptr(f32, readonly=True))
    total = kb.param("total", ptr(f32))
    g = kb.let("g", kb.block_idx.x * kb.block_dim.x + kb.thread_idx.x,
               dtype=i32)
    if variant == "atomic":
        kb.atomic_add_global(total, 0, src[g])
        return compile_kernel(kb.build(), max_registers=max_registers)

    tid = kb.let("tid", kb.thread_idx.x, dtype=i32)
    buf = kb.shared_array("buf", f32, BLOCK)
    buf[tid] = src[g]
    kb.sync_threads()
    stop = 32 if variant == "warp" else 1
    stride = BLOCK // 2
    while stride >= stop:
        with kb.if_then(tid < stride):
            buf[tid] = buf[tid] + buf[tid + stride]
        kb.sync_threads()
        stride //= 2
    if variant == "warp":
        v = kb.let("v", buf[tid], dtype=f32)
        for delta in (16, 8, 4, 2, 1):
            kb.assign(v, v + kb.shfl_down(v, delta))
        with kb.if_then(tid.eq(0)):
            kb.atomic_add_global(total, 0, v)
    else:
        with kb.if_then(tid.eq(0)):
            kb.atomic_add_global(total, 0, buf[0])
    return compile_kernel(kb.build(), max_registers=max_registers)


def reduction_launch(n: int) -> LaunchConfig:
    if n % BLOCK:
        raise ValueError(f"n must be a multiple of BLOCK={BLOCK}")
    return LaunchConfig(grid=(n // BLOCK, 1), block=(BLOCK, 1))


def reduction_args(n: int, rng_seed: int = 21) -> dict:
    rng = np.random.default_rng(rng_seed)
    data = (rng.random(n, dtype=np.float32) - 0.5)
    return {"src": data, "total": np.zeros(1, dtype=np.float32)}


def reduction_reference(data: np.ndarray) -> float:
    """float64 reference sum (tests use a tolerance for f32 ordering)."""
    return float(data.astype(np.float64).sum())
