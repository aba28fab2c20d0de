"""SGEMM ``C <- alpha*A*B + beta*C`` (paper §5.3).

Variants mirror the case study's optimization ladder:

* ``naive`` — one thread per C element, dot product straight from
  global memory.  GPUscout flags the read-only A/B loads for
  ``__restrict__`` and the reused loads for shared memory;
* ``shared`` — shared-memory tiling (the paper's ~54x step); each
  thread stages **two adjacent** elements per tile, so re-analyzing
  this kernel makes GPUscout "newly recommend a vectorized load
  optimization" exactly as in the case study;
* ``shared_vec`` — the follow-up fix: tiles staged and C updated
  through ``float4`` (128-bit) accesses, four C columns per thread.
  Register pressure rises markedly (the paper reports 25 -> 72
  registers and an occupancy warning).

Launch shapes differ per variant; use :func:`sgemm_launch`.
All dimensions must be multiples of ``TILE`` (= 16; the case study's
10240 qualifies).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cudalite import (
    KernelBuilder,
    compile_kernel,
    f32,
    float4,
    i32,
    ptr,
)
from repro.cudalite.compiler import CompiledKernel
from repro.cudalite.intrinsics import mad
from repro.gpu.config import LaunchConfig

__all__ = ["build_sgemm", "sgemm_args", "sgemm_launch", "sgemm_reference",
           "SGEMM_VARIANTS", "TILE"]

SGEMM_VARIANTS = ("naive", "shared", "shared_vec")
TILE = 16


def build_sgemm(variant: str = "naive",
                max_registers: Optional[int] = None) -> CompiledKernel:
    """Compile one SGEMM variant (see the module docstring)."""
    if variant not in SGEMM_VARIANTS:
        raise ValueError(f"variant must be one of {SGEMM_VARIANTS}")
    if variant == "naive":
        return _build_naive(max_registers)
    if variant == "shared":
        return _build_shared(max_registers)
    return _build_shared_vec(max_registers)


def sgemm_launch(variant: str, m: int, n: int) -> LaunchConfig:
    """The launch configuration matching :func:`build_sgemm`."""
    if m % TILE or n % TILE:
        raise ValueError(f"m/n must be multiples of TILE={TILE}")
    grid = (n // TILE, m // TILE)
    if variant == "naive":
        return LaunchConfig(grid=grid, block=(TILE, TILE))
    if variant == "shared":
        return LaunchConfig(grid=grid, block=(TILE // 2, TILE))
    if variant == "shared_vec":
        return LaunchConfig(grid=grid, block=(TILE // 4, TILE))
    raise ValueError(f"variant must be one of {SGEMM_VARIANTS}")


def _params(kb: KernelBuilder):
    a = kb.param("a", ptr(f32))
    b = kb.param("b", ptr(f32))
    c = kb.param("c", ptr(f32))
    m = kb.param("m", i32)
    n = kb.param("n", i32)
    kk = kb.param("k", i32)
    alpha = kb.param("alpha", f32)
    beta = kb.param("beta", f32)
    return a, b, c, m, n, kk, alpha, beta


def _build_naive(max_registers) -> CompiledKernel:
    kb = KernelBuilder("sgemm_naive", max_registers=max_registers)
    a, b, c, m, n, kk, alpha, beta = _params(kb)
    row = kb.let("row", kb.block_idx.y * kb.block_dim.y + kb.thread_idx.y,
                 dtype=i32)
    col = kb.let("col", kb.block_idx.x * kb.block_dim.x + kb.thread_idx.x,
                 dtype=i32)
    kb.return_if((row >= m).logical_or(col >= n))
    acc = kb.let("acc", 0.0, dtype=f32)
    with kb.for_range("p", 0, kk) as p:
        kb.assign(acc, mad(a[row * kk + p], b[p * n + col], acc))
    kb.store(c, row * n + col, alpha * acc + beta * c[row * n + col])
    return compile_kernel(kb.build(), max_registers=max_registers)


def _build_shared(max_registers) -> CompiledKernel:
    """16x16 tiles staged through shared memory; block (8, 16) — every
    thread loads/computes *two adjacent columns*, giving the adjacent
    32-bit-load pattern the paper's follow-up analysis flags."""
    kb = KernelBuilder("sgemm_shared", max_registers=max_registers)
    a, b, c, m, n, kk, alpha, beta = _params(kb)
    asub = kb.shared_array("asub", f32, TILE * TILE)
    bsub = kb.shared_array("bsub", f32, TILE * TILE)
    tx = kb.let("tx", kb.thread_idx.x, dtype=i32)  # 0..7
    ty = kb.let("ty", kb.thread_idx.y, dtype=i32)  # 0..15
    row = kb.let("row", kb.block_idx.y * TILE + ty, dtype=i32)
    cx = kb.let("cx", tx * 2, dtype=i32)  # first of the 2 columns
    col = kb.let("col", kb.block_idx.x * TILE + cx, dtype=i32)
    acc0 = kb.let("acc0", 0.0, dtype=f32)
    acc1 = kb.let("acc1", 0.0, dtype=f32)
    ntiles = kb.let("ntiles", kk / TILE, dtype=i32)
    with kb.for_range("t", 0, ntiles) as t:
        asub[ty * TILE + cx] = a[row * kk + t * TILE + cx]
        asub[ty * TILE + cx + 1] = a[row * kk + t * TILE + cx + 1]
        bsub[ty * TILE + cx] = b[(t * TILE + ty) * n + col]
        bsub[ty * TILE + cx + 1] = b[(t * TILE + ty) * n + col + 1]
        kb.sync_threads()
        with kb.for_range("p", 0, TILE, unroll=True) as p:
            kb.assign(acc0, mad(asub[ty * TILE + p], bsub[p * TILE + cx], acc0))
            kb.assign(acc1, mad(asub[ty * TILE + p],
                                bsub[p * TILE + cx + 1], acc1))
        kb.sync_threads()
    kb.store(c, row * n + col, alpha * acc0 + beta * c[row * n + col])
    kb.store(c, row * n + col + 1, alpha * acc1 + beta * c[row * n + col + 1])
    return compile_kernel(kb.build(), max_registers=max_registers)


def _build_shared_vec(max_registers) -> CompiledKernel:
    """Shared tiling with float4 (128-bit) staging: block (4, 16), each
    thread loads one float4 of A/B per tile and computes four adjacent
    C columns held in a float4 accumulator."""
    kb = KernelBuilder("sgemm_shared_vec", max_registers=max_registers)
    a, b, c, m, n, kk, alpha, beta = _params(kb)
    a4 = a.as_vector(float4)
    b4 = b.as_vector(float4)
    c4 = c.as_vector(float4)
    asub = kb.shared_array("asub", f32, TILE * TILE)
    bsub = kb.shared_array("bsub", float4, TILE * TILE // 4)
    tx = kb.let("tx", kb.thread_idx.x, dtype=i32)  # 0..3
    ty = kb.let("ty", kb.thread_idx.y, dtype=i32)  # 0..15
    row = kb.let("row", kb.block_idx.y * TILE + ty, dtype=i32)
    col4 = kb.let("col4", kb.block_idx.x * (TILE // 4) + tx, dtype=i32)
    k4 = kb.let("k4", kk / 4, dtype=i32)
    n4 = kb.let("n4", n / 4, dtype=i32)
    acc = kb.let("acc", 0.0, dtype=float4)
    ntiles = kb.let("ntiles", kk / TILE, dtype=i32)
    with kb.for_range("t", 0, ntiles) as t:
        av = kb.let("av", a4[row * k4 + t * (TILE // 4) + tx], dtype=float4)
        asub[ty * TILE + tx * 4] = av.x
        asub[ty * TILE + tx * 4 + 1] = av.y
        asub[ty * TILE + tx * 4 + 2] = av.z
        asub[ty * TILE + tx * 4 + 3] = av.w
        bsub[ty * (TILE // 4) + tx] = b4[(t * TILE + ty) * n4 + col4]
        kb.sync_threads()
        with kb.for_range("p", 0, TILE, unroll=True) as p:
            kb.assign(
                acc,
                mad(asub[ty * TILE + p], bsub[p * (TILE // 4) + tx], acc),
            )
        kb.sync_threads()
    out = kb.let("out", mad(c4[row * n4 + col4], beta, acc * alpha),
                 dtype=float4)
    kb.store(c4, row * n4 + col4, out)
    return compile_kernel(kb.build(), max_registers=max_registers)


def sgemm_args(m: int, n: int, k: int, alpha: float = 1.0, beta: float = 0.5,
               rng_seed: int = 11) -> dict:
    """Host-side staging for one SGEMM launch (row-major matrices)."""
    if m % TILE or n % TILE or k % TILE:
        raise ValueError(f"matrix dims must be multiples of TILE={TILE}")
    rng = np.random.default_rng(rng_seed)
    a = (rng.random((m, k)) - 0.5).astype(np.float32)
    b = (rng.random((k, n)) - 0.5).astype(np.float32)
    c = (rng.random((m, n)) - 0.5).astype(np.float32)
    return {
        "a": a.ravel(), "b": b.ravel(), "c": c.ravel(),
        "m": m, "n": n, "k": k,
        "alpha": np.float32(alpha), "beta": np.float32(beta),
    }


def sgemm_reference(args: dict) -> np.ndarray:
    """NumPy reference ``alpha*A@B + beta*C`` (float64 accumulate)."""
    m, n, k = args["m"], args["n"], args["k"]
    a = args["a"].reshape(m, k).astype(np.float64)
    b = args["b"].reshape(k, n).astype(np.float64)
    c = args["c"].reshape(m, n).astype(np.float64)
    out = float(args["alpha"]) * (a @ b) + float(args["beta"]) * c
    return out.astype(np.float32).ravel()
