"""Shared fixtures.

Simulation results for the case-study kernels are expensive enough to
be worth caching per session; every fixture that mutates nothing is
session-scoped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cudalite import KernelBuilder, compile_kernel, f32, i32, ptr
from repro.gpu import GPUSpec, LaunchConfig, Simulator


@pytest.fixture(scope="session")
def small_spec() -> GPUSpec:
    """One-SM spec: every block simulated, outputs complete."""
    return GPUSpec.small(1)


@pytest.fixture(scope="session")
def sim(small_spec) -> Simulator:
    return Simulator(small_spec)


def build_saxpy(restrict: bool = False):
    """The canonical little kernel used across many tests."""
    kb = KernelBuilder("saxpy")
    x = kb.param("x", ptr(f32, readonly=restrict, restrict=restrict))
    y = kb.param("y", ptr(f32))
    a = kb.param("a", f32)
    n = kb.param("n", i32)
    i = kb.let("i", kb.block_idx.x * kb.block_dim.x + kb.thread_idx.x,
               dtype=i32)
    kb.return_if(i >= n)
    kb.store(y, i, a * x[i] + y[i])
    return compile_kernel(kb.build())


@pytest.fixture(scope="session")
def saxpy():
    return build_saxpy()


def build_varloop_barrier():
    """Loop trip counts diverge *between warps of one block* upstream of
    ``__syncthreads()``: per-warp segments cannot reorder warps across a
    barrier they must re-meet at, so this is the one divergence shape
    whose timed build dissolves and replays on ``run_wave`` — the
    per-warp interpreter reached by input alone.  Launch it as
    ``grid=(2, 1), block=(32, 2)`` with a 128-float ``dst``."""
    kb = KernelBuilder("varloop_barrier")
    dst = kb.param("dst", ptr(f32))
    tid = kb.let("tid", kb.thread_idx.y * 32 + kb.thread_idx.x, dtype=i32)
    g = kb.let("g", kb.block_idx.x * 64 + tid, dtype=i32)
    buf = kb.shared_array("buf", f32, 64)
    acc = kb.let("acc", 0.0, dtype=f32)
    with kb.for_range("i", 0, kb.thread_idx.y + 1):
        kb.assign(acc, acc + 1.5)
    buf[tid] = acc
    kb.sync_threads()
    # read the partner lane in the *other* warp: wrong unless both
    # warps genuinely met at the barrier
    kb.store(dst, g, buf[tid ^ 32])
    return compile_kernel(kb.build())


def make_simulator(fast: bool, spec=None) -> Simulator:
    """The product simulator, or (``fast=False``) the per-warp oracle
    the equivalence suites compare it against."""
    from repro.testing.reference import ReferenceSimulator

    return (Simulator if fast else ReferenceSimulator)(spec)


@pytest.fixture
def fresh_programs(monkeypatch):
    """An empty catalog program table for one test (the process's own
    is back afterwards): ``resolve_kernel`` compiles again, and
    ``program_stats()`` counts from zero."""
    from repro.kernels import catalog

    monkeypatch.setattr(catalog, "_programs", {})
    monkeypatch.setattr(catalog, "_compiles", 0)
    return catalog


@pytest.fixture
def stage_memory_calls(monkeypatch):
    """Spy on ``Simulator._stage_memory``: grows by one per
    ``sim.launch`` the degradation ladder attempted (call counts, not
    wall time)."""
    calls = []
    real = Simulator._stage_memory

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "_stage_memory", counting)
    return calls


@pytest.fixture(scope="session")
def saxpy_launch(sim, saxpy):
    n = 1024
    xs = np.arange(n, dtype=np.float32)
    ys = np.ones(n, dtype=np.float32)
    return sim.launch(
        saxpy,
        LaunchConfig(grid=(8, 1), block=(128, 1)),
        args={"x": xs, "y": ys, "a": 2.0, "n": n},
    )


LOOP_SASS = """
        /*0000*/ S2R R0, SR_TID.X ;
        /*0010*/ MOV R2, c[0x0][0x160] ;
        /*0020*/ IADD3 R2, R2, R0, RZ ;
.LOOP:
        /*0030*/ LDG.E.SYS R4, [R2+0x10] ;
        /*0040*/ FFMA R4, R4, R4, R4 ;
        /*0050*/ IADD3 R0, R0, 0x1, RZ ;
        /*0060*/ ISETP.LT.AND P0, PT, R0, 0x60, PT ;
        /*0070*/ @P0 BRA `(LOOP) ;
        /*0080*/ STG.E.SYS [R2], R4 ;
        /*0090*/ EXIT ;
"""


@pytest.fixture(scope="session")
def loop_program():
    from repro.sass import parse_sass

    return parse_sass(LOOP_SASS, "loopy")
