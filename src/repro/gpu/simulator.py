"""Kernel launch orchestration: the device-level simulator.

:class:`Simulator` allocates device memory, uploads arguments, builds
warps/blocks, runs one SM's share of the grid through the timed
:class:`~repro.gpu.scheduler.SMScheduler` (uniform-workload assumption;
device counters scale by ``num_sms``), and optionally executes all
remaining blocks functionally so output buffers are complete.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.cudalite.compiler import CompiledKernel
from repro.errors import LaunchError
from repro.gpu.batch import batchable, run_functional_batched, run_per_warp
from repro.gpu.budget import SimBudget
from repro.gpu.caches import MemoryHierarchy
from repro.gpu.config import GPUSpec, LaunchConfig
from repro.gpu.counters import Counters
from repro.gpu.executor import (
    DeviceMemory,
    Executor,
    TextureLayout,
    WarpState,
    state_shape,
    thread_geometry,
)
from repro.gpu.scheduler import SMScheduler
from repro.gpu.timed_trace import build_timed_trace, timed_batchable
from repro.gpu.trace_cache import trace_cache
from repro.sass.occupancy import compute_occupancy
from repro.testing.faultinject import fail_point

__all__ = ["LaunchConfig", "LaunchResult", "SimBudget", "Simulator",
           "TextureDesc"]

_ALLOC_ALIGN = 256


@dataclass(frozen=True)
class TextureDesc:
    """A 2D texture binding passed at launch: the backing array."""

    array: np.ndarray  # 2D float32

    @property
    def height(self) -> int:
        return self.array.shape[0]

    @property
    def width(self) -> int:
        return self.array.shape[1]


@dataclass
class LaunchResult:
    """Everything observable about one simulated launch."""

    spec: GPUSpec
    compiled: CompiledKernel
    config: LaunchConfig
    #: kernel duration in SM cycles (one SM's share, extrapolated)
    cycles: float
    #: counters for the simulated share of the grid
    counters: Counters
    #: counters extrapolated to the whole device
    device_counters: Counters
    achieved_occupancy: float
    theoretical_occupancy: float
    memory: DeviceMemory
    buffers: dict[str, tuple[int, tuple, np.dtype]] = field(default_factory=dict)
    simulated_blocks: int = 0
    extrapolation: float = 1.0
    #: wall-clock spent completing the grid functionally (host seconds)
    functional_seconds: float = 0.0
    #: packs the batched engine ran in the functional phase, how many of
    #: them dissolved at a divergent branch, and the warp-instructions
    #: those finished on the per-warp loop (shown by ``--profile`` and
    #: the ``[exec]`` line)
    func_packs: int = 0
    func_dissolved: int = 0
    func_legacy_inst: int = 0
    #: wall-clock spent in the timed phase (host seconds)
    timed_seconds: float = 0.0
    #: whether every timed wave ran on the trace-driven scheduler
    timed_fast_path: bool = False
    #: warp-instructions issued by the timed phase (unscaled)
    timed_instructions: int = 0
    #: constant-bank offset -> staged value for each kernel parameter
    #: (pointers resolve to device offsets) — lets static predictors
    #: rebuild the launch environment
    param_values: dict[int, int] = field(default_factory=dict)
    #: what the timed phase spent on effect traces: host seconds in
    #: ``trace_build_s`` / ``trace_put_s``, waves answered by the cache
    #: (``trace_hits``) or built (``trace_misses``), and the payload
    #: ``trace_bytes`` of every trace replayed (shown by ``--profile``)
    trace_cost: dict = field(default_factory=dict)

    @property
    def fast_path(self) -> bool:
        """Whether the batched engine executed the functional phase:
        read off what ran, not what was routed."""
        return self.func_packs > 0

    @property
    def functional_inst_per_sec(self) -> float:
        """Functional-path throughput in warp-instructions per host
        second (0.0 when no functional instructions ran)."""
        if self.counters.inst_functional and self.functional_seconds > 0:
            return self.counters.inst_functional / self.functional_seconds
        return 0.0

    @property
    def timed_inst_per_sec(self) -> float:
        """Timed-phase throughput in warp-instructions per host second
        (0.0 when no timed instructions ran)."""
        if self.timed_instructions and self.timed_seconds > 0:
            return self.timed_instructions / self.timed_seconds
        return 0.0

    @property
    def duration_s(self) -> float:
        return self.spec.cycles_to_seconds(self.cycles)

    def read_buffer(self, name: str) -> np.ndarray:
        """Copy a named argument buffer back to host as an ndarray."""
        offset, shape, dtype = self.buffers[name]
        nbytes = int(np.prod(shape)) * dtype.itemsize
        raw = self.memory.buf[offset : offset + nbytes]
        return raw.view(dtype).reshape(shape).copy()


class Simulator:
    """Launches compiled kernels on the simulated GPU."""

    def __init__(self, spec: Optional[GPUSpec] = None):
        self.spec = spec or GPUSpec.v100()

    def _engines(self, decoded) -> tuple[bool, bool]:
        """Which engines may run ``decoded``: (trace-driven timed waves,
        batched functional phase).  Read off the program — float-atomic
        ordering, unhandled opcodes — never set by a caller; a launch
        that gets ``False`` runs per-warp (``run_wave``,
        ``run_per_warp``)."""
        return timed_batchable(decoded), batchable(decoded)

    # ------------------------------------------------------------------
    def launch(
        self,
        compiled: CompiledKernel,
        config: LaunchConfig,
        args: dict[str, Union[np.ndarray, int, float]],
        textures: Optional[dict[str, Union[TextureDesc, np.ndarray]]] = None,
        max_blocks: Optional[int] = None,
        functional_all: bool = True,
        trace=None,
        budget: Optional[SimBudget] = None,
        timed: bool = True,
    ) -> LaunchResult:
        """Run one kernel launch.

        ``args`` maps parameter names to NumPy arrays (pointer params;
        uploaded to device memory) or scalars.  ``max_blocks`` caps the
        number of *timed* blocks — counters and cycles are extrapolated
        linearly, the standard trick for simulating large grids.  With
        ``functional_all`` (default) every remaining block still runs
        functionally so output arrays are complete.

        ``budget`` bounds the work the launch may consume (see
        :class:`~repro.gpu.budget.SimBudget`); ``timed=False`` skips the
        timed scheduler entirely and executes the whole grid
        functionally — the cheapest rung of the engine's degradation
        ladder that still fills output buffers.
        """
        textures = textures or {}
        mem, param_values, buffers, tex_layouts = self._stage_memory(
            compiled, args, textures
        )
        return self._launch_staged(
            compiled, config, mem, param_values, buffers, tex_layouts,
            max_blocks=max_blocks, functional_all=functional_all,
            trace=trace, budget=budget, timed=timed,
        )

    # ------------------------------------------------------------------
    def _launch_staged(
        self,
        compiled: CompiledKernel,
        config: LaunchConfig,
        mem: DeviceMemory,
        param_values: dict[int, int],
        buffers: dict[str, tuple[int, tuple, np.dtype]],
        tex_layouts: dict[int, TextureLayout],
        hierarchy: Optional[MemoryHierarchy] = None,
        max_blocks: Optional[int] = None,
        functional_all: bool = True,
        trace=None,
        budget: Optional[SimBudget] = None,
        timed: bool = True,
    ) -> LaunchResult:
        """Launch with memory already staged (used by
        :class:`~repro.gpu.session.DeviceSession`, which passes its
        persistent memory and warm cache hierarchy)."""
        fail_point("simulator.launch")
        if budget is not None:
            budget.arm()
            budget.check()
        spec = self.spec
        executor = Executor(compiled, mem, spec, param_values, tex_layouts)
        hierarchy = hierarchy or MemoryHierarchy(spec)
        counters = Counters()
        scheduler = SMScheduler(spec, executor, hierarchy, counters,
                                trace=trace, budget=budget)

        occ = compute_occupancy(
            config.threads_per_block,
            compiled.program.registers_per_thread,
            compiled.program.shared_bytes,
            spec.limits,
        )
        if occ.active_blocks == 0:
            raise LaunchError(
                "kernel cannot launch: resource demand exceeds one SM "
                f"(limiter: {occ.limiter})"
            )

        if max_blocks is not None and max_blocks <= 0:
            raise LaunchError(
                f"max_blocks must be positive, got {max_blocks}"
            )
        # SM 0's share, as pure range arithmetic: huge grids must not
        # materialise O(num_blocks) Python lists before a single
        # instruction runs
        num_blocks = config.num_blocks
        my_blocks = range(0, num_blocks, spec.num_sms)
        if timed:
            timed_blocks = (
                my_blocks[:max_blocks] if max_blocks is not None
                else my_blocks
            )
            extrapolation = len(my_blocks) / len(timed_blocks)
        else:
            timed_blocks = range(0, 0)
            extrapolation = 1.0

        counters.blocks_launched = len(timed_blocks)
        resident = occ.active_blocks
        trace_ok, batch_ok = self._engines(executor.decoded)
        use_trace = timed and trace_ok
        timed_fast_path = use_trace
        # content-addressed per-wave trace cache: repeat launches skip
        # the build entirely (budgeted runs opt out — skipping build
        # work would change their degradation decisions)
        cache = trace_cache() if use_trace and budget is None else None
        launch_key = (
            cache.launch_key(compiled, config, param_values, tex_layouts,
                             mem, spec)
            if cache is not None else None
        )
        # wave-boundary observability hook (TimelineCapture only; the
        # plain TraceRecorder has no note_wave)
        note_wave = getattr(trace, "note_wave", None)
        capture = trace if note_wave is not None else None
        cost = {"trace_build_s": 0.0, "trace_put_s": 0.0, "trace_hits": 0,
                "trace_misses": 0, "trace_bytes": 0}
        t0 = time.perf_counter()
        for i in range(0, len(timed_blocks), resident):
            wave = timed_blocks[i : i + resident]
            if cache is not None:
                wkey = cache.wave_key(launch_key, i, wave)
                ent = cache.get(wkey, compiled=compiled)
                if ent is not None:
                    # same observable sequence as a fresh build: the
                    # build fail point fires, the build's functional
                    # memory effect is applied (recorded post-images),
                    # the wave note matches, and the replay commits
                    # deferred float atomics itself
                    fail_point("trace.build")
                    for addrs, vals in ent.trace.post_writes:
                        mem.write_u32(addrs, vals)
                    counters.warps_launched += ent.n_warps
                    cost["trace_hits"] += 1
                    cost["trace_bytes"] += ent.nbytes
                    if capture is not None:
                        capture.note_wave(
                            "trace", ent.n_warps,
                            detail=f"{len(ent.trace.pcs)} trace rows",
                        )
                    scheduler.run_wave_trace(ent.trace, ent.warp_counts)
                    continue
            warp_counts = dict.fromkeys(wave, config.warps_per_block)
            n_warps = len(wave) * config.warps_per_block
            counters.warps_launched += n_warps
            if use_trace:
                t_build = time.perf_counter()
                ttrace = build_timed_trace(executor, config, wave,
                                           capture=capture)
                t_built = time.perf_counter()
                cost["trace_build_s"] += t_built - t_build
                if ttrace is not None:
                    cost["trace_misses"] += 1
                    cost["trace_bytes"] += ttrace.nbytes
                    if cache is not None:
                        cache.put(wkey, ttrace, warp_counts, compiled)
                        cost["trace_put_s"] += time.perf_counter() - t_built
                    scheduler.run_wave_trace(ttrace, warp_counts)
                    continue
                # dissolved (divergent wave) or build error: device
                # memory was rolled back — replay the wave on the
                # legacy interleaved path
                timed_fast_path = False
            elif note_wave is not None:
                note_wave("legacy", n_warps)
            warps = [w for block_id in wave for w in
                     self._make_block_warps(compiled.program, config,
                                            block_id)]
            scheduler.run_wave(warps, warp_counts)
        timed_seconds = time.perf_counter() - t0
        timed_instructions = counters.inst_issued
        cycles = scheduler.now * extrapolation
        counters.cycles = cycles

        functional_seconds = 0.0
        func_packs = func_dissolved = func_legacy_inst = 0
        if functional_all:
            # range membership is O(1): no timed-block set, no list
            rest = (b for b in range(num_blocks) if b not in timed_blocks)
            t0 = time.perf_counter()
            if batch_ok:
                done, func_packs, func_dissolved, func_legacy_inst = (
                    run_functional_batched(executor, config, rest, budget)
                )
                counters.inst_functional += done
            else:
                for block_id in rest:
                    counters.inst_functional += run_per_warp(
                        executor,
                        self._make_block_warps(compiled.program, config,
                                               block_id),
                        budget,
                    )
            functional_seconds = time.perf_counter() - t0

        achieved = 0.0
        if cycles > 0:
            achieved = min(
                1.0,
                counters.warp_cycles_active
                * extrapolation
                / (cycles * spec.limits.max_warps),
            )
        device = counters.scaled(extrapolation * spec.num_sms)
        device.cycles = cycles
        sm_share = counters.scaled(extrapolation)
        sm_share.cycles = cycles
        return LaunchResult(
            spec=spec,
            compiled=compiled,
            config=config,
            cycles=cycles,
            counters=sm_share,
            device_counters=device,
            achieved_occupancy=achieved,
            theoretical_occupancy=occ.occupancy,
            memory=mem,
            buffers=buffers,
            simulated_blocks=len(timed_blocks),
            extrapolation=extrapolation,
            functional_seconds=functional_seconds,
            func_packs=func_packs,
            func_dissolved=func_dissolved,
            func_legacy_inst=func_legacy_inst,
            timed_seconds=timed_seconds,
            timed_fast_path=timed_fast_path,
            timed_instructions=timed_instructions,
            param_values=dict(param_values),
            trace_cost=cost,
        )

    # ------------------------------------------------------------------
    def _stage_memory(self, compiled, args, textures):
        """Allocate device memory, upload arrays and build the constant
        bank (parameter) map."""
        declared = {slot.name for slot in compiled.params}
        missing = declared - set(args)
        if missing:
            raise LaunchError(f"missing kernel arguments: {sorted(missing)}")
        extra = set(args) - declared
        if extra:
            raise LaunchError(f"unknown kernel arguments: {sorted(extra)}")
        tex_names = {t.name for t in compiled.textures}
        if tex_names != set(textures):
            raise LaunchError(
                f"texture bindings {sorted(textures)} do not match "
                f"declared textures {sorted(tex_names)}"
            )
        total = _ALLOC_ALIGN  # keep offset 0 unused (null pointer)
        arrays: dict[str, np.ndarray] = {}
        for slot in compiled.params:
            value = args[slot.name]
            if slot.is_pointer:
                if not isinstance(value, np.ndarray):
                    raise LaunchError(
                        f"argument {slot.name!r} must be a NumPy array"
                    )
                expected = slot.type.elem.scalar.np_dtype
                if value.dtype != expected:
                    raise LaunchError(
                        f"argument {slot.name!r} has dtype {value.dtype}, "
                        f"kernel expects {expected}"
                    )
                arrays[slot.name] = value
                total += -(-value.nbytes // _ALLOC_ALIGN) * _ALLOC_ALIGN
        tex_arrays: dict[str, np.ndarray] = {}
        for tex in compiled.textures:
            bound = textures[tex.name]
            arr = bound.array if isinstance(bound, TextureDesc) else bound
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            if arr.ndim != 2:
                raise LaunchError(f"texture {tex.name!r} must be 2D")
            tex_arrays[tex.name] = arr
            layout_probe = TextureLayout(0, arr.shape[1], arr.shape[0],
                                         self.spec.tex_tile_x,
                                         self.spec.tex_tile_y)
            total += -(-layout_probe.nbytes // _ALLOC_ALIGN) * _ALLOC_ALIGN

        mem = DeviceMemory(total + _ALLOC_ALIGN)
        param_values: dict[int, int] = {}
        buffers: dict[str, tuple[int, tuple, np.dtype]] = {}
        cursor = _ALLOC_ALIGN
        for slot in compiled.params:
            value = args[slot.name]
            if slot.is_pointer:
                arr = arrays[slot.name]
                mem.buf[cursor : cursor + arr.nbytes] = np.frombuffer(
                    arr.tobytes(), dtype=np.uint8
                )
                param_values[slot.offset] = cursor
                buffers[slot.name] = (cursor, arr.shape, arr.dtype)
                cursor += -(-arr.nbytes // _ALLOC_ALIGN) * _ALLOC_ALIGN
            else:
                param_values[slot.offset] = _scalar_bits(value, slot.type)
        tex_layouts: dict[int, TextureLayout] = {}
        for i, tex in enumerate(compiled.textures):
            arr = tex_arrays[tex.name]
            layout = TextureLayout(cursor, arr.shape[1], arr.shape[0],
                                   self.spec.tex_tile_x, self.spec.tex_tile_y)
            layout.upload(mem, arr)
            tex_layouts[i] = layout
            cursor += -(-layout.nbytes // _ALLOC_ALIGN) * _ALLOC_ALIGN
        return mem, param_values, buffers, tex_layouts

    # ------------------------------------------------------------------
    @staticmethod
    def _make_block_warps(program, config: LaunchConfig,
                          block_id: int) -> list[WarpState]:
        """Fresh per-warp states of one block, for the per-warp paths
        (``run_wave``, ``run_per_warp``); the batched paths build a
        :class:`~repro.gpu.batch.WarpPack` instead."""
        nregs, local_slots = state_shape(program)
        shared = (
            np.zeros(program.shared_bytes, dtype=np.uint8)
            if program.shared_bytes
            else None
        )
        tid, active, ctaid = thread_geometry(config, [block_id])
        return [
            WarpState(
                nregs=nregs,
                local_slots=local_slots,
                shared=shared,
                tid=tuple(t[w] for t in tid),
                ctaid=tuple(int(c[0]) for c in ctaid),
                ntid=(config.block[0], config.block[1], 1),
                nctaid=(config.grid[0], config.grid[1], 1),
                active=active[w],
                warp_id=w,
                block_id=block_id,
            )
            for w in range(config.warps_per_block)
        ]


def _scalar_bits(value, dtype) -> int:
    """Encode a scalar argument as its 32/64-bit register image."""
    import struct

    if dtype.is_float:
        if dtype.bits == 64:
            return struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        return struct.unpack("<I", struct.pack("<f", float(value)))[0]
    return int(value) & ((1 << dtype.bits) - 1)
