"""Device sessions: resident buffers and warm caches across launches.

Real CUDA applications allocate device buffers once and launch many
kernels against them (the Jacobi solver "consecutively computes the
time steps", paper §5.2).  :class:`DeviceSession` provides that model
for the simulator:

* :meth:`alloc` / :meth:`upload` create device-resident buffers;
  kernels take :class:`DeviceBuffer` handles as pointer arguments, so
  iterative solvers swap buffers without re-staging host data;
* the memory hierarchy persists across launches — later launches see
  *warm* caches, as on hardware;
* :meth:`download` copies results back explicitly (the cudaMemcpy
  moment), and buffers can be rebound as textures.

The one-shot :meth:`~repro.gpu.simulator.Simulator.launch` remains the
convenient path for single launches.

Warm caches compose with the trace-driven timed scheduler
(:mod:`repro.gpu.timed_trace`): the consumer replays cache-tag lookups
in legacy issue order, so back-to-back launches stay bit-identical to
the reference scheduler even though later launches start from the
cache state earlier ones left behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.cudalite.compiler import CompiledKernel
from repro.errors import LaunchError
from repro.gpu.caches import MemoryHierarchy
from repro.gpu.config import GPUSpec
from repro.gpu.executor import DeviceMemory, TextureLayout
from repro.gpu.simulator import (
    LaunchConfig,
    LaunchResult,
    Simulator,
    _scalar_bits,
)

__all__ = ["DeviceBuffer", "DeviceSession"]

_ALIGN = 256


@dataclass(frozen=True)
class DeviceBuffer:
    """A device-resident allocation (name, offset, shape, dtype)."""

    name: str
    offset: int
    shape: tuple
    dtype: np.dtype

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.dtype.itemsize


class DeviceSession:
    """A long-lived device context for multi-launch workloads."""

    def __init__(self, spec: Optional[GPUSpec] = None,
                 capacity_bytes: int = 64 * 1024 * 1024):
        self.spec = spec or GPUSpec.v100()
        self.sim = Simulator(self.spec)
        self.memory = DeviceMemory(capacity_bytes)
        #: caches persist across launches (warm-cache semantics)
        self.hierarchy = MemoryHierarchy(self.spec)
        self._cursor = _ALIGN  # offset 0 stays the null pointer
        self._buffers: dict[str, DeviceBuffer] = {}
        self._textures: dict[str, TextureLayout] = {}
        self._counter = 0

    def cache_stats(self) -> dict:
        """Warm-state accounting for this session: hit/miss counters of
        the persistent memory hierarchy plus the process-wide
        effect-trace cache (the serving stack's L2 tier), which is what
        turns repeat launches into replay-only work.  Long-lived
        workloads — iterative solvers, service workers — read this to
        see whether their launches actually reuse warm state."""
        from repro.gpu.trace_cache import trace_cache

        out: dict = {}
        for level in ("l1", "tex", "l2"):
            cache = getattr(self.hierarchy, level)
            out[level] = {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
            }
        tc = trace_cache()
        out["traces"] = tc.stats() if tc is not None else None
        return out

    # -- allocation ------------------------------------------------------
    def alloc(self, shape, dtype, name: Optional[str] = None) -> DeviceBuffer:
        """Allocate a zero-initialised device buffer."""
        dtype = np.dtype(dtype)
        shape = tuple(np.atleast_1d(shape).tolist()) if not isinstance(
            shape, tuple) else shape
        if name is None:
            self._counter += 1
            name = f"buf{self._counter}"
        if name in self._buffers:
            raise LaunchError(f"buffer name {name!r} already allocated")
        nbytes = int(np.prod(shape)) * dtype.itemsize
        end = self._cursor + nbytes
        if end > self.memory.size:
            raise LaunchError(
                f"device session out of memory ({end} > {self.memory.size})"
            )
        buf = DeviceBuffer(name, self._cursor, shape, dtype)
        self._cursor = -(-end // _ALIGN) * _ALIGN
        self._buffers[name] = buf
        return buf

    def upload(self, array: np.ndarray,
               name: Optional[str] = None) -> DeviceBuffer:
        """Allocate and copy a host array to the device."""
        array = np.ascontiguousarray(array)
        buf = self.alloc(array.shape, array.dtype, name)
        self.memory.buf[buf.offset : buf.offset + array.nbytes] = \
            np.frombuffer(array.tobytes(), dtype=np.uint8)
        return buf

    def download(self, buf: DeviceBuffer) -> np.ndarray:
        """Copy a device buffer back to the host."""
        raw = self.memory.buf[buf.offset : buf.offset + buf.nbytes]
        return raw.view(buf.dtype).reshape(buf.shape).copy()

    def bind_texture(self, buf_or_array: Union[DeviceBuffer, np.ndarray],
                     name: Optional[str] = None) -> TextureLayout:
        """Create a tiled texture from a 2D array (device copies are
        re-tiled: textures have their own storage layout)."""
        if isinstance(buf_or_array, DeviceBuffer):
            array = self.download(buf_or_array)
        else:
            array = np.asarray(buf_or_array)
        if array.ndim != 2:
            raise LaunchError("textures must be 2D")
        array = array.astype(np.float32)
        h, w = array.shape
        layout = TextureLayout(0, w, h, self.spec.tex_tile_x,
                               self.spec.tex_tile_y)
        # allocate backing storage
        backing = self.alloc((layout.nbytes // 4,), np.float32,
                             name=name and f"__tex_{name}")
        layout = TextureLayout(backing.offset, w, h, self.spec.tex_tile_x,
                               self.spec.tex_tile_y)
        layout.upload(self.memory, array)
        return layout

    # -- launching ---------------------------------------------------------
    def launch(
        self,
        compiled: CompiledKernel,
        config: LaunchConfig,
        args: dict[str, Union[DeviceBuffer, int, float, np.ndarray]],
        textures: Optional[dict[str, Union[TextureLayout, np.ndarray]]] = None,
        max_blocks: Optional[int] = None,
        functional_all: bool = True,
        trace=None,
    ) -> LaunchResult:
        """Launch against session-resident buffers.

        Pointer arguments accept :class:`DeviceBuffer` handles (no
        copy) or host arrays (uploaded as fresh buffers).  Texture
        bindings accept :class:`TextureLayout` from
        :meth:`bind_texture` or raw 2D arrays.
        """
        param_values: dict[int, int] = {}
        buffers: dict[str, tuple[int, tuple, np.dtype]] = {}
        declared = {slot.name for slot in compiled.params}
        missing = declared - set(args)
        if missing:
            raise LaunchError(f"missing kernel arguments: {sorted(missing)}")
        for slot in compiled.params:
            value = args[slot.name]
            if slot.is_pointer:
                if isinstance(value, np.ndarray):
                    value = self.upload(value)
                if not isinstance(value, DeviceBuffer):
                    raise LaunchError(
                        f"argument {slot.name!r} must be a DeviceBuffer "
                        "or ndarray"
                    )
                expected = slot.type.elem.scalar.np_dtype
                if value.dtype != expected:
                    raise LaunchError(
                        f"buffer {value.name!r} has dtype {value.dtype}, "
                        f"kernel expects {expected}"
                    )
                param_values[slot.offset] = value.offset
                buffers[slot.name] = (value.offset, value.shape, value.dtype)
            else:
                param_values[slot.offset] = _scalar_bits(value, slot.type)
        tex_layouts: dict[int, TextureLayout] = {}
        textures = textures or {}
        declared_tex = {t.name for t in compiled.textures}
        if declared_tex != set(textures):
            raise LaunchError(
                f"texture bindings {sorted(textures)} do not match "
                f"declared textures {sorted(declared_tex)}"
            )
        for i, tex in enumerate(compiled.textures):
            bound = textures[tex.name]
            if not isinstance(bound, TextureLayout):
                bound = self.bind_texture(np.asarray(bound))
            tex_layouts[i] = bound
        return self.sim._launch_staged(
            compiled, config, self.memory, param_values, buffers,
            tex_layouts, hierarchy=self.hierarchy,
            max_blocks=max_blocks, functional_all=functional_all,
            trace=trace,
        )
