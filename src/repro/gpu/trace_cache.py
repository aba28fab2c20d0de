"""Content-addressed per-wave trace cache (L2 of the serving stack).

The timed fast path splits a wave into a *build* (batched functional
execution that records the effect trace, :mod:`repro.gpu.timed_trace`)
and a *replay* (:meth:`~repro.gpu.scheduler.SMScheduler.run_wave_trace`).
The build is a pure function of the program, the launch geometry, the
parameter block and the device-memory contents at wave start — none of
the stateful timing machinery (heap, Timeline, caches) feeds back into
it.  Workloads that re-run the same launch — benchmark repeats, what-if
sensitivity reruns, perturbation sweeps, repeat *service* submissions —
therefore rebuild an identical trace every time.

This cache keys each wave by a launch fingerprint (program identity,
grid/block, parameter values, texture bindings, a CRC of the full
device-memory image at launch, and the spec fields the packers read)
plus the wave's ordinal and block range.  Determinism makes the
per-launch fingerprint sufficient for *every* wave of the launch: the
memory image at wave N is a pure function of the image at launch plus
the (cached, deterministic) effects of waves 0..N-1, which the hit path
reproduces by applying the trace's recorded ``post_writes`` before
replay.  Deferred float atomics are not part of ``post_writes`` — the
replay commits them itself, in legacy heap order, on hit and miss
alike.

In-memory program identity is ``id(compiled)`` and each entry keeps a
strong reference to its compiled kernel, so an id can never be recycled
while an entry depends on it.  The fingerprint *also* carries a SHA-256
of the SASS text: dropping the id component yields a pure
content-address, which is what the optional **disk backend** keys by —
two processes (service workers) analysing byte-identical SASS against
identical launch state share traces through the store.  Replay only
reads the trace rows plus the (deterministically re-decoded) program,
so a content hit is as sound across processes as an id hit is within
one.

Both tiers are size-capped LRU: the in-memory map evicts by entry
count *and* by payload bytes — each trace's own ``nbytes``, fixed when
the trace is made: its distinct payload columns counted once plus a
constant per row (:func:`repro.gpu.timed_trace._payload_bytes`) — the
disk store by total file bytes with atomic-rename writes and
CRC-checked reads (a corrupted file is deleted and treated as a miss,
never replayed).

Disable with ``REPRO_TRACE_CACHE=0``; point the disk tier at a
directory with ``REPRO_TRACE_CACHE_DIR`` (or
:func:`configure_trace_cache`), cap it with ``REPRO_TRACE_CACHE_MB``.
The supervised/budgeted path disables itself: skipping build work
would change degradation decisions between cold and warm runs.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import zlib
from operator import attrgetter
from typing import Optional

from repro.cache import DEFAULT_STORE_BYTES, FileStore, TieredCache

__all__ = [
    "FileStore",
    "TraceCache",
    "configure_trace_cache",
    "trace_cache",
]

_MB = 1024 * 1024

#: default in-memory payload cap; one wave trace of the benchmark
#: kernels is a few hundred KiB (``TimedTrace.nbytes``: 0.07-1.2 MB),
#: so the entry cap normally binds first and this stops a session of
#: unusually large traces from growing unbounded
DEFAULT_MAX_BYTES = 256 * _MB


class _Entry:
    __slots__ = ("trace", "warp_counts", "n_warps", "compiled", "nbytes")

    def __init__(self, trace, warp_counts, compiled):
        self.trace = trace
        self.warp_counts = warp_counts
        self.n_warps = trace.n_warps
        self.compiled = compiled  # strong ref pins id(compiled)
        self.nbytes = trace.nbytes


def _encode(ent: _Entry) -> bytes:
    # the lazily-built issue plan holds decoded-program references that
    # must not cross processes; the first replay rebuilds it
    trace = copy.copy(ent.trace)
    trace.plan = None
    return pickle.dumps((trace, ent.warp_counts),
                        protocol=pickle.HIGHEST_PROTOCOL)


def _decode(payload: bytes) -> _Entry:
    trace, warp_counts = pickle.loads(payload)
    return _Entry(trace, warp_counts, None)  # ``get`` pins the reader's


class TraceCache(TieredCache):
    """Size-capped LRU map from wave keys to built ``TimedTrace``
    objects, optionally backed by a shared on-disk :class:`FileStore`."""

    def __init__(self, capacity: int = 64,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 store: Optional[FileStore] = None):
        super().__init__("l2", capacity, max_bytes=max_bytes,
                         size=attrgetter("nbytes"), store=store,
                         encode=_encode, decode=_decode,
                         disk_key=self.disk_key)

    # -- keys ------------------------------------------------------------
    def launch_key(self, compiled, config, param_values: dict,
                   tex_layouts: dict, mem, spec) -> tuple:
        """Fingerprint everything the trace build can observe.

        Computed once per launch; the CRC over the device image is the
        only non-trivial cost (a few hundred µs/MB) and is what makes
        the key *content*-addressed — a session launch against mutated
        buffers misses instead of replaying a stale trace.  Element 0
        is the in-process program identity (``id(compiled)``); the
        rest — starting with the SASS SHA-256 — is process-independent
        and keys the disk tier.
        """
        buf = mem.buf
        return (
            id(compiled),
            compiled.sass_sha256,
            config.grid, config.block,
            tuple(sorted(param_values.items())),
            tuple(sorted(
                (slot, repr(layout)) for slot, layout in tex_layouts.items()
            )),
            len(buf), zlib.crc32(buf),
            spec.name, spec.sector_bytes, spec.l1_line_bytes,
            spec.l2_line_bytes, spec.smem_banks, spec.smem_bank_bytes,
        )

    @staticmethod
    def wave_key(launch_key: tuple, ordinal: int, wave: range) -> tuple:
        return (launch_key, ordinal, wave.start, wave.stop, wave.step)

    @staticmethod
    def disk_key(wave_key: tuple) -> str:
        """Process-independent content address of a wave: the launch
        fingerprint minus the ``id(compiled)`` component."""
        launch_key, ordinal, start, stop, step = wave_key
        text = repr((launch_key[1:], ordinal, start, stop, step))
        return hashlib.sha256(text.encode()).hexdigest()

    # -- LRU -------------------------------------------------------------
    def get(self, wave_key: tuple, compiled=None) -> Optional[_Entry]:
        # a stored trace is keyed in memory by the *reader's*
        # ``id(compiled)``: without a kernel to pin, skip the disk
        ent, _ = super().get(wave_key, disk=compiled is not None)
        if ent is not None and ent.compiled is None:
            ent.compiled = compiled
        return ent

    def put(self, wave_key: tuple, trace, warp_counts: dict,
            compiled) -> None:
        super().put(wave_key, _Entry(trace, dict(warp_counts), compiled))


#: process-wide instance (the build is deterministic, so sharing across
#: Simulator objects is exactly the point — benchmark repeats construct
#: a fresh Simulator per run but reuse the compiled kernel and inputs)
_CACHE = TraceCache()


def configure_trace_cache(directory=None,
                          max_store_bytes: Optional[int] = None) -> TraceCache:
    """(Re)configure the shared cache: attach (capped at
    ``max_store_bytes``) or detach the disk tier.  Service workers call
    this at startup with the server's cache directory."""
    if directory is not None:
        _CACHE.store = FileStore(
            directory,
            max_bytes=(max_store_bytes if max_store_bytes is not None
                       else DEFAULT_STORE_BYTES),
        )
    else:
        _CACHE.store = None
    return _CACHE


_ENV_STORE_CONFIGURED = False


def trace_cache() -> Optional[TraceCache]:
    """The shared cache, or ``None`` when disabled via environment."""
    global _ENV_STORE_CONFIGURED
    if os.environ.get("REPRO_TRACE_CACHE", "1") == "0":
        return None
    if not _ENV_STORE_CONFIGURED:
        _ENV_STORE_CONFIGURED = True
        env_dir = os.environ.get("REPRO_TRACE_CACHE_DIR")
        if env_dir and _CACHE.store is None:
            mb = os.environ.get("REPRO_TRACE_CACHE_MB")
            configure_trace_cache(
                env_dir,
                max_store_bytes=int(mb) * _MB if mb else None,
            )
    return _CACHE
