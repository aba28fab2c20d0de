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
import struct
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro.obs.metrics import REGISTRY as _METRICS
from repro.testing.faultinject import fail_point

__all__ = [
    "FileStore",
    "TraceCache",
    "configure_trace_cache",
    "trace_cache",
]

_MB = 1024 * 1024

# telemetry series for the L2 (effect-trace) tier; no-ops while the
# registry is disarmed
_L2_HITS = _METRICS.counter(
    "gpuscout_cache_hits_total", "Cache hits by tier", tier="l2")
_L2_MISSES = _METRICS.counter(
    "gpuscout_cache_misses_total", "Cache misses by tier", tier="l2")
_L2_DISK_HITS = _METRICS.counter(
    "gpuscout_cache_disk_hits_total",
    "Cache hits served from the shared disk tier", tier="l2")
_L2_EVICTIONS = _METRICS.counter(
    "gpuscout_cache_evictions_total",
    "Cache entries evicted by size caps", tier="l2")

#: default in-memory payload cap; one wave trace of the benchmark
#: kernels is a few hundred KiB (``TimedTrace.nbytes``: 0.07-1.2 MB),
#: so the entry cap normally binds first and this stops a session of
#: unusually large traces from growing unbounded
DEFAULT_MAX_BYTES = 256 * _MB
DEFAULT_STORE_BYTES = 512 * _MB


class FileStore:
    """Content-addressed bytes on disk with atomic writes.

    Writes go to a temp file in the same directory followed by
    :func:`os.replace`, so readers (other service workers included)
    only ever see complete entries.  Every entry carries a CRC32
    header; a failed check — truncation, bit rot, or an injected
    ``serve.cache_read`` fault — deletes the entry and reports it as
    *corrupt* rather than returning bad bytes.  Total size is capped:
    eviction removes least-recently-*used* files (reads touch mtime).
    """

    MAGIC = b"GSC1"

    def __init__(self, root, max_bytes: int = DEFAULT_STORE_BYTES,
                 name: str = "traces"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.name = name
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._m_corrupt = _METRICS.counter(
            "gpuscout_store_corrupt_total",
            "Store entries discarded by integrity checks", store=name)
        self._m_evictions = _METRICS.counter(
            "gpuscout_store_evictions_total",
            "Store files removed by the byte-cap LRU", store=name)

    def note_corrupt(self) -> None:
        """Record one integrity-check discard (callers that decode the
        payload themselves report undecodable entries through this)."""
        self.corrupt += 1
        self._m_corrupt.inc()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.bin"

    # -- read ------------------------------------------------------------
    def get(self, key: str) -> tuple[Optional[bytes], bool]:
        """Return ``(payload, corrupted)``.

        ``payload`` is ``None`` on a miss *or* a corrupt entry; the
        flag distinguishes the two so callers can attach a diagnostic
        to a recompute forced by corruption."""
        path = self._path(key)
        try:
            fail_point("serve.cache_read")
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None, False
        except Exception:
            # injected fault or unreadable file: same contract as a
            # failed checksum — discard and recompute
            return None, self._discard(path)
        if (
            len(raw) < 8
            or raw[:4] != self.MAGIC
            or struct.unpack("<I", raw[4:8])[0] != zlib.crc32(raw[8:])
        ):
            return None, self._discard(path)
        self.hits += 1
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        return raw[8:], False

    def _discard(self, path: Path) -> bool:
        self.note_corrupt()
        try:
            path.unlink()
        except OSError:
            pass
        return True

    # -- write -----------------------------------------------------------
    def put(self, key: str, payload: bytes) -> None:
        path = self._path(key)
        blob = self.MAGIC + struct.pack("<I", zlib.crc32(payload)) + payload
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self._evict()

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def _scan(self) -> list[tuple[float, int, str]]:
        """One directory pass: ``(mtime, size, path)`` per entry.  A
        file another process removes mid-scan is skipped."""
        files = []
        try:
            with os.scandir(self.root) as it:
                for ent in it:
                    if not ent.name.endswith(".bin"):
                        continue
                    try:
                        st = ent.stat()
                    except OSError:
                        continue
                    files.append((st.st_mtime, st.st_size, ent.path))
        except OSError:
            pass
        return files

    def _evict(self) -> None:
        """Drop least-recently-used files until under the byte cap."""
        with self._lock:
            files = self._scan()
            total = sum(size for _, size, _ in files)
            if total <= self.max_bytes:
                return
            for _, size, path in sorted(files):
                try:
                    os.unlink(path)
                except OSError:
                    continue
                self.evictions += 1
                self._m_evictions.inc()
                total -= size
                if total <= self.max_bytes:
                    break

    def bytes_used(self) -> int:
        """Current on-disk payload bytes (never negative: recomputed
        from the directory, not tracked incrementally)."""
        return sum(size for _, size, _ in self._scan())

    def stats(self) -> dict:
        files = self._scan()
        return {
            "entries": len(files),
            "bytes": sum(size for _, size, _ in files),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
        }


class _Entry:
    __slots__ = ("trace", "warp_counts", "n_warps", "compiled", "nbytes")

    def __init__(self, trace, warp_counts, n_warps, compiled):
        self.trace = trace
        self.warp_counts = warp_counts
        self.n_warps = n_warps
        self.compiled = compiled  # strong ref pins id(compiled)
        self.nbytes = trace.nbytes


class TraceCache:
    """Size-capped LRU map from wave keys to built ``TimedTrace``
    objects, optionally backed by a shared on-disk :class:`FileStore`."""

    def __init__(self, capacity: int = 64,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 store: Optional[FileStore] = None):
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.store = store
        self._entries: OrderedDict = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0

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
        ent = self._entries.get(wave_key)
        if ent is not None:
            self._entries.move_to_end(wave_key)
            self.hits += 1
            _L2_HITS.inc()
            return ent
        if self.store is not None and compiled is not None:
            ent = self._disk_get(wave_key, compiled)
            if ent is not None:
                self.hits += 1
                self.disk_hits += 1
                _L2_HITS.inc()
                _L2_DISK_HITS.inc()
                return ent
        self.misses += 1
        _L2_MISSES.inc()
        return None

    def _disk_get(self, wave_key: tuple, compiled) -> Optional[_Entry]:
        key = self.disk_key(wave_key)
        payload, _corrupt = self.store.get(key)
        if payload is None:
            return None
        try:
            trace, warp_counts = pickle.loads(payload)
        except Exception:
            # undecodable despite a clean CRC (e.g. version skew):
            # discard, treat as miss
            self.store.delete(key)
            self.store.note_corrupt()
            return None
        self._insert(wave_key, trace, warp_counts, compiled)
        return self._entries[wave_key]

    def put(self, wave_key: tuple, trace, warp_counts: dict,
            compiled) -> None:
        self._insert(wave_key, trace, warp_counts, compiled)
        if self.store is not None:
            try:
                payload = pickle.dumps(
                    (_strip_plan(trace), dict(warp_counts)),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception:
                return  # unpicklable payload: memory tier only
            self.store.put(self.disk_key(wave_key), payload)

    def _insert(self, wave_key, trace, warp_counts, compiled) -> None:
        old = self._entries.pop(wave_key, None)
        if old is not None:
            self.bytes -= old.nbytes
        ent = _Entry(trace, dict(warp_counts), trace.n_warps, compiled)
        self._entries[wave_key] = ent
        self.bytes += ent.nbytes
        while self._entries and (
            len(self._entries) > self.capacity or self.bytes > self.max_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= evicted.nbytes
            self.evictions += 1
            _L2_EVICTIONS.inc()

    def keys(self) -> list:
        """Current keys, least- to most-recently used (for tests)."""
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0

    def stats(self) -> dict:
        out = {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out


def _strip_plan(trace):
    """A copy of ``trace`` without the lazily-built issue plan (it
    holds decoded-program references that must not cross processes;
    the first replay rebuilds it)."""
    out = copy.copy(trace)
    out.plan = None
    return out


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
