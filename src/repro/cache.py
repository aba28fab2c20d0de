"""The one cache the serving stack is built from.

:class:`TieredCache` is a locked, size-capped memory LRU over an
optional :class:`FileStore`.  Every cache of the stack — the compile
memo, L1 static artifacts, L2 effect traces, L3 reports and the
server's address memo — is an instance of it; what differs between
them (tier name, caps, size function, payload codec, disk-key
function) is passed in as data.  DESIGN §9 has the table.

Keys are content addresses, so invalidation is structural — a changed
input derives a different key and simply misses; stale entries age out
of the caps.  A disk entry that fails its integrity check (CRC, an
injected ``serve.cache_read`` fault, or a payload the codec cannot
decode) is deleted and reported to the caller of ``get`` so the
recompute it forces can carry a :class:`~repro.errors.Diagnostic`.
"""

from __future__ import annotations

import math
import os
import struct
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Optional

from repro.obs.metrics import REGISTRY as _METRICS
from repro.testing.faultinject import fail_point

__all__ = ["FileStore", "StaticCache", "TieredCache"]

_MB = 1024 * 1024

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


def _unsized(entry) -> int:
    return 0


def _same_key(key):
    return key


class TieredCache:
    """A locked memory LRU, capped by entries and (when ``size`` is
    given) by bytes, over an optional :class:`FileStore`.

    ``size(entry)`` states an entry's bytes; ``encode`` / ``decode``
    turn an entry into the store's payload and back; ``disk_key`` maps
    a memory key to the store's file name.  ``store`` may be attached
    or detached at any time.  ``tier`` labels the instance's
    ``gpuscout_cache_*_total`` series.
    """

    def __init__(self, tier: str, capacity: int,
                 max_bytes: float = math.inf,
                 size: Optional[Callable] = None,
                 store: Optional[FileStore] = None,
                 encode: Optional[Callable] = None,
                 decode: Optional[Callable] = None,
                 disk_key: Callable = _same_key):
        self.tier = tier
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.store = store
        self._size = size or _unsized
        self._encode = encode
        self._decode = decode
        self._disk_key = disk_key
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        #: bytes held by the memory tier (0 without a ``size``)
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        # no-ops while the registry is disarmed
        self._m_hits = _METRICS.counter(
            "gpuscout_cache_hits_total", "Cache hits by tier", tier=tier)
        self._m_misses = _METRICS.counter(
            "gpuscout_cache_misses_total", "Cache misses by tier", tier=tier)
        self._m_disk_hits = _METRICS.counter(
            "gpuscout_cache_disk_hits_total",
            "Cache hits served from the shared disk tier", tier=tier)
        self._m_evictions = _METRICS.counter(
            "gpuscout_cache_evictions_total",
            "Cache entries evicted by size caps", tier=tier)

    # -- read ------------------------------------------------------------
    def get(self, key, disk: bool = True) -> tuple:
        """Return ``(entry | None, corrupted)``; a hit refreshes the
        key's recency and a disk hit is promoted to memory.  The flag
        is ``True`` when a disk entry existed but failed its integrity
        check and was discarded."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._m_hits.inc()
                return entry, False
        store = self.store
        corrupted = False
        if disk and store is not None:
            entry, corrupted = self._load(store, self._disk_key(key))
        with self._lock:
            if entry is None:
                self.misses += 1
                self._m_misses.inc()
            else:
                self._insert(key, entry)
                self.hits += 1
                self.disk_hits += 1
                self._m_hits.inc()
                self._m_disk_hits.inc()
        return entry, corrupted

    def _load(self, store: FileStore, name: str) -> tuple:
        payload, corrupted = store.get(name)
        if payload is None:
            return None, corrupted
        try:
            return self._decode(payload), False
        except Exception:
            # undecodable despite a clean CRC (e.g. version skew):
            # discard like any other corrupt entry
            store.delete(name)
            store.note_corrupt()
            return None, True

    # -- write -----------------------------------------------------------
    def put(self, key, entry) -> None:
        """Insert into the memory tier and write through to the store."""
        with self._lock:
            self._insert(key, entry)
        store = self.store
        if store is not None:
            try:
                payload = self._encode(entry)
            except Exception:
                return  # unencodable entry: memory tier only
            store.put(self._disk_key(key), payload)

    def remember(self, key, entry) -> None:
        """Insert into the memory tier only (the entry is already on
        the shared store, or has no business there)."""
        with self._lock:
            self._insert(key, entry)

    def _insert(self, key, entry) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= self._size(old)
        self._entries[key] = entry
        self.bytes += self._size(entry)
        while self._entries and (
            len(self._entries) > self.capacity or self.bytes > self.max_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= self._size(evicted)
            self.evictions += 1
            self._m_evictions.inc()

    # -- inspection ------------------------------------------------------
    def keys(self) -> list:
        """Current keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Empty the memory tier and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.evictions = 0

    def stats(self) -> dict:
        with self._lock:
            out = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
            if self._size is not _unsized:
                out["bytes"] = self.bytes
        store = self.store
        if store is not None:
            out["disk_hits"] = self.disk_hits
            out["store"] = store.stats()
        return out


class StaticCache(TieredCache):
    """Entry-capped LRU of :class:`~repro.core.engine.StaticArtifacts`,
    in memory only (they hold live ``Program``/CFG objects).  Two owners
    hold one: each :class:`~repro.core.engine.GPUscout`, for its own
    earlier runs, and each :class:`~repro.serve.service.KernelRunner`
    (serve L1).  Neither stores artifacts that carry an error-severity
    diagnostic (:attr:`~repro.core.engine.StaticArtifacts.reusable`)."""

    def __init__(self, capacity: int = 128):
        super().__init__("l1", capacity)

    def get(self, key):
        return super().get(key)[0]
