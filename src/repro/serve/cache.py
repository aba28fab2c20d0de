"""L1 and L3 tiers of the multi-level result cache.

Both are :class:`~repro.cache.TieredCache` instances under the names
and signatures the service and the harness drive them by.

* **L1 — static artifacts** (:class:`StaticCache`, defined in
  :mod:`repro.cache` beside the memo every ``GPUscout`` keeps of the
  same artifacts, and re-exported here): per (SASS hash,
  geometry, analysis set), the parsed program, CFG/affine context and
  pristine findings from :meth:`~repro.core.engine.GPUscout.analyze_static`.
  In-memory only (the artifacts hold live ``Program``/CFG objects) and
  per-process: each service worker warms its own.
* **L2 — effect traces** (``TraceCache``) lives next to the simulator
  that fills it (shared disk tier across workers).
* **L3 — full reports** (:class:`ReportCache`): per full content
  address, the report as the text :func:`report_text` renders —
  memory-first with a disk tier behind it.  That text is the entry, the
  file payload and what ``/v1/analyze`` splices into its reply
  (:meth:`ReportCache.text`), so a warm L3 hit is one dict lookup (or
  one CRC-checked file read): no engine, no parse, no second dump.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.cache import FileStore, StaticCache, TieredCache

__all__ = ["ReportCache", "StaticCache", "report_text"]

_MB = 1024 * 1024


def report_text(report: dict) -> str:
    """The one serialised form of a report: what L3 stores and what a
    served envelope carries under ``"report"``."""
    return json.dumps(report, sort_keys=True)


def _decode(payload: bytes) -> str:
    blob = payload.decode()
    json.loads(blob)  # a clean CRC over a non-report is still corrupt
    return blob


class ReportCache(TieredCache):
    """Memory + disk LRU of full report JSON, keyed by content address.

    Entries are :func:`report_text` blobs, sized by length.  ``text``
    and the inherited ``remember`` (memory tier only) move a blob as it
    is; ``get`` / ``put`` take and give a dict (``get`` parses a fresh
    one per call, so it may be mutated).
    """

    def __init__(self, directory=None, capacity: int = 256,
                 max_disk_bytes: int = 256 * _MB):
        store = (
            FileStore(directory, max_bytes=max_disk_bytes, name="reports")
            if directory is not None else None
        )
        super().__init__("l3", capacity, size=len, store=store,
                         encode=str.encode, decode=_decode)

    def text(self, key: str) -> tuple[Optional[str], bool]:
        """``(stored blob | None, corrupted)`` — the flag is ``True``
        when a disk entry existed but failed its integrity check and
        was discarded, so the caller can diagnose the forced
        recompute."""
        return super().get(key)

    def get(self, key: str) -> tuple[Optional[dict], bool]:
        """:meth:`text`, parsed."""
        blob, corrupted = self.text(key)
        return (None if blob is None else json.loads(blob)), corrupted

    def put(self, key: str, report: dict) -> None:
        super().put(key, report_text(report))
