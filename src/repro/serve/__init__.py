"""Analysis-as-a-service: the long-lived ``gpuscout serve`` stack.

The one-shot CLI re-parses SASS, re-runs the static passes and
re-simulates on every invocation; this package turns the engine into a
resident service so repeat queries — the common case while a developer
iterates on a kernel — are answered from a content-addressed result
cache in milliseconds, and batches fan out across a worker pool.

Layers (DESIGN.md §9):

* :mod:`repro.serve.protocol` — the wire names of the request
  (:mod:`repro.core.request`), content-address derivation, and the
  CLI exit-code ↔ HTTP status mapping;
* :mod:`repro.serve.cache` — the L1 (static artifacts) and L3 (full
  report JSON) tiers; L2 (effect traces) lives in
  :mod:`repro.gpu.trace_cache`;
* :mod:`repro.serve.service` — the per-process cache tiers around
  :func:`~repro.core.request.analyze_request`;
* :mod:`repro.serve.pool` — the ``multiprocessing`` worker pool with
  arch-config shard affinity and dead-worker retry;
* :mod:`repro.serve.server` — the stdlib ``http.server`` front end
  on a bounded set of reused handler threads, with its own request-head
  reader (``POST /v1/analyze``, ``POST /v1/batch``, ``GET /v1/stats``,
  ``GET /healthz``).
"""

from repro.serve.protocol import (
    AnalyzeRequest,
    ProtocolError,
    content_address,
    http_status_for,
    strip_volatile,
)
from repro.serve.server import ScoutServer

__all__ = [
    "AnalyzeRequest",
    "ProtocolError",
    "ScoutServer",
    "content_address",
    "http_status_for",
    "strip_volatile",
]
