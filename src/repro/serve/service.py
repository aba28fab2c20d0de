"""The per-process compute side of the analysis service.

A :class:`KernelRunner` lives in every service worker (and in the
server process itself when running inline, ``--workers 0``).  It is
the cache tiers around :func:`repro.core.request.analyze_request`, the
call ``gpuscout analyze`` makes:

1. resolve the kernel (the catalog's per-process program, the launch
   inputs memoised here per (spec, size, iters));
2. derive the content address; a shared-disk **L3** hit returns the
   stored report JSON without touching the engine;
3. an **L1** hit (static artifacts per SASS hash + geometry) skips the
   static stages, and the dynamic ones hit **L2**, the effect-trace
   cache (:mod:`repro.gpu.trace_cache`);
4. a full miss runs the whole pipeline and populates every tier.

Per-request failures never escape: :func:`error_envelope` maps them to
the CLI's stage codes (parse=2 … internal=70, usage=64) inside a JSON
body, and a poisoned submission degrades only its own response.  A
request without a ``deadline`` takes the runner's (the server's
``--deadline``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace
from typing import Optional

# One-shots import what their subcommand runs; a serving process does
# the opposite, here and once: everything a request runs is loaded
# before the first request and before WorkerPool forks, so workers
# inherit the modules copy-on-write and no request, restart or respawn
# pays an import (DESIGN "Start-up").  The plain ``import`` lines name
# what the engine and the compiler defer to first use;
# ``all_analyses()`` below loads the nine detectors.
import repro.gpu.simulator  # noqa: F401
import repro.metrics.collector  # noqa: F401
import repro.obs.heatmap  # noqa: F401
import repro.ptx.analysis  # noqa: F401
import repro.ptx.writer  # noqa: F401
import repro.sampling.stall_report  # noqa: F401
import repro.sass.slicing  # noqa: F401
import repro.sass.writer  # noqa: F401
from repro.cache import TieredCache
from repro.core.base import all_analyses
from repro.core.jsonout import report_to_dict
from repro.core.request import (AnalyzeRequest, analyze_request,
                                arch_spec, check_deadline, resolve,
                                static_artifacts)
from repro.errors import (Diagnostic, ProtocolError, UnknownKernelError,
                          exit_code_for)
from repro.gpu.trace_cache import configure_trace_cache, trace_cache
from repro.kernels.catalog import program_stats, resolve_kernel
from repro.serve.cache import ReportCache, StaticCache
from repro.serve.protocol import EXIT_USAGE, content_address, static_key

__all__ = ["KernelRunner", "corruption_diagnostic", "error_envelope",
           "l3_envelope", "l3_head"]

_MB = 1024 * 1024

all_analyses()


def error_envelope(exc: BaseException) -> dict:
    """The JSON error body for a failed submission: the CLI's stage
    code, the exception class, and the message."""
    if isinstance(exc, (ProtocolError, UnknownKernelError)):
        code = EXIT_USAGE
    else:
        code = exit_code_for(exc)
    return {
        "ok": False,
        "code": code,
        "error": type(exc).__name__,
        "message": str(exc) or type(exc).__name__,
    }


def l3_head(address: str, kernel: Optional[str]) -> dict:
    """Every field but ``report`` of an envelope answered from the
    report cache (``kernel`` is the report's own ``kernel``)."""
    return {"ok": True, "code": 0, "cache": "l3", "address": address,
            "kernel": kernel, "cacheable": True}


def l3_envelope(address: str, report: dict) -> dict:
    """The envelope of a submission answered from the report cache."""
    return {**l3_head(address, report.get("kernel")), "report": report}


def corruption_diagnostic(tier: str) -> dict:
    """The diagnostic attached to a response that was recomputed
    because a cached entry failed its integrity check."""
    return Diagnostic(
        stage="serve",
        site="serve.cache_read",
        error="",
        message=f"corrupted {tier} cache entry discarded; "
                "result recomputed",
        severity="warning",
    ).to_dict()


class KernelRunner:
    """Process-local analysis engine with warm L1/L2/L3 tiers."""

    def __init__(self, cache_dir: Optional[str] = None,
                 deadline: Optional[float] = None,
                 worker_id: Optional[int] = None,
                 cache_mb: int = 256):
        self.deadline = check_deadline(deadline)
        self.worker_id = worker_id
        self.static = StaticCache()
        #: staged launch inputs: (spec, size, iters) -> the resolved
        #: 4-tuple (``histogram_args`` is 5.5 ms at 65 536 threads);
        #: entries of one variant share the catalog's one program
        self.resolved = TieredCache("resolve", 64)
        self._lock = threading.Lock()
        self.reports: Optional[ReportCache] = None
        if cache_dir is not None:
            configure_trace_cache(
                os.path.join(cache_dir, "traces"),
                max_store_bytes=cache_mb * _MB,
            )
            self.reports = ReportCache(
                os.path.join(cache_dir, "reports"),
                max_disk_bytes=cache_mb * _MB,
            )
        self.cold = 0
        self.l1_hits = 0
        self.l3_hits = 0

    # ------------------------------------------------------------------
    def run(self, payload: dict) -> dict:
        """Serve one submission dict; always returns an envelope."""
        t0 = time.perf_counter()
        try:
            req = AnalyzeRequest.from_dict(payload)
            env = self._run(req)
        except BaseException as exc:  # noqa: BLE001 — boundary
            env = error_envelope(exc)
        env["elapsed_s"] = round(time.perf_counter() - t0, 6)
        if self.worker_id is not None:
            env["worker"] = self.worker_id
        return env

    # ------------------------------------------------------------------
    def _resolve(self, req: AnalyzeRequest):
        """:func:`~repro.core.request.resolve`, memoised per (spec,
        size, iters)."""
        if req.sass is not None:
            return resolve(req)
        key = (req.kernel, req.size, req.compute_iterations)
        hit, _ = self.resolved.get(key)
        if hit is None:
            hit = resolve_kernel(req.kernel, req.size,
                                 req.compute_iterations)
            self.resolved.put(key, hit)
        return hit

    # ------------------------------------------------------------------
    def _run(self, req: AnalyzeRequest) -> dict:
        resolved = self._resolve(req)
        kernel, config = resolved[:2]
        address = content_address(
            kernel, config,
            params={
                "spec": req.kernel, "size": req.size,
                "iters": req.compute_iterations,
                "max_blocks": req.max_blocks,
            },
            spec=arch_spec(req.arch),
            extras={"dry_run": req.dry_run, "extended": req.extended},
        )

        corrupted = False
        if self.reports is not None:
            cached, corrupted = self.reports.get(address)
            if cached is not None:
                self.l3_hits += 1
                return l3_envelope(address, cached)

        skey = static_key(kernel, config, req.extended)
        art = self.static.get(skey)
        if art is not None and not art.matches(kernel, config):
            art = None  # the engine would recompute: say so
        cache_tier = "l1" if art is not None else "cold"
        if req.deadline is None and self.deadline is not None:
            req = replace(req, deadline=self.deadline)

        # one request computes at a time per process: the engine and
        # the global trace cache are not re-entrant (workers provide
        # the parallelism; inline mode serialises here)
        with self._lock:
            if art is None:
                art = static_artifacts(req, resolved)
                # a failed stage may be transient: keep it out of L1,
                # as ``cacheable`` keeps the degraded report out of L3
                if art.reusable:
                    self.static.put(skey, art)
            report = analyze_request(req, resolved=resolved, static=art)
        if cache_tier == "l1":
            self.l1_hits += 1
        else:
            self.cold += 1

        body = report_to_dict(report)
        if corrupted:
            body.setdefault("diagnostics", []).append(
                corruption_diagnostic("report"))
        # partial (degraded) results are served but never cached: a
        # transient fault or an expired deadline must not become the
        # canonical answer for this content address
        cacheable = not report.degraded and not corrupted
        if cacheable and self.reports is not None:
            self.reports.put(address, body)
        return {"ok": True, "code": 0, "cache": cache_tier,
                "address": address, "kernel": report.kernel,
                "cacheable": cacheable, "report": body}

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        out = {
            "cold": self.cold,
            "l1_hits": self.l1_hits,
            "l3_hits": self.l3_hits,
            "resolve": self.resolved.stats(),
            "programs": program_stats(),
            "static": self.static.stats(),
        }
        if self.reports is not None:
            out["reports"] = self.reports.stats()
        tc = trace_cache()
        if tc is not None:
            out["traces"] = tc.stats()
        return out
