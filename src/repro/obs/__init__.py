"""Observability layer: self-profiling spans, simulated-GPU timeline
capture, source-line heatmaps, and production telemetry.

GPUscout's value proposition is attributing *where time goes* — warp
stalls to PCs, PCs to source lines (paper §3, §5).  This package turns
the data the pipeline already produces internally into exportable
views:

* :mod:`repro.obs.spans` — a nestable span/counter API the engine
  threads through every workflow stage, so each run can report its own
  overhead per stage (paper §6 / Figure 6, now per-stage);
* :mod:`repro.obs.timeline_capture` — opt-in recording of per-warp
  issue/stall intervals and memory-unit counter tracks during
  simulation, guaranteed not to perturb the simulated timing;
* :mod:`repro.obs.chrometrace` — Chrome Trace Event Format / Perfetto
  JSON export of a capture (one "process" per SM, one "thread" per
  warp) plus a structural validator;
* :mod:`repro.obs.heatmap` — per-PC stall cycles aggregated up the
  line table into an annotated source listing;
* :mod:`repro.obs.metrics` — the process-local metrics registry
  (counters / gauges / histograms, mergeable across the worker pool)
  behind ``GET /metrics``, the ``/v1/stats`` digest, and the
  ``[metrics]`` footer;
* :mod:`repro.obs.slog` — structured JSON logging (one object per
  line, ``REPRO_LOG=json|text|off``);
* :mod:`repro.obs.request_trace` — per-request Chrome traces that
  stitch server-side and worker-side spans across the fork boundary.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Heatmap": ("repro.obs.heatmap", "Heatmap"),
    "LineHeat": ("repro.obs.heatmap", "LineHeat"),
    "MetricsRegistry": ("repro.obs.metrics", "MetricsRegistry"),
    "NULL_PROFILER": ("repro.obs.spans", "NULL_PROFILER"),
    "Profiler": ("repro.obs.spans", "Profiler"),
    "REGISTRY": ("repro.obs.metrics", "REGISTRY"),
    "Span": ("repro.obs.spans", "Span"),
    "TimelineCapture": ("repro.obs.timeline_capture", "TimelineCapture"),
    "arm": ("repro.obs.metrics", "arm"),
    "armed": ("repro.obs.metrics", "armed"),
    "build_heatmap": ("repro.obs.heatmap", "build_heatmap"),
    "build_request_trace": ("repro.obs.request_trace", "build_request_trace"),
    "configure_logging": ("repro.obs.slog", "configure"),
    "get_logger": ("repro.obs.slog", "get_logger"),
    "merge_snapshots": ("repro.obs.metrics", "merge_snapshots"),
    "render_prometheus": ("repro.obs.metrics", "render_prometheus"),
    "to_chrome_trace": ("repro.obs.chrometrace", "to_chrome_trace"),
    "validate_chrome_trace": ("repro.obs.chrometrace", "validate_chrome_trace"),
    "validate_exposition": ("repro.obs.metrics", "validate_exposition"),
    "write_chrome_trace": ("repro.obs.chrometrace", "write_chrome_trace"),
    "write_request_trace": ("repro.obs.request_trace", "write_request_trace"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
