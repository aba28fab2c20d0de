"""Nsight Compute CLI substitute.

GPUscout shells out to ``ncu`` with a curated metric list (paper §2.3:
"the number of collected metrics is kept to minimum" because collection
is expensive).  This package provides:

* a registry of ncu-style metric names derived from simulator counters
  (:mod:`repro.metrics.names`, :mod:`repro.metrics.derive`),
* :class:`~repro.metrics.collector.NsightComputeCLI`, a facade that
  "collects" requested metrics from a simulated launch and models the
  replay-pass overhead that dominates the paper's Figure 6.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "METRIC_REGISTRY": ("repro.metrics.names", "METRIC_REGISTRY"),
    "MetricSpec": ("repro.metrics.names", "MetricSpec"),
    "describe_metric": ("repro.metrics.names", "describe_metric"),
    "MetricReport": ("repro.metrics.collector", "MetricReport"),
    "NsightComputeCLI": ("repro.metrics.collector", "NsightComputeCLI"),
    "derive_metric": ("repro.metrics.derive", "derive_metric"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
