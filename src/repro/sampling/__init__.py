"""CUPTI PC Sampling API substitute.

The real GPUscout uses CUPTI's PC Sampling API to attribute warp-stall
reasons to program counters (and through the line table to CUDA source
lines).  Our simulator tracks stall cycles exactly; this package
converts them into the *sampled* representation CUPTI produces — counts
of samples per (PC, stall reason) at a configurable sampling period —
and offers the per-line aggregation GPUscout's report correlates with
SASS findings.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PCSample": ("repro.sampling.pcsampler", "PCSample"),
    "PCSampler": ("repro.sampling.pcsampler", "PCSampler"),
    "PCSamplingResult": ("repro.sampling.pcsampler", "PCSamplingResult"),
    "LineStallProfile": ("repro.sampling.stall_report", "LineStallProfile"),
    "build_line_profiles": ("repro.sampling.stall_report", "build_line_profiles"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
