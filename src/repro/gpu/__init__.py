"""GPU hardware substrate: a Volta-class SM/memory-hierarchy simulator.

This package replaces the NVIDIA V100 the paper measured on.  It is a
*warp-level, cycle-approximate* model — functional execution of SASS on
32-lane NumPy vectors combined with an issue/scoreboard timing model —
that produces the three kinds of signals GPUscout consumes:

1. per-PC warp-stall attribution (what CUPTI PC sampling reports),
2. hardware counters (sectors, cache hits/misses, transactions,
   instruction mixes) from which ncu-style metrics derive,
3. kernel duration in cycles (for speedup comparisons and the overhead
   model of Figure 6).

See DESIGN.md §2 for why this substitution preserves the behaviours the
paper's analyses depend on.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GPUSpec": ("repro.gpu.config", "GPUSpec"),
    "StallReason": ("repro.gpu.stalls", "StallReason"),
    "LaunchConfig": ("repro.gpu.config", "LaunchConfig"),
    "LaunchResult": ("repro.gpu.simulator", "LaunchResult"),
    "Simulator": ("repro.gpu.simulator", "Simulator"),
    "TextureDesc": ("repro.gpu.simulator", "TextureDesc"),
    "DeviceBuffer": ("repro.gpu.session", "DeviceBuffer"),
    "DeviceSession": ("repro.gpu.session", "DeviceSession"),
    "TraceEvent": ("repro.gpu.trace", "TraceEvent"),
    "TraceRecorder": ("repro.gpu.trace", "TraceRecorder"),
    "format_trace": ("repro.gpu.trace", "format_trace"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
