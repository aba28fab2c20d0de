"""GPUscout core: the three-pillar bottleneck analysis engine.

This is the paper's contribution proper.  :class:`~repro.core.engine.GPUscout`
runs the eight static SASS analyses (§4.1–§4.7 plus the vectorized-read
detection), correlates CUPTI-style warp-stall samples to the flagged
instructions, collects the curated ncu metric sets, and renders the
terminal report of Figures 2/5.  ``--dry-run`` skips everything that
needs the (simulated) GPU.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Finding": ("repro.core.findings", "Finding"),
    "Severity": ("repro.core.findings", "Severity"),
    "SourceLoc": ("repro.core.findings", "SourceLoc"),
    "Analysis": ("repro.core.base", "Analysis"),
    "AnalysisContext": ("repro.core.base", "AnalysisContext"),
    "all_analyses": ("repro.core.base", "all_analyses"),
    "default_analyses": ("repro.core.base", "default_analyses"),
    "extension_analyses": ("repro.core.base", "extension_analyses"),
    "GPUscout": ("repro.core.engine", "GPUscout"),
    "ScoutReport": ("repro.core.engine", "ScoutReport"),
    "OverheadBreakdown": ("repro.core.overhead", "OverheadBreakdown"),
    "ComparisonReport": ("repro.core.compare", "ComparisonReport"),
    "MetricDelta": ("repro.core.compare", "MetricDelta"),
    "compare_reports": ("repro.core.compare", "compare_reports"),
    "render_html": ("repro.core.html_report", "render_html"),
    "report_to_dict": ("repro.core.jsonout", "report_to_dict"),
    "report_to_json": ("repro.core.jsonout", "report_to_json"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
