"""Interactive HTML rendering of a GPUscout report (paper Figure 7).

The paper's future-work sketch shows a frontend with a 'Source Code'
view and a 'SASS Instructions' view "correlated with each other through
the code line/SASS instruction mapping", plus a 'Metrics Comparison'
section for old-vs-new values.  :func:`render_html` produces exactly
that layout as a single self-contained HTML file (inline CSS + vanilla
JS, no external assets):

* left panel: the pseudo-CUDA source with findings badges per line;
* right panel: the SASS listing; hovering a source line highlights the
  SASS instructions it generated and vice versa;
* findings cards with stalls/metrics, and a stall-distribution bar;
* when a baseline comparison is supplied, the Figure-7 'Metrics
  Comparison' table with rise/fall arrows.
"""

from __future__ import annotations

import html
from typing import Optional

from repro.core.compare import ComparisonReport
from repro.core.engine import ScoutReport
from repro.core.findings import Severity
from repro.gpu.stalls import StallReason
from repro.sass.writer import format_instruction

__all__ = ["render_html"]

_CSS = """
body { font-family: 'Segoe UI', system-ui, sans-serif; margin: 0;
       background: #11151c; color: #d8dee9; }
header { padding: 14px 24px; background: #0b0e13;
         border-bottom: 1px solid #2a3040; }
h1 { font-size: 18px; margin: 0; }
h2 { font-size: 14px; text-transform: uppercase; letter-spacing: .08em;
     color: #88c0d0; margin: 18px 0 8px; }
.columns { display: flex; gap: 16px; padding: 16px 24px; }
.panel { flex: 1; background: #161b24; border: 1px solid #2a3040;
         border-radius: 6px; padding: 10px 0; overflow: auto;
         max-height: 480px; }
.codeline { font-family: 'JetBrains Mono', Consolas, monospace;
            font-size: 12px; white-space: pre; padding: 1px 12px;
            display: flex; }
.codeline .no { color: #4c566a; width: 40px; flex: none;
                text-align: right; margin-right: 12px; user-select: none; }
.codeline.hl { background: #2e3a52; }
.codeline .badge { margin-left: 8px; font-size: 10px; border-radius: 3px;
                   padding: 0 5px; flex: none; }
.badge.warn { background: #b4812333; color: #ebcb8b; }
.badge.crit { background: #bf616a33; color: #bf616a; }
.badge.info { background: #5e81ac33; color: #81a1c1; }
.section { padding: 0 24px 16px; }
.finding { background: #161b24; border: 1px solid #2a3040;
           border-left: 4px solid #ebcb8b; border-radius: 6px;
           padding: 12px 16px; margin-bottom: 10px; }
.finding.crit { border-left-color: #bf616a; }
.finding.info { border-left-color: #81a1c1; }
.finding h3 { margin: 0 0 6px; font-size: 14px; }
.finding p { margin: 4px 0; font-size: 13px; color: #c2c9d6; }
.kv { font-size: 12px; color: #8f98a8; }
table { border-collapse: collapse; font-size: 13px; width: 100%; }
td, th { padding: 4px 10px; border-bottom: 1px solid #232a38;
         text-align: left; }
th { color: #88c0d0; font-weight: 600; }
.rise { color: #bf616a; } .fall { color: #a3be8c; } .same { color: #8f98a8; }
.bar { display: flex; height: 22px; border-radius: 4px; overflow: hidden;
       margin: 6px 0 2px; }
.bar div { height: 100%; }
.legend { font-size: 11px; color: #8f98a8; }
"""

_JS = """
function wire(panelA, panelB) {
  document.querySelectorAll(panelA + ' .codeline').forEach(el => {
    el.addEventListener('mouseenter', () => {
      const line = el.dataset.line;
      if (!line) return;
      document.querySelectorAll(
        panelB + ' .codeline[data-line="' + line + '"], ' +
        panelA + ' .codeline[data-line="' + line + '"]'
      ).forEach(x => x.classList.add('hl'));
    });
    el.addEventListener('mouseleave', () => {
      document.querySelectorAll('.codeline.hl')
        .forEach(x => x.classList.remove('hl'));
    });
  });
}
window.addEventListener('DOMContentLoaded', () => {
  wire('#source', '#sass'); wire('#sass', '#source');
});
"""

_STALL_COLORS = {
    StallReason.LONG_SCOREBOARD: "#bf616a",
    StallReason.SHORT_SCOREBOARD: "#d08770",
    StallReason.LG_THROTTLE: "#ebcb8b",
    StallReason.MIO_THROTTLE: "#a3be8c",
    StallReason.TEX_THROTTLE: "#b48ead",
    StallReason.WAIT: "#81a1c1",
    StallReason.NOT_SELECTED: "#4c566a",
    StallReason.BARRIER: "#88c0d0",
    StallReason.MATH_PIPE_THROTTLE: "#5e81ac",
}

_SEV_CLASS = {Severity.INFO: "info", Severity.WARNING: "warn",
              Severity.CRITICAL: "crit"}


def _heat_style(share: float) -> str:
    """Inline background for a heat-ramped source line.

    The ramp runs transparent → amber → red with alpha following the
    line's share of all attributed stall cycles, so the hottest line is
    unmistakable and cool lines stay readable."""
    if share <= 0.0:
        return ""
    alpha = min(0.85, 0.15 + 0.7 * share)
    # amber below 30 % share, red above
    rgb = "191,97,106" if share >= 0.3 else "235,203,139"
    return f" style='background:rgba({rgb},{alpha:.2f})'"


def _source_panel(report: ScoutReport) -> str:
    source = report.program.source
    if not source:
        return "<div class='codeline'>source not available (raw SASS)</div>"
    badge_by_line: dict[int, Severity] = {}
    for f in report.findings:
        for line in f.lines:
            prev = badge_by_line.get(line, Severity.INFO)
            badge_by_line[line] = max(prev, f.severity)
    heatmap = getattr(report, "heatmap", None)
    heat_by_line = heatmap.lines if heatmap is not None else {}
    rows = []
    for i, text in enumerate(source.splitlines(), start=1):
        badge = ""
        if i in badge_by_line:
            cls = _SEV_CLASS[badge_by_line[i]]
            badge = f"<span class='badge {cls}'>{cls}</span>"
        heat, title = "", ""
        lh = heat_by_line.get(i)
        if lh is not None:
            heat = _heat_style(lh.share)
            dom = lh.dominant()
            dom_name = dom.cupti_name if dom is not None else "-"
            title = (f" title='{lh.stall_cycles:.0f} stall cycles "
                     f"({100 * lh.share:.1f}%), dominant: {dom_name}'")
        rows.append(
            f"<div class='codeline' data-line='{i}'{heat}{title}>"
            f"<span class='no'>{i}</span>"
            f"<span>{html.escape(text) or ' '}</span>{badge}</div>"
        )
    return "\n".join(rows)


def _sass_panel(report: ScoutReport) -> str:
    rows = []
    flagged = {pc for f in report.findings for pc in f.pcs}
    for idx, ins in enumerate(report.program):
        line_attr = f" data-line='{ins.line}'" if ins.line is not None else ""
        mark = " style='color:#ebcb8b'" if idx in flagged else ""
        rows.append(
            f"<div class='codeline'{line_attr}>"
            f"<span class='no'>{ins.offset:04x}</span>"
            f"<span{mark}>{html.escape(format_instruction(ins, with_offset=False))}"
            f"</span></div>"
        )
    return "\n".join(rows)


def _findings_section(report: ScoutReport) -> str:
    if not report.findings:
        return "<p>No data-movement bottleneck patterns detected.</p>"
    cards = []
    for f in report.findings:
        cls = _SEV_CLASS[f.severity]
        stall_rows = ""
        if f.stall_profile:
            total = sum(v for k, v in f.stall_profile.items()
                        if k is not StallReason.SELECTED)
            if total:
                parts = [
                    f"{k.cupti_name} {100*v/total:.0f}%"
                    for k, v in sorted(f.stall_profile.items(),
                                       key=lambda kv: -kv[1])
                    if k is not StallReason.SELECTED and v > 0
                ][:4]
                stall_rows = ("<p class='kv'>stalls at flagged "
                              f"instructions: {', '.join(parts)}</p>")
        metric_rows = "".join(
            f"<p class='kv'>{html.escape(name)} = {value:,.2f}</p>"
            for name, value in f.metrics.items()
        )
        from repro.core.report import _fmt_predicted_measured

        pm = _fmt_predicted_measured(f)
        pm_row = f"<p class='kv'>{html.escape(pm)}</p>" if pm else ""
        blame_rows = "".join(
            f"<p class='kv'>blame: {html.escape(b.stall_op)} "
            f"(line {b.stall_line}) {html.escape(b.describe())}</p>"
            for b in f.blame[:4]
        )
        locs = ", ".join(sorted({str(l) for l in f.locations}))
        cards.append(
            f"<div class='finding {cls}'><h3>{html.escape(f.title)}</h3>"
            f"<p>{html.escape(f.message)}</p>"
            f"<p class='kv'>source: {html.escape(locs)}"
            + (f" | registers: {', '.join(f.registers)}" if f.registers else "")
            + "</p>"
            f"<p>{html.escape(f.recommendation)}</p>"
            f"{pm_row}{stall_rows}{blame_rows}{metric_rows}</div>"
        )
    return "\n".join(cards)


def _stall_bar(report: ScoutReport) -> str:
    if report.sampling is None:
        return ""
    totals = {
        k: v for k, v in report.sampling.by_reason().items()
        if k is not StallReason.SELECTED and v > 0
    }
    total = sum(totals.values())
    if not total:
        return ""
    segs, legend = [], []
    for reason, count in sorted(totals.items(), key=lambda kv: -kv[1]):
        pct = 100 * count / total
        color = _STALL_COLORS.get(reason, "#616e88")
        segs.append(
            f"<div style='width:{pct:.2f}%;background:{color}' "
            f"title='{reason.cupti_name}: {pct:.1f}%'></div>"
        )
        legend.append(f"<span style='color:{color}'>■</span> "
                      f"{reason.cupti_name} {pct:.1f}%")
    return (
        "<h2>Warp-stall distribution</h2>"
        f"<div class='bar'>{''.join(segs)}</div>"
        f"<div class='legend'>{' &nbsp; '.join(legend)}</div>"
    )


def _affine_footer(report: ScoutReport) -> str:
    if not report.affine_summary:
        return ""
    g = report.affine_summary.get("global", {})
    s = report.affine_summary.get("shared", {})
    return (
        "<h2>Static address proofs</h2><p class='kv'>"
        f"global accesses: {g.get('proven_coalesced', 0)} proven coalesced, "
        f"{g.get('flagged', 0)} flagged, {g.get('unproven', 0)} unproven"
        " &nbsp;|&nbsp; "
        f"shared accesses: {s.get('proven_conflict_free', 0)} proven "
        f"conflict-free, {s.get('flagged', 0)} flagged, "
        f"{s.get('unproven', 0)} unproven</p>"
    )


def _health_section(report: ScoutReport) -> str:
    diags = getattr(report, "diagnostics", None) or []
    mode = getattr(report, "mode", "full")
    degraded = mode in ("functional", "static")
    if not diags and not degraded:
        return ""
    rows = "".join(
        f"<tr><td>{html.escape(d.stage)}</td>"
        f"<td>{html.escape(d.site)}</td>"
        f"<td>{html.escape(d.severity)}</td>"
        f"<td>{html.escape(d.error)}</td>"
        f"<td>{html.escape(d.message)}</td></tr>"
        for d in diags
    )
    note = " (degraded)" if degraded else ""
    return (
        f"<h2>Run health</h2><p class='kv'>mode: {html.escape(mode)}{note}"
        f" — {len(diags)} diagnostic(s)</p>"
        "<table><tr><th>stage</th><th>site</th><th>severity</th>"
        f"<th>error</th><th>message</th></tr>{rows}</table>"
        if diags else
        f"<h2>Run health</h2><p class='kv'>mode: {html.escape(mode)}{note}"
        "</p>"
    )


def _heatmap_section(report: ScoutReport) -> str:
    heatmap = getattr(report, "heatmap", None)
    if heatmap is None or not heatmap.lines:
        return ""
    rows = []
    for lh in heatmap.top(10):
        dom = lh.dominant()
        dom_name = dom.cupti_name if dom is not None else "-"
        breakdown = ", ".join(
            f"{r.cupti_name} {100 * v / lh.stall_cycles:.0f}%"
            for r, v in sorted(lh.by_reason.items(), key=lambda kv: -kv[1])
        )[:120]
        waits = ", ".join(
            f"{w['op']} (line {w['line']})" if w["line"] is not None
            else f"{w['op']} (pc {w['pc']})"
            for w in lh.producers()[:3]
        ) or "-"
        rows.append(
            f"<tr><td>{lh.line}</td>"
            f"<td>{lh.stall_cycles:,.0f}</td>"
            f"<td>{100 * lh.share:.1f}%</td>"
            f"<td>{lh.issues}</td>"
            f"<td>{html.escape(dom_name)}</td>"
            f"<td class='kv'>{html.escape(waits)}</td>"
            f"<td class='kv'>{html.escape(breakdown)}</td></tr>"
        )
    unattr = ""
    if heatmap.unattributed_cycles:
        unattr = (f"<p class='kv'>{heatmap.unattributed_cycles:,.0f} stall "
                  "cycles at instructions with no source-line info</p>")
    return (
        "<h2>Source-line heatmap (simulated stall cycles)</h2>"
        "<table><tr><th>line</th><th>stall cycles</th><th>share</th>"
        "<th>issues</th><th>dominant stall</th><th>waits on</th>"
        "<th>breakdown</th></tr>"
        f"{''.join(rows)}</table>{unattr}"
    )


def _profile_section(report: ScoutReport) -> str:
    prof = getattr(report, "profile", None)
    if prof is None or not prof.spans:
        return ""
    total = prof.total_seconds()
    rows = "".join(
        f"<tr><td>{html.escape(stage)}</td>"
        f"<td>{seconds * 1e3:,.2f}</td>"
        f"<td>{100 * seconds / total if total else 0:.1f}%</td></tr>"
        for stage, seconds in prof.stage_totals().items()
    )
    return (
        "<h2>Pipeline self-profile</h2>"
        f"<p class='kv'>total wall time {total * 1e3:,.2f} ms</p>"
        "<table><tr><th>stage</th><th>ms</th><th>share</th></tr>"
        f"{rows}</table>"
    )


def _metrics_table(report: ScoutReport) -> str:
    if report.metrics is None:
        return ""
    rows = "".join(
        f"<tr><td>{html.escape(name)}</td><td>{value:,.2f}</td></tr>"
        for name, value in report.metrics.values.items()
    )
    return (
        "<h2>Kernel-wide metrics (Nsight Compute)</h2>"
        f"<table><tr><th>metric</th><th>value</th></tr>{rows}</table>"
    )


def _comparison_table(comparison: ComparisonReport) -> str:
    arrow = {"rise": ("&#9650;", "rise"), "fall": ("&#9660;", "fall"),
             "same": ("&#8212;", "same")}
    rows = []
    for d in comparison.metric_deltas:
        sym, cls = arrow[d.direction]
        change = d.change_pct
        change_txt = "" if change in (None, float("inf")) \
            else f"{change:+.1f}%"
        star = " &#9733;" if d.watched else ""
        rows.append(
            f"<tr><td>{html.escape(d.name)}{star}</td>"
            f"<td>{d.before:,.2f}</td><td>{d.after:,.2f}</td>"
            f"<td class='{cls}'>{sym} {change_txt}</td></tr>"
        )
    speed = ""
    if comparison.speedup is not None:
        speed = (f"<p>kernel speedup old/new: "
                 f"<b>{comparison.speedup:.2f}x</b></p>")
    return (
        "<h2>Metrics comparison (old vs new)</h2>" + speed +
        "<table><tr><th>metric (&#9733; = watched)</th><th>old</th>"
        f"<th>new</th><th>change</th></tr>{''.join(rows)}</table>"
    )


def render_html(report: ScoutReport,
                comparison: Optional[ComparisonReport] = None) -> str:
    """Render ``report`` as a self-contained interactive HTML page."""
    mode = " — dry run (SASS analysis only)" if report.dry_run else ""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>GPUscout — {html.escape(report.kernel)}</title>",
        f"<style>{_CSS}</style><script>{_JS}</script></head><body>",
        f"<header><h1>GPUscout analysis of kernel "
        f"'{html.escape(report.kernel)}'{mode}</h1></header>",
        "<div class='columns'>",
        "<div class='panel' id='source'><h2 style='padding:0 12px'>"
        "Source code</h2>",
        _source_panel(report),
        "</div>",
        "<div class='panel' id='sass'><h2 style='padding:0 12px'>"
        "SASS instructions</h2>",
        _sass_panel(report),
        "</div></div>",
        "<div class='section'><h2>Findings</h2>",
        _findings_section(report),
        "</div>",
        "<div class='section'>",
        _affine_footer(report),
        "</div>",
        "<div class='section'>",
        _stall_bar(report),
        "</div>",
        "<div class='section'>",
        _heatmap_section(report),
        "</div>",
        "<div class='section'>",
        _metrics_table(report),
        "</div>",
        "<div class='section'>",
        _profile_section(report),
        "</div>",
        "<div class='section'>",
        _health_section(report),
        "</div>",
    ]
    if comparison is not None:
        parts.append(f"<div class='section'>{_comparison_table(comparison)}"
                     "</div>")
    parts.append("</body></html>")
    return "\n".join(parts)
