"""Terminal report rendering, styled after the paper's Figures 2 and 5.

The output has the three sections of §3.2: the SASS analysis findings
(with registers and source line numbers), the correlated warp-stall
information, and the kernel-wide metric analysis.
"""

from __future__ import annotations

from typing import Optional

from repro.core.findings import Finding, Severity
from repro.gpu.stalls import STALL_EXPLANATIONS, StallReason
from repro.metrics.names import METRIC_REGISTRY

__all__ = ["render_report", "render_finding", "render_health",
           "render_profile"]

_RULE = "-" * 72
_SEV_TAG = {
    Severity.INFO: "INFO    ",
    Severity.WARNING: "WARNING ",
    Severity.CRITICAL: "CRITICAL",
}
_SEV_COLOR = {
    Severity.INFO: "\x1b[36m",
    Severity.WARNING: "\x1b[33m",
    Severity.CRITICAL: "\x1b[31m",
}
_RESET = "\x1b[0m"


def _fmt_value(name: str, value: float) -> str:
    spec = METRIC_REGISTRY.get(name)
    unit = f" {spec.unit}" if spec else ""
    if abs(value - round(value)) < 1e-9 and abs(value) < 1e15:
        return f"{int(round(value))}{unit}"
    return f"{value:.2f}{unit}"


_PM_LABEL = {
    "sectors_per_request": "sectors/request",
    "transactions_per_request": "shared transactions/request",
    "bank_conflict_ways": "bank-conflict ways",
}


def _fmt_predicted_measured(finding: Finding) -> Optional[str]:
    """``Predicted: 32 sectors/request (measured 32.0)`` style line.

    The static prediction and the simulator's per-PC measurement of the
    same accesses, side by side — the cross-validation the affine
    engine makes possible."""
    parts = []
    for key, label in _PM_LABEL.items():
        pred = finding.predicted.get(key)
        meas = finding.measured.get(key)
        if pred is None and meas is None:
            continue
        if pred is not None and meas is not None:
            mark = "=" if abs(pred - meas) < 1e-9 else "!="
            parts.append(f"{pred:g} {label} (measured {meas:g}, "
                         f"predicted {mark} measured)")
        elif pred is not None:
            parts.append(f"{pred:g} {label} (static)")
        else:
            parts.append(f"{label}: measured {meas:g}")
    unproven = finding.predicted.get("unproven_pcs")
    if unproven:
        parts.append(f"{len(unproven)} access(es) unproven")
    if not parts:
        return None
    return "Predicted: " + "; ".join(parts)


def render_finding(finding: Finding, color: bool = False) -> str:
    """One finding block: SASS facts, then stalls, then metrics."""
    tag = _SEV_TAG[finding.severity]
    if color:
        tag = f"{_SEV_COLOR[finding.severity]}{tag}{_RESET}"
    lines = [f"{tag}::  {finding.title}"]
    lines.append(f"    {finding.message}")
    if finding.registers:
        lines.append(f"    Registers: {', '.join(finding.registers)}")
    locs = sorted({str(loc) for loc in finding.locations})
    if locs:
        lines.append(f"    Source: {'; '.join(locs)}")
    if finding.in_loop:
        lines.append("    Note: the pattern executes inside a for-loop.")
    pressure = finding.details.get("live_register_pressure")
    if pressure is not None:
        lines.append(f"    Live register pressure at the instruction(s): "
                     f"{pressure}")
    pm = _fmt_predicted_measured(finding)
    if pm:
        lines.append(f"    {pm}")
    lines.append(f"    Advice: {finding.recommendation}")
    if finding.stall_profile:
        total = sum(
            v for k, v in finding.stall_profile.items()
            if k is not StallReason.SELECTED
        )
        if total:
            lines.append("    Warp stalls at the flagged instruction(s):")
            ranked = sorted(
                (
                    (k, v) for k, v in finding.stall_profile.items()
                    if k is not StallReason.SELECTED and v > 0
                ),
                key=lambda kv: -kv[1],
            )
            for reason, count in ranked[:4]:
                pct = 100.0 * count / total
                lines.append(
                    f"      {reason.cupti_name:<28s} {pct:5.1f} % "
                    f"({count} samples)"
                )
            dom = finding.dominant_stall()
            if dom is not None and dom in STALL_EXPLANATIONS:
                lines.append(f"      -> {STALL_EXPLANATIONS[dom]}")
    if finding.blame:
        lines.append("    Stall root cause (backward slice):")
        for b in finding.blame[:4]:
            where = f"pc {b.stall_pc}"
            if b.stall_line is not None:
                where = f"line {b.stall_line}"
            lines.append(f"      {b.stall_op} at {where} {b.describe()}")
    if finding.metrics:
        lines.append("    Metrics to pay attention to:")
        for name, value in finding.metrics.items():
            lines.append(f"      {name:<52s} {_fmt_value(name, value)}")
    return "\n".join(lines)


def render_report(report, color: bool = False,
                  profile: bool = False) -> str:
    """Full terminal report (Figure 2 / Figure 5 style).

    With ``profile`` a ``[prof]`` footer is appended: the top pipeline
    stages by wall time and the hottest source lines by stall cycles
    (from the report's :class:`~repro.obs.heatmap.Heatmap`)."""
    lines: list[str] = []
    lines.append(_RULE)
    mode = " (dry run: SASS analysis only)" if report.dry_run else ""
    lines.append(f"GPUscout analysis of kernel '{report.kernel}'{mode}")
    lines.append(_RULE)
    if not report.findings:
        lines.append("No data-movement bottleneck patterns detected.")
    for finding in report.findings:
        lines.append(render_finding(finding, color=color))
        lines.append("")
    if not report.dry_run and report.metrics is not None:
        lines.append(_RULE)
        lines.append("Kernel-wide metric analysis (Nsight Compute)")
        lines.append(_RULE)
        for name, value in report.metrics.values.items():
            lines.append(f"  {name:<56s} {_fmt_value(name, value)}")
        if report.sampling is not None:
            lines.append("")
            lines.append("Warp-stall sample distribution (CUPTI PC sampling):")
            totals = report.sampling.by_reason()
            stall_total = sum(
                v for k, v in totals.items() if k is not StallReason.SELECTED
            )
            for reason, count in sorted(totals.items(), key=lambda kv: -kv[1]):
                if reason is StallReason.SELECTED or count == 0:
                    continue
                pct = 100.0 * count / stall_total if stall_total else 0.0
                lines.append(f"  {reason.cupti_name:<30s} {pct:5.1f} % "
                             f"({count} samples)")
    if report.affine_summary:
        g = report.affine_summary.get("global", {})
        s = report.affine_summary.get("shared", {})
        lines.append(
            f"[affine] global accesses: {g.get('proven_coalesced', 0)} "
            f"proven coalesced, {g.get('flagged', 0)} flagged, "
            f"{g.get('unproven', 0)} unproven | shared accesses: "
            f"{s.get('proven_conflict_free', 0)} proven conflict-free, "
            f"{s.get('flagged', 0)} flagged, {s.get('unproven', 0)} unproven"
        )
    if report.overhead is not None and not report.dry_run:
        o = report.overhead
        lines.append("")
        lines.append(
            f"[overhead] kernel {o.kernel_seconds*1e3:.2f} ms | "
            f"SASS analysis {o.sass_analysis_seconds*1e3:.2f} ms | "
            f"PC sampling {o.pc_sampling_seconds*1e3:.2f} ms | "
            f"metrics {o.metrics_seconds*1e3:.2f} ms | "
            f"total {o.total_factor:.1f}x kernel time"
        )
    if report.launch is not None and not report.dry_run:
        launch = report.launch
        exec_line = f"[exec] inst issued (timed) {launch.counters.inst_issued}"
        if launch.timed_instructions:
            timed_path = ("trace (batched)" if launch.timed_fast_path
                          else "legacy")
            exec_line += (
                f" ({launch.timed_inst_per_sec:,.0f}/s, {timed_path} path)"
            )
        if launch.counters.inst_functional:
            if not launch.fast_path:
                path = "legacy path"
            elif launch.func_legacy_inst:
                path = (f"batched, {launch.func_dissolved} of "
                        f"{launch.func_packs} packs finished per-warp")
            else:
                path = "fast (batched) path"
            exec_line += (
                f" | functional inst {launch.counters.inst_functional}"
                f" ({launch.functional_inst_per_sec:,.0f}/s, {path})"
            )
        lines.append(exec_line)
    lines.extend(render_health(report))
    if profile:
        lines.extend(render_profile(report))
        from repro.obs.metrics import render_footer

        # [metrics] footer: whatever the armed telemetry registry
        # accumulated this process (empty when disarmed)
        lines.extend(render_footer())
    return "\n".join(lines) + "\n"


def render_profile(report) -> list[str]:
    """The ``[prof]`` footer: top-5 pipeline stages and top-5 hot lines.

    Empty when the report carries no profiler (e.g. hand-built report
    objects in tests)."""
    prof = getattr(report, "profile", None)
    if prof is None or not prof.spans:
        return []
    total = prof.total_seconds()
    lines = ["", f"[prof] pipeline wall time {total*1e3:.2f} ms"]
    for span in prof.top_spans(5):
        pct = 100.0 * span.elapsed_s / total if total else 0.0
        lines.append(
            f"  {span.name:<24s} {span.elapsed_s*1e3:8.2f} ms {pct:5.1f} %"
        )
    # the counters that explain a stage's cost: what the launch spent on
    # effect traces (build, cache put, hits), how many accesses the
    # predictor evaluated over how many rows, how many PCs were sliced
    for name in ("launch", "evaluate:predictions", "evaluate:blame"):
        span = next((s for s in prof.spans if s.name == name), None)
        if span is not None and span.counters:
            lines.append(f"[prof] {name}: " + " | ".join(
                f"{k} {v*1e3:.2f} ms" if isinstance(v, float) else f"{k} {v}"
                for k, v in span.counters.items()))
    heatmap = getattr(report, "heatmap", None)
    if heatmap is not None and heatmap.lines:
        lines.append("[prof] hottest source lines (simulated stall cycles)")
        for lh in heatmap.top(5):
            dom = lh.dominant()
            dom_name = dom.cupti_name if dom is not None else "-"
            waits = ""
            if lh.waits_on:
                w = lh.producers()[0]
                target = (f"line {w['line']}" if w["line"] is not None
                          else f"pc {w['pc']}")
                waits = f"  waits on: {w['op']} ({target})"
            lines.append(
                f"  line {lh.line:<5d} {lh.stall_cycles:10.0f} cycles "
                f"{100.0 * lh.share:5.1f} %  dominant: {dom_name}{waits}"
            )
    return lines


_HEALTH_MAX_LINES = 8


def render_health(report) -> list[str]:
    """The ``[health]`` footer: degradation mode plus diagnostics.

    Empty (no lines at all) for a clean run, so reports only mention
    health when there is something to say."""
    diags = getattr(report, "diagnostics", None) or []
    mode = getattr(report, "mode", "full")
    degraded = mode in ("functional", "static")
    if not diags and not degraded:
        return []
    errors = sum(1 for d in diags if d.severity == "error")
    head = f"[health] mode: {mode}"
    if degraded:
        head += " (degraded)"
    head += f" | {len(diags)} diagnostic(s)"
    if errors:
        head += f", {errors} error(s)"
    lines = ["", head]
    for d in diags[:_HEALTH_MAX_LINES]:
        lines.append(f"  {d}")
    if len(diags) > _HEALTH_MAX_LINES:
        lines.append(f"  ... and {len(diags) - _HEALTH_MAX_LINES} more")
    return lines
