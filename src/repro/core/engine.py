"""GPUscout orchestration: the four-stage workflow of paper §3.1.

1. **Configuration** — a compiled kernel (or raw SASS text) plus the
   launch setup.
2. **Static code instrumentation** — the registered SASS analyses run
   over the disassembly.
3. **Dynamic data collection** — skipped under ``--dry-run``; otherwise
   the kernel executes on the simulated GPU, CUPTI-style PC samples are
   drawn, and the curated ncu metric sets are collected.
4. **Data evaluation** — stalls and metrics are correlated to each
   finding's instructions and the terminal report is rendered.

Every stage runs inside a **fault boundary**: unexpected exceptions are
converted into :class:`~repro.errors.Diagnostic` records on the
:class:`ScoutReport` instead of aborting the run, so a crash in one
analysis (or in sampling, metric collection, …) still yields every
other stage's results.  The dynamic stage additionally degrades down a
ladder — trace-driven timed → functional-only → static-only — when the
simulator fails or a :class:`~repro.gpu.budget.SimBudget` limit trips;
each demotion is recorded as a diagnostic and the report's ``mode``
names the rung that finally succeeded.  Truly unexpected
(non-:class:`~repro.errors.ReproError`) crashes also write a reproducer
bundle to a temp dir (see :mod:`repro.core.reproducer`) named in the
diagnostic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.core.base import Analysis, AnalysisContext, default_analyses
from repro.core.findings import Finding
from repro.core.overhead import OverheadBreakdown
from repro.obs.metrics import RATE_BUCKETS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.metrics import armed as _metrics_armed
from repro.obs.spans import NULL_PROFILER, Profiler
from repro.errors import (
    AnalysisError,
    Diagnostic,
    LaunchError,
    ReproError,
    diagnostic_from_exception,
)
from repro.gpu.config import GPUSpec
from repro.gpu.stalls import StallReason
from repro.metrics.names import METRIC_SETS
from repro.sass.isa import Program
from repro.sass.parser import parse_sass
from repro.testing.faultinject import fail_point

if TYPE_CHECKING:
    # what only a launch needs is imported where the launch stage
    # starts: --dry-run and raw SASS never load the simulator
    from repro.cudalite.compiler import CompiledKernel
    from repro.gpu.budget import SimBudget
    from repro.gpu.config import LaunchConfig
    from repro.gpu.simulator import LaunchResult, Simulator
    from repro.metrics.collector import MetricReport, NsightComputeCLI
    from repro.obs.heatmap import Heatmap
    from repro.ptx.analysis import PTXAtomicsSummary
    from repro.sampling.pcsampler import PCSampler, PCSamplingResult
    from repro.sampling.stall_report import LineStallProfile
    from repro.sass.slicing import StallBlame

__all__ = ["GPUscout", "ScoutReport", "StaticArtifacts"]

#: the degradation ladder's launching rungs, most to least capable, as
#: (name, timed); below the last one is ``static-only`` (no launch)
LADDER = (("timed-trace", True), ("functional-only", False))


def _record_run_telemetry(prof: "Profiler", mode: str,
                          launch=None) -> None:
    """Feed one completed analysis into the metrics registry: stage
    wall-clock histograms, the run's report mode, and scheduler
    throughput (warp-instructions per host second, timed and
    functional paths).  No-op while telemetry is disarmed."""
    if not _metrics_armed():
        return
    _METRICS.counter(
        "gpuscout_engine_runs_total",
        "Analyses completed, by report mode", mode=mode).inc()
    for stage, seconds in prof.stage_totals().items():
        _METRICS.histogram(
            "gpuscout_engine_stage_seconds",
            "Wall seconds per engine stage", stage=stage,
        ).observe(seconds)
    if launch is None:
        return
    timed = launch.timed_inst_per_sec
    if timed:
        _METRICS.histogram(
            "gpuscout_sim_inst_per_sec",
            "Scheduler throughput in warp-instructions per host second",
            buckets=RATE_BUCKETS, path="timed").observe(timed)
        _METRICS.counter(
            "gpuscout_sim_instructions_total",
            "Warp-instructions executed by the simulator",
            kind="timed").inc(launch.timed_instructions)
    functional = launch.functional_inst_per_sec
    if functional:
        _METRICS.histogram(
            "gpuscout_sim_inst_per_sec",
            "Scheduler throughput in warp-instructions per host second",
            buckets=RATE_BUCKETS, path="functional").observe(functional)
        _METRICS.counter(
            "gpuscout_sim_instructions_total",
            "Warp-instructions executed by the simulator",
            kind="functional").inc(launch.counters.inst_functional)


@dataclass
class StaticArtifacts:
    """Stage-1/2 products of one program: everything :meth:`GPUscout.analyze`
    computes before the first launch-dependent instruction.

    These are pure functions of (SASS text, launch geometry, analysis
    set), so a serving layer can compute them once per program and
    reuse them across every launch of a batch (the L1 tier of the
    result cache).  ``findings`` are kept pristine — the engine
    deep-copies them per run before the dynamic stages mutate them
    (stall profiles, metrics, predicted/measured attach)."""

    program: Program
    compiled: Optional[CompiledKernel]
    ctx: AnalysisContext
    findings: list[Finding]
    ptx_atomics: Optional["PTXAtomicsSummary"]
    affine_summary: dict
    #: parse/static-stage diagnostics, replayed onto every reusing run
    diagnostics: list[Diagnostic]
    #: wall-clock the static stages cost when first computed
    sass_seconds: float = 0.0
    #: raw SASS text, when the artifacts came from text input
    sass_text: Optional[str] = None

    def matches(self, kernel, config) -> bool:
        """Whether these artifacts are reusable for ``kernel`` under
        ``config``: same program and same launch geometry (analyses may
        fold ``ctx.config`` into their static results).  Raw SASS is
        the same program when the text is equal and a parsed
        :class:`Program` when it is the same object; a compiled kernel
        when its SASS digest and pointer-parameter layout are equal —
        all the static stages read from it (``static:ptx`` scans the
        same instruction stream before register allocation), and what
        :func:`repro.serve.protocol.static_key` addresses."""
        if isinstance(kernel, str):
            same = self.sass_text == kernel
        elif isinstance(kernel, Program):
            same = self.program is kernel
        elif self.compiled is not None:
            from repro.sass.affine import pointer_param_offsets

            same = (
                self.compiled.sass_sha256 == getattr(kernel, "sass_sha256", None)
                and pointer_param_offsets(self.compiled)
                == pointer_param_offsets(kernel)
            )
        else:
            same = False
        return same and self.ctx.config == config

    @property
    def reusable(self) -> bool:
        """Whether a cache may keep these artifacts: no stage of them
        failed.  An error-severity diagnostic (a dead analysis, a failed
        parse) may be transient, and a cached copy would replay it on
        every later run of the program."""
        return not any(d.severity == "error" for d in self.diagnostics)


@dataclass
class ScoutReport:
    """Everything one GPUscout run produced."""

    kernel: str
    findings: list[Finding]
    dry_run: bool
    program: Program
    sampling: Optional[PCSamplingResult] = None
    line_profiles: dict[int, LineStallProfile] = field(default_factory=dict)
    metrics: Optional[MetricReport] = None
    launch: Optional[LaunchResult] = None
    overhead: Optional[OverheadBreakdown] = None
    #: PTX-level §4.4 atomics summary (None when only raw SASS given)
    ptx_atomics: Optional["PTXAtomicsSummary"] = None
    #: static affine proof counts per space (see
    #: :func:`repro.sass.affine.summarize_proofs`); rendered as the
    #: report footer
    affine_summary: dict = field(default_factory=dict)
    #: which degradation-ladder rung produced the dynamic data:
    #: ``full`` (timed), ``functional`` (no timing), ``static``
    #: (simulation abandoned), or ``dry-run`` (never attempted)
    mode: str = "full"
    #: fault-boundary records accumulated across all stages
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: per-stage self-profiling spans (see :mod:`repro.obs.spans`);
    #: always present on engine-produced reports
    profile: Optional[Profiler] = None
    #: per-source-line stall heatmap (dynamic runs only)
    heatmap: Optional[Heatmap] = None
    #: stall root-cause slices keyed by sampled PC (dynamic runs only):
    #: backward def-use blame chains from each dependency-stalled PC to
    #: the producer it waits on (:class:`repro.sass.slicing.StallBlame`)
    blame: dict[int, "StallBlame"] = field(default_factory=dict)
    #: where the CLI wrote the Chrome trace, when ``--trace`` was given
    trace_path: Optional[str] = None

    @property
    def degraded(self) -> bool:
        """Whether the run fell short of what was asked of it."""
        return self.mode in ("functional", "static") or any(
            d.severity == "error" for d in self.diagnostics
        )

    def findings_for(self, analysis: str) -> list[Finding]:
        return [f for f in self.findings if f.analysis == analysis]

    def has_finding(self, analysis: str) -> bool:
        return any(f.analysis == analysis for f in self.findings)

    def render(self, color: bool = False, profile: bool = False) -> str:
        from repro.core.report import render_report

        return render_report(self, color=color, profile=profile)

    def render_html(self, comparison=None) -> str:
        """The Figure-7 interactive frontend as a standalone HTML page."""
        from repro.core.html_report import render_html

        return render_html(self, comparison=comparison)


class GPUscout:
    """The analyzer.  See the module docstring for the workflow.

    Parameters mirror the tool's configuration stage: which analyses to
    run, the GPU to execute on, the PC sampling period, and how many
    blocks to simulate per launch (``max_blocks``) before extrapolating.
    """

    def __init__(
        self,
        analyses: Optional[Sequence[Analysis]] = None,
        spec: Optional[GPUSpec] = None,
        sampler: Optional[PCSampler] = None,
        ncu: Optional[NsightComputeCLI] = None,
    ):
        self.analyses = list(analyses) if analyses is not None else default_analyses()
        self.spec = spec or GPUSpec.v100()
        #: this scout's earlier static artifacts per compiled program and
        #: geometry (a :class:`~repro.cache.StaticCache`), made on the
        #: first store
        self._statics = None
        if sampler is not None:
            self.sampler = sampler
        if ncu is not None:
            self.ncu = ncu

    @cached_property
    def sampler(self) -> PCSampler:
        from repro.sampling.pcsampler import PCSampler

        return PCSampler()

    @cached_property
    def ncu(self) -> NsightComputeCLI:
        from repro.metrics.collector import NsightComputeCLI

        return NsightComputeCLI()

    # ------------------------------------------------------------------
    def analyze(
        self,
        kernel: Union[CompiledKernel, Program, str],
        config: Optional[LaunchConfig] = None,
        args: Optional[dict] = None,
        textures: Optional[dict] = None,
        dry_run: bool = False,
        max_blocks: Optional[int] = None,
        launch: Optional[LaunchResult] = None,
        budget: Optional[SimBudget] = None,
        trace=None,
        static: Optional[StaticArtifacts] = None,
    ) -> ScoutReport:
        """Run the full GPUscout workflow on ``kernel``.

        ``kernel`` may be a cudalite :class:`CompiledKernel`, an
        already-parsed :class:`Program`, or raw nvdisasm text.  With
        ``dry_run`` only the static SASS analysis runs — no GPU (i.e.
        simulator) involvement at all, usable on architectures ncu does
        not support (paper §3.1).  A pre-existing ``launch`` result can
        be supplied to correlate against (avoids re-simulation).

        ``trace`` is an optional
        :class:`~repro.obs.timeline_capture.TimelineCapture`: the
        simulated-GPU timeline (per-warp issue/stall slices, counter
        tracks) is recorded on it without perturbing the simulation.

        ``static`` optionally supplies pre-computed
        :class:`StaticArtifacts` (from :meth:`analyze_static`): when
        they match the kernel and launch geometry, stages 1–2 are
        skipped and their products reused — the serving layer's L1
        cache path.  Mismatched artifacts are ignored and everything
        is recomputed.  Without usable ``static``, a compiled kernel
        reuses this scout's own earlier artifacts for the same SASS,
        pointer layout and geometry the same way (raw SASS and a
        :class:`Program` are always recomputed).

        Stage failures do not abort the run: they are recorded as
        :class:`~repro.errors.Diagnostic` entries on the returned
        report, which carries whatever the remaining stages produced
        (see the module docstring).  Only *usage* errors — an
        unanalyzable ``kernel`` object, or a dynamic run without a
        launchable kernel / launch setup — still raise
        :class:`~repro.errors.AnalysisError`.

        Every stage runs inside a :class:`~repro.obs.spans.Profiler`
        span; the per-stage wall-clock breakdown is returned as
        ``report.profile`` and every recovered :class:`Diagnostic`
        carries the enclosing stage's elapsed time in
        ``detail["elapsed_s"]``.
        """
        diags: list[Diagnostic] = []
        crashed = {"bundled": False}
        prof = Profiler()
        note = self._make_note(prof, diags, crashed, config, args)

        # -- stages 1+2: parse + static instrumentation ------------------
        key = None
        if static is None or not static.matches(kernel, config):
            key = self._static_key(kernel, config)
            static = self._statics.get(key) \
                if key is not None and self._statics is not None else None
        if static is not None:
            # reuse: the static passes are pure functions of the
            # program + geometry; replay their products instead of
            # recomputing.  Findings and diagnostics are deep-copied —
            # the dynamic stages mutate them per run.
            with prof.span("static:cached"):
                art = static
                findings = self._replay_static(art, diags, note)
            sass_seconds = art.sass_seconds
        else:
            art = self._run_static(kernel, config, prof, diags, note)
            findings = art.findings
            sass_seconds = art.sass_seconds
            # a dry run starts no memo: its cache module comes with the
            # launch stack, which a dry run never loads (paper §3.1)
            if key is not None and art.reusable and (
                    self._statics is not None or not dry_run):
                if self._statics is None:
                    from repro.cache import StaticCache

                    self._statics = StaticCache()
                self._statics.put(key, art)
                findings = [copy.deepcopy(f) for f in findings]
        program, ctx = art.program, art.ctx
        # the launch runs the kernel it was handed, which on an L1 hit
        # may be another object than the one the artifacts came from
        compiled = kernel if art.compiled is not None else None
        ptx_atomics = art.ptx_atomics
        affine_summary = art.affine_summary

        if dry_run:
            _record_run_telemetry(prof, "dry-run")
            return ScoutReport(
                kernel=program.name,
                findings=findings,
                dry_run=True,
                program=program,
                ptx_atomics=ptx_atomics,
                affine_summary=affine_summary,
                mode="dry-run",
                diagnostics=diags,
                profile=prof,
                overhead=OverheadBreakdown(
                    kernel_seconds=0.0,
                    sass_analysis_seconds=sass_seconds,
                    pc_sampling_seconds=0.0,
                    metrics_seconds=0.0,
                ),
            )

        if compiled is None:
            raise AnalysisError(
                "dynamic analysis needs a CompiledKernel (launchable); "
                "raw SASS supports --dry-run only"
            )

        # -- stage 3: dynamic collection (degradation ladder) ------------
        # The launch stage starts here and so do its imports — the
        # simulator, the sampler and the metric collector among them —
        # ahead of the first span, so no stage is billed for them.
        from repro.gpu.simulator import Simulator
        from repro.obs.heatmap import build_heatmap
        from repro.sampling.stall_report import build_line_profiles
        from repro.sass.slicing import BlameSlicer

        sampler, ncu = self.sampler, self.ncu
        mode = "full"
        if launch is None:
            if config is None or args is None:
                raise AnalysisError(
                    "dynamic analysis needs a LaunchConfig and kernel args"
                )
            with prof.span("launch"):
                launch, mode = self._launch_with_degradation(
                    Simulator(self.spec),
                    compiled, config, args, textures, max_blocks, budget,
                    note, program, trace=trace, prof=prof,
                )
                if launch is not None:
                    for name, value in launch.trace_cost.items():
                        prof.count(name, value)
                    if launch.func_packs:
                        # what the batched functional phase did, and
                        # how much of it fell to the per-warp loop
                        prof.count("func_packs", launch.func_packs)
                        prof.count("func_dissolved", launch.func_dissolved)
                        prof.count("func_legacy_inst",
                                   launch.func_legacy_inst)

        sampling = None
        line_profiles: dict[int, LineStallProfile] = {}
        metrics = None
        if launch is not None and mode == "full":
            with prof.span("sampling"):
                try:
                    sampling = sampler.sample(launch)
                    line_profiles = build_line_profiles(sampling)
                except Exception as exc:
                    sampling, line_profiles = None, {}
                    note("sampling", "sampler.sample", exc, program=program)
            with prof.span("metrics"):
                try:
                    metrics = ncu.collect(
                        launch, self._metric_names(findings)
                    )
                except Exception as exc:
                    metrics = None
                    note("metrics", "metrics.collect", exc, program=program)

        # -- stage 4: evaluation ------------------------------------------
        heatmap = None
        blame: dict = {}
        with prof.span("evaluate"):
            for finding in findings:
                if sampling is not None:
                    finding.stall_profile = self._stalls_for(finding,
                                                            sampling)
                if metrics is not None:
                    finding.metrics = {
                        name: metrics.values[name]
                        for name in finding.metric_focus
                        if name in metrics.values
                    }
            if launch is not None:
                with prof.span("evaluate:predictions"):
                    try:
                        fail_point("engine.predictions")
                        self._attach_predictions(
                            findings, ctx, compiled, config, launch, prof
                        )
                    except Exception as exc:
                        note("evaluate", "engine.predictions", exc,
                             program=program)
                with prof.span("evaluate:blame"):
                    # stall root-cause slicing (reuses ctx's cached
                    # CFG/reaching-defs/affine passes)
                    if sampling is not None:
                        try:
                            slicer = BlameSlicer.from_context(ctx)
                            blame = slicer.slice_sampling(sampling)
                        except Exception as exc:
                            blame = {}
                            note("evaluate", "engine.blame", exc,
                                 program=program)
                    prof.count("blame_pcs", len(blame))
                    for finding in findings:
                        pcs = set(finding.pcs)
                        finding.blame = [
                            b for pc, b in sorted(blame.items())
                            if pc in pcs or
                            (b.producer is not None and
                             b.producer.pc in pcs)
                        ]
                with prof.span("evaluate:heatmap"):
                    try:
                        heatmap = build_heatmap(program, launch.counters,
                                                blame=blame)
                    except Exception as exc:
                        heatmap = None
                        note("evaluate", "engine.heatmap", exc,
                             program=program)

        overhead = OverheadBreakdown(
            kernel_seconds=launch.duration_s if launch is not None else 0.0,
            sass_analysis_seconds=sass_seconds,
            pc_sampling_seconds=(
                sampler.overhead_seconds(launch)
                if launch is not None and sampling is not None else 0.0
            ),
            metrics_seconds=(
                metrics.collection_seconds if metrics is not None else 0.0
            ),
        )
        _record_run_telemetry(prof, mode, launch)
        return ScoutReport(
            kernel=program.name,
            findings=findings,
            dry_run=False,
            program=program,
            ptx_atomics=ptx_atomics,
            sampling=sampling,
            line_profiles=line_profiles,
            metrics=metrics,
            launch=launch,
            overhead=overhead,
            affine_summary=affine_summary,
            mode=mode,
            diagnostics=diags,
            profile=prof,
            heatmap=heatmap,
            blame=blame,
        )

    # ------------------------------------------------------------------
    def _make_note(self, prof, diags, crashed, config, args):
        """The fault-boundary recorder shared by every stage: convert a
        caught exception into a :class:`Diagnostic` on ``diags``,
        stamped with the enclosing profiler span, bundling a reproducer
        for the first truly unexpected crash."""

        def note(stage: str, site: str, exc: BaseException,
                 severity: str = "warning", *,
                 program=None) -> Diagnostic:
            d = diagnostic_from_exception(stage, site, exc,
                                          severity=severity)
            span = prof.current()
            if span is not None:
                # stage timing on the diagnostic: how long the stage
                # had been running when the fault was recovered
                d.detail["span"] = span.name
                d.detail["elapsed_s"] = round(span.elapsed_s, 6)
            if not isinstance(exc, ReproError) and not crashed["bundled"]:
                # an exception no stage anticipated: keep the evidence
                crashed["bundled"] = True
                from repro.core.reproducer import write_reproducer_bundle

                bundle = write_reproducer_bundle(
                    exc, program=program, config=config, args=args,
                )
                if bundle:
                    d.detail["reproducer"] = bundle
                    d.message += f" [reproducer bundle: {bundle}]"
            diags.append(d)
            return d

        return note

    # ------------------------------------------------------------------
    @staticmethod
    def _static_key(kernel, config) -> Optional[tuple]:
        """The memo key of a compiled kernel under ``config``: what
        :meth:`StaticArtifacts.matches` compares (the scout fixes the
        analysis set).  ``None`` for raw SASS and a :class:`Program`,
        which are never memoised: a parse fault must reach the parser."""
        sha = None if isinstance(kernel, (str, Program)) else \
            getattr(kernel, "sass_sha256", None)
        if sha is None:
            return None
        from repro.sass.affine import pointer_param_offsets

        return sha, pointer_param_offsets(kernel), config

    def _replay_static(self, art: StaticArtifacts, diags,
                       note) -> list[Finding]:
        """This run's copy of ``art``'s findings, with its diagnostics
        on ``diags``.  ``engine.analysis`` fires once per analysis, as
        in a fresh run, and an analysis it kills loses its findings."""
        diags.extend(copy.deepcopy(d) for d in art.diagnostics)
        dead = set()
        for analysis in self.analyses:
            try:
                fail_point("engine.analysis")
            except Exception as exc:
                d = note("static", "engine.analysis", exc,
                         severity="error", program=art.program)
                d.detail["analysis"] = analysis.name
                dead.add(analysis.name)
        return [copy.deepcopy(f) for f in art.findings
                if f.analysis not in dead]

    def _run_static(self, kernel, config, prof, diags,
                    note) -> StaticArtifacts:
        """Stages 1–2: parse and static instrumentation (the pure
        launch-independent half of the pipeline)."""
        # -- stage 1: configuration / parse -----------------------------
        with prof.span("parse") as parse_span:
            try:
                program, compiled = self._resolve(kernel, diags)
            except AnalysisError:
                raise  # unanalyzable input object: a usage error
            except Exception as exc:
                # even a wholesale parse failure yields a (static, empty)
                # report so batch pipelines keep their per-kernel records
                note("parse", "parser.program", exc, severity="error")
                program, compiled = Program("kernel", []), None
            # per-line recovery diagnostics come straight from the
            # parser, not through note(): stamp stage timing on them too
            for d in diags:
                if "span" not in d.detail:
                    d.detail["span"] = parse_span.name
                    d.detail["elapsed_s"] = round(parse_span.elapsed_s, 6)

        # -- stage 2: static instrumentation -----------------------------
        with prof.span("static") as static_span:
            ctx = AnalysisContext(program, compiled, config)
            findings: list[Finding] = []
            for analysis in self.analyses:
                with prof.span(f"static:{analysis.name}"):
                    try:
                        fail_point("engine.analysis")
                        findings.extend(analysis.run(ctx))
                    except Exception as exc:
                        d = note("static", "engine.analysis", exc,
                                 severity="error", program=program)
                        d.detail["analysis"] = analysis.name
            findings.sort(key=lambda f: (-int(f.severity), f.analysis))
            # PTX-level cross-check of the atomics analysis (paper §3
            # fn. 2: "analogously to SASS, a PTX analysis is performed
            # in §4.4")
            ptx_atomics = None
            if compiled is not None:
                with prof.span("static:ptx"):
                    try:
                        from repro.ptx import parse_ptx, scan_atomics

                        ptx_atomics = scan_atomics(
                            parse_ptx(compiled.ptx_text))
                        for finding in findings:
                            if finding.analysis == "use_shared_atomics":
                                finding.details["ptx_global_atomics"] = \
                                    ptx_atomics.global_atomics
                                finding.details["ptx_shared_atomics"] = \
                                    ptx_atomics.shared_atomics
                    except Exception as exc:
                        note("static", "engine.ptx", exc, program=program)
            # launch-independent affine proof footer: which accesses are
            # statically proven coalesced/conflict-free vs. flagged
            affine_summary: dict = {}
            with prof.span("static:affine"):
                try:
                    from repro.sass.affine import (
                        pointer_param_offsets,
                        static_access_report,
                        summarize_proofs,
                    )

                    affine_summary = summarize_proofs(
                        static_access_report(
                            program, ctx.cfg, ctx.affine, config,
                            pointer_params=pointer_param_offsets(compiled),
                        )
                    )
                except Exception as exc:
                    note("static", "engine.affine", exc, program=program)
        return StaticArtifacts(
            program=program,
            compiled=compiled,
            ctx=ctx,
            findings=findings,
            ptx_atomics=ptx_atomics,
            affine_summary=affine_summary,
            diagnostics=list(diags),
            sass_seconds=static_span.elapsed_s,
            sass_text=kernel if isinstance(kernel, str) else None,
        )

    # ------------------------------------------------------------------
    def analyze_static(self, kernel,
                       config: Optional[LaunchConfig] = None,
                       ) -> StaticArtifacts:
        """Run only the pure-static stages (parse + instrumentation)
        and return their products for reuse via ``analyze(static=...)``.

        Artifacts are shareable across launches of the same program
        with the same geometry; the serving layer caches them per
        (SASS hash, grid, block, analysis set)."""
        diags: list[Diagnostic] = []
        crashed = {"bundled": False}
        prof = Profiler()
        note = self._make_note(prof, diags, crashed, config, None)
        art = self._run_static(kernel, config, prof, diags, note)
        # prime the context's lazy caches now, while we are still
        # single-threaded: reusing requests may share the ctx
        try:
            art.ctx.cfg
            art.ctx.affine
        except Exception:
            pass
        return art

    # ------------------------------------------------------------------
    def _launch_with_degradation(
        self,
        sim: Simulator,
        compiled: CompiledKernel,
        config: LaunchConfig,
        args: dict,
        textures: Optional[dict],
        max_blocks: Optional[int],
        budget: Optional[SimBudget],
        note,
        program: Program,
        trace=None,
        prof: Optional[Profiler] = None,
    ) -> tuple[Optional[LaunchResult], str]:
        """Run the dynamic stage down the degradation ladder.

        :data:`LADDER`, most to least capable: the trace-driven timed
        launch, then functional-only execution (``timed=False`` — fills
        counters' functional side but no cycles/stalls); below both is
        static-only (no launch at all).  Which engine a launch runs on
        is the simulator's business, not a rung's.  Every demotion is
        recorded via ``note``.  A :class:`~repro.errors.LaunchError` (a
        function of the inputs, raised before an instruction runs) or a
        latched :class:`~repro.gpu.budget.SimBudget` would fail every
        lower rung the same way, so either ends the ladder at once.

        Each rung attempt runs in its own span; a failed attempt's span
        is renamed ``launch:retry`` so abandoned-rung wall time is
        attributed to retry cost rather than the rung that eventually
        succeeded.  A failed rung's partial timeline-capture events are
        rolled back (``mark``/``reset_to``) so the exported trace only
        shows the run that produced the report.
        """
        prof = prof if prof is not None else NULL_PROFILER
        for i, (rung, timed) in enumerate(LADDER):
            capture_mark = trace.mark() if trace is not None and \
                hasattr(trace, "mark") else None
            with prof.span(f"launch:{rung}") as span:
                try:
                    launch = sim.launch(
                        compiled, config, args, textures=textures,
                        max_blocks=max_blocks,
                        functional_all=not timed,
                        timed=timed, budget=budget,
                        trace=trace,
                    )
                    return launch, ("full" if timed else "functional")
                except Exception as exc:
                    if span is not None:
                        # satellite: abandoned rung wall time shows up
                        # as retry cost, not as the winning rung's
                        span.name = "launch:retry"
                        span.counters["rung"] = rung
                    if capture_mark is not None:
                        trace.reset_to(capture_mark)
                    _METRICS.counter(
                        "gpuscout_engine_rung_demotions_total",
                        "Degradation-ladder rungs abandoned mid-run",
                        rung=rung).inc()
                    # no lower rung can fix the inputs or un-latch the
                    # budget: do not stage memory again to find out
                    last = (
                        i + 1 == len(LADDER)
                        or isinstance(exc, LaunchError)
                        or (budget is not None and bool(budget.exhausted))
                    )
                    fallback = "static-only" if last else LADDER[i + 1][0]
                    d = note("launch", "simulator.launch", exc,
                             program=program)
                    d.detail["rung"] = rung
                    d.detail["fallback"] = fallback
                    d.message = (
                        f"{rung} simulation failed ({d.message}); "
                        f"falling back to {fallback}"
                    )
                    if last:
                        break
        return None, "static"

    # ------------------------------------------------------------------
    def _attach_predictions(
        self,
        findings: Sequence[Finding],
        ctx: AnalysisContext,
        compiled: CompiledKernel,
        config: Optional[LaunchConfig],
        launch: LaunchResult,
        prof: Profiler,
    ) -> None:
        """Fill each finding's ``predicted``/``measured`` dicts.

        ``measured`` comes from the simulator's per-PC counters;
        ``predicted`` from the launch-aware affine predictor (which may
        sharpen a launch-free prediction an analysis attached earlier).
        Only the finding's own memory-access PCs are considered, so the
        two dicts compare the same accesses.  The enclosing span gets
        ``pred_pcs`` (accesses predicted) and ``pred_rows`` (the (block,
        warp) rows each of them evaluated in one pass)."""
        from repro.sass.affine import (
            _GLOBAL_CLASSES,
            _SHARED_CLASSES,
            AffineAnalysis,
            AffineEnv,
            MemoryPredictor,
        )

        config = config or launch.config
        spec = launch.spec
        env = AffineEnv.from_launch(compiled, config, launch.param_values)
        affine = AffineAnalysis(ctx.program, ctx.cfg, env)
        # enumerate exactly the blocks the simulator timed (SM 0's
        # share, possibly capped by max_blocks) so the prediction and
        # the measurement cover the same work
        blocks = range(0, config.num_blocks, spec.num_sms)
        if len(blocks) == 0:
            blocks = range(0, 1)
        if launch.simulated_blocks:
            blocks = blocks[: launch.simulated_blocks]
        predictor = MemoryPredictor(
            ctx.program, ctx.cfg, affine, config, spec, blocks=list(blocks)
        )
        counters = launch.counters
        predicted = 0
        for finding in findings:
            for classes, key, by_pc in (
                (_GLOBAL_CLASSES, "sectors_per_request",
                 counters.mem_sectors_by_pc),
                (_SHARED_CLASSES, "transactions_per_request",
                 counters.shared_tx_by_pc),
            ):
                pcs = [
                    pc for pc in finding.pcs
                    if pc < len(ctx.program)
                    and ctx.program[pc].opcode.op_class in classes
                ]
                if not pcs:
                    continue
                issues = sum(counters.inst_by_pc.get(pc, 0) for pc in pcs)
                if issues:
                    finding.measured[key] = (
                        sum(by_pc.get(pc, 0) for pc in pcs) / issues
                    )
                total = weight = 0.0
                unproven: list[int] = []
                predicted += len(pcs)
                for pc in pcs:
                    pred = predictor.predict(pc)
                    if pred.proven:
                        # weight by measured issues so a proven aggregate
                        # compares apples-to-apples with ``measured``
                        w = counters.inst_by_pc.get(pc, 0) or 1
                        total += pred.per_request * w
                        weight += w
                    else:
                        unproven.append(pc)
                if weight:
                    finding.predicted[key] = total / weight
                if unproven:
                    finding.predicted.setdefault(
                        "unproven_pcs", []
                    ).extend(unproven)
        prof.count("pred_pcs", predicted)
        prof.count("pred_rows", predictor.rows)

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(
        kernel, diagnostics: Optional[list] = None,
    ) -> tuple[Program, Optional[CompiledKernel]]:
        if isinstance(kernel, str):
            # raw disassembly may come from nvdisasm versions with
            # operand forms the grammar does not know: recover per line
            return parse_sass(kernel, recover=True,
                              diagnostics=diagnostics), None
        if isinstance(kernel, Program):
            return kernel, None
        # whoever holds a CompiledKernel has imported its module
        from repro.cudalite.compiler import CompiledKernel

        if isinstance(kernel, CompiledKernel):
            return kernel.program, kernel
        raise AnalysisError(f"cannot analyze object of type {type(kernel)!r}")

    def _metric_names(self, findings: Sequence[Finding]) -> list[str]:
        names = list(METRIC_SETS["base"])
        for finding in findings:
            for name in finding.metric_focus:
                if name not in names:
                    names.append(name)
        return names

    @staticmethod
    def _stalls_for(finding: Finding,
                    sampling: PCSamplingResult) -> dict[StallReason, int]:
        """Samples correlated to a finding.

        CUPTI attributes samples to source lines (paper §2.2), and the
        report presents stalls per flagged *line* (Figure 2: "For line
        number 18, the warp stalls are ...").  A sample therefore
        matches when it falls on a flagged PC or on any instruction of
        a flagged source line — e.g. the consumer that actually stalls
        on a flagged load's data."""
        out: dict[StallReason, int] = {}
        pcs = set(finding.pcs)
        lines = set(finding.lines)
        for s in sampling.samples:
            if s.pc in pcs or (s.line is not None and s.line in lines):
                out[s.reason] = out.get(s.reason, 0) + s.samples
        return out
