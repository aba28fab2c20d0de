"""GPUscout engine tests: workflow stages, dry-run, correlation,
report rendering."""

import numpy as np
import pytest

from repro.core import GPUscout, Severity, default_analyses
from repro.core.base import Analysis, AnalysisContext, register_analysis
from repro.core.findings import Finding
from repro.errors import AnalysisError
from repro.gpu import GPUSpec, LaunchConfig
from repro.gpu.stalls import StallReason


@pytest.fixture(scope="module")
def scout():
    return GPUscout(spec=GPUSpec.small(1))


@pytest.fixture(scope="module")
def saxpy_report(scout, saxpy):
    n = 1024
    return scout.analyze(
        saxpy,
        LaunchConfig(grid=(8, 1), block=(128, 1)),
        args={"x": np.zeros(n, np.float32), "y": np.zeros(n, np.float32),
              "a": 2.0, "n": n},
    )


class TestRegistry:
    def test_default_set_covers_paper_sections(self):
        names = {a.name for a in default_analyses()}
        assert names == {
            "use_vectorized_loads",
            "register_spilling",
            "use_shared_memory",
            "use_shared_atomics",
            "use_restrict",
            "use_texture_memory",
            "datatype_conversions",
        }

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            @register_analysis
            class Dup(Analysis):
                name = "use_restrict"

                def run(self, ctx):
                    return []

    def test_custom_analysis_pluggable(self, saxpy):
        class CountExits(Analysis):
            name = "count_exits"
            description = "count EXIT instructions"

            def run(self, ctx: AnalysisContext):
                n = sum(1 for i in ctx.program if i.opcode.base == "EXIT")
                return [Finding(
                    analysis=self.name, title="exits",
                    severity=Severity.INFO, message=str(n),
                    recommendation="none",
                )]

        scout = GPUscout(analyses=[CountExits()])
        report = scout.analyze(saxpy, dry_run=True)
        assert report.findings[0].analysis == "count_exits"


class TestDryRun:
    def test_dry_run_no_dynamic_sections(self, scout, saxpy):
        report = scout.analyze(saxpy, dry_run=True)
        assert report.dry_run
        assert report.sampling is None
        assert report.metrics is None
        assert report.launch is None
        assert report.overhead.pc_sampling_seconds == 0.0
        assert report.overhead.metrics_seconds == 0.0
        assert report.overhead.sass_analysis_seconds > 0.0

    def test_dry_run_accepts_raw_sass(self, scout):
        text = (
            "LDG.E.SYS R4, [R2] ;\n"
            "LDG.E.SYS R5, [R2+0x4] ;\n"
            "STG.E.SYS [R6], R4 ;\n"
            "EXIT ;\n"
        )
        report = scout.analyze(text, dry_run=True)
        assert report.has_finding("use_vectorized_loads")

    def test_dry_run_accepts_program(self, scout, loop_program):
        report = scout.analyze(loop_program, dry_run=True)
        assert report.kernel == "loopy"

    def test_raw_sass_dynamic_rejected(self, scout):
        with pytest.raises(AnalysisError):
            scout.analyze("EXIT ;\n", dry_run=False)

    def test_dynamic_needs_config(self, scout, saxpy):
        with pytest.raises(AnalysisError):
            scout.analyze(saxpy, dry_run=False)

    def test_unknown_object_rejected(self, scout):
        with pytest.raises(AnalysisError):
            scout.analyze(12345, dry_run=True)


class TestLaunchErrorEndsTheLadder:
    """Every ``LaunchError`` is a function of the inputs, raised before
    an instruction runs: no lower rung can fix it, so the ladder goes
    straight to static-only instead of staging memory per rung."""

    @pytest.mark.parametrize("broken", ["max_blocks", "missing_argument"])
    def test_one_diagnostic_one_staging(self, scout, saxpy, broken,
                                        stage_memory_calls):
        n = 1024
        args = {"x": np.zeros(n, np.float32), "y": np.zeros(n, np.float32),
                "a": 2.0, "n": n}
        max_blocks = None
        if broken == "max_blocks":
            max_blocks = -3
        else:
            del args["y"]
        report = scout.analyze(
            saxpy, LaunchConfig(grid=(8, 1), block=(128, 1)), args,
            max_blocks=max_blocks,
        )
        assert report.mode == "static"
        assert report.launch is None
        assert len(stage_memory_calls) == 1
        (d,) = report.diagnostics
        assert d.error == "LaunchError"
        assert d.detail["rung"] == "timed-trace"
        assert d.detail["fallback"] == "static-only"
        assert "static-only" in d.message
        assert report.findings  # the static pillar still reports


class TestDynamicRun:
    def test_three_pillars_present(self, saxpy_report):
        assert not saxpy_report.dry_run
        assert saxpy_report.sampling is not None
        assert saxpy_report.metrics is not None
        assert saxpy_report.launch is not None
        assert saxpy_report.line_profiles

    def test_findings_carry_stall_profiles(self, saxpy_report):
        flagged = [f for f in saxpy_report.findings if f.pcs]
        assert flagged
        assert any(f.stall_profile for f in flagged)

    def test_findings_carry_requested_metrics(self, saxpy_report):
        for f in saxpy_report.findings:
            for name in f.metrics:
                assert name in f.metric_focus

    def test_base_metrics_collected(self, saxpy_report):
        assert "sm__cycles_elapsed.avg" in saxpy_report.metrics.values

    def test_overhead_metrics_dominate(self, saxpy_report):
        """Figure 6's headline: metric collection is the most prominent
        overhead contributor."""
        o = saxpy_report.overhead
        assert o.metrics_seconds > o.pc_sampling_seconds
        assert o.metrics_seconds > o.sass_analysis_seconds
        assert o.total_factor > 1.0

    def test_reuse_existing_launch(self, scout, saxpy, saxpy_launch):
        report = scout.analyze(saxpy, launch=saxpy_launch)
        assert report.launch is saxpy_launch

    def test_findings_sorted_by_severity(self, saxpy_report):
        sevs = [f.severity for f in saxpy_report.findings]
        assert sevs == sorted(sevs, reverse=True)


class TestReportRendering:
    def test_sections_present(self, saxpy_report):
        text = saxpy_report.render()
        assert "GPUscout analysis of kernel 'saxpy'" in text
        assert "Kernel-wide metric analysis" in text
        assert "Warp-stall sample distribution" in text
        assert "[overhead]" in text

    def test_dry_run_rendering(self, scout, saxpy):
        text = scout.analyze(saxpy, dry_run=True).render()
        assert "dry run" in text
        assert "Kernel-wide metric analysis" not in text

    def test_source_locations_rendered(self, saxpy_report):
        text = saxpy_report.render()
        assert "saxpy.cu:" in text

    def test_stall_explanations_attached(self, saxpy_report):
        text = saxpy_report.render()
        assert "stalled_" in text

    def test_color_mode(self, saxpy_report):
        plain = saxpy_report.render(color=False)
        colored = saxpy_report.render(color=True)
        assert "\x1b[" not in plain
        assert "\x1b[" in colored or not saxpy_report.findings

    def test_no_findings_message(self, scout):
        report = scout.analyze("MOV R1, R2 ;\nEXIT ;\n", dry_run=True)
        assert "No data-movement bottleneck" in report.render()


class TestSpillReportEndToEnd:
    """Figure 2's scenario: a register-starved kernel produces the
    spill finding with writer attribution and lg_throttle stalls."""

    @pytest.fixture(scope="class")
    def spill_report(self):
        from repro.cudalite import KernelBuilder, compile_kernel, f32, i32, ptr
        from repro.cudalite.intrinsics import mad

        kb = KernelBuilder("spilly", max_registers=10)
        src = kb.param("src", ptr(f32))
        dst = kb.param("dst", ptr(f32))
        base = kb.let("base", kb.thread_idx.x * 16, dtype=i32)
        vals = kb.local_array("vals", f32, 16)
        with kb.for_range("j", 0, 16, unroll=True) as j:
            vals[j] = src[base + j]
        acc = kb.let("acc", 0.0, dtype=f32)
        with kb.for_range("i", 0, 4):
            with kb.for_range("j", 0, 16, unroll=True) as j:
                kb.assign(acc, mad(vals[j], vals[j], acc))
        kb.store(dst, base, acc)
        ck = compile_kernel(kb.build(), max_registers=10)
        from repro.sampling import PCSampler

        scout = GPUscout(spec=GPUSpec.small(1),
                         sampler=PCSampler(period_cycles=128))
        n = 8 * 256 * 16
        return scout.analyze(
            ck, LaunchConfig(grid=(8, 1), block=(256, 1)),
            args={"src": np.zeros(n, np.float32),
                  "dst": np.zeros(n, np.float32)},
        )

    def test_spill_finding_present(self, spill_report):
        assert spill_report.has_finding("register_spilling")

    def test_writer_attribution(self, spill_report):
        f = spill_report.findings_for("register_spilling")[0]
        assert f.details["causing_operation"] is not None
        assert f.details["spill_stores_total"] > 0

    def test_local_metrics_nonzero(self, spill_report):
        f = spill_report.findings_for("register_spilling")[0]
        assert f.metrics.get("launch__local_mem_per_thread", 0) > 0

    def test_lg_throttle_observed(self, spill_report):
        totals = spill_report.sampling.by_reason()
        assert totals.get(StallReason.LG_THROTTLE, 0) > 0

    def test_rendered_like_figure_2(self, spill_report):
        text = spill_report.render()
        assert "Register spilling" in text
        assert "spilled to local memory" in text
