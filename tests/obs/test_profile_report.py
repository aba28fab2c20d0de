"""The self-profile through the renderers: [prof] footer, HTML
sections, schema JSON keys, CLI flags."""

import json

import pytest

from repro.cli import main, resolve_kernel
from repro.core import GPUscout
from repro.core.jsonout import SCHEMA_VERSION, report_to_dict
from repro.obs import TimelineCapture

ENGINE_STAGES = {"parse", "static", "launch", "sampling", "metrics",
                 "evaluate"}


@pytest.fixture(scope="module")
def full_report():
    ck, config, args, textures = resolve_kernel("sgemm:naive", 64, 4)
    return GPUscout().analyze(ck, config, args, textures=textures,
                              max_blocks=2)


class TestProfileCoverage:
    def test_profile_covers_every_engine_stage(self, full_report):
        assert set(full_report.profile.stage_totals()) == ENGINE_STAGES

    def test_nested_detail_spans_present(self, full_report):
        names = {s.name for s in full_report.profile.spans}
        assert "static:affine" in names
        assert "evaluate:heatmap" in names
        assert any(n.startswith("launch:") for n in names)

    def test_dry_run_profiles_static_stages_only(self):
        ck, _, _, _ = resolve_kernel("sgemm:naive", 64, 4)
        report = GPUscout().analyze(ck, dry_run=True)
        stages = set(report.profile.stage_totals())
        assert stages == {"parse", "static"}


class TestRenderers:
    def test_prof_footer_off_by_default(self, full_report):
        assert "[prof]" not in full_report.render()

    def test_prof_footer_lists_stages_and_hot_lines(self, full_report):
        text = full_report.render(profile=True)
        assert "[prof] pipeline wall time" in text
        assert "hottest source lines" in text
        assert "launch" in text

    def test_hot_line_names_the_producer_that_owns_its_dominant_stall(self):
        """sgemm:naive's hot line stalls on its loads, not on the
        address arithmetic that happens to sort first in ``waits_on``."""
        ck, config, args, textures = resolve_kernel("sgemm:naive", 96)
        report = GPUscout().analyze(ck, config, args, textures=textures,
                                    max_blocks=8)
        hot = report.heatmap.top(1)[0]
        assert hot.dominant().cupti_name == "stalled_long_scoreboard"
        assert not hot.waits_on[0]["op"].startswith("LDG")  # stored order
        line = next(row for row in report.render(profile=True).splitlines()
                    if row.startswith(f"  line {hot.line} "))
        assert "dominant: stalled_long_scoreboard  waits on: LDG" in line
        # the HTML cell lists at most three, the owners first
        first = [w["op"] for w in hot.producers()[:3]]
        assert first[0].startswith("LDG")
        assert f"{first[0]} (line" in report.render_html()
        assert hot.to_dict()["waits_on"] == hot.waits_on  # JSON unchanged

    def test_html_has_profile_table(self, full_report):
        html = full_report.render_html()
        assert "Pipeline self-profile" in html

    def test_json_schema_keys(self, full_report):
        assert SCHEMA_VERSION == 5  # v5 added per-finding stall blame
        data = json.loads(json.dumps(report_to_dict(full_report)))
        assert data["schema_version"] == 5
        assert set(data["profile"]["stages"]) == ENGINE_STAGES
        assert data["profile"]["total_s"] > 0
        assert data["heatmap"]["lines"]
        assert "trace_path" not in data  # only set when --trace ran


TRACE_COUNTERS = {"trace_build_s", "trace_put_s", "trace_hits",
                  "trace_misses", "trace_bytes"}


class TestTraceCostCounters:
    """What the launch spent on effect traces shows in --profile and in
    the JSON ``profile`` block, and nowhere a cache hit could leak into
    a cached or compared report."""

    def _cold_and_warm(self):
        from repro.gpu.trace_cache import trace_cache

        rk = resolve_kernel("sgemm:naive", 64, 4)
        trace_cache().clear()
        ck, config, args, textures = rk
        return [GPUscout().analyze(ck, config, args,
                                   textures=textures, max_blocks=2)
                for _ in range(2)]

    @staticmethod
    def _launch_counters(report):
        (span,) = [s for s in report.profile.spans if s.name == "launch"]
        return span.counters

    def test_launch_span_names_build_put_and_hits(self):
        cold, warm = map(self._launch_counters, self._cold_and_warm())
        assert set(cold) == set(warm) == TRACE_COUNTERS
        assert cold["trace_misses"] >= 1 and cold["trace_hits"] == 0
        assert warm["trace_hits"] == cold["trace_misses"]
        assert warm["trace_misses"] == 0
        assert warm["trace_build_s"] == warm["trace_put_s"] == 0.0
        assert cold["trace_bytes"] == warm["trace_bytes"] > 0

    def test_only_the_volatile_profile_block_carries_them(self):
        from repro.serve.protocol import strip_volatile

        cold, warm = self._cold_and_warm()
        for name in TRACE_COUNTERS:
            assert name in cold.render(profile=True)
            assert name not in cold.render()
        docs = [report_to_dict(r) for r in (cold, warm)]
        spans = {s["name"]: s for s in docs[0]["profile"]["spans"]}
        assert set(spans["launch"]["counters"]) == TRACE_COUNTERS
        stripped = [json.dumps(strip_volatile(d), sort_keys=True)
                    for d in docs]
        assert stripped[0] == stripped[1]
        assert "trace_build_s" not in stripped[0]


FUNC_COUNTERS = {"func_packs", "func_dissolved", "func_legacy_inst"}


class TestFunctionalPhaseCounters:
    """When the functional phase ran (the ladder's functional-only
    rung), the launch span and the ``[exec]`` line say how: packs run,
    packs dissolved, instructions finished per warp."""

    @staticmethod
    def _functional_report(ck, config, args):
        from repro.errors import SimulationError
        from repro.testing import fail_at

        with fail_at("scheduler.run_wave_trace", SimulationError), \
                fail_at("scheduler.run_wave", SimulationError):
            report = GPUscout().analyze(ck, config, args, max_blocks=2)
        assert report.mode == "functional"
        return report

    def test_dissolved_pack_in_exec_line_and_span(self):
        import numpy as np

        from repro.gpu import LaunchConfig
        from repro.serve.protocol import strip_volatile
        from tests.gpu.test_batch_equivalence import _build_varloop

        config = LaunchConfig(grid=(8, 1), block=(64, 1))
        report = self._functional_report(
            _build_varloop(), config,
            {"dst": np.zeros(8 * 64, dtype=np.float32)})
        counters = TestTraceCostCounters._launch_counters(report)
        assert set(counters) == TRACE_COUNTERS | FUNC_COUNTERS
        assert (counters["func_packs"], counters["func_dissolved"]) == (1, 1)
        assert 0 < counters["func_legacy_inst"] < \
            report.launch.counters.inst_functional
        text = report.render(profile=True)
        assert "batched, 1 of 1 packs finished per-warp)" in text
        assert "fast (batched) path" not in text
        assert "[prof] launch:" in text and "func_legacy_inst" in text
        doc = report_to_dict(report)
        stripped = json.dumps(strip_volatile(doc))
        for name in FUNC_COUNTERS:
            assert name not in report.render()
            assert name not in stripped

    def test_uniform_kernel_keeps_plain_wording(self):
        ck, config, args, _ = resolve_kernel("sgemm:naive", 64, 4)
        report = self._functional_report(ck, config, args)
        counters = TestTraceCostCounters._launch_counters(report)
        assert counters["func_packs"] == 1
        assert counters["func_dissolved"] == counters["func_legacy_inst"] == 0
        assert "fast (batched) path)" in report.render()


class TestEvaluateCounters:
    """The batched predictor and the slicer say how much they did:
    ``pred_pcs``/``pred_rows`` and ``blame_pcs``, profile-only."""

    @staticmethod
    def _counters(report, name):
        (span,) = [s for s in report.profile.spans if s.name == name]
        return span.counters

    def test_spans_carry_the_work_done(self, full_report):
        pred = self._counters(full_report, "evaluate:predictions")
        assert set(pred) == {"pred_pcs", "pred_rows"}
        assert pred["pred_pcs"] > 0
        # one timed block of 16x16 threads: 8 warps per batched pass
        assert pred["pred_rows"] == 8
        blame = self._counters(full_report, "evaluate:blame")
        assert blame == {"blame_pcs": len(full_report.blame)}
        assert blame["blame_pcs"] > 0

    def test_footer_and_json_profile_only(self, full_report):
        from repro.serve.protocol import strip_volatile

        names = ("pred_pcs", "pred_rows", "blame_pcs")
        with_prof, without = (full_report.render(profile=True),
                              full_report.render())
        assert "[prof] evaluate:predictions: pred_pcs" in with_prof
        assert "[prof] evaluate:blame: blame_pcs" in with_prof
        doc = report_to_dict(full_report)
        spans = {s["name"]: s for s in doc["profile"]["spans"]}
        assert set(spans["evaluate:predictions"]["counters"]) == \
            {"pred_pcs", "pred_rows"}
        assert set(spans["evaluate:blame"]["counters"]) == {"blame_pcs"}
        stripped = json.dumps(strip_volatile(doc))
        for name in names:
            assert name not in without
            assert name not in stripped

    def test_cold_and_warm_count_the_same_work(self):
        # (that their stripped bodies are byte-identical is pinned by
        # TestTraceCostCounters above)
        cold, warm = TestTraceCostCounters()._cold_and_warm()
        for name in ("evaluate:predictions", "evaluate:blame"):
            assert self._counters(cold, name) == self._counters(warm, name)


class TestCLI:
    def test_trace_and_profile_flags(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        out = tmp_path / "r.json"
        rc = main(["analyze", "--kernel", "sgemm:naive", "--size", "64",
                   "--max-blocks", "2", "--trace", str(trace),
                   "--profile", "--json", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "[prof]" in captured.out
        assert "perfetto" in captured.err.lower()
        from repro.obs import validate_chrome_trace

        data = json.loads(trace.read_text())
        assert validate_chrome_trace(data) == []
        # per-warp stall slices and >= 2 counter tracks (acceptance)
        cats = {ev.get("cat") for ev in data["traceEvents"]}
        assert "stall" in cats and "issue" in cats
        tracks = {ev["name"] for ev in data["traceEvents"]
                  if ev["ph"] == "C"}
        assert len(tracks) >= 2
        report = json.loads(out.read_text())
        assert report["trace_path"] == str(trace)

    def test_trace_with_dry_run_warns_and_writes_nothing(
            self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = main(["analyze", "--kernel", "sgemm:naive", "--size", "64",
                   "--dry-run", "--trace", str(trace)])
        assert rc == 0
        assert not trace.exists()
        assert "--trace needs a simulated launch" in capsys.readouterr().err


class TestBitIdentityThroughEngine:
    def test_analyze_trace_on_off_same_results(self):
        """Acceptance: the full engine path (not just the simulator)
        yields identical cycles/counters with and without --trace."""
        reports = []
        for cap in (None, TimelineCapture()):
            ck, config, args, textures = resolve_kernel(
                "histogram:global", 256, 4)
            reports.append(
                GPUscout().analyze(ck, config, args, textures=textures,
                                   max_blocks=2, trace=cap)
            )
        bare, traced = reports
        assert bare.launch.cycles == traced.launch.cycles
        assert bare.launch.counters == traced.launch.counters
        assert bare.heatmap.to_dict() == traced.heatmap.to_dict()
