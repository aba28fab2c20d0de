"""Chrome Trace exporter: golden-file stability and the structural
validator (every B has an E, ts monotone per thread, declared
pids/tids)."""

import json
import pathlib

import numpy as np
import pytest

from repro.gpu import GPUSpec, LaunchConfig, Simulator
from repro.obs import (
    TimelineCapture,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

from tests.conftest import build_saxpy

GOLDEN = pathlib.Path(__file__).parent / "golden" / "saxpy_trace_names.json"


@pytest.fixture(scope="module")
def saxpy_trace():
    ck = build_saxpy()
    n = 512
    capture = TimelineCapture(counter_stride=8)
    sim = Simulator(GPUSpec.small(1))
    res = sim.launch(
        ck, LaunchConfig(grid=(4, 1), block=(128, 1)),
        args={"x": np.arange(n, dtype=np.float32),
              "y": np.ones(n, dtype=np.float32), "a": 2.0, "n": n},
        max_blocks=2, trace=capture,
    )
    data = to_chrome_trace(capture, program=ck.program, spec=res.spec,
                           kernel="saxpy")
    return capture, data


class TestExportShape:
    def test_validator_passes(self, saxpy_trace):
        _, data = saxpy_trace
        assert validate_chrome_trace(data) == []

    def test_golden_names_categories_phases(self, saxpy_trace):
        """The distinct (ph, cat, name) triples are a stable public
        surface — Perfetto queries and dashboards key on them.  The
        golden file pins the saxpy export; regenerate it deliberately
        when the exporter's naming changes."""
        _, data = saxpy_trace
        triples = sorted({
            (ev["ph"], ev.get("cat", ""), ev["name"])
            for ev in data["traceEvents"]
        })
        golden = json.loads(GOLDEN.read_text())
        assert [list(t) for t in triples] == golden

    def test_per_warp_threads_declared(self, saxpy_trace):
        capture, data = saxpy_trace
        thread_names = [
            ev["args"]["name"] for ev in data["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        ]
        # one thread per (block, warp), plus the waves annotation thread
        assert len(thread_names) == len(capture.warps()) + 1
        assert "block 0 / warp 0" in thread_names
        assert "waves" in thread_names

    def test_stall_slices_precede_their_issue(self, saxpy_trace):
        _, data = saxpy_trace
        stalls = [ev for ev in data["traceEvents"]
                  if ev.get("cat") == "stall"]
        assert stalls, "no stall slices in the saxpy trace"
        for ev in stalls:
            assert ev["ph"] == "X"
            assert ev["dur"] > 0
            assert ev["name"].startswith("stalled_")

    def test_at_least_two_counter_tracks(self, saxpy_trace):
        _, data = saxpy_trace
        tracks = {ev["name"] for ev in data["traceEvents"]
                  if ev["ph"] == "C"}
        assert len(tracks) >= 2
        assert "lsu backlog" in tracks
        assert "resident warps" in tracks

    def test_metadata_records_the_ts_convention(self, saxpy_trace):
        _, data = saxpy_trace
        assert "cycle" in data["metadata"]["ts_unit"]
        assert data["metadata"]["kernel"] == "saxpy"
        assert data["metadata"]["truncated"] is False

    def test_source_line_attribution_in_args(self, saxpy_trace):
        _, data = saxpy_trace
        issue_args = [ev["args"] for ev in data["traceEvents"]
                      if ev.get("cat") == "issue"]
        assert all("pc" in a for a in issue_args)
        assert any("line" in a for a in issue_args)

    def test_write_round_trips(self, saxpy_trace, tmp_path):
        capture, data = saxpy_trace
        path = tmp_path / "trace.json"
        written = write_chrome_trace(str(path), capture, kernel="saxpy")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))
        assert validate_chrome_trace(loaded) == []


class TestValidator:
    def _base(self, *events):
        return {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "ts": 0, "args": {"name": "SM 0"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "ts": 0, "args": {"name": "warp"}},
            *events,
        ]}

    def test_clean_trace_passes(self):
        data = self._base(
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 1},
            {"name": "a", "ph": "E", "pid": 0, "tid": 0, "ts": 2},
            {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 3, "dur": 1},
        )
        assert validate_chrome_trace(data) == []

    def test_top_level_must_be_object_with_event_list(self):
        assert validate_chrome_trace([]) == [
            "top-level value is not an object"]
        assert validate_chrome_trace({}) == [
            "missing or non-list 'traceEvents'"]

    def test_unclosed_b_reported(self):
        data = self._base(
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 1},
        )
        assert any("unclosed 'B'" in p for p in validate_chrome_trace(data))

    def test_e_without_b_reported(self):
        data = self._base(
            {"name": "a", "ph": "E", "pid": 0, "tid": 0, "ts": 1},
        )
        assert any("no open 'B'" in p for p in validate_chrome_trace(data))

    def test_backwards_ts_reported(self):
        data = self._base(
            {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 5, "dur": 1},
            {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 2, "dur": 1},
        )
        assert any("goes backwards" in p for p in validate_chrome_trace(data))

    def test_backwards_ts_on_other_thread_is_fine(self):
        data = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "ts": 0, "args": {"name": "SM 0"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "ts": 0, "args": {"name": "w0"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
             "ts": 0, "args": {"name": "w1"}},
            {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 5, "dur": 1},
            {"name": "x", "ph": "X", "pid": 0, "tid": 1, "ts": 2, "dur": 1},
        ]}
        assert validate_chrome_trace(data) == []

    def test_undeclared_pid_and_tid_reported(self):
        data = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 7, "tid": 3, "ts": 1, "dur": 1},
        ]}
        problems = validate_chrome_trace(data)
        assert any("pid 7" in p for p in problems)
        assert any("not declared via thread_name" in p for p in problems)

    def test_missing_ts_and_negative_dur_reported(self):
        data = self._base(
            {"name": "x", "ph": "X", "pid": 0, "tid": 0},
            {"name": "y", "ph": "X", "pid": 0, "tid": 0, "ts": 1,
             "dur": -2},
        )
        problems = validate_chrome_trace(data)
        assert any("missing ts" in p for p in problems)
        assert any("negative duration" in p for p in problems)

    def test_unknown_phase_reported(self):
        data = self._base(
            {"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 1},
        )
        assert any("unknown phase" in p for p in validate_chrome_trace(data))
