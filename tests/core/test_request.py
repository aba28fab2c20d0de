"""The one request → report path (:mod:`repro.core.request`): what a
request accepts, and that every surface that runs an analysis —
``analyze`` in its three forms, ``compare``, ``overlay --sampled`` and
the service's ``KernelRunner`` on a miss — runs it through
:func:`~repro.core.request.analyze_request`."""

import contextlib
import io
import json
import math

import pytest

import repro.core.request as request
from repro.cli import main
from repro.core.request import AnalyzeRequest, analyze_request
from repro.errors import ProtocolError
from repro.gpu.trace_cache import configure_trace_cache
from repro.kernels.catalog import resolve_kernel

KERNEL = "reduction:warp"
SASS = ("        /*0000*/ MOV R1, c[0x0][0x28] ;\n"
        "        /*0010*/ EXIT ;\n")


class TestValues:
    @pytest.mark.parametrize("deadline", [math.nan, math.inf, -math.inf,
                                          -1e-9])
    def test_deadline_is_finite_and_not_negative(self, deadline):
        with pytest.raises(ProtocolError, match="deadline"):
            AnalyzeRequest(kernel=KERNEL, deadline=deadline)

    def test_zero_deadline_is_a_request_for_static_only(self):
        assert AnalyzeRequest(kernel=KERNEL, deadline=0).deadline == 0

    def test_compute_iterations_is_not_negative(self):
        assert AnalyzeRequest(kernel=KERNEL,
                              compute_iterations=0).compute_iterations == 0
        with pytest.raises(ProtocolError, match="compute_iterations"):
            AnalyzeRequest(kernel=KERNEL, compute_iterations=-1)

    def test_from_dict_checks_values_through_the_constructor(self):
        data = json.loads('{"kernel": "%s", "deadline": NaN}' % KERNEL)
        with pytest.raises(ProtocolError, match="deadline"):
            AnalyzeRequest.from_dict(data)

    def test_runner_answers_a_nan_deadline_with_a_usage_error(self):
        from repro.serve.protocol import EXIT_USAGE
        from repro.serve.service import KernelRunner

        runner = KernelRunner()
        env = runner.run(json.loads(
            '{"kernel": "sgemm:naive", "size": 96, "deadline": NaN}'))
        assert env["ok"] is False and env["code"] == EXIT_USAGE
        assert "cacheable" not in env and runner.cold == 0

    def test_the_wire_module_names_the_same_objects(self):
        import repro.serve.protocol as protocol

        assert protocol.AnalyzeRequest is AnalyzeRequest
        assert protocol.arch_spec is request.arch_spec
        assert protocol.ARCHS is request.ARCHS
        assert protocol.ProtocolError is ProtocolError


@pytest.fixture
def spy(monkeypatch):
    """The requests ``analyze_request`` is called with, in order."""
    seen = []
    real = request.analyze_request

    def recording(req, **kwargs):
        seen.append(req)
        return real(req, **kwargs)

    monkeypatch.setattr(request, "analyze_request", recording)
    return seen


def quiet(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


class TestOnePath:
    @pytest.mark.parametrize("form", [
        ["--kernel", KERNEL, "--size", "64", "--max-blocks", "2"],
        ["--kernel", KERNEL, "--size", "64", "--dry-run"],
        ["--sass", "{sass}"],
    ], ids=["full", "dry-run", "sass"])
    def test_analyze(self, spy, form, tmp_path, capsys):
        path = tmp_path / "k.sass"
        path.write_text(SASS)
        quiet(["analyze"] + [a.format(sass=path) for a in form])
        req, = spy
        assert req.dry_run is ("--kernel" not in form or "--dry-run" in form)
        assert (req.sass == SASS) is ("--sass" in form)

    def test_compare_runs_two_requests(self, spy):
        quiet(["compare", "--old", "reduction:shared", "--new", KERNEL,
               "--size", "64", "--max-blocks", "2"])
        assert [r.kernel for r in spy] == ["reduction:shared", KERNEL]
        assert {r.max_blocks for r in spy} == {2}

    def test_overlay_sampled(self, spy):
        quiet(["overlay", "--kernel", KERNEL, "--size", "64", "--sampled"])
        req, = spy
        assert (req.kernel, req.size) == (KERNEL, 64)

    def test_runner_computes_through_it_on_cold_and_l1_only(
            self, spy, monkeypatch, tmp_path):
        import repro.serve.service as service

        # the service binds the function at import (the next test pins
        # that it is this one); point its name at the spy too
        monkeypatch.setattr(service, "analyze_request",
                            request.analyze_request)
        runner = service.KernelRunner(cache_dir=str(tmp_path))
        try:
            payload = {"kernel": KERNEL, "size": 64, "max_blocks": 2}
            tiers = [runner.run(payload)["cache"],
                     runner.run(payload)["cache"],
                     runner.run({**payload, "max_blocks": 1})["cache"]]
        finally:
            configure_trace_cache(None)
        assert tiers == ["cold", "l3", "l1"]
        assert [r.max_blocks for r in spy] == [2, 1]

    def test_runner_imports_the_one_function(self):
        import repro.serve.service as service

        assert service.analyze_request is analyze_request


def test_overlay_sampled_marks_the_requests_blame():
    from repro.sass.writer import format_overlay

    req = AnalyzeRequest(kernel=KERNEL, size=64)
    program = resolve_kernel(KERNEL, 64)[0].program
    sampled = quiet(["overlay", "--kernel", KERNEL, "--size", "64",
                     "--sampled"])
    assert sampled == format_overlay(program,
                                     blame=analyze_request(req).blame)
    assert sampled != quiet(["overlay", "--kernel", KERNEL,
                             "--size", "64"])
