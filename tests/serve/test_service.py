"""KernelRunner contracts: served reports are byte-identical to the
one-shot CLI's ``--json`` output (modulo volatile timing fields) on the
cold, warm-L1 and warm-L3 paths; per-request deadlines degrade instead
of failing; failures map onto the CLI's stage codes."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import (
    AnalysisError,
    CompileError,
    LaunchError,
    SassSyntaxError,
    SimulationError,
    UnknownKernelError,
)
from repro.gpu.trace_cache import configure_trace_cache
from repro.serve.protocol import EXIT_USAGE, ProtocolError, strip_volatile
from repro.serve.service import KernelRunner, error_envelope

KERNEL = "reduction:warp"
SIZE = 512


@pytest.fixture(autouse=True)
def _detach_disk_tier():
    # KernelRunner(cache_dir=...) attaches a disk tier to the process-
    # wide trace cache; leave no trace for the rest of the suite
    yield
    configure_trace_cache(None)


def cli_report(*argv) -> dict:
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv) + ["--json", "-"])
    assert code == 0
    return json.loads(out.getvalue())


class TestByteIdentity:
    def test_cold_matches_cli(self):
        runner = KernelRunner()
        env = runner.run({"kernel": KERNEL, "size": SIZE})
        assert env["ok"] and env["cache"] == "cold"
        via_cli = cli_report("analyze", "--kernel", KERNEL,
                             "--size", str(SIZE))
        assert strip_volatile(env["report"]) == strip_volatile(via_cli)

    def test_warm_l1_matches_cli(self):
        # no cache_dir -> no L3 report store, so the repeat exercises
        # the static-artifact reuse path (L1) end to end
        runner = KernelRunner()
        cold = runner.run({"kernel": KERNEL, "size": SIZE})
        warm = runner.run({"kernel": KERNEL, "size": SIZE})
        assert cold["cache"] == "cold" and warm["cache"] == "l1"
        assert strip_volatile(warm["report"]) == \
            strip_volatile(cold["report"])
        via_cli = cli_report("analyze", "--kernel", KERNEL,
                             "--size", str(SIZE))
        assert strip_volatile(warm["report"]) == strip_volatile(via_cli)

    def test_warm_l3_byte_identical(self, tmp_path):
        runner = KernelRunner(cache_dir=str(tmp_path))
        cold = runner.run({"kernel": KERNEL, "size": SIZE})
        warm = runner.run({"kernel": KERNEL, "size": SIZE})
        assert cold["cache"] == "cold" and warm["cache"] == "l3"
        assert warm["address"] == cold["address"]
        # L3 serves the stored body verbatim — identical even before
        # stripping volatile fields
        assert warm["report"] == cold["report"]
        via_cli = cli_report("analyze", "--kernel", KERNEL,
                             "--size", str(SIZE))
        assert strip_volatile(warm["report"]) == strip_volatile(via_cli)

    def test_l3_survives_process_restart(self, tmp_path):
        KernelRunner(cache_dir=str(tmp_path)).run(
            {"kernel": KERNEL, "size": SIZE})
        fresh = KernelRunner(cache_dir=str(tmp_path))
        env = fresh.run({"kernel": KERNEL, "size": SIZE})
        assert env["cache"] == "l3"
        assert fresh.reports.disk_hits == 1

    def test_dry_run_matches_cli(self):
        runner = KernelRunner()
        env = runner.run({"kernel": KERNEL, "size": SIZE,
                          "dry_run": True})
        assert env["ok"]
        via_cli = cli_report("analyze", "--kernel", KERNEL,
                             "--size", str(SIZE), "--dry-run")
        assert strip_volatile(env["report"]) == strip_volatile(via_cli)


class TestRequestOptions:
    def test_max_blocks_changes_address_but_shares_l1(self, tmp_path):
        runner = KernelRunner(cache_dir=str(tmp_path))
        a = runner.run({"kernel": KERNEL, "size": SIZE, "max_blocks": 2})
        b = runner.run({"kernel": KERNEL, "size": SIZE, "max_blocks": 4})
        assert a["address"] != b["address"]
        assert b["cache"] == "l1", "same program+geometry must reuse L1"

    def test_l1_key_and_guard_name_the_same_inputs(self, monkeypatch):
        """Two sizes under the same geometry run one program: the
        second is an L1 hit the engine accepts, and a hit the engine
        refuses says cold."""
        from repro.core.engine import GPUscout, StaticArtifacts

        static_runs = []
        real = GPUscout._run_static
        monkeypatch.setattr(
            GPUscout, "_run_static",
            lambda self, *a: (static_runs.append(1), real(self, *a))[1])
        runner = KernelRunner()
        a = runner.run({"kernel": "mixbench:sp:naive", "size": 100})
        b = runner.run({"kernel": "mixbench:sp:naive", "size": 200})
        assert a["address"] != b["address"]
        assert (a["cache"], b["cache"]) == ("cold", "l1")
        assert len(static_runs) == 1
        via_cli = cli_report("analyze", "--kernel", "mixbench:sp:naive",
                             "--size", "200")
        assert strip_volatile(b["report"]) == strip_volatile(via_cli)
        # had the guard refused, the reply would not claim the hit
        monkeypatch.setattr(StaticArtifacts, "matches", lambda *a: False)
        c = runner.run({"kernel": "mixbench:sp:naive", "size": 200,
                        "max_blocks": 2})
        assert c["cache"] == "cold"

    def test_deadline_degrades_and_is_not_cached(self, tmp_path):
        runner = KernelRunner(cache_dir=str(tmp_path))
        env = runner.run({"kernel": KERNEL, "size": SIZE,
                          "deadline": 1e-9})
        assert env["ok"], "an expired deadline degrades, never fails"
        assert env["report"]["mode"] in ("functional", "static")
        assert not env["cacheable"]
        # the degraded body must not become the canonical answer
        repeat = runner.run({"kernel": KERNEL, "size": SIZE})
        assert repeat["cache"] != "l3"
        assert repeat["report"]["mode"] == "full"

    def test_a_failed_static_stage_is_not_kept_in_l1(self):
        """A transient detector fault degrades its own reply only: the
        next request for the program recomputes the static stages."""
        from repro.testing.faultinject import fail_at

        runner = KernelRunner()
        payload = {"kernel": "heat:naive", "size": 96}
        with fail_at("engine.analysis", AnalysisError):
            hurt = runner.run(payload)
        severities = [d["severity"]
                      for d in hurt["report"].get("diagnostics", [])]
        assert severities == ["error"]
        assert not hurt["cacheable"]
        healed = runner.run(payload)
        assert healed["cache"] == "cold"
        assert healed["report"].get("diagnostics", []) == []
        assert healed["cacheable"]
        assert runner.stats()["static"]["entries"] == 1

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), -1])
    def test_default_deadline_that_cannot_trip_is_refused(self, deadline):
        # it would be copied into every request without its own, and
        # each such request answered 400 for the operator's mistake
        with pytest.raises(ProtocolError, match="deadline"):
            KernelRunner(deadline=deadline)

    def test_sass_submission_is_static_only(self):
        sass = cli_sass()
        runner = KernelRunner()
        env = runner.run({"sass": sass, "dry_run": True})
        assert env["ok"]
        assert env["report"]["mode"] == "dry-run"


def cli_sass() -> str:
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["disasm", "--kernel", KERNEL]) == 0
    return out.getvalue()


class TestErrorMapping:
    @pytest.mark.parametrize("exc,code", [
        (SassSyntaxError("x"), 2),
        (CompileError("x"), 3),
        (LaunchError("x"), 4),
        (SimulationError("x"), 5),
        (AnalysisError("x"), 6),
        (ProtocolError("x"), EXIT_USAGE),
        (UnknownKernelError("unknown kernel spec"), EXIT_USAGE),
        (RuntimeError("x"), 70),
    ])
    def test_stage_codes(self, exc, code):
        env = error_envelope(exc)
        assert env["ok"] is False and env["code"] == code
        assert env["message"]

    def test_unknown_kernel_family_is_usage(self):
        env = KernelRunner().run({"kernel": "bogus:thing"})
        assert env["ok"] is False and env["code"] == EXIT_USAGE

    @pytest.mark.parametrize("spec", [
        "heat:bogus", "mixbench:sp:turbo", "nope:x"])
    def test_misspelt_spec_is_usage_and_names_the_catalog(self, spec):
        env = KernelRunner().run({"kernel": spec})
        assert env["ok"] is False and env["code"] == EXIT_USAGE
        assert env["error"] == "UnknownKernelError"
        assert "heat:texture" in env["message"]

    def test_malformed_submission_is_usage(self):
        env = KernelRunner().run({"kernel": KERNEL, "sass": "both"})
        assert env["code"] == EXIT_USAGE

    def test_envelope_always_returned(self):
        env = KernelRunner().run(None)
        assert env["ok"] is False and env["code"] == EXIT_USAGE
        assert "elapsed_s" in env


class TestOneCompilePerVariant:
    """A miss pays for its size, not for its program: the seed-1
    ``serve_miss`` request mix (six variants, ten sizes each, two
    ``max_blocks`` phases) through one in-process runner."""

    FAMILIES = ("heat", "histogram", "mixbench", "reduction")

    @staticmethod
    def requests():
        from benchmarks.e2e import gen, proc

        ops = gen.workload_pass(1, "serve_miss", 0)
        assert len(ops) == 120 and len({o["kernel"] for o in ops}) == 6
        return [proc.request_body(o) for o in ops]

    def test_six_compiles_not_sixty_and_the_same_reports(
            self, monkeypatch, fresh_programs):
        import importlib

        from repro.cudalite import compile_kernel
        from repro.kernels.heat import build_heat
        from repro.kernels.histogram import build_histogram
        from repro.kernels.mixbench import build_mixbench
        from repro.kernels.reduction import build_reduction
        from repro.serve import service

        compiles = []

        def spy(kernel, **kwargs):
            compiles.append(kernel.name)
            return compile_kernel(kernel, **kwargs)

        for family in self.FAMILIES:
            monkeypatch.setattr(
                importlib.import_module(f"repro.kernels.{family}"),
                "compile_kernel", spy)
        requests = self.requests()
        shared = KernelRunner()
        served = [shared.run(dict(r)) for r in requests]
        assert len(compiles) == 6 and len(set(compiles)) == 6
        assert shared.stats()["programs"] == {"entries": 6, "compiles": 6}
        assert shared.stats()["resolve"]["entries"] == 60
        outcomes = [env["cache"] for env in served]
        assert (outcomes.count("cold"), outcomes.count("l1")) == (48, 72)

        # a second runner in the same process compiles nothing
        again = KernelRunner().run(dict(requests[0]))
        assert again["ok"] and len(compiles) == 6

        # the reference: every resolution gets a private program, built
        # by the family's own ``build_*`` as before the catalog memo
        build = {
            "histogram:global": lambda: build_histogram("global"),
            "histogram:shared": lambda: build_histogram("shared"),
            "mixbench:sp:naive": lambda: build_mixbench("sp", 8),
            "reduction:warp": lambda: build_reduction("warp"),
            "heat:naive": lambda: build_heat("naive"),
            "heat:texture": lambda: build_heat("texture"),
        }
        monkeypatch.setattr(
            service, "resolve_kernel",
            lambda spec, size, iters=8: (
                build[spec](),
                *fresh_programs.launch_inputs(spec, size, iters)))
        private = KernelRunner()
        for request, env in zip(requests, served):
            want = private.run(dict(request))
            assert env["ok"] and want["ok"], request
            assert (env["cache"], env["address"]) == \
                (want["cache"], want["address"]), request
            assert strip_volatile(env["report"]) == \
                strip_volatile(want["report"]), request
        assert len(compiles) == 6 + 60
