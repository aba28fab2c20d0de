"""CLI tests (argument handling and end-to-end invocations)."""

import pytest

from repro.cli import build_parser, exit_code_for, main, resolve_kernel
from repro.errors import UnknownKernelError

#: an unknown variant, a third part that used to mean "naive", and an
#: unknown family: one error, not ValueError / a silent default / SystemExit
MISSPELT = ["heat:bogus", "mixbench:sp:turbo", "nope:x"]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_kernel_and_sass_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--kernel", "sgemm:naive", "--sass", "x.sass"]
            )


    @pytest.mark.parametrize("argv", [
        ["analyze", "--kernel", "sgemm:naive", "--size", "48",
         "--max-blocks", "-3"],
        ["analyze", "--kernel", "sgemm:naive", "--max-blocks", "0"],
        ["analyze", "--kernel", "sgemm:naive", "--size", "0"],
        ["analyze", "--kernel", "sgemm:naive", "--size", "-16"],
        ["compare", "--old", "sgemm:naive", "--new", "sgemm:shared",
         "--max-blocks", "0"],
        ["validate", "--smoke", "--size", "0"],
        ["overlay", "--kernel", "sgemm:naive", "--sampled", "--size", "-1"],
    ])
    def test_non_positive_size_and_max_blocks_are_usage_errors(
            self, argv, capsys):
        # what the served API answers 400 (ProtocolError) exits 2 here,
        # before anything is compiled or launched
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "must be positive" in capsys.readouterr().err


class TestResolveKernel:
    @pytest.mark.parametrize("spec", [
        "mixbench:sp:naive", "mixbench:dp:vec", "heat:naive",
        "heat:texture", "sgemm:naive", "sgemm:shared_vec",
    ])
    def test_known_specs(self, spec):
        ck, config, args, textures = resolve_kernel(spec, 64)
        assert ck.program is not None
        assert config.num_blocks >= 1
        assert args

    def test_unknown_family(self):
        with pytest.raises(UnknownKernelError, match="sgemm:shared_vec"):
            resolve_kernel("quantum:naive", 64)

    @pytest.mark.parametrize("spec", MISSPELT)
    def test_misspelt_spec_is_a_usage_error(self, spec, capsys):
        # exit 2 like ``--size 0``; the served API answers these 400
        assert main(["analyze", "--kernel", spec, "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert f"unknown kernel spec {spec!r}" in err
        assert "mixbench:sp:vec" in err and "internal error" not in err

    @pytest.mark.parametrize("family, default", [
        ("mixbench", "mixbench:sp:naive"), ("heat", "heat:naive"),
        ("sgemm", "sgemm:naive"), ("histogram", "histogram:global"),
        ("reduction", "reduction:shared"),
    ])
    def test_bare_family_is_its_default_variant(self, family, default):
        assert resolve_kernel(family, 64)[0] is resolve_kernel(default, 64)[0]


class TestMain:
    def test_list_kernels(self, capsys):
        assert main(["list-kernels"]) == 0
        out = capsys.readouterr().out
        assert "sgemm:naive" in out
        assert "heat:texture" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "--kernel", "mixbench:sp:naive"]) == 0
        out = capsys.readouterr().out
        assert "LDG.E.SYS" in out

    def test_disasm_with_source(self, capsys):
        assert main(["disasm", "--kernel", "sgemm:naive", "--source"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out

    def test_analyze_dry_run(self, capsys):
        assert main(["analyze", "--kernel", "mixbench:sp:naive",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "vectorized" in out.lower()

    def test_analyze_dynamic_small(self, capsys):
        assert main(["analyze", "--kernel", "heat:naive", "--size", "64",
                     "--max-blocks", "2"]) == 0
        out = capsys.readouterr().out
        assert "Kernel-wide metric analysis" in out
        assert "[overhead]" in out

    def test_analyze_sass_file(self, tmp_path, capsys):
        sass = tmp_path / "k.sass"
        sass.write_text(
            "LDG.E.SYS R4, [R2] ;\n"
            "LDG.E.SYS R5, [R2+0x4] ;\n"
            "STG.E.SYS [R6], R4 ;\n"
            "EXIT ;\n"
        )
        assert main(["analyze", "--sass", str(sass), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "vectorized" in out.lower()

    def test_sass_without_dry_run_warns(self, tmp_path, capsys):
        sass = tmp_path / "k.sass"
        sass.write_text("EXIT ;\n")
        assert main(["analyze", "--sass", str(sass)]) == 0
        err = capsys.readouterr().err
        assert "dry-run" in err


class TestValidate:
    def test_single_kernel_table(self, capsys):
        assert main(["validate", "--kernel", "mixbench:sp:naive",
                     "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "mixbench:sp:naive" in out
        assert "mismatches=0" in out
        assert "TOTAL" in out

    def test_json_to_stdout(self, capsys):
        import json

        assert main(["validate", "--kernel", "mixbench:sp:naive",
                     "--size", "64", "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["kernel"] == "mixbench:sp:naive"
        assert data[0]["ok"] is True
        assert data[0]["checks"]

    def test_verbose_lists_every_access(self, capsys):
        assert main(["validate", "--kernel", "mixbench:sp:naive",
                     "--size", "64", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "match" in out
        assert "LDG" in out

    def test_dry_run_report_shows_affine_footer(self, capsys):
        assert main(["analyze", "--kernel", "mixbench:sp:naive",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "[affine]" in out
        assert "proven coalesced" in out


class TestExitCodes:
    def test_mapping(self):
        from repro.cli import exit_code_for
        from repro.errors import (
            EXIT_INTERNAL,
            AnalysisError,
            CompileError,
            LaunchError,
            SassSyntaxError,
            SimulationError,
            SimulationTimeout,
        )

        assert exit_code_for(SassSyntaxError("bad line")) == 2
        assert exit_code_for(CompileError("no regs")) == 3
        assert exit_code_for(LaunchError("bad grid")) == 4
        assert exit_code_for(SimulationError("deadlock")) == 5
        assert exit_code_for(AnalysisError("no config")) == 6
        # a subclass maps like its closest listed ancestor
        assert exit_code_for(SimulationTimeout("over", limit="cycles")) == 5
        assert exit_code_for(RuntimeError("bug")) == EXIT_INTERNAL
        assert EXIT_INTERNAL == 70

    @pytest.mark.parametrize("exc,code", [
        ("SimulationError", 5),
        ("AnalysisError", 6),
        ("LaunchError", 4),
    ])
    def test_repro_error_exit_and_stderr(self, monkeypatch, capsys,
                                         exc, code):
        import repro.errors as errors_mod
        from repro.core import GPUscout

        def boom(self, *a, **k):
            raise getattr(errors_mod, exc)("synthetic failure")

        monkeypatch.setattr(GPUscout, "analyze", boom)
        rc = main(["analyze", "--kernel", "mixbench:sp:naive",
                   "--dry-run"])
        assert rc == code
        err = capsys.readouterr().err
        assert "gpuscout: error" in err
        assert "synthetic failure" in err

    def test_internal_error_exits_70(self, monkeypatch, capsys):
        from repro.core import GPUscout

        def boom(self, *a, **k):
            raise RuntimeError("unexpected bug")

        monkeypatch.setattr(GPUscout, "analyze", boom)
        rc = main(["analyze", "--kernel", "mixbench:sp:naive",
                   "--dry-run"])
        assert rc == 70
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "RuntimeError" in err

    def test_usage_errors_keep_argparse_exit(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["analyze", "--kernel", "sgemm:naive", "--size", "48",
         "--deadline", "nan"],
        ["analyze", "--kernel", "sgemm:naive", "--size", "48",
         "--deadline", "inf"],
        ["analyze", "--kernel", "sgemm:naive", "--size", "48",
         "--deadline", "-1"],
        ["analyze", "--kernel", "mixbench:sp:naive", "--size", "64",
         "--compute-iterations", "-1"],
        ["compare", "--old", "mixbench:sp:naive", "--new",
         "mixbench:sp:vec", "--size", "64", "--compute-iterations", "-2"],
    ], ids=["nan", "inf", "negative", "iterations", "compare-iterations"])
    def test_request_values_the_api_rejects_exit_2(self, argv, capsys):
        # the request rejects them on construction, before anything is
        # compiled or launched: a NaN deadline never trips and a
        # negative one is no budget, so neither may run unbounded
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "gpuscout: error:" in captured.err
        assert captured.out == ""

    def test_a_rejected_request_is_a_usage_error(self):
        from repro.errors import ProtocolError

        assert exit_code_for(ProtocolError("x")) == 2


class TestHealthOutput:
    def test_degraded_run_prints_health_on_stderr(self, capsys):
        from repro.errors import SimulationError
        from repro.testing import fail_at

        with fail_at("simulator.launch", SimulationError, times=None):
            rc = main(["analyze", "--kernel", "mixbench:sp:naive",
                       "--size", "64", "--max-blocks", "2"])
        assert rc == 0  # degraded, not failed
        captured = capsys.readouterr()
        assert "[health]" in captured.err
        assert "mode: static" in captured.err
        assert "[health]" in captured.out  # report footer too

    def test_clean_run_prints_no_health(self, capsys):
        assert main(["analyze", "--kernel", "mixbench:sp:naive",
                     "--dry-run"]) == 0
        captured = capsys.readouterr()
        assert "[health]" not in captured.err
        assert "[health]" not in captured.out


class TestDeadline:
    def test_validate_deadline_exits_cleanly_with_partial_results(
            self, capsys):
        rc = main(["validate", "--kernel", "mixbench:sp:naive",
                   "--kernel", "reduction:shared", "--size", "64",
                   "--deadline", "0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "SKIP" in captured.out
        assert "deadline hit" in captured.err
        assert "2 kernel(s)" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_validate_rejects_a_deadline_that_cannot_trip(self, value,
                                                          capsys):
        # ``SimBudget(max_wall_seconds=nan)`` never trips: the suite
        # would run unbounded and exit 0 as if no deadline were given
        rc = main(["validate", "--kernel", "mixbench:sp:naive",
                   "--size", "64", "--deadline", value])
        assert rc == 2
        captured = capsys.readouterr()
        assert "deadline must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_serve_rejects_its_default_deadline_before_listening(
            self, value, capsys, monkeypatch):
        # the server-wide default goes into every request without its
        # own: a bad one is the operator's error, not each client's 400
        from repro.serve import ScoutServer

        served = []

        def serve_until_interrupted(self):
            served.append(self)
            raise KeyboardInterrupt

        monkeypatch.setattr(ScoutServer, "serve_forever",
                            serve_until_interrupted)
        monkeypatch.setattr(ScoutServer, "stop",
                            lambda self: self._httpd.server_close())
        monkeypatch.setattr("signal.signal", lambda *args: None)
        rc = main(["serve", "--port", "0", "--deadline", value])
        captured = capsys.readouterr()
        assert rc == 2 and served == []
        assert "deadline must be finite" in captured.err
        assert "listening on" not in captured.err

    def test_validate_generous_deadline_validates_everything(self, capsys):
        rc = main(["validate", "--kernel", "mixbench:sp:naive",
                   "--size", "64", "--deadline", "600"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SKIP" not in out
        assert "mismatches=0" in out

    def test_analyze_deadline_degrades_instead_of_failing(self, capsys):
        rc = main(["analyze", "--kernel", "mixbench:sp:naive",
                   "--size", "64", "--max-blocks", "2",
                   "--deadline", "0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "mode: static" in captured.err
        assert "wall-clock" in captured.err + captured.out
