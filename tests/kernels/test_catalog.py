"""The kernel catalog: exact spec names, one program per variant per
process, launch inputs per request."""

import hashlib
import sys
import threading

import pytest

from repro.errors import ReproError, UnknownKernelError, exit_code_for
from repro.kernels import catalog
from repro.kernels.catalog import (
    CATALOG,
    DEFAULT_VARIANT,
    canonical,
    launch_inputs,
    program,
    program_stats,
    resolve_kernel,
)
from repro.sass.writer import format_program


class TestSpecNames:
    def test_seventeen_specs_five_families(self):
        assert len(CATALOG) == 17
        assert {spec.split(":")[0] for spec in CATALOG} == set(DEFAULT_VARIANT)
        assert set(DEFAULT_VARIANT.values()) <= set(CATALOG)

    @pytest.mark.parametrize("spec", [
        "heat:bogus", "mixbench:sp:turbo", "mixbench:sp", "nope:x", "",
        "sgemm:naive:extra", "SGEMM:naive",
    ])
    def test_anything_else_is_one_usage_error(self, spec):
        for call in (canonical, program,
                     lambda s: launch_inputs(s, 64),
                     lambda s: resolve_kernel(s, 64)):
            with pytest.raises(UnknownKernelError) as raised:
                call(spec)
            assert all(known in str(raised.value) for known in CATALOG)
        assert isinstance(raised.value, ReproError)
        assert exit_code_for(raised.value) == 2

    def test_a_bare_family_is_its_default_variant(self):
        for family, default in DEFAULT_VARIANT.items():
            assert canonical(family) == default
            assert program(family) is program(default)


class TestOneProgramPerVariant:
    def test_same_object_every_time(self, fresh_programs):
        first = program("heat:texture")
        assert program("heat:texture") is first
        assert resolve_kernel("heat:texture", 64)[0] is first
        assert resolve_kernel("heat:texture", 96)[0] is first
        assert program("heat:naive") is not first
        assert program_stats() == {"entries": 2, "compiles": 2}

    def test_size_decides_the_launch_not_the_program(self):
        small, big = (resolve_kernel("histogram:shared", n)
                      for n in (1024, 4096))
        assert small[0] is big[0]
        assert small[1].grid != big[1].grid
        assert len(small[2]["data"]) < len(big[2]["data"])
        assert launch_inputs("mixbench:int:vec", 512, 3)[1][
            "compute_iterations"] == 3

    def test_eight_threads_one_compile_one_object(self, fresh_programs,
                                                  monkeypatch):
        compiled = []
        real = catalog._compile

        def counting_compile(spec):
            compiled.append(spec)
            return real(spec)

        monkeypatch.setattr(catalog, "_compile", counting_compile)
        start = threading.Barrier(8)
        got = []

        def worker():
            start.wait(timeout=30)
            got.append(program("reduction:warp"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert compiled == ["reduction:warp"]
        assert len(got) == 8 and len({id(ck) for ck in got}) == 1
        assert program_stats() == {"entries": 1, "compiles": 1}

    def test_build_functions_stay_private(self, fresh_programs):
        from repro.kernels.sgemm import build_sgemm

        shared = program("sgemm:shared")
        private = build_sgemm("shared")
        assert private is not shared and build_sgemm("shared") is not private
        assert private.sass_text == shared.sass_text
        assert program_stats()["compiles"] == 1


def _rendering(ck):
    text = format_program(ck.program)
    return (hashlib.sha256(text.encode()).hexdigest(), len(ck.program), text)


def test_analyses_leave_the_shared_programs_as_compiled():
    """Every request of a variant runs on one object: a full pass over
    the catalog, a dry run, an extended run and a run whose deadline
    has expired must leave each program's listing as it was."""
    from repro.serve.service import KernelRunner

    before = {spec: _rendering(program(spec)) for spec in CATALOG}
    assert all(program(spec).sass_sha256 == before[spec][0]
               for spec in CATALOG)
    runner = KernelRunner()
    for spec in CATALOG:
        for extra in ({}, {"dry_run": True}, {"extended": True},
                      {"deadline": 1e-9, "max_blocks": 2}):
            env = runner.run({"kernel": spec, "size": 96, **extra})
            assert env["ok"], (spec, extra, env)
    assert runner.stats()["programs"]["entries"] == len(CATALOG)
    for spec in CATALOG:
        assert _rendering(program(spec)) == before[spec], spec
