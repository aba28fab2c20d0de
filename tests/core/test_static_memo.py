"""A scout reuses the static artifacts of a compiled program it has
already analysed under the same geometry: the second report is the
first one's, byte for byte, and what differs in the key misses."""

import dataclasses
import json

import pytest

from repro.core import GPUscout, report_to_dict
from repro.cudalite.types import u64
from repro.errors import AnalysisError, SimulationError
from repro.kernels.catalog import CATALOG, resolve_kernel
from repro.serve.protocol import strip_volatile
from repro.testing import fail_at

#: a small problem per family, so 17 variants x 3 analyses stay quick
SIZES = {"mixbench": 2048, "heat": 96, "sgemm": 96, "histogram": 4096,
         "reduction": 512}


def run(scout, spec, size=None, **kw):
    ck, config, args, textures = resolve_kernel(
        spec, size or SIZES[spec.split(":")[0]])
    return scout.analyze(ck, config, args, textures=textures,
                         max_blocks=2, **kw)


def canon(report) -> str:
    return json.dumps(strip_volatile(report_to_dict(report)),
                      sort_keys=True)


def reused(report) -> bool:
    return "static:cached" in {s.name for s in report.profile.spans}


@pytest.fixture(scope="module")
def scout():
    return GPUscout()


@pytest.mark.parametrize("spec", sorted(CATALOG))
def test_second_analysis_is_the_first_and_a_fresh_scouts(scout, spec):
    first = run(scout, spec)
    second = run(scout, spec)
    fresh = run(GPUscout(), spec)
    assert not reused(first) and reused(second) and not reused(fresh)
    assert canon(second) == canon(first) == canon(fresh)


def test_another_geometry_pointer_layout_or_sass_misses():
    scout = GPUscout()
    assert not reused(run(scout, "heat:naive", 96))
    assert reused(run(scout, "heat:naive", 96))
    # another size is another grid
    assert not reused(run(scout, "heat:naive", 128))
    ck, config, _, _ = resolve_kernel("heat:naive", 96)
    assert reused(scout.analyze(ck, config, dry_run=True))
    # the same listing with one pointer parameter read as a scalar
    slot = next(i for i, p in enumerate(ck.params) if p.is_pointer)
    params = list(ck.params)
    params[slot] = dataclasses.replace(params[slot], type=u64)
    scalar = dataclasses.replace(ck, params=params)
    assert scalar.sass_sha256 == ck.sass_sha256
    assert not reused(scout.analyze(scalar, config, dry_run=True))
    # another listing under the same geometry
    other = dataclasses.replace(ck)
    other.__dict__["sass_sha256"] = "0" * 64
    assert not reused(scout.analyze(other, config, dry_run=True))


def test_raw_sass_and_programs_are_never_memoised():
    scout = GPUscout()
    ck, config, _, _ = resolve_kernel("heat:naive", 96)
    run(scout, "heat:naive", 96)
    assert reused(run(scout, "heat:naive", 96))  # the compiled kernel is
    for kernel in (ck.sass_text, ck.program):
        assert not reused(scout.analyze(kernel, config, dry_run=True))
        assert not reused(scout.analyze(kernel, config, dry_run=True))
    # so a parser fault still reaches the parser
    with fail_at("parser.program", SimulationError) as fp:
        report = scout.analyze(ck.sass_text, config, dry_run=True)
    assert fp.triggered == 1
    assert len(report.program) == 0


def test_a_failed_static_stage_is_not_kept():
    scout = GPUscout()
    with fail_at("engine.analysis", AnalysisError):
        hurt = run(scout, "sgemm:naive")
    assert [d.severity for d in hurt.diagnostics] == ["error"]
    healed = run(scout, "sgemm:naive")
    assert not reused(healed)
    assert healed.diagnostics == []
    assert reused(run(scout, "sgemm:naive"))


def test_a_dry_run_reads_the_memo_but_starts_none():
    ck, config, _, _ = resolve_kernel("sgemm:naive", 96)
    scout = GPUscout()
    scout.analyze(ck, config, dry_run=True)
    assert not reused(scout.analyze(ck, config, dry_run=True))
    run(scout, "sgemm:naive", 96)
    assert reused(scout.analyze(ck, config, dry_run=True))
