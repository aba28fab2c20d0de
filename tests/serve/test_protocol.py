"""Wire-protocol properties: request validation, error mapping, and the
content-address sensitivity contract (any change to SASS text, launch
geometry, parameter values, or arch config must change the address)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import LaunchConfig
from repro.gpu.config import GPUSpec
from repro.serve.protocol import (
    EXIT_USAGE,
    AnalyzeRequest,
    ProtocolError,
    arch_spec,
    content_address,
    http_status_for,
    spec_fingerprint,
    strip_volatile,
)

SASS = "IADD R0, R1, R2 ;"
CONFIG = LaunchConfig(grid=(4, 1), block=(128, 1))
SPEC = GPUSpec.small(1)


def addr(sass=SASS, config=CONFIG, params=None, spec=SPEC, extras=None):
    return content_address(sass, config, params, spec, extras)


class TestRequestValidation:
    def test_minimal_kernel_request(self):
        req = AnalyzeRequest.from_dict({"kernel": "sgemm:naive"})
        assert req.kernel == "sgemm:naive"
        assert req.arch == "v100" and not req.dry_run

    def test_round_trips_through_to_dict(self):
        req = AnalyzeRequest.from_dict(
            {"kernel": "heat:naive", "size": 128, "deadline": 1.5}
        )
        assert AnalyzeRequest.from_dict(req.to_dict()) == req

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},                                          # neither kernel nor sass
        {"kernel": "a", "sass": "b"},                # both
        {"kernel": "a", "bogus": 1},                 # unknown field
        {"kernel": "a", "size": "big"},              # wrong type
        {"kernel": "a", "size": True},               # bool is not an int here
        {"kernel": "a", "size": 0},                  # non-positive
        {"kernel": "a", "arch": "h100"},             # unknown arch
        {"sass": SASS},                              # sass needs dry_run
    ])
    def test_rejected(self, payload):
        with pytest.raises(ProtocolError):
            AnalyzeRequest.from_dict(payload)

    def test_arch_spec_unknown_is_usage_error(self):
        with pytest.raises(ProtocolError):
            arch_spec("h100")


class TestHttpMapping:
    @pytest.mark.parametrize("code,status", [
        (0, 200), (2, 400), (3, 400), (4, 400), (EXIT_USAGE, 400),
        (5, 500), (6, 500), (70, 500),
    ])
    def test_status(self, code, status):
        assert http_status_for(code) == status


class TestContentAddressSensitivity:
    """ISSUE acceptance: any change to any keyed input changes the key."""

    def test_deterministic(self):
        assert addr() == addr()

    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_any_sass_change(self, suffix):
        assert addr(sass=SASS + suffix) != addr()

    @given(st.tuples(st.integers(1, 64), st.integers(1, 8)),
           st.tuples(st.integers(1, 256), st.integers(1, 4)))
    @settings(max_examples=60, deadline=None)
    def test_any_geometry_change(self, grid, block):
        config = LaunchConfig(grid=grid, block=block)
        changed = (list(config.grid) != list(CONFIG.grid)
                   or list(config.block) != list(CONFIG.block))
        assert (addr(config=config) != addr()) == changed

    @given(st.dictionaries(
        st.sampled_from(["size", "iters", "alpha", "n"]),
        st.one_of(st.integers(-1000, 1000),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=8)),
        max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_any_param_change(self, params):
        # one-directional on purpose: numerically-equal-but-differently-
        # typed params (256 vs 256.0) may key differently, which is a
        # safe false miss — a false HIT is what the property forbids
        base = {"size": 256}
        if params != base:
            assert addr(params=params) != addr(params=base)

    @given(st.sampled_from([
        "num_sms", "warp_size", "sector_bytes", "l1_line_bytes",
        "l2_line_bytes", "l2_bytes", "smem_banks", "lat_dram",
    ]), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_any_arch_field_change(self, field, bump):
        base = GPUSpec.small(1)
        mutated = dataclasses.replace(
            base, **{field: getattr(base, field) + bump}
        )
        assert addr(spec=mutated) != addr(spec=base)
        assert spec_fingerprint(mutated) != spec_fingerprint(base)

    def test_extras_and_schema_enter_the_address(self, monkeypatch):
        assert (addr(extras={"extended": True})
                != addr(extras={"extended": False}))
        assert (addr(extras={"dry_run": True})
                != addr(extras={"dry_run": False}))
        before = addr()
        import repro.core.jsonout as jo

        monkeypatch.setattr(jo, "SCHEMA_VERSION", jo.SCHEMA_VERSION + 1)
        assert addr() != before


class TestStripVolatile:
    def test_removes_only_volatile_fields(self):
        report = {
            "kernel": "k", "profile": {"spans": []}, "overhead": 0.1,
            "trace_path": "/tmp/t.json",
            "launch": {"grid": [4, 1], "duration_s": 0.5},
            "diagnostics": [
                {"stage": "s", "detail": {"elapsed_s": 1, "span": "x",
                                          "kept": True}},
            ],
            "findings": [{"title": "t"}],
        }
        out = strip_volatile(report)
        assert "profile" not in out and "overhead" not in out
        assert "trace_path" not in out
        assert "duration_s" not in out["launch"]
        assert out["diagnostics"][0]["detail"] == {"kept": True}
        # non-volatile content intact, input untouched
        assert out["findings"] == report["findings"]
        assert report["launch"]["duration_s"] == 0.5

    def test_output_is_json_clean(self):
        out = strip_volatile({"launch": {"grid": (4, 1)}})
        assert json.loads(json.dumps(out)) == out


class TestSchemaBumpInvalidation:
    """The v5 schema (stall blame) must orphan every L3 report cached
    under v4: same request, different content address, guaranteed miss."""

    def test_v4_addressed_entry_misses_under_v5(self, monkeypatch,
                                                tmp_path):
        from repro.serve.cache import ReportCache
        import repro.core.jsonout as jo

        assert jo.SCHEMA_VERSION >= 5  # blame landed in v5

        monkeypatch.setattr(jo, "SCHEMA_VERSION", 4)
        old_key = addr()
        cache = ReportCache(directory=tmp_path)
        cache.put(old_key, {"kernel": "k", "schema_version": 4})
        got, _ = cache.get(old_key)
        assert got is not None  # the v4 entry itself is retrievable

        monkeypatch.undo()
        new_key = addr()
        assert new_key != old_key
        got, corrupted = cache.get(new_key)
        assert got is None and not corrupted
        assert cache.misses > 0

    def test_v5_reports_carry_blame(self):
        """The field the bump paid for actually exists on the wire."""
        from repro.core.findings import Finding, Severity
        from repro.core.jsonout import _finding_dict

        d = _finding_dict(Finding(analysis="x", title="t",
                                  severity=Severity.INFO,
                                  message="m", recommendation="r"))
        assert d["blame"] == []
