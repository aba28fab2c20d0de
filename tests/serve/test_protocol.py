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
    request_key,
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


#: (submission, first 16 hex digits of its request key and of its
#: content address) as computed at PR 22, before the arch term was
#: memoised.  The recipe did not change; when one does on purpose (or
#: the schema version is bumped) these are recomputed, not patched.
PINNED_ADDRESSES = [
    ({"kernel": "sgemm:naive", "size": 96},
     "0a78a71751ef9766", "c390a1a39bd903ab"),
    ({"kernel": "sgemm:shared_vec", "size": 256, "max_blocks": 16},
     "fa9743af6eb5d5a3", "ba72ecabe53b9c64"),
    ({"kernel": "heat:texture", "size": 96, "arch": "small"},
     "4ed1ecd03c6f84ff", "f0330ec37c44cef3"),
    ({"kernel": "heat:naive", "size": 64, "dry_run": True},
     "2b00406a7f1f5e34", "827e816e44668d69"),
    ({"kernel": "histogram:global", "size": 4096},
     "5fde8b298bce7ac4", "1437ba7803adc5b3"),
    ({"kernel": "histogram:shared", "size": 1024, "extended": True},
     "5223b1a109060249", "7784fee222ef83e1"),
    ({"kernel": "mixbench:sp:naive", "size": 2048,
      "compute_iterations": 4},
     "3e12c4b67bcd2370", "8325af5974a1fccf"),
    ({"kernel": "mixbench:dp:vec", "size": 512, "arch": "small4"},
     "f30ca5ce34d4ac84", "fc6566f4ff8d83b2"),
    ({"kernel": "reduction:warp", "size": 512, "max_blocks": 4},
     "91d39a12789c9612", "3d3d824080bf271e"),
    ({"kernel": "reduction", "size": 1024},
     "77e84bdbd2e82419", "855eac818d6802dd"),
]


class TestArchTermIsComputedOncePerSpec:
    @pytest.mark.parametrize("payload, key, address", PINNED_ADDRESSES,
                             ids=[p["kernel"] for p, _, _ in
                                  PINNED_ADDRESSES])
    def test_addresses_are_the_parents(self, payload, key, address):
        from repro.kernels.catalog import resolve_kernel

        req = AnalyzeRequest.from_dict(payload)
        ck, config, _, _ = resolve_kernel(req.kernel, req.size,
                                          req.compute_iterations)
        for _ in range(2):  # computed, then answered from the memo
            assert request_key(req)[:16] == key
            assert content_address(
                ck, config,
                params={"spec": req.kernel, "size": req.size,
                        "iters": req.compute_iterations,
                        "max_blocks": req.max_blocks},
                spec=arch_spec(req.arch),
                extras={"dry_run": req.dry_run,
                        "extended": req.extended},
            )[:16] == address

    def test_one_asdict_per_spec(self, monkeypatch):
        from repro.serve import protocol

        walked = []
        monkeypatch.setattr(
            protocol, "asdict",
            lambda obj: (walked.append(type(obj).__name__),
                         dataclasses.asdict(obj))[1])
        spec = dataclasses.replace(SPEC, name="walked-once")
        first = addr(spec=spec)
        assert addr(spec=dataclasses.replace(SPEC, name="walked-once")) \
            == first
        assert walked == ["GPUSpec"]

    def test_a_repeated_request_key_builds_no_spec(self, monkeypatch):
        req = AnalyzeRequest(kernel="sgemm:naive", arch="small4")
        first = request_key(req)
        built = []
        real = GPUSpec.__init__
        monkeypatch.setattr(
            GPUSpec, "__init__",
            lambda self, *a, **kw: (built.append(1),
                                    real(self, *a, **kw))[1])
        assert request_key(req) == first
        assert request_key(AnalyzeRequest(kernel="heat:naive",
                                          arch="small4")) != first
        assert built == []
        # the memo is keyed by the factory: a rebound entry misses
        from repro.serve.protocol import ARCHS

        monkeypatch.setitem(ARCHS, "small4", lambda: GPUSpec.small(2))
        assert request_key(req) != first
        assert built == [1]

    def test_every_field_still_changes_the_fingerprint(self):
        base = spec_fingerprint(SPEC)
        for field in dataclasses.fields(GPUSpec):
            value = getattr(SPEC, field.name)
            if isinstance(value, str):
                changed = value + "'"
            elif isinstance(value, (int, float)):
                changed = value + 1
            else:  # the nested occupancy limits
                changed = dataclasses.replace(
                    value, **{dataclasses.fields(value)[0].name: 7})
            mutated = dataclasses.replace(SPEC, **{field.name: changed})
            assert spec_fingerprint(mutated) != base, field.name
            assert addr(spec=mutated) != addr(), field.name

    def test_callers_get_their_own_copy(self):
        before = addr()
        mine = spec_fingerprint(SPEC)
        mine["num_sms"] = -1
        mine["limits"].clear()
        assert spec_fingerprint(SPEC) != mine
        assert addr() == before


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
