"""Wire protocol of the analysis service.

A *submission* is a JSON object naming a kernel (a built-in spec like
``sgemm:naive``, or raw SASS text) plus its launch parameters and the
arch config to analyse under.  The response wraps the one-shot CLI's
schema-v4 report JSON in a small envelope::

    {"ok": true, "code": 0, "cache": "l3", "report": {...}}

so a served analysis is byte-comparable to ``gpuscout analyze --json``
output (modulo the volatile timing/profile fields, see
:func:`strip_volatile`).

**Content addressing.**  :func:`content_address` derives the cache key
every tier hangs off: a SHA-256 over the SASS text, the launch
fingerprint (geometry + parameter values), the *full* arch-config
field set, and the report schema version.  Any change to any of those
must change the address — a Hypothesis property test pins this.

**Error mapping.**  Per-request failures carry the same stage codes
the CLI exits with (parse=2, compile=3, launch=4, simulation=5,
analysis=6, internal=70, plus usage=64 for malformed submissions);
:func:`http_status_for` maps them onto HTTP statuses (4xx for inputs
the client can fix, 5xx for server-side failures).
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
from dataclasses import asdict
from typing import Optional

# the request and its validation live with the analysis path; they are
# re-exported here, the wire protocol's names for them
from repro.core.request import ARCHS, AnalyzeRequest, arch_spec
from repro.errors import ProtocolError
from repro.gpu.config import GPUSpec
from repro.sass.affine import pointer_param_offsets

__all__ = [
    "ARCHS",
    "AnalyzeRequest",
    "EXIT_USAGE",
    "ProtocolError",
    "arch_spec",
    "content_address",
    "http_status_for",
    "launch_fingerprint",
    "request_key",
    "spec_fingerprint",
    "static_key",
    "strip_volatile",
]

#: EX_USAGE — a malformed submission (bad JSON, unknown field, unknown
#: kernel spec/arch).  Extends the CLI's parse=2 … internal=70 ladder.
EXIT_USAGE = 64


# ---------------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------------

def _canon(value):
    """Canonical JSON-able form of a fingerprint component (numpy
    arrays and scalars hash by content)."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "tobytes") and hasattr(value, "dtype"):  # ndarray
        return ["ndarray", str(value.dtype), list(value.shape),
                hashlib.sha256(value.tobytes()).hexdigest()]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


@functools.lru_cache(maxsize=16)
def _arch_term(spec: GPUSpec) -> dict:
    """:func:`spec_fingerprint`, computed once per (frozen, hashable)
    spec and shared: ``asdict`` over ~60 fields was most of a
    ``request_key``.  Read-only — every address is built from it."""
    return _canon(asdict(spec))


def spec_fingerprint(spec: GPUSpec) -> dict:
    """Every field of the arch config — a renamed *or* retuned spec
    yields a different fingerprint.  The caller's own copy."""
    return copy.deepcopy(_arch_term(spec))


def launch_fingerprint(config, params: Optional[dict] = None) -> dict:
    """Geometry plus the parameter values the kernel will see.
    ``config`` is ``None`` for raw-SASS (static-only) submissions."""
    return {
        "grid": list(config.grid) if config is not None else None,
        "block": list(config.block) if config is not None else None,
        "params": _canon(params or {}),
    }


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=16)
def _arch_json(spec: GPUSpec) -> str:
    """The arch term as it appears in an address preimage."""
    return _dumps(_arch_term(spec))


@functools.lru_cache(maxsize=16)
def _factory_arch_json(factory) -> str:
    """:func:`_arch_json` of the spec an :data:`ARCHS` factory builds,
    per factory object: a repeated request builds no spec, and an
    entry rebound to another factory misses."""
    return _arch_json(factory())


def _report_address(payload: dict, arch_json: str) -> str:
    """Digest of ``payload`` plus the two terms every report address
    carries: the complete arch config (``arch_json``, its
    :func:`_arch_json` dump) and the report schema version — bumping
    the schema invalidates every cached report at once.  The preimage
    is ``_dumps({**payload, "arch": ..., "schema": ...})`` with the
    ~60-field arch term spliced in."""
    from repro.core.jsonout import SCHEMA_VERSION

    assert all(key > "arch" for key in payload), \
        "the arch term is spliced in as the first key"
    rest = _dumps(dict(payload, schema=SCHEMA_VERSION))
    blob = f'{{"arch":{arch_json},{rest[1:]}'
    return hashlib.sha256(blob.encode()).hexdigest()


def _sass_digest(kernel) -> str:
    """SHA-256 of a kernel's SASS listing.  Raw text is hashed here; a
    ``CompiledKernel`` carries the digest of its own rendering, shared
    with the trace cache's launch key."""
    if isinstance(kernel, str):
        return hashlib.sha256(kernel.encode()).hexdigest()
    return kernel.sass_sha256


def content_address(kernel, config, params: Optional[dict],
                    spec: GPUSpec, extras: Optional[dict] = None) -> str:
    """The full (L3) content address of one analysis result.

    Keyed by everything that can influence the report body: SASS text
    (``kernel`` is that text or a ``CompiledKernel``), launch
    fingerprint (geometry + params), request options that change what
    is computed (``extras``), and the arch config and schema version
    :func:`_report_address` adds.
    """
    return _report_address({
        "sass": _sass_digest(kernel),
        "launch": launch_fingerprint(config, params),
        "extras": _canon(extras or {}),
    }, _arch_json(spec))


def request_key(req: AnalyzeRequest) -> str:
    """Fingerprint of the submission as written: the proxy key the
    server's address memo maps onto real content addresses, so repeats
    are answered from L3 without resolving (= compiling) the kernel."""
    if req.arch not in ARCHS:
        arch_spec(req.arch)  # the ProtocolError naming the known archs
    return _report_address({"req": req.to_dict()},
                           _factory_arch_json(ARCHS[req.arch]))


def static_key(kernel, config, extended: bool) -> str:
    """The L1 address of one program's static artifacts — the inputs
    :meth:`~repro.core.engine.StaticArtifacts.matches` then checks:
    SASS text (``kernel`` as for :func:`content_address`), which
    constant-bank slots hold pointers (the listing does not say),
    launch geometry (analyses may fold it into their static results)
    and the analysis set."""
    payload = {
        "sass": _sass_digest(kernel),
        "pointers": sorted(pointer_param_offsets(kernel)),
        "grid": list(config.grid) if config is not None else None,
        "block": list(config.block) if config is not None else None,
        "extended": bool(extended),
    }
    return hashlib.sha256(_dumps(payload).encode()).hexdigest()


# ---------------------------------------------------------------------------
# byte-identity helpers
# ---------------------------------------------------------------------------

#: report keys that legitimately differ between runs of identical work
_VOLATILE_TOP = ("profile", "overhead", "trace_path")


def strip_volatile(report: dict) -> dict:
    """A deep copy of a schema-v4 report dict with the timing/profile
    fields removed, leaving only the deterministic analysis content —
    the served-vs-CLI byte-identity contract compares these."""
    out = json.loads(json.dumps(report))  # deep copy, JSON-normalised
    for key in _VOLATILE_TOP:
        out.pop(key, None)
    if isinstance(out.get("launch"), dict):
        out["launch"].pop("duration_s", None)
    for d in out.get("diagnostics", []):
        detail = d.get("detail")
        if isinstance(detail, dict):
            detail.pop("elapsed_s", None)
            detail.pop("span", None)
    return out


def http_status_for(code: int) -> int:
    """HTTP status for a per-request stage code: inputs the client can
    fix are 4xx, server-side failures 5xx."""
    if code == 0:
        return 200
    if code in (2, 3, 4, EXIT_USAGE):
        return 400
    return 500
