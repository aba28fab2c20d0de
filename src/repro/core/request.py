"""The one request → report path (paper §3.1): a kernel and its launch
go in, the three-pillar report comes out, static-only on request.

``gpuscout analyze``, ``compare`` and ``overlay --sampled`` build an
:class:`AnalyzeRequest` and call :func:`analyze_request`;
:class:`~repro.serve.service.KernelRunner` wraps the same call in its
cache tiers.  The analyzer, the arch spec and the deadline's
:class:`~repro.gpu.budget.SimBudget` are made here only, and a request
that constructs is one the engine can act on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.base import all_analyses
from repro.core.engine import GPUscout
from repro.errors import ProtocolError
from repro.gpu.config import GPUSpec
from repro.kernels.catalog import resolve_kernel

__all__ = ["ARCHS", "AnalyzeRequest", "analyze_request", "arch_spec",
           "check_deadline", "resolve", "static_artifacts"]

#: named arch configs a request may select; the *fingerprint* of the
#: resolved spec (every field, not the name) enters the content address,
#: so redefining an arch invalidates its cached results
ARCHS = {
    "v100": GPUSpec.v100,
    "small": lambda: GPUSpec.small(1),
    "small4": lambda: GPUSpec.small(4),
}


def arch_spec(name: str) -> GPUSpec:
    try:
        return ARCHS[name]()
    except KeyError:
        raise ProtocolError(
            f"unknown arch {name!r}; known: {sorted(ARCHS)}"
        ) from None


def check_deadline(deadline: Optional[float]) -> Optional[float]:
    """``deadline`` when it is ``None`` or finite and >= 0, else a
    ``ProtocolError``: ``json.loads`` accepts NaN, and ``now > nan``
    never trips a budget."""
    if deadline is not None and not (
            math.isfinite(deadline) and deadline >= 0):
        raise ProtocolError(
            f"deadline must be finite and >= 0, got {deadline}")
    return deadline


@dataclass(frozen=True)
class AnalyzeRequest:
    """One kernel analysis, validated on construction."""

    kernel: Optional[str] = None  # built-in spec, e.g. "sgemm:naive"
    sass: Optional[str] = None    # raw SASS text (static analysis only)
    size: int = 256
    compute_iterations: int = 8
    max_blocks: int = 8
    dry_run: bool = False
    extended: bool = False
    arch: str = "v100"
    #: wall-clock budget (seconds) for this request's simulation; on
    #: expiry the run degrades down the usual ladder instead of failing
    deadline: Optional[float] = None

    _TYPES = {
        "kernel": (str, type(None)),
        "sass": (str, type(None)),
        "size": (int,),
        "compute_iterations": (int,),
        "max_blocks": (int,),
        "dry_run": (bool,),
        "extended": (bool,),
        "arch": (str,),
        "deadline": (int, float, type(None)),
    }

    def __post_init__(self):
        if (self.kernel is None) == (self.sass is None):
            raise ProtocolError(
                "submission needs exactly one of 'kernel' or 'sass'"
            )
        if self.sass is not None and not self.dry_run:
            raise ProtocolError(
                "raw SASS supports static analysis only; set dry_run"
            )
        if self.size <= 0 or self.max_blocks <= 0:
            raise ProtocolError("size and max_blocks must be positive")
        if self.compute_iterations < 0:
            raise ProtocolError("compute_iterations must not be negative")
        check_deadline(self.deadline)
        if self.arch not in ARCHS:
            raise ProtocolError(
                f"unknown arch {self.arch!r}; known: {sorted(ARCHS)}"
            )

    @classmethod
    def from_dict(cls, data: Any) -> "AnalyzeRequest":
        """A request from a decoded JSON submission: names and types
        are checked here, values by the constructor."""
        if not isinstance(data, dict):
            raise ProtocolError("submission must be a JSON object")
        unknown = data.keys() - cls._TYPES.keys()
        if unknown:
            raise ProtocolError(
                f"unknown submission fields: {sorted(unknown)}"
            )
        for name, types in cls._TYPES.items():
            if name not in data:
                continue
            value = data[name]
            # bool is an int subclass: reject it where int is meant
            bad = (isinstance(value, bool) and bool not in types) \
                or not isinstance(value, types)
            if bad:
                raise ProtocolError(
                    f"field {name!r} has wrong type "
                    f"{type(value).__name__}"
                )
        return cls(**data)

    def to_dict(self) -> dict:
        # the nine fields are scalars: nothing for ``asdict`` to recurse
        # into, and ``request_key`` calls this once per request
        return {name: value for name in self._TYPES
                if (value := getattr(self, name)) is not None}


def resolve(req: AnalyzeRequest):
    """``(kernel, config, args, textures)``: the catalog's program and
    launch inputs, or the SASS text and no launch."""
    if req.sass is not None:
        return req.sass, None, None, {}
    return resolve_kernel(req.kernel, req.size, req.compute_iterations)


def _scout(req: AnalyzeRequest) -> GPUscout:
    return GPUscout(analyses=all_analyses() if req.extended else None,
                    spec=arch_spec(req.arch))


def static_artifacts(req: AnalyzeRequest, resolved=None):
    """The static stages alone, for ``analyze_request(static=...)``."""
    kernel, config, _, _ = resolved or resolve(req)
    return _scout(req).analyze_static(kernel, config)


def analyze_request(req: AnalyzeRequest, *, resolved=None, static=None,
                    trace=None):
    """Run ``req`` and return its :class:`~repro.core.engine.ScoutReport`.

    ``resolved`` is :func:`resolve`'s tuple when the caller has it,
    ``static`` the :func:`static_artifacts` to reuse, ``trace`` a
    :class:`~repro.obs.timeline_capture.TimelineCapture` to record on."""
    kernel, config, args, textures = resolved or resolve(req)
    budget = None
    if req.deadline is not None:
        from repro.gpu.budget import SimBudget

        budget = SimBudget(max_wall_seconds=req.deadline)
    return _scout(req).analyze(
        kernel, config, args, textures=textures, dry_run=req.dry_run,
        max_blocks=req.max_blocks, budget=budget, trace=trace,
        static=static,
    )
