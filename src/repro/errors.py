"""Exception hierarchy and recovery diagnostics for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems raise the more
specific subclasses below; none of them are raised for programmer errors
(those surface as ``TypeError``/``ValueError`` from the standard
library as usual).

:class:`Diagnostic` is the structured record a fault boundary produces
when it *recovers* from an error instead of propagating it: the
analysis engine converts per-stage exceptions into diagnostics attached
to the report, and the recovering SASS parser records one per skipped
line.  This module stays dependency-free so every layer (sass, gpu,
core) can import it.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field

__all__ = [
    "Diagnostic",
    "diagnostic_from_exception",
    "ReproError",
    "SassSyntaxError",
    "CompileError",
    "RegisterAllocationError",
    "LaunchError",
    "SimulationError",
    "ResourceLimitError",
    "SimulationTimeout",
    "MetricError",
    "AnalysisError",
    "UnknownKernelError",
    "ProtocolError",
    "exit_code_for",
]


@dataclass
class Diagnostic:
    """One recovered fault: where it happened and what was lost.

    ``stage`` is the workflow stage (``parse``, ``static``, ``launch``,
    ``sampling``, ``metrics``, ``correlate``); ``site`` the failing
    component — an analysis name, a degradation-ladder rung, or a
    fail-point name from :mod:`repro.testing.faultinject`.  ``severity``
    is ``"info"`` (expected demotion), ``"warning"`` (data lost) or
    ``"error"`` (unexpected crash, possibly with a reproducer bundle
    named in ``message``).
    """

    stage: str
    site: str
    error: str  # exception class name ("" for informational records)
    message: str
    severity: str = "warning"
    #: captured traceback text (empty for informational records)
    traceback: str = ""
    #: 1-based source line for parse diagnostics
    lineno: int | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "stage": self.stage,
            "site": self.site,
            "error": self.error,
            "message": self.message,
            "severity": self.severity,
        }
        if self.traceback:
            out["traceback"] = self.traceback
        if self.lineno is not None:
            out["lineno"] = self.lineno
        if self.detail:
            out["detail"] = dict(self.detail)
        return out

    def __str__(self) -> str:
        site = f"{self.stage}:{self.site}"
        err = f" [{self.error}]" if self.error else ""
        at = f" (line {self.lineno})" if self.lineno is not None else ""
        return f"{site}{err}{at}: {self.message}"


def diagnostic_from_exception(
    stage: str,
    site: str,
    exc: BaseException,
    severity: str = "warning",
    lineno: int | None = None,
    with_traceback: bool = True,
) -> Diagnostic:
    """Build a :class:`Diagnostic` from a caught exception."""
    tb = ""
    if with_traceback and exc.__traceback__ is not None:
        tb = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    return Diagnostic(
        stage=stage,
        site=site,
        error=type(exc).__name__,
        message=str(exc) or type(exc).__name__,
        severity=severity,
        traceback=tb,
        lineno=lineno,
    )


class ReproError(Exception):
    """Base class of all errors raised by the GPUscout reproduction."""


class SassSyntaxError(ReproError):
    """Raised when SASS text cannot be parsed.

    Carries the 1-based line number of the offending text where known.
    """

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class CompileError(ReproError):
    """Raised by the cudalite compiler for invalid kernel ASTs."""


class RegisterAllocationError(CompileError):
    """Raised when register allocation cannot satisfy the budget.

    This only happens for budgets too small to hold even the working
    set of a single instruction; ordinary pressure is resolved by
    spilling to local memory.
    """


class LaunchError(ReproError):
    """Raised for invalid kernel launch configurations."""


class SimulationError(ReproError):
    """Raised when the GPU simulator encounters an unexecutable state
    (unknown opcode, misaligned access, out-of-bounds memory, ...)."""


class ResourceLimitError(ReproError):
    """Raised when a run exceeds one of its resource guards.

    The guards (instruction, cycle and wall-clock budgets, see
    :class:`repro.gpu.simulator.SimBudget`) bound how much work a single
    simulated launch may consume.  The analysis engine treats this as a
    demotion trigger on its graceful-degradation ladder rather than a
    fatal error: the run continues with cheaper pillars and the report
    carries a diagnostic naming the limit.
    """


class SimulationTimeout(SimulationError, ResourceLimitError):
    """Raised when the GPU simulator exceeds its execution budget.

    Subclasses both :class:`SimulationError` (callers treating any
    simulator failure uniformly keep working) and
    :class:`ResourceLimitError` (callers distinguishing budget
    exhaustion from genuine simulator faults can).  ``limit`` names the
    guard that tripped (``"instructions"``, ``"cycles"`` or
    ``"wall-clock"``).
    """

    def __init__(self, message: str, limit: str = ""):
        self.limit = limit
        super().__init__(message)


class MetricError(ReproError):
    """Raised for unknown metric names or underivable metrics."""


class AnalysisError(ReproError):
    """Raised when a bottleneck analysis cannot run on a program."""


class UnknownKernelError(ReproError):
    """Raised by :mod:`repro.kernels.catalog` for a spec that names no
    built-in kernel; the message lists the ones that exist.  A usage
    error on both surfaces: CLI exit 2, served ``code 64`` / HTTP 400."""


class ProtocolError(ReproError):
    """A request :class:`~repro.core.request.AnalyzeRequest` rejects: a
    usage error, CLI exit 2, served ``code 64`` / HTTP 400."""


#: BSD-style sysexits mapping: scripts branch on *what* failed.  Order
#: matters only in that subclasses (e.g. SimulationTimeout) match their
#: closest listed ancestor.
EXIT_INTERNAL = 70  # EX_SOFTWARE
_EXIT_CODES: list[tuple[type, int]] = [
    (SassSyntaxError, 2),
    (UnknownKernelError, 2),
    (ProtocolError, 2),
    (CompileError, 3),
    (LaunchError, 4),
    (SimulationError, 5),
    (AnalysisError, 6),
]


def exit_code_for(exc: BaseException) -> int:
    """Process exit code for an exception escaping the CLI: 2-6 for
    the :class:`ReproError` stages (parse or usage, compile, launch,
    simulation, analysis), 70 (EX_SOFTWARE) for anything unexpected."""
    for cls, code in _EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return EXIT_INTERNAL
