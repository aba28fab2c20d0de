"""Testing utilities for the GPUscout reproduction.

Re-exports the deterministic fault-injection harness in
:mod:`repro.testing.faultinject`, which the chaos-test suite uses to
prove every single-point failure still yields a well-formed partial
report.  :mod:`repro.testing.reference` (the per-warp equivalence
oracle) is not exported here: tests import it by module name.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FailPoint": ("repro.testing.faultinject", "FailPoint"),
    "fail_at": ("repro.testing.faultinject", "fail_at"),
    "fail_point": ("repro.testing.faultinject", "fail_point"),
    "fail_points": ("repro.testing.faultinject", "fail_points"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
