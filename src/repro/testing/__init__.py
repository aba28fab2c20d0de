"""Testing utilities for the GPUscout reproduction.

Re-exports the deterministic fault-injection harness in
:mod:`repro.testing.faultinject`, which the chaos-test suite uses to
prove every single-point failure still yields a well-formed partial
report.  :mod:`repro.testing.reference` (the per-warp equivalence
oracle) is deliberately *not* imported here: ``repro.gpu`` imports this
package for ``fail_point``, and the oracle imports ``repro.gpu``.
"""

from repro.testing.faultinject import (
    FailPoint,
    fail_at,
    fail_point,
    fail_points,
)

__all__ = ["FailPoint", "fail_at", "fail_point", "fail_points"]
