"""The equivalence oracle: a simulator that never batches.

Not imported by :mod:`repro.testing` itself (``repro.gpu`` imports that
package for ``fail_point``); tests import this module by name.
"""

from repro.gpu.simulator import Simulator

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator(Simulator):
    """Runs every launch on the per-warp interpreter
    (``Executor.step`` under ``SMScheduler.run_wave`` and
    ``run_per_warp``), the path the batched engines must match bit for
    bit.  No engine code lives here: the product takes the same route
    for any program ``batchable()`` rejects."""

    def _engines(self, decoded) -> tuple[bool, bool]:
        return False, False
