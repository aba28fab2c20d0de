"""Resource guards for simulated kernel launches.

A :class:`SimBudget` bounds how much work one launch (including every
retry the engine's degradation ladder attempts) may consume, along three
axes:

* ``max_instructions`` — warp-instructions executed, timed + functional;
* ``max_cycles`` — simulated SM cycles accrued by the timed scheduler
  (un-extrapolated, i.e. the simulated share);
* ``max_wall_seconds`` — host wall-clock since the budget was armed.

Guards raise :class:`~repro.errors.SimulationTimeout` and latch: once a
limit trips, every later :meth:`check`/:meth:`spend` fails fast, and the
degradation ladder reads ``exhausted`` to go straight to the static
pillar instead of launching the remaining rungs to re-discover it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationTimeout

__all__ = ["SimBudget"]


@dataclass
class SimBudget:
    """Shared, latching execution budget for one analysis run."""

    max_instructions: Optional[int] = None
    max_cycles: Optional[float] = None
    max_wall_seconds: Optional[float] = None
    #: warp-instructions consumed so far (accumulates across retries)
    instructions: int = 0
    #: name of the limit that tripped ("" while healthy)
    exhausted: str = ""
    _deadline: Optional[float] = None

    def arm(self) -> None:
        """Start the wall clock (idempotent; first launch arms it)."""
        if self.max_wall_seconds is not None and self._deadline is None:
            self._deadline = time.perf_counter() + self.max_wall_seconds

    def _trip(self, limit: str, detail: str) -> None:
        self.exhausted = limit
        raise SimulationTimeout(
            f"simulation budget exceeded: {detail}", limit=limit
        )

    def check(self, cycles: float = 0.0) -> None:
        """Raise :class:`SimulationTimeout` if any limit is exceeded."""
        if self.exhausted:
            raise SimulationTimeout(
                f"simulation budget already exhausted ({self.exhausted})",
                limit=self.exhausted,
            )
        if (self.max_instructions is not None
                and self.instructions > self.max_instructions):
            self._trip(
                "instructions",
                f"{self.instructions} warp-instructions > "
                f"{self.max_instructions}",
            )
        if self.max_cycles is not None and cycles > self.max_cycles:
            self._trip("cycles", f"{cycles:.0f} cycles > {self.max_cycles}")
        if (self._deadline is not None
                and time.perf_counter() > self._deadline):
            self._trip(
                "wall-clock",
                f"wall-clock deadline of {self.max_wall_seconds}s passed",
            )

    def spend(self, instructions: int, cycles: float = 0.0) -> None:
        """Charge ``instructions`` executed work, then :meth:`check`."""
        self.instructions += instructions
        self.check(cycles)

    @property
    def seconds_left(self) -> Optional[float]:
        """Remaining wall-clock (None without a wall limit)."""
        if self._deadline is None:
            return None
        return self._deadline - time.perf_counter()
