"""Periodic PC sampling over simulated stall attribution.

CUPTI samples one warp per SM every ``2**period`` cycles and records
its PC and issue/stall state.  Statistically, the sample counts per
(PC, reason) converge to the stall-cycle distribution — which our
simulator tracks exactly.  :class:`PCSampler` therefore draws the
deterministic expectation: ``samples = stall_cycles / period`` allocated
by largest remainder, which is what an infinitely-averaged CUPTI run
would report.  Sampling *overhead* (the run-time cost the paper's
Figure 6 shows growing with problem size) is modelled in
:func:`PCSampler.overhead_seconds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.testing.faultinject import fail_point
from repro.gpu.stalls import StallReason

if TYPE_CHECKING:
    from repro.gpu.simulator import LaunchResult

__all__ = ["PCSample", "PCSamplingResult", "PCSampler"]


@dataclass(frozen=True)
class PCSample:
    """Aggregated samples for one (PC, stall reason) pair."""

    pc: int
    line: Optional[int]
    reason: StallReason
    samples: int


@dataclass
class PCSamplingResult:
    """What a CUPTI PC-sampling pass reports for one kernel launch."""

    kernel: str
    period_cycles: int
    total_samples: int
    samples: list[PCSample] = field(default_factory=list)

    # -- aggregation helpers -------------------------------------------------
    def by_reason(self) -> dict[StallReason, int]:
        out: dict[StallReason, int] = {}
        for s in self.samples:
            out[s.reason] = out.get(s.reason, 0) + s.samples
        return out

    def stall_share(self, reason: StallReason) -> float:
        """Fraction of *stall* samples (SELECTED excluded) with ``reason``."""
        totals = self.by_reason()
        stall_total = sum(
            v for k, v in totals.items() if k is not StallReason.SELECTED
        )
        if stall_total == 0:
            return 0.0
        return totals.get(reason, 0) / stall_total

    def at_pc(self, pc: int) -> dict[StallReason, int]:
        out: dict[StallReason, int] = {}
        for s in self.samples:
            if s.pc == pc:
                out[s.reason] = out.get(s.reason, 0) + s.samples
        return out

    def at_line(self, line: int) -> dict[StallReason, int]:
        out: dict[StallReason, int] = {}
        for s in self.samples:
            if s.line == line:
                out[s.reason] = out.get(s.reason, 0) + s.samples
        return out

    def dominant_reason_at(self, pc: int) -> Optional[StallReason]:
        """Largest non-SELECTED stall reason at ``pc``."""
        at = {
            k: v for k, v in self.at_pc(pc).items()
            if k is not StallReason.SELECTED
        }
        if not at:
            return None
        return max(at, key=lambda k: at[k])


class PCSampler:
    """Turns a :class:`LaunchResult` into CUPTI-style samples."""

    def __init__(self, period_cycles: int = 2048,
                 overhead_per_sample_s: float = 2.0e-6,
                 setup_s: float = 0.08):
        if period_cycles < 1:
            raise ValueError("sampling period must be >= 1 cycle")
        self.period_cycles = period_cycles
        self.overhead_per_sample_s = overhead_per_sample_s
        self.setup_s = setup_s

    def sample(self, result: LaunchResult) -> PCSamplingResult:
        """Draw the expected sample counts from exact stall cycles."""
        fail_point("sampler.sample")
        program = result.compiled.program
        table = result.counters.stall_cycles
        entries = sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
        quota: list[tuple[tuple[int, StallReason], float]] = [
            (key, cycles / self.period_cycles) for key, cycles in entries
        ]
        samples: list[PCSample] = []
        total = 0
        # largest-remainder allocation keeps per-(pc,reason) integers
        floors = [(key, int(q)) for key, q in quota]
        remainders = sorted(
            ((q - int(q), i) for i, (_, q) in enumerate(quota)),
            reverse=True,
        )
        counts = [f for _, f in floors]
        target_total = int(round(sum(q for _, q in quota)))
        deficit = target_total - sum(counts)
        for _, i in remainders[: max(deficit, 0)]:
            counts[i] += 1
        for (key, _), n in zip(floors, counts):
            if n <= 0:
                continue
            pc, reason = key
            offset = pc * 16
            line = None
            try:
                line = program.at_offset(offset).line
            except KeyError:
                pass
            samples.append(PCSample(pc=pc, line=line, reason=reason, samples=n))
            total += n
        return PCSamplingResult(
            kernel=program.name,
            period_cycles=self.period_cycles,
            total_samples=total,
            samples=samples,
        )

    def overhead_seconds(self, result: LaunchResult) -> float:
        """Modelled wall-clock cost of the sampling pass.

        CUPTI PC sampling re-runs the kernel in serialized mode and
        processes each sample on the host, so the cost scales with the
        kernel duration (Figure 6's middle series)."""
        n_samples = result.cycles / self.period_cycles
        return (
            self.setup_s
            + result.duration_s * 2.0
            + n_samples * self.overhead_per_sample_s
        )
