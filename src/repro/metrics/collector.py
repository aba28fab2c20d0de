"""Nsight Compute CLI facade and the metric-collection overhead model.

Real ``ncu`` collects counters by *replaying* the kernel — once per
group of compatible counters — plus substantial per-kernel setup (cache
flushing, serialization).  That replay cost is why metric collection
dominates GPUscout's overhead and grows fastest with problem size
(Figure 6).  The facade derives values from a single simulated launch
(our simulator is deterministic, so replays are redundant) but *models*
the time the replays would cost, which the overhead benches report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import MetricError
from repro.testing.faultinject import fail_point
from repro.metrics.derive import derive_metric
from repro.metrics.names import METRIC_REGISTRY

if TYPE_CHECKING:
    from repro.gpu.simulator import LaunchResult

__all__ = ["MetricReport", "NsightComputeCLI"]


@dataclass
class MetricReport:
    """Values of the requested metrics for one kernel."""

    kernel: str
    values: dict[str, float] = field(default_factory=dict)
    #: modelled wall-clock cost of collecting these metrics with ncu
    collection_seconds: float = 0.0
    replay_passes: int = 0

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def get(self, name: str, default: float = 0.0) -> float:
        return self.values.get(name, default)


class NsightComputeCLI:
    """``ncu``-like metric collector over the simulator.

    ``counters_per_pass`` controls how many hardware counters fit in
    one replay pass; ``replay_overhead_factor`` is the serialized-replay
    slowdown versus a bare kernel run; ``per_pass_setup_s`` is the fixed
    cost of each pass (context setup, cache flush).
    """

    def __init__(
        self,
        counters_per_pass: int = 4,
        replay_overhead_factor: float = 5.0,
        per_pass_setup_s: float = 0.06,
    ):
        self.counters_per_pass = counters_per_pass
        self.replay_overhead_factor = replay_overhead_factor
        self.per_pass_setup_s = per_pass_setup_s

    def collect(
        self,
        result: LaunchResult,
        metrics: Sequence[str],
    ) -> MetricReport:
        """Derive ``metrics`` from ``result`` and model the cost."""
        fail_point("metrics.collect")
        unknown = [m for m in metrics if m not in METRIC_REGISTRY]
        if unknown:
            raise MetricError(f"unknown metrics requested: {unknown}")
        values = {m: derive_metric(m, result) for m in metrics}
        passes = max(1, math.ceil(len(set(metrics)) / self.counters_per_pass))
        seconds = passes * (
            result.duration_s * self.replay_overhead_factor
            + self.per_pass_setup_s
        )
        return MetricReport(
            kernel=result.compiled.name,
            values=values,
            collection_seconds=seconds,
            replay_passes=passes,
        )
