"""Raw hardware counters collected during simulation.

These are the device-level facts ncu metrics derive from (see
:mod:`repro.metrics.derive`).  Counter semantics follow Nsight Compute:
*accesses* count warp instructions, *sectors* count 32-byte hierarchy
transfers, *transactions* count shared-memory wavefronts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from repro.gpu.stalls import StallReason

__all__ = ["Counters"]


@dataclass
class Counters:
    """Mutable counter block filled by the simulator.

    All counts are for the *simulated share* of the grid; the simulator
    multiplies by its extrapolation factor before reporting device
    totals (kept in :class:`~repro.gpu.simulator.LaunchResult`).
    """

    # -- execution ---------------------------------------------------------
    cycles: float = 0.0
    inst_issued: int = 0
    inst_by_class: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    inst_by_pc: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: pc -> 32-byte sectors moved by the access at that pc (global /
    #: local / texture / global atomics); feeds predict-vs-measure
    mem_sectors_by_pc: dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: pc -> shared-memory transactions (wavefronts) at that pc
    shared_tx_by_pc: dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    warps_launched: int = 0
    blocks_launched: int = 0
    #: integral of resident (unfinished) warps over cycles
    warp_cycles_active: float = 0.0
    #: warp-instructions retired on the functional (untimed) path; an
    #: exact count, deliberately NOT extrapolated by :meth:`scaled` —
    #: it feeds the instructions/sec throughput report, not metrics
    inst_functional: int = 0

    # -- global memory -------------------------------------------------------
    global_load_instructions: int = 0
    global_store_instructions: int = 0
    global_load_sectors: int = 0
    global_store_sectors: int = 0
    global_load_l1_hits: int = 0
    global_load_l1_misses: int = 0

    # -- local memory (register spills) ---------------------------------------
    local_load_instructions: int = 0
    local_store_instructions: int = 0
    local_load_sectors: int = 0
    local_store_sectors: int = 0
    local_l1_hits: int = 0
    local_l1_misses: int = 0

    # -- shared memory -------------------------------------------------------
    shared_load_instructions: int = 0
    shared_store_instructions: int = 0
    shared_load_transactions: int = 0
    shared_store_transactions: int = 0

    # -- texture ----------------------------------------------------------
    texture_instructions: int = 0
    texture_sectors: int = 0
    texture_hits: int = 0
    texture_misses: int = 0

    # -- atomics ----------------------------------------------------------
    global_atomic_instructions: int = 0
    shared_atomic_instructions: int = 0
    atomic_sectors: int = 0
    atomic_l2_hits: int = 0
    atomic_l2_misses: int = 0

    # -- L2 / DRAM (by requesting space) -----------------------------------
    l2_sectors_by_space: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    l2_hits_by_space: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    l2_misses_by_space: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    dram_sectors: int = 0

    # -- conversions / special -----------------------------------------------
    conversion_instructions: int = 0

    # -- stalls ----------------------------------------------------------
    #: (pc, reason) -> stall cycles accumulated while blocked at pc
    stall_cycles: dict[tuple[int, StallReason], float] = field(
        default_factory=lambda: defaultdict(float)
    )

    # ------------------------------------------------------------------
    def record_l2(self, space: str, hits: int, misses: int) -> None:
        if hits or misses:
            self.l2_sectors_by_space[space] += hits + misses
            self.l2_hits_by_space[space] += hits
            self.l2_misses_by_space[space] += misses
            self.dram_sectors += misses

    def add_stall(self, pc: int, reason: StallReason, cycles: float) -> None:
        if cycles > 0:
            self.stall_cycles[(pc, reason)] += cycles

    # -- convenience aggregations ------------------------------------------
    def stall_totals(self) -> dict[StallReason, float]:
        out: dict[StallReason, float] = defaultdict(float)
        for (_, reason), cyc in self.stall_cycles.items():
            out[reason] += cyc
        return dict(out)

    def stalls_at_pc(self, pc: int) -> dict[StallReason, float]:
        out: dict[StallReason, float] = {}
        for (p, reason), cyc in self.stall_cycles.items():
            if p == pc:
                out[reason] = out.get(reason, 0.0) + cyc
        return out

    @property
    def l2_sectors_total(self) -> int:
        return sum(self.l2_sectors_by_space.values())

    def scaled(self, factor: float) -> "Counters":
        """A copy with every extensive counter multiplied by ``factor``
        (used to extrapolate a sampled-block simulation to the full
        grid).  Ratios (hit rates, stall shares) are invariant."""
        # every dict is keyed by ints, strings or (int, StallReason)
        # tuples and holds numbers: a shallow per-dict copy shares
        # nothing mutable (and keeps the defaultdict factories)
        out = replace(self)
        for name, value in vars(self).items():
            if isinstance(value, dict):
                setattr(out, name, value.copy())
        if factor == 1.0:
            return out
        for name in (
            "inst_issued", "warps_launched", "blocks_launched",
            "global_load_instructions", "global_store_instructions",
            "global_load_sectors", "global_store_sectors",
            "global_load_l1_hits", "global_load_l1_misses",
            "local_load_instructions", "local_store_instructions",
            "local_load_sectors", "local_store_sectors",
            "local_l1_hits", "local_l1_misses",
            "shared_load_instructions", "shared_store_instructions",
            "shared_load_transactions", "shared_store_transactions",
            "texture_instructions", "texture_sectors",
            "texture_hits", "texture_misses",
            "global_atomic_instructions", "shared_atomic_instructions",
            "atomic_sectors", "atomic_l2_hits", "atomic_l2_misses",
            "dram_sectors", "conversion_instructions",
        ):
            setattr(out, name, int(round(getattr(self, name) * factor)))
        out.warp_cycles_active = self.warp_cycles_active * factor
        for d_name in ("inst_by_class", "inst_by_pc", "mem_sectors_by_pc",
                       "shared_tx_by_pc", "l2_sectors_by_space",
                       "l2_hits_by_space", "l2_misses_by_space"):
            d = getattr(out, d_name)
            for key in d:
                d[key] = int(round(d[key] * factor))
        for key in out.stall_cycles:
            out.stall_cycles[key] = out.stall_cycles[key] * factor
        return out
