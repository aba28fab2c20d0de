"""GPU hardware description.

:class:`GPUSpec` collects every knob of the simulator.  The default
(:meth:`GPUSpec.v100`) approximates the Tesla V100 used in the paper's
evaluation: 80 SMs x 4 scheduler sub-partitions, 64-warp residency,
128 KiB L1TEX per SM, a 6 MiB shared L2, ~900 GB/s HBM2.

All latencies are in core cycles.  Bandwidths are expressed per
*simulated* SM: the simulator executes one SM's share of the grid and
scales device-level counters by ``num_sms`` (uniform-workload
assumption; see DESIGN.md §5), so the L2 slice and DRAM bandwidth are
divided accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import LaunchError
from repro.sass.occupancy import OccupancyLimits, VOLTA_LIMITS

__all__ = ["GPUSpec", "LaunchConfig"]

WARP = 32


@dataclass(frozen=True)
class GPUSpec:
    """Hardware model parameters (defaults are V100-class)."""

    name: str = "V100-sim"
    num_sms: int = 80
    subpartitions: int = 4
    warp_size: int = 32
    clock_hz: float = 1.38e9
    limits: OccupancyLimits = field(default_factory=lambda: VOLTA_LIMITS)

    # -- instruction latencies (producer -> consumer visible latency) ----
    lat_alu: int = 4
    lat_fp64: int = 8
    lat_mufu: int = 16
    lat_shared: int = 24
    lat_l1_hit: int = 32
    lat_l2_hit: int = 190
    lat_dram: int = 440
    lat_tex_hit: int = 80
    lat_readonly_hit: int = 28  # read-only (constant) path is slightly faster
    lat_atomic_l2: int = 220

    # -- issue costs (cycles a warp occupies its scheduler slot) ---------
    issue_fp64: int = 2  # V100 FP64 at 1:2 rate
    issue_mufu: int = 4
    issue_default: int = 1

    # -- pipelines / queues ----------------------------------------------
    #: L1TEX sectors serviced per cycle (per SM)
    lsu_sectors_per_cycle: float = 4.0
    #: backlog (cycles of queued work) above which LG throttling starts
    lg_queue_depth: float = 48.0
    #: shared-memory transactions (wavefronts) per cycle
    mio_transactions_per_cycle: float = 1.0
    mio_queue_depth: float = 24.0
    #: texture quads per cycle
    tex_requests_per_cycle: float = 0.5
    tex_queue_depth: float = 32.0
    #: MUFU operations per cycle (quarter rate)
    mufu_ops_per_cycle: float = 0.25

    # -- caches (sizes per simulated SM; L2/DRAM are the SM's slice) -----
    l1_bytes: int = 128 * 1024
    l1_line_bytes: int = 128
    l1_assoc: int = 4
    l2_bytes: int = 6 * 1024 * 1024 // 80
    l2_line_bytes: int = 128
    l2_assoc: int = 16
    sector_bytes: int = 32
    #: L2 sectors per cycle (per-SM share of L2 bandwidth)
    l2_sectors_per_cycle: float = 1.6
    #: DRAM sectors per cycle (per-SM share of ~900 GB/s)
    dram_sectors_per_cycle: float = 0.25

    # -- texture cache (part of L1TEX, modelled separately) --------------
    tex_cache_bytes: int = 32 * 1024
    #: texture data is stored tiled; tile shape in texels (x, y)
    tex_tile_x: int = 8
    tex_tile_y: int = 4

    # -- shared memory ----------------------------------------------------
    smem_banks: int = 32
    smem_bank_bytes: int = 4

    # -- atomics ----------------------------------------------------------
    #: unique-address atomic operations retired per cycle at the L2 slice
    atomic_ops_per_cycle: float = 0.5

    @staticmethod
    def v100() -> "GPUSpec":
        """The paper's evaluation platform (Tesla V100, Volta)."""
        return GPUSpec()

    @staticmethod
    def small(num_sms: int = 1) -> "GPUSpec":
        """A correctness-testing configuration: every block is simulated
        (functional outputs are complete) and caches are small so that
        capacity behaviour shows up at test-sized problems."""
        return GPUSpec(
            name=f"sim-small-{num_sms}sm",
            num_sms=num_sms,
            l1_bytes=16 * 1024,
            l2_bytes=64 * 1024,
            tex_cache_bytes=8 * 1024,
        )

    def with_(self, **kwargs) -> "GPUSpec":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)

    @property
    def max_warps_per_sm(self) -> int:
        return self.limits.max_warps

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block shape of one kernel launch (2D is sufficient for the
    paper's workloads; a third dimension would be mechanical)."""

    grid: tuple[int, int] = (1, 1)
    block: tuple[int, int] = (128, 1)

    def __post_init__(self) -> None:
        gx, gy = self.grid
        bx, by = self.block
        if gx < 1 or gy < 1 or bx < 1 or by < 1:
            raise LaunchError("grid/block dimensions must be positive")
        if bx * by > 1024:
            raise LaunchError("more than 1024 threads per block")

    @property
    def threads_per_block(self) -> int:
        return self.block[0] * self.block[1]

    @property
    def warps_per_block(self) -> int:
        return -(-self.threads_per_block // WARP)

    @property
    def num_blocks(self) -> int:
        return self.grid[0] * self.grid[1]
