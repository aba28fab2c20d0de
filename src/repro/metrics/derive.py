"""Metric derivation functions: counters -> ncu-style values.

Each deriver takes a :class:`~repro.gpu.simulator.LaunchResult` and
returns a float.  Device-level counters are used (the simulated SM's
share scaled by ``num_sms``), matching what ncu reports.  The composite
formulas follow the paper:

* §2.3  ``#SMs * (% cache miss) * (local memory instructions)`` — L2
  queries due to local memory;
* §4.2  ``({L1,L2} miss %) * (bytes requested from cache)``;
* §4.3  ``shared load transactions / shared load accesses`` — the
  number-of-ways bank-conflict estimate ncu does not expose directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import MetricError

if TYPE_CHECKING:
    from repro.gpu.simulator import LaunchResult

__all__ = ["derive_metric", "DERIVERS"]

SECTOR = 32  # bytes


def _pct(numer: float, denom: float) -> float:
    return 100.0 * numer / denom if denom else 0.0


def _c(result: LaunchResult):
    return result.device_counters


DERIVERS: dict[str, Callable[[LaunchResult], float]] = {}


def _register(name: str):
    def deco(fn: Callable[[LaunchResult], float]):
        DERIVERS[name] = fn
        return fn

    return deco


# -- execution -------------------------------------------------------------


@_register("sm__cycles_elapsed.avg")
def _cycles(r: LaunchResult) -> float:
    return r.cycles


@_register("gpu__time_duration.sum")
def _duration_us(r: LaunchResult) -> float:
    return r.duration_s * 1e6


@_register("smsp__inst_executed.sum")
def _inst(r: LaunchResult) -> float:
    return float(_c(r).inst_issued)


@_register("launch__registers_per_thread")
def _regs(r: LaunchResult) -> float:
    return float(r.compiled.program.registers_per_thread)


@_register("launch__shared_mem_per_block_static")
def _smem(r: LaunchResult) -> float:
    return float(r.compiled.program.shared_bytes)


@_register("launch__local_mem_per_thread")
def _localmem(r: LaunchResult) -> float:
    return float(r.compiled.program.local_bytes_per_thread)


@_register("sm__warps_active.avg.pct_of_peak_sustained_active")
def _occupancy(r: LaunchResult) -> float:
    return 100.0 * r.achieved_occupancy


@_register("sm__maximum_warps_avg_per_active_cycle_pct")
def _occupancy_theo(r: LaunchResult) -> float:
    return 100.0 * r.theoretical_occupancy


@_register("derived__issue_slot_utilization.pct")
def _issue_util(r: LaunchResult) -> float:
    """Issued instructions over available issue slots (4/SM/cycle)."""
    c = _c(r)
    slots = r.cycles * 4 * r.spec.num_sms
    return _pct(c.inst_issued, slots)


@_register("derived__avg_active_warps")
def _avg_warps(r: LaunchResult) -> float:
    """Average resident unfinished warps over the kernel duration."""
    if r.cycles <= 0:
        return 0.0
    return _c(r).warp_cycles_active / (r.cycles * r.spec.num_sms)


# -- global memory ----------------------------------------------------------


@_register("smsp__inst_executed_op_global_ld.sum")
def _gld_inst(r: LaunchResult) -> float:
    return float(_c(r).global_load_instructions)


@_register("smsp__inst_executed_op_global_st.sum")
def _gst_inst(r: LaunchResult) -> float:
    return float(_c(r).global_store_instructions)


@_register("l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum")
def _gld_sectors(r: LaunchResult) -> float:
    return float(_c(r).global_load_sectors)


@_register("l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum")
def _gst_sectors(r: LaunchResult) -> float:
    return float(_c(r).global_store_sectors)


@_register("l1tex__t_bytes_pipe_lsu_mem_global_op_ld.sum")
def _gld_bytes(r: LaunchResult) -> float:
    return float(_c(r).global_load_sectors * SECTOR)


@_register("l1tex__t_sector_pipe_lsu_mem_global_op_ld_hit_rate.pct")
def _gld_l1_hit(r: LaunchResult) -> float:
    c = _c(r)
    return _pct(c.global_load_l1_hits,
                c.global_load_l1_hits + c.global_load_l1_misses)


@_register("derived__l1_global_load_miss_pct")
def _gld_l1_miss(r: LaunchResult) -> float:
    return 100.0 - _gld_l1_hit(r)


@_register("derived__sectors_per_global_load")
def _sectors_per_load(r: LaunchResult) -> float:
    c = _c(r)
    if not c.global_load_instructions:
        return 0.0
    return c.global_load_sectors / c.global_load_instructions


# -- local memory (spills) ----------------------------------------------------


@_register("smsp__inst_executed_op_local_ld.sum")
def _lld_inst(r: LaunchResult) -> float:
    return float(_c(r).local_load_instructions)


@_register("smsp__inst_executed_op_local_st.sum")
def _lst_inst(r: LaunchResult) -> float:
    return float(_c(r).local_store_instructions)


@_register("l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum")
def _lld_sectors(r: LaunchResult) -> float:
    return float(_c(r).local_load_sectors)


@_register("l1tex__t_sectors_pipe_lsu_mem_local_op_st.sum")
def _lst_sectors(r: LaunchResult) -> float:
    return float(_c(r).local_store_sectors)


@_register("derived__l1_local_miss_pct")
def _local_l1_miss(r: LaunchResult) -> float:
    c = _c(r)
    return _pct(c.local_l1_misses, c.local_l1_hits + c.local_l1_misses)


@_register("derived__l2_queries_due_to_local_memory")
def _l2_local_queries(r: LaunchResult) -> float:
    """Paper §2.3: #SMs * (% cache miss) * (local memory instructions)."""
    c = _c(r)
    local_inst = c.local_load_instructions + c.local_store_instructions
    if not local_inst:
        return 0.0
    miss = _local_l1_miss(r) / 100.0
    # device counters already include the #SMs factor
    return miss * local_inst


@_register("derived__local_bytes_to_l2")
def _local_bytes_l2(r: LaunchResult) -> float:
    """Paper §4.2: (L1 miss %) * (bytes requested from L1)."""
    c = _c(r)
    total_sectors = c.local_load_sectors + c.local_store_sectors
    return (_local_l1_miss(r) / 100.0) * total_sectors * SECTOR


@_register("derived__local_traffic_share_of_l2.pct")
def _local_l2_share(r: LaunchResult) -> float:
    c = _c(r)
    return _pct(c.l2_sectors_by_space.get("local", 0), c.l2_sectors_total)


# -- L2 / DRAM ----------------------------------------------------------------


@_register("lts__t_sectors.sum")
def _l2_sectors(r: LaunchResult) -> float:
    return float(_c(r).l2_sectors_total)


@_register("lts__t_sector_hit_rate.pct")
def _l2_hit(r: LaunchResult) -> float:
    c = _c(r)
    hits = sum(c.l2_hits_by_space.values())
    return _pct(hits, c.l2_sectors_total)


@_register("lts__t_sectors_srcunit_tex_op_read.sum")
def _l2_from_tex(r: LaunchResult) -> float:
    return float(_c(r).l2_sectors_by_space.get("texture", 0))


@_register("dram__sectors.sum")
def _dram_sectors(r: LaunchResult) -> float:
    return float(_c(r).dram_sectors)


@_register("dram__bytes.sum")
def _dram_bytes(r: LaunchResult) -> float:
    return float(_c(r).dram_sectors * SECTOR)


# -- shared memory -------------------------------------------------------------


@_register("smsp__inst_executed_op_shared_ld.sum")
def _sld_inst(r: LaunchResult) -> float:
    return float(_c(r).shared_load_instructions)


@_register("smsp__inst_executed_op_shared_st.sum")
def _sst_inst(r: LaunchResult) -> float:
    return float(_c(r).shared_store_instructions)


@_register("l1tex__data_pipe_lsu_wavefronts_mem_shared_op_ld.sum")
def _sld_tx(r: LaunchResult) -> float:
    return float(_c(r).shared_load_transactions)


@_register("l1tex__data_pipe_lsu_wavefronts_mem_shared_op_st.sum")
def _sst_tx(r: LaunchResult) -> float:
    return float(_c(r).shared_store_transactions)


@_register("derived__smem_ld_bank_conflict_ways")
def _bank_ways(r: LaunchResult) -> float:
    """Paper §4.3: shared load transactions / shared load accesses.

    1.0 means conflict-free; 32.0 means fully serialized."""
    c = _c(r)
    if not c.shared_load_instructions:
        return 0.0
    return c.shared_load_transactions / c.shared_load_instructions


@_register("derived__smem_efficiency.pct")
def _smem_eff(r: LaunchResult) -> float:
    ways = _bank_ways(r)
    return 100.0 / ways if ways else 0.0


# -- texture --------------------------------------------------------------------


@_register("l1tex__texin_requests.sum")
def _tex_requests(r: LaunchResult) -> float:
    return float(_c(r).texture_instructions)


@_register("l1tex__t_sectors_pipe_tex.sum")
def _tex_sectors(r: LaunchResult) -> float:
    return float(_c(r).texture_sectors)


@_register("l1tex__t_bytes_pipe_tex.sum")
def _tex_bytes(r: LaunchResult) -> float:
    return float(_c(r).texture_sectors * SECTOR)


@_register("derived__tex_cache_miss_pct")
def _tex_miss(r: LaunchResult) -> float:
    c = _c(r)
    return _pct(c.texture_misses, c.texture_hits + c.texture_misses)


# -- atomics --------------------------------------------------------------------


@_register("smsp__inst_executed_op_global_atom.sum")
def _gatom(r: LaunchResult) -> float:
    return float(_c(r).global_atomic_instructions)


@_register("smsp__inst_executed_op_shared_atom.sum")
def _satom(r: LaunchResult) -> float:
    return float(_c(r).shared_atomic_instructions)


@_register("derived__atomic_l2_resolution_pct")
def _atom_l2(r: LaunchResult) -> float:
    c = _c(r)
    return _pct(c.atomic_l2_hits, c.atomic_l2_hits + c.atomic_l2_misses)


# -- conversions -----------------------------------------------------------------


@_register("smsp__sass_inst_executed_op_conversion.sum")
def _conversions(r: LaunchResult) -> float:
    return float(_c(r).conversion_instructions)


def derive_metric(name: str, result: LaunchResult) -> float:
    """Compute metric ``name`` for ``result``.

    Raises :class:`~repro.errors.MetricError` for unknown names."""
    fn = DERIVERS.get(name)
    if fn is None:
        raise MetricError(f"unknown metric {name!r}")
    return fn(result)
