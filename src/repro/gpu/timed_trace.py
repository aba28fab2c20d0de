"""Trace-decoupled timed execution: batched functional pass + effect trace.

The legacy timed wave interleaves *what each warp does* (``Executor.step``,
one Python call per warp-instruction) with *when the hardware lets it
issue* (the event-heap in :class:`~repro.gpu.scheduler.SMScheduler`).
Only the second half needs the heap; the first half is exactly what the
batched lockstep engine (:mod:`repro.gpu.batch`) already does two orders
of magnitude faster.

This module runs a wave's warps through the batched engine once while
recording a compact **effect trace**: the global row stream of executed
PCs, each warp's row *segments* (contiguous ``[start, end)`` runs of the
row stream — one segment per warp while the pack stays lockstep, more
when the pack splits into subgroups at a divergent branch), and per-row
structure-of-arrays payloads for the data-dependent parts of each
:class:`~repro.gpu.executor.Effect` (coalesced sector lists, shared-bank
transactions, atomic contention counts).  ``SMScheduler.run_wave_trace``
then replays the trace through the unchanged heap/scoreboard/stall
logic, so cycles, counters and PC-sample streams are bit-identical to
the legacy interleaved path.

Payload packing is **column-sweep deferred**: the emitter holds raw
references to each row's address/guard arrays while the build runs and,
at :meth:`TraceEmitter.finish`, stacks all rows of the same kind into
one ``(rows * n_warps, 32)`` matrix per group, so per-warp coalescing /
bank-conflict analysis happens in a handful of large NumPy column
operations instead of one small call per row.

Cache-hierarchy lookups are deliberately **not** recorded: the L1/TEX/L2
sector caches are stateful LRUs whose results depend on global access
order, so the consumer performs them at replay time in issue order —
exactly where the legacy path would.

Float atomics retire in pack order during the trace build but in heap
order on the legacy path, and float addition is not associative.  A
global ``RED`` on floats is handled by **order-tagged deferral**: the
build records each warp's lane addresses/values without committing, and
the consumer applies them at that warp's issue — i.e. in legacy commit
order — which is sound exactly when no later instruction can observe
the un-committed device memory (no global-memory access at a higher PC;
loops around the atomic are already rejected by functional
batchability).  Programs with float atomics outside that shape fall
back to the legacy timed wave (:func:`timed_batchable`).

A pack that dissolves mid-build (partial-lane divergence, or a
subgroup split that would break a barrier) or raises is rolled back —
global-memory stores and atomics are undone from a pre-image log — and
the wave re-runs on the legacy path with pristine warps, reproducing
legacy results (and legacy errors) exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.testing.faultinject import fail_point
from repro.gpu.batch import BatchEngine, WarpPack, batchable
from repro.gpu.caches import line_groups
from repro.gpu.coalesce import coalesce_sectors
from repro.gpu.executor import Executor
from repro.gpu.predecode import ATOM_F64, ATOM_U32, PredecodedProgram

__all__ = ["TimedTrace", "TraceEmitter", "build_timed_trace",
           "timed_batchable"]

#: sorts after every real sector/word id (addresses are < 2**41)
_SENTINEL = np.int64(1) << 62

#: deferred-atomic op codes (resolved against the *consumer's* device
#: memory at replay time — a cached trace may replay against a different
#: DeviceMemory object than the one it was built on)
RED_F32 = 1
RED_F64 = 2

#: instruction bases that read or write flat device memory (shared and
#: local memory live elsewhere and cannot observe a deferred commit)
_DEVICE_MEM_BASES = ("LDG", "STG", "RED", "ATOM", "TEX")


def timed_batchable(decoded: PredecodedProgram) -> bool:
    """Whether a program is eligible for the trace-driven timed path.

    Functional batchability, plus every float atomic must be a global
    ``RED`` (fire-and-forget, no destination) with no device-memory
    access at any higher PC — the shape the consumer can replay in
    legacy commit order via deferral (see module docstring).  Float
    ``ATOM`` (returns the old value) and shared ``ATOMS`` stay
    ineligible: their results feed back into the build.
    """
    if not batchable(decoded):
        return False
    float_pcs = [
        d.pc for d in decoded.table
        if d.base in ("RED", "ATOM", "ATOMS") and d.atom_kind != ATOM_U32
    ]
    if not float_pcs:
        return True
    # batchable() caps this at one float-atomic PC, outside any loop
    for d in decoded.table:
        if d.pc in float_pcs and d.base != "RED":
            return False
        if d.pc > float_pcs[-1] and d.base in _DEVICE_MEM_BASES:
            return False
    return True


# ---------------------------------------------------------------------------
# vectorised payload packing (column-sweep equivalents of coalesce.py)
# ---------------------------------------------------------------------------

def _pool_line_groups(offs_arr: np.ndarray, pool_arr: np.ndarray,
                      line_bytes: int, sector_bytes: int) -> list:
    """Per-warpslot :func:`~repro.gpu.caches.line_groups` over a packed
    pool, vectorized: one group per run of same-line sectors, with
    ``i:j`` absolute into the shared pool (no slicing at replay)."""
    spl = line_bytes // sector_bytes
    n_rows = len(offs_arr) - 1
    n = len(pool_arr)
    if n == 0:
        return [()] * n_rows
    lines = pool_arr // line_bytes
    bits = np.int64(1) << ((pool_arr // sector_bytes) % spl)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(lines[1:], lines[:-1], out=starts[1:])
    ob = offs_arr[:-1]
    starts[ob[ob < n]] = True  # a warp boundary always starts a group
    gs = np.flatnonzero(starts)
    masks = np.bitwise_or.reduceat(bits, gs)
    ge = np.empty(len(gs), dtype=np.int64)
    ge[:-1] = gs[1:]
    ge[-1] = n
    gw = np.searchsorted(offs_arr, gs, side="right") - 1
    per: list[list] = [[] for _ in range(n_rows)]
    for w, ln, mk, i, j in zip(gw.tolist(), lines[gs].tolist(),
                               masks.tolist(), gs.tolist(), ge.tolist()):
        per[w].append((ln, mk, j - i, i, j))
    return [tuple(g) for g in per]


def _pack_coalesce(addrs: np.ndarray, nbytes: int, guard: np.ndarray,
                   sector_bytes: int,
                   line_bytes: int) -> tuple[list, list, list]:
    """Per-warp :func:`coalesce_sectors` over a ``(n, 32)`` pack.

    Returns ``(offs, pool, groups)``: row ``w`` touches byte-addressed
    sectors ``pool[offs[w]:offs[w + 1]]``, ascending — exactly the
    values the scalar helper returns for that row's lanes — and
    ``groups[w]`` is that slice's precomputed line-group structure for
    :meth:`~repro.gpu.caches.SectorCache.probe_pool_grouped`.  ``offs``
    and ``pool`` are plain Python lists: the consumer's cache walk does
    per-sector integer arithmetic, which is several times faster on
    ``int`` than on NumPy scalars.  ``n`` may be a whole group of trace
    rows stacked warp-major (the column-sweep pack: ``rows * n_warps``
    entries).
    """
    n = addrs.shape[0]
    first = addrs // sector_bytes
    last = (addrs + (nbytes - 1)) // sector_bytes
    straddle = (first != last) & guard
    if straddle.any():
        if ((last - first) > 1)[guard].any():
            # accesses wider than a sector: exact per-warp fallback
            # (the ISA's 4..16-byte accesses never reach this)
            pools = [coalesce_sectors(addrs[i], nbytes, guard[i],
                                      sector_bytes) for i in range(n)]
            offs = [0]
            pool: list = []
            groups: list = []
            spl = line_bytes // sector_bytes
            for p in pools:
                o0 = offs[-1]
                sec = p.tolist()
                offs.append(o0 + len(sec))
                pool.extend(sec)
                groups.append(tuple(
                    (ln, mk, c, i + o0, j + o0)
                    for ln, mk, c, i, j in line_groups(
                        sec, line_bytes, sector_bytes, spl)
                ))
            return offs, pool, groups
        cand = np.concatenate([first, last], axis=1)
        valid = np.concatenate([guard, straddle], axis=1)
    else:
        cand = first
        valid = guard
    cand = np.where(valid, cand, _SENTINEL)
    cand.sort(axis=1)  # invalid lanes collect at the row tail
    keep = cand != _SENTINEL
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    counts = keep.sum(axis=1)
    offs_arr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offs_arr[1:])
    # row-major compaction keeps each row's ascending order, matching
    # the per-warp np.unique of the scalar path
    pool_arr = cand[keep] * sector_bytes
    groups = _pool_line_groups(offs_arr, pool_arr, line_bytes,
                               sector_bytes)
    return offs_arr.tolist(), pool_arr.tolist(), groups


def _pack_shared_tx(addrs: np.ndarray, nbytes: int, guard: np.ndarray,
                    banks: int, bank_bytes: int) -> list:
    """Per-warp :func:`~repro.gpu.coalesce.shared_transactions` over a
    ``(n, 32)`` pack; returns one transaction count per row."""
    n = addrs.shape[0]
    tx = np.zeros(n, dtype=np.int64)
    for k in range(max(1, nbytes // bank_bytes)):
        words = np.where(guard, (addrs + k * bank_bytes) // bank_bytes,
                         _SENTINEL)
        words.sort(axis=1)
        keep = words != _SENTINEL
        keep[:, 1:] &= words[:, 1:] != words[:, :-1]
        counts = np.zeros((n, banks), dtype=np.int64)
        r, c = np.nonzero(keep)
        np.add.at(counts, (r, words[r, c] % banks), 1)
        tx += counts.max(axis=1)
    return tx.tolist()


def _pack_unique_counts(addrs: np.ndarray,
                        guard: np.ndarray) -> tuple[list, list]:
    """Per-warp ``np.unique(act, return_counts=True)`` summary: the
    number of distinct guarded addresses and the worst-case same-address
    lane count (serialization depth).  Zeros for guard-empty rows."""
    n, w = addrs.shape
    a = np.where(guard, addrs, _SENTINEL)
    a.sort(axis=1)
    valid = a != _SENTINEL
    keep = valid.copy()
    keep[:, 1:] &= a[:, 1:] != a[:, :-1]
    uniq = keep.sum(axis=1)
    run = np.cumsum(keep, axis=1) - 1  # per-lane run index, < 32
    counts = np.zeros((n, w), dtype=np.int64)
    r, c = np.nonzero(valid)
    np.add.at(counts, (r, run[r, c]), 1)
    return uniq.tolist(), counts.max(axis=1).tolist()


# ---------------------------------------------------------------------------
# the trace
# ---------------------------------------------------------------------------

#: sizing constants of :func:`_payload_bytes`: one list slot plus the
#: boxed int behind it, and one ``dyn`` row (payload tuple + dict slot)
_ELEM_BYTES = 40
_ROW_BYTES = 128


def _column_bytes(col) -> int:
    """Bytes held by one distinct payload column.  The emitter makes
    four shapes: an ndarray, a flat int list (``offs``, ``pool``, ``tx``,
    ``uniq``, ``serial``), a line-group column (per warp slot a tuple of
    5-int groups) and a deferred-commit ``(op, per_warp)`` pair."""
    n = getattr(col, "nbytes", None)
    if n is not None:
        return n
    if type(col) is tuple:
        per_warp = col[1]
        return _ELEM_BYTES * len(per_warp) + sum(
            a.nbytes + v.nbytes for a, v in filter(None, per_warp))
    size = _ELEM_BYTES * len(col)
    if col and type(col[0]) is tuple:
        size += 6 * _ELEM_BYTES * sum(map(len, col))
    return size


def _payload_bytes(trace: "TimedTrace") -> int:
    """What a trace keeps alive, in O(rows + distinct columns): every
    row of a group references the *same* column objects, so columns
    count once (by identity) and each row adds :data:`_ROW_BYTES`."""
    size = _ELEM_BYTES * (len(trace.pcs) + len(trace.block_ids)
                          + 2 * sum(map(len, trace.seg_starts)))
    seen: set[int] = set()
    for payload in trace.dyn.values():
        size += _ROW_BYTES
        for col in payload:
            if col is None or type(col) is int or id(col) in seen:
                continue
            seen.add(id(col))
            size += _column_bytes(col)
    for addrs, vals in trace.post_writes or ():
        size += addrs.nbytes + vals.nbytes
    return size


class TimedTrace:
    """One wave's effect trace (structure-of-arrays).

    ``pcs`` is the global row stream; warp ``i`` executes the rows of
    its segments ``seg_starts[i][k] .. seg_ends[i][k] - 1`` in order (a
    death row — an EXIT or warp-killing BRA — still issues, hence the
    end bound is exclusive past it).  ``dyn`` maps the rows of
    memory/atomic/texture instructions to their group-packed per-warp
    payloads; each payload carries a ``base`` index so warp ``i``'s
    entry lives at ``base + i`` of the group arrays.

    ``post_writes`` is the build's device-memory footprint (address
    array, post-build values), recorded so a content-addressed trace
    cache can reproduce the functional effect of the build without
    re-running it (deferred float atomics are *not* included — they
    commit during replay).

    ``nbytes`` is the payload size the trace cache's byte cap charges
    (:func:`_payload_bytes`), fixed at construction; it travels with
    the pickle, and the lazily built ``plan`` is not part of it.
    """

    __slots__ = ("pcs", "seg_starts", "seg_ends", "dyn", "n_warps",
                 "nregs", "block_ids", "post_writes", "nbytes", "plan")

    def __init__(self, pcs: list, seg_starts: list, seg_ends: list,
                 dyn: dict, n_warps: int, nregs: int, block_ids: list,
                 post_writes: Optional[list] = None):
        self.pcs = pcs
        self.seg_starts = seg_starts
        self.seg_ends = seg_ends
        self.dyn = dyn
        self.n_warps = n_warps
        self.nregs = nregs
        self.block_ids = block_ids
        self.post_writes = post_writes
        self.nbytes = _payload_bytes(self)
        #: per-row issue-plan tuples, filled lazily by the consumer
        #: (:meth:`SMScheduler.run_wave_trace`) on first replay and
        #: reused by every later replay of this trace
        self.plan = None


class TraceEmitter:
    """Collects the effect trace while the batched engine runs.

    Payload packing is deferred: per-row address/guard arrays are held
    by reference (they are freshly allocated per row by the engine) and
    packed group-wise at :meth:`finish`.  Also keeps the pre-image undo
    log for device-memory writes so a dissolved (or failed) build can
    be rolled back before the legacy path replays the wave from
    scratch, and tracks per-warp row segments across pack splits.
    """

    def __init__(self, spec, memory, n_warps: int):
        self.spec = spec
        self.memory = memory
        self.n_warps = n_warps
        self.pcs: list[int] = []
        self.dyn: dict[int, object] = {}
        self.undo: list[tuple[np.ndarray, np.ndarray]] = []
        # per-warp segment bookkeeping (seg_start < 0: closed/suspended)
        self._seg_start = [0] * n_warps
        self._segments: list[list[tuple[int, int]]] = [
            [] for _ in range(n_warps)
        ]
        # pending payload groups: key -> list of per-row records
        self._pend_coal: dict[int, list] = {}      # nbytes -> (row, A, G)
        self._pend_shared: dict[int, list] = {}    # nbytes -> (row, A, G)
        self._pend_atomg: dict[int, list] = {}     # nbytes -> (row, A, G, ap)
        self._pend_atoms: list = []                # (row, A, G)

    # -- row lifecycle ---------------------------------------------------
    def begin_row(self, pc: int) -> None:
        self.pcs.append(pc)

    def deaths(self, newly_dead: np.ndarray) -> None:
        """Close the segments of warps that died executing the current
        row (the death row is included).  Warps already suspended by a
        pack split are skipped — their segments are closed."""
        if newly_dead.any():
            row_end = len(self.pcs)  # death row index + 1
            seg_start = self._seg_start
            for i in np.flatnonzero(newly_dead):
                if seg_start[i] >= 0:
                    self._segments[i].append((seg_start[i], row_end))
                    seg_start[i] = -1

    # -- pack-split lifecycle --------------------------------------------
    def suspend(self, mask: np.ndarray) -> None:
        """Close the segments of warps parked by a pack split (the
        branch row they just executed is included)."""
        self.deaths(mask)

    def resume(self, mask: np.ndarray) -> None:
        """Re-open segments for warps resuming after a pack split."""
        row = len(self.pcs)
        seg_start = self._seg_start
        for i in np.flatnonzero(mask):
            seg_start[i] = row

    # -- per-row payloads (deferred) -------------------------------------
    def global_row(self, addrs: np.ndarray, nbytes: int,
                   guard: np.ndarray) -> None:
        self._pend_coal.setdefault(nbytes, []).append(
            (len(self.pcs) - 1, addrs, guard))

    def shared_row(self, addrs: np.ndarray, nbytes: int,
                   guard: np.ndarray) -> None:
        self._pend_shared.setdefault(nbytes, []).append(
            (len(self.pcs) - 1, addrs, guard))

    def atomic_global_row(self, addrs: np.ndarray, nbytes: int,
                          guard: np.ndarray, apply=None) -> None:
        """``apply`` is ``None`` for associative (u32) atomics that the
        build commits itself, else ``(op_code, per_warp)`` where
        ``per_warp[i]`` is ``(lane_addrs, lane_values)`` or ``None`` —
        the deferred float commit the consumer replays at issue."""
        self._pend_atomg.setdefault(nbytes, []).append(
            (len(self.pcs) - 1, addrs, guard, apply))

    def atomic_shared_row(self, addrs: np.ndarray,
                          guard: np.ndarray) -> None:
        self._pend_atoms.append((len(self.pcs) - 1, addrs, guard))

    # -- undo log --------------------------------------------------------
    def capture_undo(self, addrs: np.ndarray) -> None:
        """Record the pre-image of device words about to be written
        (``read_u32`` bounds-checks, so out-of-range addresses raise
        before anything is logged — the same error the write would)."""
        self.undo.append((addrs, self.memory.read_u32(addrs)))

    def rollback(self) -> None:
        """Restore device memory to its pre-build state.  Reverse order
        makes overlapping captures resolve to the earliest pre-image."""
        for addrs, vals in reversed(self.undo):
            self.memory.write_u32(addrs, vals)
        self.undo.clear()

    # -- column-sweep packing --------------------------------------------
    def _stack(self, items: list, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Stack a group's per-row ``(n_warps, 32)`` arrays warp-major
        into one ``(rows * n_warps, 32)`` matrix."""
        if len(items) == 1:
            return items[0][1], items[0][2]
        return (np.concatenate([it[1] for it in items], axis=0),
                np.concatenate([it[2] for it in items], axis=0))

    def finish(self, pack: WarpPack) -> TimedTrace:
        """Pack the pending groups and seal the trace, ``post_writes``
        (the post-build image of every logged device word) included."""
        n = self.n_warps
        n_rows = len(self.pcs)
        spec = self.spec
        dyn = self.dyn
        for nbytes, items in self._pend_coal.items():
            A, G = self._stack(items, 1)
            offs, pool, groups = _pack_coalesce(A, nbytes, G,
                                                spec.sector_bytes,
                                                spec.l1_line_bytes)
            for r, it in enumerate(items):
                dyn[it[0]] = (offs, pool, r * n, groups)
        for nbytes, items in self._pend_shared.items():
            A, G = self._stack(items, 1)
            tx = _pack_shared_tx(A, nbytes, G, spec.smem_banks,
                                 spec.smem_bank_bytes)
            for r, it in enumerate(items):
                dyn[it[0]] = (tx, r * n)
        for nbytes, items in self._pend_atomg.items():
            A, G = self._stack(items, 1)
            offs, pool, groups = _pack_coalesce(A, nbytes, G,
                                                spec.sector_bytes,
                                                spec.l1_line_bytes)
            uniq, serial = _pack_unique_counts(A, G)
            for r, it in enumerate(items):
                dyn[it[0]] = (offs, pool, r * n, uniq, serial, it[3],
                              groups)
        if self._pend_atoms:
            items = self._pend_atoms
            A, G = self._stack(items, 1)
            tx = _pack_shared_tx(A, 4, G, spec.smem_banks,
                                 spec.smem_bank_bytes)
            uniq, serial = _pack_unique_counts(A, G)
            for r, it in enumerate(items):
                dyn[it[0]] = (tx, uniq, serial, r * n)
        # segments: a warp still open at finish closes at the last row
        seg_start = self._seg_start
        segments = self._segments
        for i in range(n):
            if seg_start[i] >= 0:
                segments[i].append((seg_start[i], n_rows))
                seg_start[i] = -1
        return TimedTrace(
            pcs=self.pcs,
            seg_starts=[[s for s, _ in segs] for segs in segments],
            seg_ends=[[e for _, e in segs] for segs in segments],
            dyn=dyn,
            n_warps=pack.n,
            nregs=pack.nregs,
            block_ids=pack.block_of.tolist(),
            post_writes=[(addrs, self.memory.read_u32(addrs))
                         for addrs, _ in self.undo],
        )


class _TracingEngine(BatchEngine):
    """Batched engine that emits effect payloads as it executes.

    Each override emits *before* delegating so rows are recorded even
    when the guard is empty — the legacy handlers compute sector/bank
    footprints for guard-false issues too (they still book resources).
    Global stores and associative atomics additionally capture undo
    pre-images; float ``RED`` commits are deferred to the consumer
    (legacy commit order) and recorded per warp instead.
    """

    def __init__(self, executor: Executor, emitter: TraceEmitter):
        super().__init__(executor)
        self.emit = emitter

    def _b_ldg(self, pack, dec, guard) -> None:
        self.emit.global_row(self._addrs(pack, dec.ops[1]),
                             4 * dec.width_regs, guard)
        super()._b_ldg(pack, dec, guard)

    def _b_stg(self, pack, dec, guard) -> None:
        addrs = self._addrs(pack, dec.ops[0])
        self.emit.global_row(addrs, 4 * dec.width_regs, guard)
        if guard.any():
            act = addrs[guard]
            for k in range(dec.width_regs):
                self.emit.capture_undo(act + 4 * k)
        super()._b_stg(pack, dec, guard)

    def _b_lds(self, pack, dec, guard) -> None:
        self.emit.shared_row(self._addrs(pack, dec.ops[1]),
                             4 * dec.width_regs, guard)
        super()._b_lds(pack, dec, guard)

    def _b_sts(self, pack, dec, guard) -> None:
        self.emit.shared_row(self._addrs(pack, dec.ops[0]),
                             4 * dec.width_regs, guard)
        super()._b_sts(pack, dec, guard)

    def _b_red(self, pack, dec, guard) -> None:
        addrs = self._addrs(pack, dec.ops[0])
        if dec.atom_kind == ATOM_U32:
            self.emit.atomic_global_row(addrs, 4, guard)
            if guard.any():
                self.emit.capture_undo(addrs[guard])
            super()._b_red(pack, dec, guard)
            return
        # float RED: defer the non-associative commit to the consumer,
        # which applies each warp's lanes at its issue time — the legacy
        # commit order.  Boolean-mask indexing copies, so the recorded
        # values are immune to later register-file mutation.
        if dec.atom_kind == ATOM_F64:
            nbytes, code = 8, RED_F64
            vals = self._rf64(pack, dec.ops[1])
        else:
            nbytes, code = 4, RED_F32
            vals = self._rf32(pack, dec.ops[1])
        per_warp = []
        for i in range(pack.n):
            g = guard[i]
            if g.any():
                per_warp.append((addrs[i][g], vals[i][g]))
            else:
                per_warp.append(None)
        self.emit.atomic_global_row(addrs, nbytes, guard,
                                    apply=(code, per_warp))

    def _b_atoms(self, pack, dec, guard) -> None:
        self.emit.atomic_shared_row(self._addrs(pack, dec.ops[0]), guard)
        super()._b_atoms(pack, dec, guard)

    def _b_tex(self, pack, dec, guard) -> None:
        layout = self.textures.get(dec.tex_slot)
        if layout is None:
            raise SimulationError(f"no texture bound to slot {dec.tex_slot}")
        x = self._rs32(pack, dec.ops[1]).astype(np.int64)
        y = self._rs32(pack, dec.ops[2]).astype(np.int64)
        self.emit.global_row(layout.addresses(x, y), layout.elem_bytes,
                             guard)
        super()._b_tex(pack, dec, guard)


def build_timed_trace(executor: Executor, config, wave,
                      capture=None) -> Optional[TimedTrace]:
    """Execute one timed wave functionally and record its effect trace.

    ``wave`` is the wave's linear block ids; the pack is built from
    ``config`` (a :class:`~repro.gpu.simulator.LaunchConfig`) without
    any per-warp object.  Returns ``None`` when the pack dissolves
    (partial-lane divergence, or a subgroup split a barrier cannot
    survive) or any error occurs; device memory is rolled back in
    either case so the caller can build pristine warps and replay the
    wave — results and errors included — on the legacy interleaved
    path.

    On success the trace carries ``post_writes`` — the post-build values
    of every device word the build wrote — so a trace cache can replay
    the build's functional effect on a later bit-identical launch.

    ``capture`` is an optional
    :class:`~repro.obs.timeline_capture.TimelineCapture`: wave-boundary
    annotations (built / dissolved, with row counts) are recorded on it.
    The capture never influences the build — it is written to only
    after the outcome is decided.
    """
    fail_point("trace.build")
    pack = WarpPack(executor.program, config, wave)
    emitter = TraceEmitter(executor.spec, executor.memory, pack.n)
    engine = _TracingEngine(executor, emitter)
    try:
        _, diverged_at = engine.run(pack)
    except SimulationError:
        emitter.rollback()
        if capture is not None:
            capture.note_wave("dissolve", pack.n,
                              detail="build error; legacy replay")
        return None
    if diverged_at is not None:
        emitter.rollback()
        if capture is not None:
            capture.note_wave("dissolve", pack.n,
                              detail="divergent wave; legacy replay")
        return None
    trace = emitter.finish(pack)
    if capture is not None:
        capture.note_wave("trace", pack.n,
                          detail=f"{len(trace.pcs)} trace rows")
    return trace
