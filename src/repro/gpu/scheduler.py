"""Per-SM warp scheduling and timing model.

The model is *event-driven at instruction granularity*: instead of
ticking every cycle, each warp carries the earliest cycle its next
instruction can issue, together with the binding constraint (the stall
reason).  An issue-ordered heap replays the SM's four scheduler
sub-partitions (one issue per sub-partition per cycle).

Stall attribution: when a warp issues at ``t`` after becoming eligible
to fetch at ``t0``, the gap is split into the dependency/structural part
(attributed to the recorded reason at the stalled PC — exactly what
CUPTI PC sampling estimates statistically) and the arbitration part
(``not_selected``).

Structural resources (L1TEX/LSU sector throughput, MIO shared-memory
pipe, TEX pipe, MUFU, the L2 slice and DRAM) are modelled as busy-until
timelines with service rates; a warp whose next instruction targets a
pipe with a backlog above the queue depth stalls with the corresponding
``*_throttle`` reason — the mechanism behind ``lg_throttle`` for
register spills (§4.2) and ``tex_throttle`` after texture adoption
(§5.2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.testing.faultinject import fail_point
from repro.gpu.budget import SimBudget
from repro.gpu.caches import MemoryHierarchy, line_groups
from repro.gpu.config import GPUSpec
from repro.gpu.counters import Counters
from repro.gpu.executor import Effect, Executor, WarpState, static_effect_table
from repro.gpu.stalls import StallReason
from repro.sass.isa import OpClass, Program

__all__ = ["Timeline", "SMScheduler"]

#: how many issues pass between two budget checks inside a wave —
#: coarse enough to stay off the hot path, fine enough that a runaway
#: kernel is caught within a fraction of a wall-clock second
_BUDGET_STRIDE = 256

#: dependency-kind codes stored per register
_KIND_WAIT = 0
_KIND_LONG = 1
_KIND_SHORT = 2
_KIND_REASON = {
    _KIND_WAIT: StallReason.WAIT,
    _KIND_LONG: StallReason.LONG_SCOREBOARD,
    _KIND_SHORT: StallReason.SHORT_SCOREBOARD,
}


@dataclass
class Timeline:
    """A pipelined resource with a service rate (units per cycle)."""

    rate: float
    next_free: float = 0.0

    def book(self, t: float, units: float) -> float:
        """Reserve ``units`` starting no earlier than ``t``; returns the
        completion time."""
        start = max(t, self.next_free)
        self.next_free = start + units / self.rate
        return self.next_free

    def backlog(self, t: float) -> float:
        return max(0.0, self.next_free - t)

    def ready_after_backlog(self, depth: float) -> float:
        """Earliest time at which the backlog is at most ``depth``."""
        return self.next_free - depth


class _WarpRT:
    """Scheduling state wrapped around a :class:`WarpState`."""

    __slots__ = (
        "state", "index", "subpartition", "earliest", "reg_ready",
        "reg_kind", "forced_wait", "forced_reason", "start_time",
        "finish_time", "at_barrier",
    )

    def __init__(self, state: WarpState, index: int, subpartition: int,
                 nregs: int, start_time: float):
        self.state = state
        self.index = index
        self.subpartition = subpartition
        self.earliest = start_time  # end of previous issue slot
        self.reg_ready = np.zeros(nregs, dtype=np.float64)
        self.reg_kind = np.zeros(nregs, dtype=np.int8)
        self.forced_wait: float = 0.0
        self.forced_reason: Optional[StallReason] = None
        self.start_time = start_time
        self.finish_time = start_time
        self.at_barrier = False


class _PCMeta:
    """Per-PC timing metadata for the trace consumer.

    Everything :meth:`SMScheduler.run_wave_trace` needs about an
    instruction that does not depend on run-time data: the dispatch code,
    destination/source registers, structural pipe, issue cost and the
    L1-level hit latency.  Derived once per scheduler from
    :func:`~repro.gpu.executor.static_effect_table`.
    """

    __slots__ = ("code", "kind", "opname", "dests", "srcs", "pipe",
                 "issue_cost", "access_space", "write", "sub", "conv",
                 "static_sectors", "static_len", "static_groups",
                 "hit_lat", "fix_lat")

    def __init__(self):
        self.code = 0
        self.kind = ""
        self.opname = ""
        self.dests = ()
        self.srcs = ()
        self.pipe = 0
        self.issue_cost = 1.0
        self.access_space = ""
        self.write = False
        self.sub = 0
        self.conv = False
        self.static_sectors = None
        self.static_len = -1
        self.static_groups = ()
        self.hit_lat = 0.0
        #: result latency for the fixed-latency dispatch codes (0/1/2)
        self.fix_lat = 0.0


class _TraceRT:
    """Scheduling state for one warp replayed from an effect trace.

    The per-warp scoreboard mirrors :class:`_WarpRT` but uses plain
    Python lists (faster scalar indexing than NumPy in the hot loop —
    the arithmetic is identical IEEE-double math either way).

    ``row`` walks this warp's trace-row *segments* (``segs_s[k]`` to
    ``segs_e[k] - 1``; a single ``[0, n_rows)`` segment for lockstep
    kernels, several after pack splits); ``row < 0`` marks a finished
    warp.  ``dep``/``dep_reason`` cache the dependency half of the
    ready computation at push time — a warp has at most one pending
    heap entry and nothing can touch its scoreboard while it waits, so
    only the structural-pipe half needs recomputing at pop.
    """

    __slots__ = (
        "row", "seg_end", "seg_k", "segs_s", "segs_e", "index", "block_id",
        "subpartition", "earliest", "reg_ready", "reg_kind", "forced_wait",
        "forced_reason", "start_time", "finish_time", "at_barrier",
        "dep", "dep_reason",
    )

    def __init__(self, index: int, subpartition: int, nregs: int,
                 start_time: float, segs_s: list, segs_e: list,
                 block_id: int):
        self.segs_s = segs_s
        self.segs_e = segs_e
        self.seg_k = 0
        self.row = segs_s[0]
        self.seg_end = segs_e[0]
        self.index = index
        self.block_id = block_id
        self.subpartition = subpartition
        self.earliest = start_time
        self.reg_ready = [0.0] * nregs
        self.reg_kind = [0] * nregs
        self.forced_wait = 0.0
        self.forced_reason: Optional[StallReason] = None
        self.start_time = start_time
        self.finish_time = start_time
        self.at_barrier = False
        self.dep = start_time
        self.dep_reason: Optional[StallReason] = None


class SMScheduler:
    """Runs one wave of resident blocks on one SM."""

    def __init__(
        self,
        spec: GPUSpec,
        executor: Executor,
        hierarchy: MemoryHierarchy,
        counters: Counters,
        trace=None,
        budget: Optional[SimBudget] = None,
    ):
        self.spec = spec
        self.executor = executor
        self.hierarchy = hierarchy
        self.counters = counters
        #: optional :class:`~repro.gpu.trace.TraceRecorder` or
        #: :class:`~repro.obs.timeline_capture.TimelineCapture`; both
        #: paths call ``trace.record(...)`` once per issue.  A capture
        #: additionally attaches to the scheduler so its counter-track
        #: samples can *read* the memory-unit timelines (never mutate —
        #: capture must not perturb the simulation).
        self.trace = trace
        if trace is not None:
            attach = getattr(trace, "attach", None)
            if attach is not None:
                attach(self)
        #: optional :class:`~repro.gpu.budget.SimBudget` checked every
        #: ``_BUDGET_STRIDE`` issues (None on the unguarded happy path)
        self.budget = budget
        self.program: Program = executor.program
        # SM-lifetime resources (persist across waves)
        self.lsu = Timeline(spec.lsu_sectors_per_cycle)
        self.mio = Timeline(spec.mio_transactions_per_cycle)
        self.tex = Timeline(spec.tex_requests_per_cycle)
        self.mufu = Timeline(spec.mufu_ops_per_cycle)
        self.l2bw = Timeline(spec.l2_sectors_per_cycle)
        self.drambw = Timeline(spec.dram_sectors_per_cycle)
        self.atom = Timeline(spec.atomic_ops_per_cycle)
        self.sp_next = [0.0] * spec.subpartitions
        self.now = 0.0
        # hot-path precomputation: per-instruction source registers and
        # structural-pipe classification (avoids re-deriving operand
        # lists on every scheduling decision)
        self._src_regs: list[tuple[int, ...]] = []
        self._struct_pipe: list[int] = []  # 0 none, 1 lsu, 2 mio, 3 tex, 4 mufu
        for ins in self.program:
            self._src_regs.append(
                tuple(
                    r.index
                    for r in ins.source_registers()
                    if not r.predicate and not r.is_zero
                )
            )
            oc = ins.opcode.op_class
            if oc in (OpClass.GLOBAL_LOAD, OpClass.GLOBAL_STORE,
                      OpClass.LOCAL_LOAD, OpClass.LOCAL_STORE,
                      OpClass.ATOMIC_GLOBAL):
                self._struct_pipe.append(1)
            elif oc in (OpClass.SHARED_LOAD, OpClass.SHARED_STORE,
                        OpClass.ATOMIC_SHARED):
                self._struct_pipe.append(2)
            elif oc is OpClass.TEXTURE:
                self._struct_pipe.append(3)
            elif ins.opcode.base == "MUFU":
                self._struct_pipe.append(4)
            else:
                self._struct_pipe.append(0)
        #: lazily-built per-PC metadata for the trace consumer
        self._trace_meta: Optional[list] = None

    # ------------------------------------------------------------------
    def run_wave(self, warps: list[WarpState],
                 block_warp_counts: dict[int, int]) -> float:
        """Execute ``warps`` (one wave of resident blocks) to completion.

        ``block_warp_counts`` maps block id -> number of warps (for
        barrier membership).  Returns the wave completion time.
        """
        fail_point("scheduler.run_wave")
        budget = self.budget
        budget_pending = 0
        start = self.now
        nregs = warps[0].regs.shape[0] if warps else 0
        rts = [
            _WarpRT(w, i, i % self.spec.subpartitions, nregs, start)
            for i, w in enumerate(warps)
        ]
        barrier_arrivals: dict[int, list[_WarpRT]] = {}
        heap: list[tuple[float, int, int]] = []
        seq = 0
        for rt in rts:
            ready, _ = self._next_ready(rt)
            heapq.heappush(heap, (ready, seq, rt.index))
            seq += 1

        wave_end = start
        while heap:
            popped_ready, _, wi = heapq.heappop(heap)
            rt = rts[wi]
            if rt.state.done:
                continue
            ready, reason = self._next_ready(rt)
            if ready > popped_ready + 1e-9:
                heapq.heappush(heap, (ready, seq, wi))
                seq += 1
                continue
            sp = rt.subpartition
            t_issue = max(ready, self.sp_next[sp])
            pc = rt.state.pc
            # stall attribution at the *stalled* (about-to-issue) PC
            dep_stall = ready - rt.earliest
            if dep_stall > 0 and reason is not None:
                self.counters.add_stall(pc, reason, dep_stall)
            arb = t_issue - ready
            if arb > 0:
                self.counters.add_stall(pc, StallReason.NOT_SELECTED, arb)
            self.counters.add_stall(pc, StallReason.SELECTED, 1.0)

            ins = self.program[pc]
            if self.trace is not None:
                self.trace.record(
                    t_issue, rt.index, rt.state.block_id, pc,
                    ins.opcode.name, dep_stall + arb,
                    reason if dep_stall > 0 else None,
                )
            effect = self.executor.step(rt.state)
            issue_cost = self._issue_cost(effect)
            self.sp_next[sp] = t_issue + issue_cost
            rt.earliest = t_issue + issue_cost
            rt.forced_wait = 0.0
            rt.forced_reason = None
            self._account(pc, ins, effect)
            self._apply_timing(rt, t_issue, effect)
            if budget is not None:
                budget_pending += 1
                if budget_pending >= _BUDGET_STRIDE:
                    budget.spend(budget_pending, t_issue)
                    budget_pending = 0

            if effect.kind == "barrier":
                block = rt.state.block_id
                barrier_arrivals.setdefault(block, []).append(rt)
                rt.at_barrier = True
                arrived = barrier_arrivals[block]
                if len(arrived) == block_warp_counts[block]:
                    release = t_issue + 1
                    for other in arrived:
                        other.at_barrier = False
                        if other is not rt:
                            other.forced_wait = release
                            other.forced_reason = StallReason.BARRIER
                        r2, _ = self._next_ready(other)
                        heapq.heappush(heap, (max(r2, release), seq, other.index))
                        seq += 1
                    barrier_arrivals[block] = []
                continue  # barrier warps re-enter via release

            if rt.state.done:
                rt.finish_time = rt.earliest
                wave_end = max(wave_end, rt.finish_time)
                self.counters.warp_cycles_active += rt.finish_time - rt.start_time
                continue
            r2, _ = self._next_ready(rt)
            heapq.heappush(heap, (r2, seq, wi))
            seq += 1
            wave_end = max(wave_end, rt.earliest)

        if budget is not None and budget_pending:
            budget.spend(budget_pending, wave_end)

        # warps stuck at a barrier that never completes => deadlock
        for rt in rts:
            if not rt.state.done:
                raise SimulationError(
                    f"warp {rt.index} never finished (barrier deadlock? "
                    f"pc={rt.state.pc})"
                )
        self.now = wave_end
        return wave_end

    # ------------------------------------------------------------------
    def _ensure_trace_meta(self) -> list:
        """Per-PC :class:`_PCMeta` rows (built once, cached)."""
        if self._trace_meta is not None:
            return self._trace_meta
        spec = self.spec
        metas: list = []
        for pc, se in enumerate(
                static_effect_table(self.executor.decoded, spec)):
            if se is None:
                metas.append(None)
                continue
            m = _PCMeta()
            kind = se.kind
            m.kind = kind
            m.opname = se.opname
            m.dests = se.dest_regs
            m.srcs = self._src_regs[pc]
            m.pipe = self._struct_pipe[pc]
            m.issue_cost = float(spec.issue_default)
            if kind in ("alu", "convert", "branch", "exit", "nop"):
                m.code = 0
                m.conv = kind == "convert"
                m.fix_lat = float(spec.lat_alu)
            elif kind == "fp64":
                m.code = 1
                m.issue_cost = float(spec.issue_fp64)
                m.fix_lat = float(spec.lat_fp64)
            elif kind == "mufu":
                m.code = 2
                m.issue_cost = float(spec.issue_mufu)
                m.fix_lat = float(spec.lat_mufu)
            elif kind in ("global_load", "global_store",
                          "local_load", "local_store"):
                m.code = 3
                m.sub = ("global_load", "global_store",
                         "local_load", "local_store").index(kind)
                m.write = kind.endswith("store")
                m.access_space = ("local" if kind.startswith("local")
                                  else se.space)
                m.hit_lat = float(spec.lat_readonly_hit
                                  if se.space == "readonly"
                                  else spec.lat_l1_hit)
                if se.sectors is not None:
                    # plain ints: the cache walk is faster on them
                    m.static_sectors = se.sectors.tolist()
                    m.static_len = len(m.static_sectors)
                    m.static_groups = line_groups(
                        m.static_sectors, spec.l1_line_bytes,
                        spec.sector_bytes,
                        spec.l1_line_bytes // spec.sector_bytes)
            elif kind in ("shared_load", "shared_store"):
                m.code = 4
                m.sub = 0 if kind == "shared_load" else 1
            elif kind == "atomic_global":
                m.code = 5
            elif kind == "atomic_shared":
                m.code = 6
            elif kind == "texture":
                m.code = 7
                m.hit_lat = float(spec.lat_tex_hit)
            else:  # barrier
                m.code = 8
            metas.append(m)
        self._trace_meta = metas
        return metas

    # ------------------------------------------------------------------
    def run_wave_trace(self, ttrace,
                       block_warp_counts: dict[int, int]) -> float:
        """Replay a precomputed effect trace through the timing model.

        ``ttrace`` is a :class:`~repro.gpu.timed_trace.TimedTrace`
        recorded by the batched engine for this wave's warps.  The heap,
        ``Timeline`` bookings, scoreboard and stall attribution follow
        :meth:`run_wave` decision-for-decision (the resource bookings are
        manually inlined but perform the identical IEEE arithmetic in the
        identical order), so cycles, counters and PC-sample streams are
        bit-identical to stepping the executor live — the equivalence
        suite in ``tests/gpu/test_timed_equivalence.py`` enforces this.
        Cache-hierarchy lookups run here, at issue time, in heap order —
        exactly where the legacy path performs them — through the
        pool-batched :meth:`~repro.gpu.caches.MemoryHierarchy.access_pool`
        walk (one grouped tag probe per coalesced pool).

        Consumption is **column-sweep**: contiguous runs of a warp's
        trace rows issue back-to-back while the warp's next ready time
        strictly precedes every pending heap entry, entering the heap
        only at genuine synchronization points (scoreboard waits, pipe
        backlogs, barriers, arbitration ties).  The sweep is exact, not
        approximate: the heap pops it elides are precisely those whose
        outcome is already decided — a freshly pushed minimum entry pops
        immediately and a re-pushed stale entry recomputes the same
        ready time (nothing else issued in between), so the issue
        sequence is the legacy pop sequence.  Two invariants make the
        cached dependency half of the ready computation sound: a warp
        has at most one pending heap entry, so its scoreboard cannot
        change while pending; and pipe ``next_free`` times only grow, so
        the structural half is the only part that can go stale.

        Order-tagged float atomics (deferred by the build because float
        addition is not associative) commit here at their warp's issue —
        the legacy commit order.
        """
        fail_point("scheduler.run_wave_trace")
        budget = self.budget
        budget_pending = 0
        spec = self.spec
        counters = self.counters
        metas = self._ensure_trace_meta()
        pcs = ttrace.pcs
        dyn = ttrace.dyn
        start = self.now
        nregs = ttrace.nregs
        nsub = spec.subpartitions
        rts = [
            _TraceRT(i, i % nsub, nregs, start, ttrace.seg_starts[i],
                     ttrace.seg_ends[i], ttrace.block_ids[i])
            for i in range(ttrace.n_warps)
        ]
        # hot locals
        sp_next = self.sp_next
        lsu, mio, tex, mufu = self.lsu, self.mio, self.tex, self.mufu
        l2bw, drambw, atom = self.l2bw, self.drambw, self.atom
        stall = counters.stall_cycles
        by_class = counters.inst_by_class
        by_pc = counters.inst_by_pc
        access = self.hierarchy.access
        # manually inlined access_pool (caches.py): one fail_point per
        # memory instruction, L1 probe then forwarded L2 probe — same
        # sequence, minus two Python call layers on the hot path
        l1_probe = self.hierarchy.l1.probe_pool
        l2_probe = self.hierarchy.l2.probe_pool
        # grouped tag probes resolve a steady-state all-valid line in
        # one dict lookup; the group structure is precomputed per trace
        # against spec.l1_line_bytes/sector_bytes, so it is only valid
        # when both cache levels share that geometry (always true for
        # the modelled parts; fall back to per-sector walks otherwise)
        use_groups = (
            self.hierarchy.l1.line_bytes == spec.l1_line_bytes
            and self.hierarchy.l2.line_bytes == spec.l1_line_bytes
            and self.hierarchy.l1.sector_bytes == spec.sector_bytes
            and self.hierarchy.l2.sector_bytes == spec.sector_bytes
        )
        l1_grouped = self.hierarchy.l1.probe_pool_grouped
        l2_grouped = self.hierarchy.l2.probe_pool_grouped
        fp = fail_point
        trace_rec = self.trace
        memory = self.executor.memory
        red_f32 = memory.atomic_add_f32
        red_f64 = memory.atomic_add_f64
        lg_depth = spec.lg_queue_depth
        mio_depth = spec.mio_queue_depth
        tex_depth = spec.tex_queue_depth
        lat_shared = float(spec.lat_shared)
        lat_dram = float(spec.lat_dram)
        lat_l2 = float(spec.lat_l2_hit)
        R_SEL = StallReason.SELECTED
        R_NOTSEL = StallReason.NOT_SELECTED
        R_LG = StallReason.LG_THROTTLE
        R_MIO = StallReason.MIO_THROTTLE
        R_TEX = StallReason.TEX_THROTTLE
        R_MATH = StallReason.MATH_PIPE_THROTTLE
        R_BAR = StallReason.BARRIER
        kind_reason = (StallReason.WAIT, StallReason.LONG_SCOREBOARD,
                       StallReason.SHORT_SCOREBOARD)
        #: binding reason when the pipe overlay wins, by pipe kind
        pk_reason = (None, R_LG, R_MIO, R_TEX, R_MATH, R_LG)
        heappush = heapq.heappush
        heappop = heapq.heappop

        plan = ttrace.plan
        if plan is None:
            # per-row issue plan: everything the hot loop reads per
            # issue as one flat tuple — (code, pipe-kind, issue cost,
            # src regs, dest regs, pc, meta, dyn payload).  Pipe kind 5
            # marks the global-atomic case (LSU *and* ATOM backlog).
            # Built once per trace and kept on it, so warm replays via
            # the trace cache skip the metas/pcs/dyn indirections
            # entirely; contents are deterministic functions of the
            # compiled program and spec, both part of the cache key.
            plan = []
            for r, pc in enumerate(pcs):
                m = metas[pc]
                plan.append((m.code, 5 if m.code == 5 else m.pipe,
                             m.issue_cost, m.srcs, m.dests, pc, m,
                             dyn.get(r)))
            ttrace.plan = plan

        def compute_dep(rt):
            # dependency half of _next_ready: earliest slot, forced
            # (barrier) wait and source-register scoreboard — functions
            # of the warp's own state only, cached on the rt at push
            ready = rt.earliest
            reason = None
            if rt.forced_wait > ready:
                ready = rt.forced_wait
                reason = rt.forced_reason
            row = rt.row
            if row >= 0:
                reg_ready = rt.reg_ready
                reg_kind = rt.reg_kind
                for idx in plan[row][3]:
                    t = reg_ready[idx]
                    if t > ready:
                        ready = t
                        reason = kind_reason[reg_kind[idx]]
            rt.dep = ready
            rt.dep_reason = reason
            return ready

        def entry_key(rt):
            # full ready estimate at push time == the legacy push key
            # (dep half cached, structural half read live)
            ready = compute_dep(rt)
            row = rt.row
            if row >= 0:
                pk = plan[row][1]
                if pk:
                    if pk == 1:
                        t = lsu.next_free - lg_depth
                    elif pk == 5:
                        t = lsu.next_free - lg_depth
                        t2 = atom.next_free - lg_depth
                        if t2 > t:
                            t = t2
                    elif pk == 2:
                        t = mio.next_free - mio_depth
                    elif pk == 3:
                        t = tex.next_free - tex_depth
                    else:
                        t = mufu.next_free - 8.0
                    if t > ready:
                        ready = t
            return ready

        barrier_arrivals: dict[int, list[_TraceRT]] = {}
        heap: list[tuple[float, int, int]] = []
        seq = 0
        for rt in rts:
            heappush(heap, (entry_key(rt), seq, rt.index))
            seq += 1

        # Exact-integer accounting (inst_issued, inst_by_class/pc,
        # per-kind instruction counts, SELECTED samples, sector/
        # transaction sums and cache hit/miss tallies) is batched per
        # PC and merged after the loop: integer sums are associative,
        # so the merged totals are bit-identical to legacy per-issue
        # increments while keeping dict/attribute traffic off the hot
        # loop.  Fractional stall cycles and warp-active cycles are NOT
        # batchable (float addition is order-sensitive) and stay inline.
        n_pc = len(metas)
        pc_counts = [0] * n_pc
        pc_sectors = [0] * n_pc
        pc_tx = [0] * n_pc
        pc_l1h = [0] * n_pc
        pc_l1m = [0] * n_pc
        pc_l2h = [0] * n_pc
        pc_l2m = [0] * n_pc

        wave_end = start
        while heap:
            popped_key, _, wi = heappop(heap)
            rt = rts[wi]
            row = rt.row
            if row < 0:
                continue
            code, pk, cost, srcs, dests, pc, m, pay = plan[row]
            # recomputed ready: cached dep half + live structural half
            ready = rt.dep
            reason = rt.dep_reason
            if pk:
                if pk == 1:
                    t = lsu.next_free - lg_depth
                elif pk == 5:
                    t = lsu.next_free - lg_depth
                    t2 = atom.next_free - lg_depth
                    if t2 > t:
                        t = t2
                elif pk == 2:
                    t = mio.next_free - mio_depth
                elif pk == 3:
                    t = tex.next_free - tex_depth
                else:
                    t = mufu.next_free - 8.0
                if t > ready:
                    ready = t
                    reason = pk_reason[pk]
            if ready > popped_key + 1e-9 and heap and ready >= heap[0][0]:
                # stale, and another entry now precedes (or ties) this
                # warp: back on the heap with the fresh key.  When the
                # fresh key still strictly precedes every pending entry
                # the re-push/re-pop pair is elided — the next pop would
                # be this warp with this exact key (pipes cannot move
                # while nothing issues), so issue directly.
                heappush(heap, (ready, seq, wi))
                seq += 1
                continue
            # -- issue sweep --------------------------------------------
            sp = rt.subpartition
            reg_ready = rt.reg_ready
            reg_kind = rt.reg_kind
            earliest = rt.earliest
            while True:
                t_issue = sp_next[sp]
                if ready > t_issue:
                    t_issue = ready
                dep_stall = ready - earliest
                if dep_stall > 0 and reason is not None:
                    stall[(pc, reason)] += dep_stall
                arb = t_issue - ready
                if arb > 0:
                    stall[(pc, R_NOTSEL)] += arb
                pc_counts[pc] += 1
                if budget is not None:
                    budget_pending += 1
                    if budget_pending >= _BUDGET_STRIDE:
                        budget.spend(budget_pending, t_issue)
                        budget_pending = 0
                if trace_rec is not None:
                    trace_rec.record(
                        t_issue, wi, rt.block_id, pc, m.opname,
                        dep_stall + arb, reason if dep_stall > 0 else None,
                    )
                # advance to the next row (segment-aware)
                row2 = row + 1
                if row2 >= rt.seg_end:
                    k = rt.seg_k + 1
                    if k < len(rt.segs_s):
                        rt.seg_k = k
                        row2 = rt.segs_s[k]
                        rt.seg_end = rt.segs_e[k]
                    else:
                        row2 = -1
                rt.row = row2
                t_next = t_issue + cost
                sp_next[sp] = t_next
                earliest = t_next
                # NOTE: forced_wait is deliberately NOT cleared here —
                # a stale barrier-release time is always strictly below
                # the post-release ``earliest`` (release <= issue time
                # of the row after the barrier < its t_next), so the
                # strict ``>`` in compute_dep can never pick it up;
                # ``earliest`` itself lives in a local during the sweep
                # and is flushed to the rt at every sweep exit

                if code == 0:  # alu / convert / branch / exit / nop
                    t_ready = t_issue + m.fix_lat
                    for reg in dests:
                        reg_ready[reg] = t_ready
                        reg_kind[reg] = 0
                elif code == 1:  # fp64
                    t_ready = t_issue + m.fix_lat
                    for reg in dests:
                        reg_ready[reg] = t_ready
                        reg_kind[reg] = 0
                elif code == 2:  # mufu
                    t = t_issue + 1
                    nf = mufu.next_free
                    if nf > t:
                        t = nf
                    finish = t + 1.0 / mufu.rate
                    mufu.next_free = finish
                    t_ready = finish + m.fix_lat
                    for reg in dests:
                        reg_ready[reg] = t_ready
                        reg_kind[reg] = 0
                elif code == 3:  # global/local load/store
                    slen = m.static_len
                    if slen >= 0:
                        pool = m.static_sectors
                        grps = m.static_groups
                        sectors = pool
                    else:
                        offs = pay[0]
                        pool = pay[1]
                        b = pay[2] + wi
                        o0 = offs[b]
                        o1 = offs[b + 1]
                        slen = o1 - o0
                        grps = pay[3][b]
                        sectors = None
                    pc_sectors[pc] += slen
                    fp("caches.l2_lookup")
                    if use_groups:
                        if m.write:
                            # write-through/no-allocate: all sectors to L2
                            l1h, l1m = 0, slen
                            l2h, l2m, _ = l2_grouped(grps, pool)
                        else:
                            l1h, l1m, fwd = l1_grouped(grps, pool)
                            if l1m == 0:
                                # nothing forwarded: an empty L2 probe
                                # touches no state or stats
                                l2h = l2m = 0
                            elif l1m == slen:
                                # everything forwarded, in pool order:
                                # the L2 probe walks the same groups
                                l2h, l2m, _ = l2_grouped(grps, pool)
                            else:
                                l2h, l2m, _ = l2_probe(fwd)
                    else:
                        if sectors is None:
                            sectors = pool[o0:o1]
                        if m.write:
                            # write-through/no-allocate: all sectors to L2
                            l1h, l1m = 0, slen
                            l2h, l2m, _ = l2_probe(sectors)
                        else:
                            l1h, l1m, fwd = l1_probe(sectors)
                            l2h, l2m, _ = l2_probe(fwd)
                    t = t_issue + 1
                    nf = lsu.next_free
                    if nf > t:
                        t = nf
                    finish = t + (slen if slen > 0 else 1) / lsu.rate
                    lsu.next_free = finish
                    if l1m:  # == l2 accesses
                        nf = l2bw.next_free
                        t = finish if finish > nf else nf
                        finish = t + l1m / l2bw.rate
                        l2bw.next_free = finish
                    if l2m:  # == dram sectors
                        nf = drambw.next_free
                        t = finish if finish > nf else nf
                        finish = t + l2m / drambw.rate
                        drambw.next_free = finish
                    if l2m:
                        t_ready = finish + lat_dram
                    elif l1m:
                        t_ready = finish + lat_l2
                    else:
                        t_ready = finish + m.hit_lat
                    for reg in dests:
                        reg_ready[reg] = t_ready
                        reg_kind[reg] = 1
                    pc_l1h[pc] += l1h
                    pc_l1m[pc] += l1m
                    pc_l2h[pc] += l2h
                    pc_l2m[pc] += l2m
                elif code == 4:  # shared load/store
                    tx = pay[0][pay[1] + wi]
                    pc_tx[pc] += tx
                    t = t_issue + 1
                    nf = mio.next_free
                    if nf > t:
                        t = nf
                    finish = t + (tx if tx > 0 else 1) / mio.rate
                    mio.next_free = finish
                    t_ready = finish + lat_shared
                    for reg in dests:
                        reg_ready[reg] = t_ready
                        reg_kind[reg] = 2
                elif code == 5:  # atomic_global (no destinations)
                    offs, pool, base, uniqs, serials, apply, grps = pay
                    b = base + wi
                    o0 = offs[b]
                    o1 = offs[b + 1]
                    slen = o1 - o0
                    pc_sectors[pc] += slen
                    if apply is not None:
                        # order-tagged float RED deferred by the build:
                        # commit this warp's lanes now, at its issue —
                        # the legacy commit order (codes: 1=f32, 2=f64)
                        entry = apply[1][wi]
                        if entry is not None:
                            if apply[0] == 1:
                                red_f32(entry[0], entry[1])
                            else:
                                red_f64(entry[0], entry[1])
                    if slen:
                        fp("caches.l2_lookup")
                        # atomics bypass L1: every sector is an L2 access
                        l1m = slen
                        if use_groups:
                            l2h, l2m, _ = l2_grouped(grps[b], pool)
                        else:
                            l2h, l2m, _ = l2_probe(pool[o0:o1])
                        t = t_issue + 1
                        nf = lsu.next_free
                        if nf > t:
                            t = nf
                        finish = t + slen / lsu.rate
                        lsu.next_free = finish
                        units = l1m  # == l2 accesses
                        if units < 1:
                            units = 1
                        nf = l2bw.next_free
                        t = finish if finish > nf else nf
                        finish = t + units / l2bw.rate
                        l2bw.next_free = finish
                        units = serials[b]
                        u2 = uniqs[b] / 4.0
                        if u2 > units:
                            units = u2
                        if units < 1.0:
                            units = 1.0
                        nf = atom.next_free
                        t = finish if finish > nf else nf
                        finish = t + units / atom.rate
                        atom.next_free = finish
                        if l2m:  # == dram sectors
                            nf = drambw.next_free
                            t = finish if finish > nf else nf
                            finish = t + l2m / drambw.rate
                            drambw.next_free = finish
                        pc_l2h[pc] += l2h
                        pc_l2m[pc] += l2m
                elif code == 6:  # atomic_shared (no destinations)
                    txs, uniqs, serials, base = pay
                    b = base + wi
                    tx = txs[b]
                    pc_tx[pc] += tx
                    units = serials[b]
                    if units:
                        if tx > units:
                            units = tx
                        if units < 1:
                            units = 1
                        t = t_issue + 1
                        nf = mio.next_free
                        if nf > t:
                            t = nf
                        mio.next_free = t + units / mio.rate
                elif code == 7:  # texture
                    offs, pool, base = pay[0], pay[1], pay[2]
                    b = base + wi
                    o0 = offs[b]
                    o1 = offs[b + 1]
                    res = access(pool[o0:o1], "texture")
                    t = t_issue + 1
                    nf = tex.next_free
                    if nf > t:
                        t = nf
                    finish = t + 1.0 / tex.rate
                    tex.next_free = finish
                    units = res.l2_hits + res.l2_misses  # incl. fills
                    if units:
                        nf = l2bw.next_free
                        t = finish if finish > nf else nf
                        finish = t + units / l2bw.rate
                        l2bw.next_free = finish
                    units = res.dram_sectors
                    if units:
                        nf = drambw.next_free
                        t = finish if finish > nf else nf
                        finish = t + units / drambw.rate
                        drambw.next_free = finish
                    deepest = res.deepest
                    if deepest == "dram":
                        t_ready = finish + lat_dram
                    elif deepest == "l2":
                        t_ready = finish + lat_l2
                    else:
                        t_ready = finish + m.hit_lat
                    for reg in dests:
                        reg_ready[reg] = t_ready
                        reg_kind[reg] = 1
                    pc_sectors[pc] += o1 - o0
                    pc_l1h[pc] += res.l1_hits
                    pc_l1m[pc] += res.l1_misses
                    pc_l2h[pc] += res.l2_hits
                    pc_l2m[pc] += res.l2_misses
                else:  # code == 8: barrier
                    rt.earliest = earliest
                    block = rt.block_id
                    arrived = barrier_arrivals.get(block)
                    if arrived is None:
                        arrived = barrier_arrivals[block] = []
                    arrived.append(rt)
                    rt.at_barrier = True
                    if len(arrived) == block_warp_counts[block]:
                        release = t_issue + 1
                        for other in arrived:
                            other.at_barrier = False
                            if other is not rt:
                                other.forced_wait = release
                                other.forced_reason = R_BAR
                            r2 = entry_key(other)
                            heappush(heap, (r2 if r2 > release else release,
                                            seq, other.index))
                            seq += 1
                        barrier_arrivals[block] = []
                    break  # barrier warps re-enter via release

                if t_next > wave_end:
                    wave_end = t_next
                if row2 < 0:
                    rt.earliest = t_next
                    rt.finish_time = t_next
                    counters.warp_cycles_active += t_next - rt.start_time
                    break
                # next row: dep half inline (a stale forced_wait is
                # strictly below t_next, so only the slot and the
                # scoreboard matter), then the live pipe overlay
                nxt = plan[row2]
                ready = t_next
                reason = None
                for idx in nxt[3]:
                    t = reg_ready[idx]
                    if t > ready:
                        ready = t
                        reason = kind_reason[reg_kind[idx]]
                dep_r = ready
                dep_reason = reason
                pk = nxt[1]
                if pk:
                    if pk == 1:
                        t = lsu.next_free - lg_depth
                    elif pk == 5:
                        t = lsu.next_free - lg_depth
                        t2 = atom.next_free - lg_depth
                        if t2 > t:
                            t = t2
                    elif pk == 2:
                        t = mio.next_free - mio_depth
                    elif pk == 3:
                        t = tex.next_free - tex_depth
                    else:
                        t = mufu.next_free - 8.0
                    if t > ready:
                        ready = t
                        reason = pk_reason[pk]
                if heap and ready >= heap[0][0]:
                    # another entry pops first (ties break toward the
                    # earlier seq already in the heap): park this warp
                    # with the dep half cached for its eventual pop
                    rt.earliest = earliest
                    rt.dep = dep_r
                    rt.dep_reason = dep_reason
                    heappush(heap, (ready, seq, wi))
                    seq += 1
                    break
                row = row2  # strictly first: keep sweeping
                code, pk, cost, srcs, dests, pc, m, pay = nxt

        if budget is not None and budget_pending:
            budget.spend(budget_pending, wave_end)

        # merge the batched per-PC integer accounting (before the
        # deadlock check so counters are complete even when it raises)
        for pc, n in enumerate(pc_counts):
            if not n:
                continue
            m = metas[pc]
            counters.inst_issued += n
            by_class[m.kind] += n
            by_pc[pc] += n
            stall[(pc, R_SEL)] += float(n)
            code = m.code
            if code == 0:
                if m.conv:
                    counters.conversion_instructions += n
            elif code == 3:
                sec = int(pc_sectors[pc])
                counters.mem_sectors_by_pc[pc] += sec
                sub = m.sub
                if sub == 0:
                    counters.global_load_instructions += n
                    counters.global_load_sectors += sec
                elif sub == 1:
                    counters.global_store_instructions += n
                    counters.global_store_sectors += sec
                elif sub == 2:
                    counters.local_load_instructions += n
                    counters.local_load_sectors += sec
                else:
                    counters.local_store_instructions += n
                    counters.local_store_sectors += sec
                space = m.access_space
                if space == "local":
                    if not m.write:
                        counters.local_l1_hits += pc_l1h[pc]
                        counters.local_l1_misses += pc_l1m[pc]
                    counters.record_l2("local", pc_l2h[pc], pc_l2m[pc])
                else:  # global / readonly
                    if not m.write:
                        counters.global_load_l1_hits += pc_l1h[pc]
                        counters.global_load_l1_misses += pc_l1m[pc]
                    counters.record_l2("global", pc_l2h[pc], pc_l2m[pc])
            elif code == 4:
                tx = int(pc_tx[pc])
                counters.shared_tx_by_pc[pc] += tx
                if m.sub == 0:
                    counters.shared_load_instructions += n
                    counters.shared_load_transactions += tx
                else:
                    counters.shared_store_instructions += n
                    counters.shared_store_transactions += tx
            elif code == 5:
                sec = int(pc_sectors[pc])
                counters.global_atomic_instructions += n
                counters.mem_sectors_by_pc[pc] += sec
                counters.atomic_sectors += sec
                counters.atomic_l2_hits += pc_l2h[pc]
                counters.atomic_l2_misses += pc_l2m[pc]
                counters.record_l2("atomic", pc_l2h[pc], pc_l2m[pc])
            elif code == 6:
                counters.shared_atomic_instructions += n
                counters.shared_tx_by_pc[pc] += int(pc_tx[pc])
            elif code == 7:
                sec = int(pc_sectors[pc])
                counters.texture_instructions += n
                counters.texture_sectors += sec
                counters.mem_sectors_by_pc[pc] += sec
                counters.texture_hits += pc_l1h[pc]
                counters.texture_misses += pc_l1m[pc]
                counters.record_l2("texture", pc_l2h[pc], pc_l2m[pc])

        for rt in rts:
            if rt.row >= 0:
                raise SimulationError(
                    f"warp {rt.index} never finished (barrier deadlock? "
                    f"pc={pcs[rt.row]})"
                )
        self.now = wave_end
        return wave_end

    # ------------------------------------------------------------------
    def _issue_cost(self, effect: Effect) -> float:
        if effect.kind == "fp64":
            return float(self.spec.issue_fp64)
        if effect.kind == "mufu":
            return float(self.spec.issue_mufu)
        return float(self.spec.issue_default)

    def _next_ready(self, rt: _WarpRT) -> tuple[float, Optional[StallReason]]:
        """Earliest issue time for the warp's next instruction and the
        binding stall reason."""
        ready = rt.earliest
        reason: Optional[StallReason] = None
        if rt.forced_wait > ready:
            ready = rt.forced_wait
            reason = rt.forced_reason
        state = rt.state
        if state.done or state.pc >= len(self.program):
            return ready, reason
        pc = state.pc
        # register dependencies (per-warp scoreboard)
        reg_ready = rt.reg_ready
        for idx in self._src_regs[pc]:
            t = reg_ready[idx]
            if t > ready:
                ready = t
                reason = _KIND_REASON[int(rt.reg_kind[idx])]
        # structural queues
        pipe = self._struct_pipe[pc]
        if pipe == 1:
            t = self.lsu.ready_after_backlog(self.spec.lg_queue_depth)
            if t > ready:
                ready = t
                reason = StallReason.LG_THROTTLE
            if self.program[pc].opcode.op_class is OpClass.ATOMIC_GLOBAL:
                # kernel-wide atomic serialization backs up the LG path
                # (paper §4.4: "lg_throttle warp stall will occur often")
                t = self.atom.ready_after_backlog(self.spec.lg_queue_depth)
                if t > ready:
                    ready = t
                    reason = StallReason.LG_THROTTLE
        elif pipe == 2:
            t = self.mio.ready_after_backlog(self.spec.mio_queue_depth)
            if t > ready:
                ready = t
                reason = StallReason.MIO_THROTTLE
        elif pipe == 3:
            t = self.tex.ready_after_backlog(self.spec.tex_queue_depth)
            if t > ready:
                ready = t
                reason = StallReason.TEX_THROTTLE
        elif pipe == 4:
            t = self.mufu.ready_after_backlog(8.0)
            if t > ready:
                ready = t
                reason = StallReason.MATH_PIPE_THROTTLE
        return ready, reason

    # ------------------------------------------------------------------
    def _apply_timing(self, rt: _WarpRT, t_issue: float,
                      effect: Effect) -> None:
        """Book pipeline resources and set destination-register ready
        times for ``effect``."""
        spec = self.spec
        kind = effect.kind
        if kind in ("alu", "convert", "branch", "exit", "nop", "barrier"):
            self._set_dests(rt, effect, t_issue + spec.lat_alu, _KIND_WAIT)
            return
        if kind == "fp64":
            self._set_dests(rt, effect, t_issue + spec.lat_fp64, _KIND_WAIT)
            return
        if kind == "mufu":
            finish = self.mufu.book(t_issue + 1, 1.0)
            self._set_dests(rt, effect, finish + spec.lat_mufu, _KIND_WAIT)
            return
        if kind in ("global_load", "global_store", "local_load", "local_store"):
            n_sectors = len(effect.sectors)
            space = "local" if kind.startswith("local") else effect.space
            res = self.hierarchy.access(effect.sectors, space,
                                        write=kind.endswith("store"))
            finish = self.lsu.book(t_issue + 1, max(n_sectors, 1))
            if res.l2_accesses:
                finish = self.l2bw.book(finish, res.l2_accesses)
            if res.dram_sectors:
                finish = self.drambw.book(finish, res.dram_sectors)
            if res.deepest == "dram":
                lat = spec.lat_dram
            elif res.deepest == "l2":
                lat = spec.lat_l2_hit
            else:
                lat = (spec.lat_readonly_hit if effect.space == "readonly"
                       else spec.lat_l1_hit)
            self._set_dests(rt, effect, finish + lat, _KIND_LONG)
            self._account_hierarchy(space, res, write=kind.endswith("store"))
            return
        if kind in ("shared_load", "shared_store"):
            finish = self.mio.book(t_issue + 1, max(effect.transactions, 1))
            self._set_dests(rt, effect, finish + spec.lat_shared, _KIND_SHORT)
            return
        if kind == "atomic_global":
            if len(effect.sectors) == 0:
                # guard-false atomic: issues but does no memory work
                self._set_dests(rt, effect, t_issue + spec.lat_alu, _KIND_WAIT)
                return
            res = self.hierarchy.access(effect.sectors, "atomic")
            finish = self.lsu.book(t_issue + 1, len(effect.sectors))
            finish = self.l2bw.book(finish, max(res.l2_accesses, 1))
            # same-address updates serialize; distinct addresses spread
            # over the L2 slices at the atomic throughput
            units = max(effect.atomic_serial,
                        effect.unique_atomic_addrs / 4.0, 1.0)
            finish = self.atom.book(finish, units)
            if res.dram_sectors:
                finish = self.drambw.book(finish, res.dram_sectors)
            self._set_dests(rt, effect, finish + spec.lat_atomic_l2, _KIND_LONG)
            self._account_hierarchy("atomic", res)
            self.counters.atomic_sectors += len(effect.sectors)
            self.counters.atomic_l2_hits += res.l2_hits
            self.counters.atomic_l2_misses += res.l2_misses
            return
        if kind == "atomic_shared":
            if effect.atomic_serial == 0:
                self._set_dests(rt, effect, t_issue + spec.lat_alu, _KIND_WAIT)
                return
            # block-level serialization occupies the MIO pipe while
            # same-address updates retire one per slot (paper §4.4:
            # shared atomics raise MIO utilization)
            units = max(effect.transactions, effect.atomic_serial, 1)
            finish = self.mio.book(t_issue + 1, units)
            self._set_dests(rt, effect, finish + spec.lat_shared, _KIND_SHORT)
            return
        if kind == "texture":
            n_sectors = max(len(effect.sectors), 1)
            res = self.hierarchy.access(effect.sectors, "texture")
            finish = self.tex.book(t_issue + 1, 1.0)
            l2_traffic = res.l2_hits + res.l2_misses  # incl. line fills
            if l2_traffic:
                finish = self.l2bw.book(finish, l2_traffic)
            if res.dram_sectors:
                finish = self.drambw.book(finish, res.dram_sectors)
            if res.deepest == "dram":
                lat = spec.lat_dram
            elif res.deepest == "l2":
                lat = spec.lat_l2_hit
            else:
                lat = spec.lat_tex_hit
            self._set_dests(rt, effect, finish + lat, _KIND_LONG)
            self.counters.texture_sectors += len(effect.sectors)
            self.counters.texture_hits += res.l1_hits
            self.counters.texture_misses += res.l1_misses
            self.counters.record_l2("texture", res.l2_hits, res.l2_misses)
            return

    def _set_dests(self, rt: _WarpRT, effect: Effect, t_ready: float,
                   kind: int) -> None:
        for reg in effect.dest_regs:
            if reg == 255:
                continue
            rt.reg_ready[reg] = t_ready
            rt.reg_kind[reg] = kind

    # ------------------------------------------------------------------
    def _account(self, pc: int, ins, effect: Effect) -> None:
        c = self.counters
        c.inst_issued += 1
        c.inst_by_class[effect.kind] += 1
        c.inst_by_pc[pc] += 1
        kind = effect.kind
        if kind == "global_load":
            c.global_load_instructions += 1
            c.global_load_sectors += len(effect.sectors)
            c.mem_sectors_by_pc[pc] += len(effect.sectors)
        elif kind == "global_store":
            c.global_store_instructions += 1
            c.global_store_sectors += len(effect.sectors)
            c.mem_sectors_by_pc[pc] += len(effect.sectors)
        elif kind == "local_load":
            c.local_load_instructions += 1
            c.local_load_sectors += len(effect.sectors)
            c.mem_sectors_by_pc[pc] += len(effect.sectors)
        elif kind == "local_store":
            c.local_store_instructions += 1
            c.local_store_sectors += len(effect.sectors)
            c.mem_sectors_by_pc[pc] += len(effect.sectors)
        elif kind == "shared_load":
            c.shared_load_instructions += 1
            c.shared_load_transactions += effect.transactions
            c.shared_tx_by_pc[pc] += effect.transactions
        elif kind == "shared_store":
            c.shared_store_instructions += 1
            c.shared_store_transactions += effect.transactions
            c.shared_tx_by_pc[pc] += effect.transactions
        elif kind == "texture":
            c.texture_instructions += 1
            c.mem_sectors_by_pc[pc] += len(effect.sectors)
        elif kind == "atomic_global":
            c.global_atomic_instructions += 1
            c.mem_sectors_by_pc[pc] += len(effect.sectors)
        elif kind == "atomic_shared":
            c.shared_atomic_instructions += 1
            c.shared_tx_by_pc[pc] += effect.transactions
        elif kind == "convert":
            c.conversion_instructions += 1

    def _account_hierarchy(self, space: str, res, write: bool = False) -> None:
        c = self.counters
        if space in ("global", "readonly"):
            if not write:
                c.global_load_l1_hits += res.l1_hits
                c.global_load_l1_misses += res.l1_misses
            c.record_l2("global", res.l2_hits, res.l2_misses)
        elif space == "local":
            if not write:
                c.local_l1_hits += res.l1_hits
                c.local_l1_misses += res.l1_misses
            c.record_l2("local", res.l2_hits, res.l2_misses)
        elif space == "atomic":
            c.record_l2("atomic", res.l2_hits, res.l2_misses)
