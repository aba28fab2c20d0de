"""Batched multi-warp functional execution (the fast path).

The per-warp functional loop (:func:`run_per_warp`) interprets one
instruction per warp per Python call; for large grids the per-call
Python work dominates wall-clock.  This module stacks the warps of many
blocks into ``(n_warps, 32)`` NumPy arrays (a :class:`WarpPack`) and
executes one *predecoded* instruction across the whole pack per step,
so the Python-per-instruction cost is amortised over hundreds of warps.

A pack is built straight from launch geometry — ``(program, config)``
and a list of block ids — by tiling one block's thread template
(:func:`~repro.gpu.executor.thread_geometry`); no per-warp
:class:`~repro.gpu.executor.WarpState` exists on this path.  Masking is
paid for only where a lane is masked: :meth:`BatchEngine.run` derives
the executing lanes once per control-flow change and tells the handlers
(``pack.dense``) when an unpredicated instruction covers every lane of
the pack, so register writes are plain copies and shared-memory
accesses index the whole plane; predicated instructions and packs with
partial or finished warps take the guarded forms of the same handlers.

Correctness contract — the batched path must produce **bit-identical**
device memory and identical counters vs. the per-warp path:

* all case-study kernels have warp-uniform control flow, so every live
  warp sits at the same PC and a single-PC lockstep suffices;
* NumPy fancy-index scatter and ``np.add.at`` apply updates in flat
  row-major order, which for a ``(n_warps, 32)`` pack is exactly the
  block-then-warp-then-lane order the per-warp loop uses within a step;
* integer atomics are associative (wrapping uint32 adds), so any
  inter-step ordering is bit-identical; float atomics are only batched
  when they retire at most once per warp at a single PC
  (:func:`_order_sensitive`), where pack order equals per-warp order;
* on the first branch where live warps disagree (or predicate lanes
  split inside a warp), the pack *dissolves*: :meth:`WarpPack.dissolve`
  materialises the per-warp states — the only place the batched side
  creates them — and the remaining execution, including the exact
  divergent-branch error, happens on :func:`run_per_warp`.

Programs containing opcodes the executor does not implement, or
order-sensitive float atomics, are routed to :func:`run_per_warp` by
the simulator (:func:`batchable`).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.errors import SimulationError
from repro.testing.faultinject import fail_point
from repro.gpu.budget import SimBudget
from repro.gpu.executor import (
    Executor,
    WarpState,
    state_shape,
    thread_geometry,
)
from repro.gpu.predecode import (
    ATOM_F32,
    ATOM_F64,
    ATOM_U32,
    DecOp,
    K_CONST,
    K_FIMM,
    K_REG,
    PredecodedProgram,
)
from repro.sass.isa import Program

__all__ = ["WarpPack", "BatchEngine", "FunctionalRun",
           "run_functional_batched", "run_per_warp", "batchable"]

WARP = 32

#: upper bound on warps stacked into one pack (keeps temporaries cache-sized)
MAX_PACK_WARPS = 2048

#: per-block step limit of both functional loops
_MAX_STEPS_PER_BLOCK = 50_000_000

#: the per-warp loop charges a running block's budget this often
_BUDGET_TICK = 4096


def _order_sensitive(decoded: PredecodedProgram) -> bool:
    """True when float-atomic retirement order could differ between the
    batched and per-warp schedules (see module docstring)."""
    fatomic_pcs = [
        d.pc
        for d in decoded.table
        if d.base in ("RED", "ATOM", "ATOMS") and d.atom_kind != ATOM_U32
    ]
    return len(fatomic_pcs) > 1 or decoded.float_atomic_in_loop


def batchable(decoded: PredecodedProgram) -> bool:
    """Whether a program is eligible for the batched fast path."""
    return not decoded.unhandled and not _order_sensitive(decoded)


class WarpPack:
    """All warps of a list of whole blocks, stacked lane-wise.

    Built straight from launch geometry — no per-warp object exists
    until :meth:`dissolve`.  Register file is ``(nregs, W, 32)``,
    predicates ``(8, W, 32)``, active lanes ``(W, 32)``; ``live`` marks
    warps still executing and ``block_of[i]`` is warp ``i``'s linear
    block id.  Per-block shared memory is carved out of one aligned
    backing buffer (block ``b`` of the pack starts at word
    ``shared_word_off`` of any of its warps), which the per-warp
    ``WarpState.shared`` views alias after a dissolve.
    """

    __slots__ = (
        "n", "nregs", "regs", "preds", "active", "live", "pc", "local",
        "tid", "ctaid", "ntid", "nctaid", "block_of", "warps_per_block",
        "shared", "shared_word_off", "shared_bytes", "dense",
    )

    def __init__(self, program: Program, config, blocks):
        wpb = self.warps_per_block = config.warps_per_block
        n_blocks = len(blocks)
        n = self.n = n_blocks * wpb
        nregs, nlocal = state_shape(program)
        self.nregs = nregs
        self.regs = np.zeros((nregs, n, WARP), dtype=np.uint32)
        self.preds = np.zeros((8, n, WARP), dtype=bool)
        self.preds[7] = True  # PT
        self.local = np.zeros((nlocal, n, WARP), dtype=np.uint32)
        self.live = np.ones(n, dtype=bool)
        self.pc = 0
        #: set by :meth:`BatchEngine.run` per instruction: no lane of
        #: the pack is masked, so handlers may skip the guard
        self.dense = False
        tid, active, ctaid = thread_geometry(config, blocks)
        self.tid = tuple(np.tile(t, (n_blocks, 1)) for t in tid)
        self.active = np.tile(active, (n_blocks, 1))
        self.ctaid = tuple(np.repeat(c, wpb).reshape(n, 1) for c in ctaid)
        self.ntid = (config.block[0], config.block[1], 1)
        self.nctaid = (config.grid[0], config.grid[1], 1)
        self.block_of = np.repeat(np.asarray(blocks, dtype=np.int64), wpb)
        self.shared_bytes = program.shared_bytes
        self.shared: Optional[np.ndarray] = None
        self.shared_word_off: Optional[np.ndarray] = None
        if self.shared_bytes:
            stride = -(-self.shared_bytes // 8) * 8
            self.shared = np.zeros(n_blocks * stride, dtype=np.uint8)
            self.shared_word_off = np.repeat(
                np.arange(n_blocks, dtype=np.int64) * (stride >> 2), wpb
            ).reshape(n, 1)

    def lanes(self) -> np.ndarray:
        """Lanes an unpredicated instruction executes on right now.  A
        fresh array: callers share it between instructions (and the
        trace emitter keeps references), so nobody writes into it."""
        return self.active & self.live[:, None]

    def dissolve(self, pc: int) -> list[WarpState]:
        """Materialise the per-warp states at ``pc`` for the per-warp
        loop; their ``shared`` attributes are views of the pack's
        backing buffer."""
        warps = []
        for i in range(self.n):
            shared = None
            if self.shared is not None:
                base = int(self.shared_word_off[i, 0]) << 2
                shared = self.shared[base : base + self.shared_bytes]
            w = WarpState(
                nregs=self.nregs,
                local_slots=self.local.shape[0],
                shared=shared,
                tid=tuple(t[i] for t in self.tid),
                ctaid=tuple(int(c[i, 0]) for c in self.ctaid),
                ntid=self.ntid,
                nctaid=self.nctaid,
                active=self.active[i],
                warp_id=i % self.warps_per_block,
                block_id=int(self.block_of[i]),
            )
            w.regs[:] = self.regs[:, i, :]
            w.preds[:] = self.preds[:, i, :]
            w.local[:] = self.local[:, i, :]
            w.pc = pc
            w.done = not self.live[i]
            warps.append(w)
        return warps


class BatchEngine:
    """Executes a :class:`WarpPack` in lockstep off the predecode table.

    Shares the :class:`~repro.gpu.executor.Executor`'s device memory,
    constant bank and texture bindings; handler semantics mirror the
    per-warp handlers exactly, lifted from ``(32,)`` to ``(W, 32)``.
    """

    def __init__(self, executor: Executor):
        self.executor = executor
        self.memory = executor.memory
        self.decoded = executor.decoded
        self.program = executor.program
        self.textures = executor.textures
        #: optional TraceEmitter (set by the timed-trace subclass); when
        #: present the lockstep driver records the executed row stream
        #: and per-warp row segments for the trace-driven scheduler
        self.emit = None
        #: parked subgroups from warp-uniform branch splits: (mask, pc)
        #: entries resumed when the current subgroup runs dry.  Only
        #: populated when an emitter is attached (see :meth:`_branch`).
        self._worklist: list[tuple[np.ndarray, int]] = []
        #: plain functions, called with ``self`` (see Executor._handlers)
        self._handlers = [
            getattr(type(self), "_b_" + d.hname, None) if d.hname else None
            for d in self.decoded.table
        ]

    # -- operand reads (mirroring Executor._ru32 etc. on (W, 32)) -------
    @staticmethod
    def _reg(pack: WarpPack, idx: int) -> np.ndarray:
        if idx == 255:  # RZ
            return np.zeros((pack.n, WARP), dtype=np.uint32)
        return pack.regs[idx]

    def _ru32(self, pack: WarpPack, o: DecOp) -> np.ndarray:
        k = o.kind
        if k == K_REG:
            val = self._reg(pack, o.reg)
            if o.negated:
                val = (~val + np.uint32(1)).astype(np.uint32)
            return val
        if k == K_CONST:
            return self.executor._const_row(o, "u32")
        if o.u32_row is not None:
            return o.u32_row
        raise SimulationError(f"cannot read operand {o.kind} as u32")

    def _rs32(self, pack: WarpPack, o: DecOp) -> np.ndarray:
        return self._ru32(pack, o).view(np.int32)

    def _rf32(self, pack: WarpPack, o: DecOp) -> np.ndarray:
        k = o.kind
        if k == K_REG:
            val = self._reg(pack, o.reg).view(np.float32)
            if o.negated:
                val = -val
            return val
        if k == K_CONST:
            return self.executor._const_row(o, "f32")
        if o.f32_row is not None:
            return o.f32_row
        raise SimulationError(f"cannot read operand {o.kind} as f32")

    def _rf64(self, pack: WarpPack, o: DecOp) -> np.ndarray:
        k = o.kind
        if k == K_FIMM:
            return np.full((pack.n, WARP), o.f64_val, dtype=np.float64)
        if k == K_REG:
            lo = self._reg(pack, o.reg).astype(np.uint64)
            hi_idx = o.reg + 1 if o.reg != 255 else 255
            hi = self._reg(pack, hi_idx).astype(np.uint64)
            val = ((hi << np.uint64(32)) | lo).view(np.float64)
            if o.negated:
                val = -val
            return val
        if k == K_CONST:
            return self.executor._const_row(o, "f64")
        raise SimulationError(f"cannot read operand {o.kind} as f64")

    def _pv(self, pack: WarpPack, o: DecOp) -> np.ndarray:
        val = pack.preds[o.reg]
        return ~val if o.negated else val

    # -- writes ----------------------------------------------------------
    @staticmethod
    def _wu32(pack: WarpPack, reg: int, val, guard: np.ndarray) -> None:
        if reg == 255:
            return
        if pack.dense:
            np.copyto(pack.regs[reg], val, casting="unsafe")
        else:
            np.copyto(pack.regs[reg], val, where=guard, casting="unsafe")

    def _wf32(self, pack, reg, val, guard) -> None:
        self._wu32(pack, reg,
                   np.asarray(val, dtype=np.float32).view(np.uint32), guard)

    def _wf64(self, pack, reg, val, guard) -> None:
        bits = np.asarray(val, dtype=np.float64).view(np.uint64)
        self._wu32(pack, reg,
                   (bits & np.uint64(0xFFFFFFFF)).astype(np.uint32), guard)
        self._wu32(pack, reg + 1, (bits >> np.uint64(32)).astype(np.uint32),
                   guard)

    # -- moves / special -------------------------------------------------
    def _b_mov(self, pack, dec, guard) -> None:
        self._wu32(pack, dec.ops[0].reg, self._ru32(pack, dec.ops[1]), guard)

    def _b_s2r(self, pack, dec, guard) -> None:
        name = dec.ops[1].special
        if name == "SR_LANEID":
            val = np.broadcast_to(np.arange(WARP, dtype=np.uint32),
                                  (pack.n, WARP))
        else:
            attr, axis = Executor._SR_VALUES[name]
            raw = getattr(pack, attr)[axis]
            val = raw if isinstance(raw, np.ndarray) else np.uint32(raw)
        self._wu32(pack, dec.ops[0].reg, val, guard)

    # -- integer ALU -----------------------------------------------------
    def _b_iadd3(self, pack, dec, guard) -> None:
        d, a, b, c = dec.ops[:4]
        val = (
            self._ru32(pack, a) + self._ru32(pack, b) + self._ru32(pack, c)
        ).astype(np.uint32)
        self._wu32(pack, d.reg, val, guard)

    def _b_imad(self, pack, dec, guard) -> None:
        d, a, b, c = dec.ops[:4]
        val = (
            self._ru32(pack, a).astype(np.uint64)
            * self._ru32(pack, b).astype(np.uint64)
            + self._ru32(pack, c).astype(np.uint64)
        ).astype(np.uint32)
        self._wu32(pack, d.reg, val, guard)

    def _b_imnmx(self, pack, dec, guard) -> None:
        d, a, b, sel = dec.ops[:4]
        av, bv = self._rs32(pack, a), self._rs32(pack, b)
        use_min = self._pv(pack, sel)
        val = np.where(use_min, np.minimum(av, bv), np.maximum(av, bv))
        self._wu32(pack, d.reg, val.view(np.uint32), guard)

    def _b_lop3(self, pack, dec, guard) -> None:
        d, a, b, c, lut = dec.ops[:5]
        av = self._ru32(pack, a)
        bv = self._ru32(pack, b)
        cv = self._ru32(pack, c)
        lut_val = lut.imm
        out = np.zeros((pack.n, WARP), dtype=np.uint32)
        full = np.uint32(0xFFFFFFFF)
        for k in range(8):
            if (lut_val >> k) & 1:
                term = (av if k & 4 else av ^ full)
                term = term & (bv if k & 2 else bv ^ full)
                term = term & (cv if k & 1 else cv ^ full)
                out |= term
        self._wu32(pack, d.reg, out, guard)

    def _b_shf(self, pack, dec, guard) -> None:
        d, a, b = dec.ops[:3]
        shift = (self._ru32(pack, b) & np.uint32(31)).astype(np.uint32)
        if dec.mode == 0:  # .L
            val = (self._ru32(pack, a) << shift).astype(np.uint32)
        elif dec.mode == 1:  # .S32 arithmetic right
            val = (self._rs32(pack, a) >> shift.view(np.int32)).view(np.uint32)
        else:
            val = (self._ru32(pack, a) >> shift).astype(np.uint32)
        self._wu32(pack, d.reg, val, guard)

    def _b_shfl(self, pack, dec, guard) -> None:
        if dec.shfl_idx is None:
            raise SimulationError(f"unknown SHFL mode {dec.ins.opcode.name}")
        d, a = dec.ops[:2]
        src = self._ru32(pack, a)
        out = np.where(dec.shfl_valid, src[:, dec.shfl_idx], src)
        self._wu32(pack, d.reg, out.astype(np.uint32), guard)

    def _b_sel(self, pack, dec, guard) -> None:
        d, a, b, p = dec.ops[:4]
        pv = self._pv(pack, p)
        val = np.where(pv, self._ru32(pack, a), self._ru32(pack, b))
        self._wu32(pack, d.reg, val, guard)

    # -- comparisons -----------------------------------------------------
    def _setp_common(self, pack, dec, guard, av, bv) -> None:
        if dec.cmp is None:
            raise SimulationError(f"unknown comparison {dec.ins.opcode.name}")
        result = dec.cmp(av, bv)
        chain = self._pv(pack, dec.ops[4])
        result = (result | chain) if dec.setp_or else (result & chain)
        pd = dec.ops[0]
        if pd.reg != (7 if pd.is_pred else 255):
            np.copyto(pack.preds[pd.reg], result, where=guard)

    def _b_isetp(self, pack, dec, guard) -> None:
        a, b = dec.ops[2], dec.ops[3]
        if dec.setp_u32:
            av, bv = self._ru32(pack, a), self._ru32(pack, b)
        else:
            av, bv = self._rs32(pack, a), self._rs32(pack, b)
        self._setp_common(pack, dec, guard, av, bv)

    def _b_fsetp(self, pack, dec, guard) -> None:
        self._setp_common(pack, dec, guard,
                          self._rf32(pack, dec.ops[2]),
                          self._rf32(pack, dec.ops[3]))

    def _b_dsetp(self, pack, dec, guard) -> None:
        self._setp_common(pack, dec, guard,
                          self._rf64(pack, dec.ops[2]),
                          self._rf64(pack, dec.ops[3]))

    def _b_plop3(self, pack, dec, guard) -> None:
        pa = self._pv(pack, dec.ops[2])
        pb = self._pv(pack, dec.ops[3])
        result = (pa | pb) if dec.setp_or else (pa & pb)
        pd = dec.ops[0]
        if pd.reg != (7 if pd.is_pred else 255):
            np.copyto(pack.preds[pd.reg], result, where=guard)

    # -- fp32 ------------------------------------------------------------
    def _b_fadd(self, pack, dec, guard) -> None:
        d, a, b = dec.ops[:3]
        self._wf32(pack, d.reg, self._rf32(pack, a) + self._rf32(pack, b),
                   guard)

    def _b_fmul(self, pack, dec, guard) -> None:
        d, a, b = dec.ops[:3]
        self._wf32(pack, d.reg, self._rf32(pack, a) * self._rf32(pack, b),
                   guard)

    def _b_ffma(self, pack, dec, guard) -> None:
        d, a, b, c = dec.ops[:4]
        val = self._rf32(pack, a) * self._rf32(pack, b) + self._rf32(pack, c)
        self._wf32(pack, d.reg, val, guard)

    def _b_fmnmx(self, pack, dec, guard) -> None:
        d, a, b, sel = dec.ops[:4]
        av, bv = self._rf32(pack, a), self._rf32(pack, b)
        use_min = self._pv(pack, sel)
        val = np.where(use_min, np.minimum(av, bv), np.maximum(av, bv))
        self._wf32(pack, d.reg, val, guard)

    def _b_mufu(self, pack, dec, guard) -> None:
        d, a = dec.ops[:2]
        av = self._rf32(pack, a)
        if dec.mode == 0:
            val = np.float32(1.0) / av
        elif dec.mode == 1:
            val = np.sqrt(av)
        elif dec.mode == 2:
            val = np.float32(1.0) / np.sqrt(av)
        else:
            raise SimulationError(f"unknown MUFU mode {dec.ins.opcode.name}")
        self._wf32(pack, d.reg, val, guard)

    # -- fp64 ------------------------------------------------------------
    def _b_dadd(self, pack, dec, guard) -> None:
        d, a, b = dec.ops[:3]
        self._wf64(pack, d.reg, self._rf64(pack, a) + self._rf64(pack, b),
                   guard)

    def _b_dmul(self, pack, dec, guard) -> None:
        d, a, b = dec.ops[:3]
        self._wf64(pack, d.reg, self._rf64(pack, a) * self._rf64(pack, b),
                   guard)

    def _b_dfma(self, pack, dec, guard) -> None:
        d, a, b, c = dec.ops[:4]
        val = self._rf64(pack, a) * self._rf64(pack, b) + self._rf64(pack, c)
        self._wf64(pack, d.reg, val, guard)

    # -- conversions ------------------------------------------------------
    def _b_i2f(self, pack, dec, guard) -> None:
        d, a = dec.ops[:2]
        if dec.src_u32:
            src = self._ru32(pack, a).astype(np.float64)
        else:
            src = self._rs32(pack, a).astype(np.float64)
        if dec.dst_f64:
            self._wf64(pack, d.reg, src, guard)
        else:
            self._wf32(pack, d.reg, src.astype(np.float32), guard)

    def _b_f2i(self, pack, dec, guard) -> None:
        d, a = dec.ops[:2]
        if dec.dst_f64:
            src = self._rf64(pack, a)
        else:
            src = self._rf32(pack, a).astype(np.float64)
        val = np.trunc(src).astype(np.int64).astype(np.uint32)
        self._wu32(pack, d.reg, val, guard)

    def _b_f2f(self, pack, dec, guard) -> None:
        d, a = dec.ops[:2]
        if dec.f2f_widen:
            self._wf64(pack, d.reg,
                       self._rf32(pack, a).astype(np.float64), guard)
        else:
            self._wf32(pack, d.reg,
                       self._rf64(pack, a).astype(np.float32), guard)

    def _b_i2i(self, pack, dec, guard) -> None:
        self._wu32(pack, dec.ops[0].reg, self._ru32(pack, dec.ops[1]), guard)

    # -- memory ----------------------------------------------------------
    def _addrs(self, pack, mem: DecOp) -> np.ndarray:
        """Byte addresses of a memory operand, a fresh ``(W, 32)``
        int64 array the caller may overwrite."""
        if mem.mem_base < 0:
            return np.full((pack.n, WARP), mem.mem_off, dtype=np.int64)
        addrs = self._reg(pack, mem.mem_base).astype(np.int64)
        addrs += mem.mem_off
        return addrs

    def _b_ldg(self, pack, dec, guard) -> None:
        d, mem = dec.ops[0], dec.ops[1]
        if not guard.any():
            return
        act = self._addrs(pack, mem)[guard]
        for k in range(dec.width_regs):
            vals = self.memory.read_u32(act + 4 * k)
            if d.reg != 255:
                pack.regs[d.reg + k][guard] = vals

    def _b_stg(self, pack, dec, guard) -> None:
        mem, src = dec.ops[0], dec.ops[1]
        if not guard.any():
            return
        act = self._addrs(pack, mem)[guard]
        for k in range(dec.width_regs):
            self.memory.write_u32(act + 4 * k,
                                  self._reg(pack, src.reg + k)[guard])

    def _b_ldl(self, pack, dec, guard) -> None:
        d = dec.ops[0]
        slot = dec.mem_slot
        for k in range(dec.width_regs):
            np.copyto(pack.regs[d.reg + k], pack.local[slot + k], where=guard)

    def _b_stl(self, pack, dec, guard) -> None:
        src = dec.ops[1]
        slot = dec.mem_slot
        for k in range(dec.width_regs):
            np.copyto(pack.local[slot + k], self._reg(pack, src.reg + k),
                      where=guard)

    def _smem_u32(self, pack) -> np.ndarray:
        if pack.shared is None:
            raise SimulationError("kernel uses shared memory but none allocated")
        return pack.shared.view(np.uint32)

    def _smem_words(self, pack, mem: DecOp, width: int,
                    guard: np.ndarray) -> Optional[np.ndarray]:
        """Word indices into the pack's shared buffer of one LDS/STS:
        the whole ``(W, 32)`` plane when no lane is masked, else the
        guarded lanes only (``None`` when there are none)."""
        if pack.dense:
            act = self._addrs(pack, mem)
            woff = pack.shared_word_off
        elif guard.any():
            act = self._addrs(pack, mem)[guard]
            woff = np.broadcast_to(pack.shared_word_off,
                                   (pack.n, WARP))[guard]
        else:
            return None
        if act.min() < 0 or act.max() + 4 * width > pack.shared_bytes:
            raise SimulationError("shared memory access out of bounds")
        # in place: a (W, 32) int64 temporary costs more than the shift
        act >>= 2
        act += woff
        return act

    def _b_lds(self, pack, dec, guard) -> None:
        d, mem = dec.ops[0], dec.ops[1]
        smem = self._smem_u32(pack)
        words = self._smem_words(pack, mem, dec.width_regs, guard)
        if words is None:
            return
        for k in range(dec.width_regs):
            if k:
                words += 1
            if pack.dense:
                pack.regs[d.reg + k] = smem[words]
            else:
                pack.regs[d.reg + k][guard] = smem[words]

    def _b_sts(self, pack, dec, guard) -> None:
        mem, src = dec.ops[0], dec.ops[1]
        smem = self._smem_u32(pack)
        words = self._smem_words(pack, mem, dec.width_regs, guard)
        if words is None:
            return
        for k in range(dec.width_regs):
            if k:
                words += 1
            val = self._reg(pack, src.reg + k)
            smem[words] = val if pack.dense else val[guard]

    # -- atomics ----------------------------------------------------------
    def _b_red(self, pack, dec, guard) -> None:
        mem, src = dec.ops[0], dec.ops[1]
        if not guard.any():
            return
        act = self._addrs(pack, mem)[guard]
        if dec.atom_kind == ATOM_F32:
            self.memory.atomic_add_f32(act, self._rf32(pack, src)[guard])
        elif dec.atom_kind == ATOM_F64:
            self.memory.atomic_add_f64(act, self._rf64(pack, src)[guard])
        else:
            self.memory.atomic_add_u32(act, self._ru32(pack, src)[guard])

    def _b_atoms(self, pack, dec, guard) -> None:
        mem, src = dec.ops[0], dec.ops[1]
        if not guard.any():
            return
        smem = self._smem_u32(pack)
        act = self._addrs(pack, mem)[guard]
        if (act < 0).any() or (act + 4 > pack.shared_bytes).any():
            raise SimulationError("shared atomic out of bounds")
        woff = np.broadcast_to(pack.shared_word_off, (pack.n, WARP))[guard]
        idx = (act >> 2) + woff
        if dec.atom_kind == ATOM_F32:
            np.add.at(pack.shared.view(np.float32), idx,
                      self._rf32(pack, src)[guard])
        else:
            np.add.at(smem, idx, self._ru32(pack, src)[guard])

    # -- texture ----------------------------------------------------------
    def _b_tex(self, pack, dec, guard) -> None:
        d = dec.ops[0]
        layout = self.textures.get(dec.tex_slot)
        if layout is None:
            raise SimulationError(f"no texture bound to slot {dec.tex_slot}")
        if not guard.any():
            return
        x = self._rs32(pack, dec.ops[1]).astype(np.int64)
        y = self._rs32(pack, dec.ops[2]).astype(np.int64)
        addrs = layout.addresses(x, y)
        pack.regs[d.reg][guard] = self.memory.read_u32(
            addrs[guard].astype(np.int64))

    # ------------------------------------------------------------------
    # lockstep driver
    # ------------------------------------------------------------------

    def run(self, pack: WarpPack) -> tuple[int, Optional[int]]:
        """Run the pack until all warps finish or control flow diverges.

        Returns ``(instructions_executed, diverged_at)`` where
        ``diverged_at`` is ``None`` on clean completion, else the PC of
        the branch the pack could not take in lockstep: the caller
        finishes ``pack.dissolve(diverged_at)`` on the per-warp loop.

        Which lanes run changes only at a ``BRA``, an ``EXIT`` or a
        worklist resume, so :meth:`WarpPack.lanes`, the live-warp count
        and whether every lane is covered are computed there and shared
        by the straight-line instructions in between; a predicated
        instruction derives its own guard from the shared one.
        """
        table = self.decoded.table
        handlers = self._handlers
        nprog = len(table)
        max_insts = _MAX_STEPS_PER_BLOCK * (pack.n // pack.warps_per_block)
        insts = 0
        live = pack.live
        emit = self.emit
        self._worklist = []
        lanes = None  # stale after every control-flow change
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while True:
                if lanes is None:
                    n_live = int(live.sum())
                    if not n_live:
                        if not self._worklist:
                            break
                        # current subgroup ran dry: resume a parked one
                        mask, resume_pc = self._worklist.pop()
                        live[:] = mask
                        pack.pc = resume_pc
                        emit.resume(mask)
                        n_live = int(live.sum())
                    lanes = pack.lanes()
                    all_lanes = bool(lanes.all())
                pc = pack.pc
                if pc >= nprog:
                    raise SimulationError("PC ran off the end of the program")
                dec = table[pc]
                insts += n_live
                if insts > max_insts:
                    raise SimulationError(
                        "functional execution exceeded step budget")
                if dec.pred >= 0:
                    p = pack.preds[dec.pred]
                    guard = lanes & (~p if dec.pred_neg else p)
                    pack.dense = False
                else:
                    guard = lanes
                    pack.dense = all_lanes
                if emit is not None:
                    emit.begin_row(pc)
                base = dec.base
                if base == "BRA":
                    lanes = None
                    prev_live = live.copy() if emit is not None else None
                    if not self._branch(pack, dec, guard):
                        # disagreement: rewind this BRA (the per-warp
                        # loop re-executes it, reproducing exact
                        # semantics, including the divergent-lane error)
                        return insts - n_live, pc
                    if emit is not None:
                        emit.deaths(prev_live & ~live)
                    continue
                if base == "EXIT":
                    lanes = None
                    pack.active &= ~guard
                    if emit is not None:
                        prev_live = live.copy()
                        live &= pack.active.any(axis=1)
                        emit.deaths(prev_live & ~live)
                    else:
                        live &= pack.active.any(axis=1)
                    pack.pc = pc + 1
                    continue
                if base in ("BAR", "NOP"):
                    # lockstep means every live warp is already at the
                    # barrier: release is immediate
                    pack.pc = pc + 1
                    continue
                handler = handlers[pc]
                if handler is None:
                    ins = dec.ins
                    raise SimulationError(
                        f"unimplemented opcode {ins.opcode.name} "
                        f"at {ins.offset:#x}"
                    )
                handler(self, pack, dec, guard)
                pack.pc = pc + 1
        return insts, None

    def _branch(self, pack: WarpPack, dec, guard: np.ndarray) -> bool:
        """Execute a warp-uniform BRA across the pack.

        Returns False when any warp has a divergent lane split — the
        caller dissolves and the legacy path re-executes the branch per
        warp.  When live warps merely *disagree* on the next PC (every
        warp still uniform) and a trace emitter is attached, the pack
        **splits**: the fall-through warps are parked on the worklist
        with their resume PC and the taken warps continue — per-warp
        trace segments keep each warp's row stream exact.  Splitting is
        refused (dissolve) when the program has a barrier and a block
        would end up with live warps on both sides: the lockstep
        pass-through barrier is only sound when a block's warps arrive
        together.  Without an emitter the consumer cannot express
        per-warp streams, so disagreement still dissolves.
        """
        live = pack.live
        na = pack.active.sum(axis=1)
        nt = guard.sum(axis=1)
        partial = live & (nt > 0) & (nt < na)
        if partial.any():
            return False
        taken = live & (na > 0) & (nt == na)
        fall = live & (na > 0) & (nt == 0)
        if taken.any() and fall.any():
            if self.emit is None:
                return False
            if self.decoded.has_barrier:
                if np.intersect1d(pack.block_of[taken],
                                  pack.block_of[fall]).size:
                    return False
            self._worklist.append((fall.copy(), pack.pc + 1))
            self.emit.suspend(fall)
            live &= ~fall
        # warps with no active lanes finish at a branch (legacy rule)
        live &= na > 0
        if taken.any():
            if dec.target_pc < 0:
                raise SimulationError(
                    f"unknown branch target at {dec.ins.offset:#x}")
            if dec.target_pc >= len(self.program):
                live[:] = False  # branch past the end == EXIT
            else:
                pack.pc = dec.target_pc
        else:
            pack.pc += 1
        return True


def run_per_warp(executor: Executor, warps: list[WarpState],
                 budget: Optional[SimBudget] = None) -> int:
    """The per-warp functional loop: run ``warps`` (fresh, or left
    over from a dissolved pack) to completion with ``Executor.step``,
    block by block, round-robin within a block so barriers synchronise.
    Charges ``budget`` the exact count — in ticks while a block runs,
    the remainder when it completes.  Returns the number of
    warp-instructions executed."""
    table = executor.decoded.table
    insts = 0
    by_block: dict[int, list[WarpState]] = {}
    for w in warps:
        by_block.setdefault(w.block_id, []).append(w)
    for block_warps in by_block.values():
        steps = charged = 0
        pending = [w for w in block_warps if not w.done]
        while pending:
            progressed = False
            arrived: list[WarpState] = []
            for warp in pending:
                # run each warp until it blocks at a barrier or finishes
                while not warp.done:
                    if table[warp.pc].base == "BAR":
                        break
                    executor.step(warp)
                    progressed = True
                    steps += 1
                    if steps > _MAX_STEPS_PER_BLOCK:
                        raise SimulationError(
                            "functional execution exceeded step budget")
                    if budget is not None and steps - charged >= _BUDGET_TICK:
                        budget.spend(steps - charged)
                        charged = steps
                if not warp.done:
                    arrived.append(warp)
            if arrived and len(arrived) == len(pending):
                # all at the barrier: release (executes BAR, advances pc)
                for warp in arrived:
                    executor.step(warp)
                    steps += 1
                progressed = True
            pending = [w for w in pending if not w.done]
            if pending and not progressed:
                raise SimulationError(
                    "barrier deadlock during functional execution")
        if budget is not None:
            budget.spend(steps - charged)
        insts += steps
    return insts


class FunctionalRun(NamedTuple):
    """What :func:`run_functional_batched` did."""

    #: warp-instructions executed, per-warp remainder included
    insts: int
    #: packs built and started on the batched engine
    packs: int
    #: packs that dissolved and finished on the per-warp loop
    dissolved: int
    #: warp-instructions those packs executed on the per-warp loop
    legacy_insts: int


def run_functional_batched(
    executor: Executor,
    config,
    blocks: Iterable[int],
    budget: Optional[SimBudget] = None,
) -> FunctionalRun:
    """Execute ``blocks`` of a launch functionally on the batched engine.

    ``blocks`` may be any iterable — it is consumed lazily, one pack's
    worth (``MAX_PACK_WARPS // warps_per_block`` blocks, at least one)
    at a time, so huge grids never materialise a block list.  Each pack
    is charged to ``budget`` as it completes, so a tripped budget has
    overshot by at most one pack.  The caller is responsible for routing
    non-batchable programs (see :func:`batchable`) to
    :func:`run_per_warp`.
    """
    fail_point("batch.functional")
    engine = BatchEngine(executor)
    per_pack = max(MAX_PACK_WARPS // config.warps_per_block, 1)
    insts = packs = dissolved = legacy_insts = 0
    it = iter(blocks)
    for chunk in iter(lambda: list(islice(it, per_pack)), []):
        pack = WarpPack(executor.program, config, chunk)
        done, diverged_at = engine.run(pack)
        packs += 1
        insts += done
        if budget is not None:
            budget.spend(done)
        if diverged_at is not None:
            dissolved += 1
            legacy_insts += run_per_warp(
                executor, pack.dissolve(diverged_at), budget)
    return FunctionalRun(insts + legacy_insts, packs, dissolved, legacy_insts)
