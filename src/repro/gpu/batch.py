"""Batched multi-warp functional execution (the fast path).

The legacy functional path in
:meth:`~repro.gpu.simulator.Simulator._run_functional` interprets one
instruction per warp per Python call; for large grids the per-call
Python work dominates wall-clock.  This module stacks the warps of many
blocks into ``(n_warps, 32)`` NumPy arrays (a :class:`WarpPack`) and
executes one *predecoded* instruction across the whole pack per step,
so the Python-per-instruction cost is amortised over hundreds of warps.

Correctness contract — the batched path must produce **bit-identical**
device memory and identical counters vs. the per-warp path:

* all case-study kernels have warp-uniform control flow, so every live
  warp sits at the same PC and a single-PC lockstep suffices;
* NumPy fancy-index scatter and ``np.add.at`` apply updates in flat
  row-major order, which for a ``(n_warps, 32)`` pack is exactly the
  block-then-warp-then-lane order the legacy loop uses within a step;
* integer atomics are associative (wrapping uint32 adds), so any
  inter-step ordering is bit-identical; float atomics are only batched
  when they retire at most once per warp at a single PC
  (:func:`_order_sensitive`), where pack order equals legacy order;
* on the first branch where live warps disagree (or predicate lanes
  split inside a warp), the pack *dissolves*: state is written back to
  the per-warp :class:`~repro.gpu.executor.WarpState` objects and the
  remaining execution — including the exact divergent-branch error the
  legacy path would raise — happens on the legacy per-warp loop.

Programs containing opcodes the executor does not implement, or
order-sensitive float atomics, are simply routed to the legacy path.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import SimulationError
from repro.testing.faultinject import fail_point
from repro.gpu.executor import Executor, WarpState
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

__all__ = ["WarpPack", "BatchEngine", "run_functional_batched", "batchable"]

WARP = 32

#: upper bound on warps stacked into one pack (keeps temporaries cache-sized)
MAX_PACK_WARPS = 2048

#: per-block step budget, mirroring the legacy functional loop
_MAX_STEPS_PER_BLOCK = 50_000_000


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
    """All warps of a chunk of blocks, stacked lane-wise.

    Register file is ``(nregs, W, 32)``, predicates ``(8, W, 32)``,
    active lanes ``(W, 32)``; ``live`` marks warps still executing.
    Per-block shared memory is carved out of one aligned backing buffer
    so the per-warp ``WarpState.shared`` views stay valid after a
    dissolve.
    """

    __slots__ = (
        "warps", "n", "regs", "preds", "active", "live", "pc", "local",
        "tid", "ctaid", "ntid", "nctaid",
        "shared", "shared_word_off", "shared_bytes",
    )

    def __init__(self, warps: list[WarpState], shared_bytes: int):
        self.warps = warps
        n = self.n = len(warps)
        nregs = warps[0].regs.shape[0]
        nlocal = warps[0].local.shape[0]
        self.regs = np.zeros((nregs, n, WARP), dtype=np.uint32)
        self.preds = np.zeros((8, n, WARP), dtype=bool)
        self.preds[7] = True  # PT
        self.active = np.stack([w.active for w in warps])
        self.live = np.ones(n, dtype=bool)
        self.pc = 0
        self.local = np.zeros((nlocal, n, WARP), dtype=np.uint32)
        self.tid = tuple(
            np.stack([w.tid[axis] for w in warps]).astype(np.uint32)
            for axis in range(3)
        )
        self.ctaid = tuple(
            np.array([w.ctaid[axis] for w in warps],
                     dtype=np.uint32).reshape(n, 1)
            for axis in range(3)
        )
        self.ntid = warps[0].ntid
        self.nctaid = warps[0].nctaid
        # one aligned backing buffer for all blocks' shared memory; the
        # per-warp WarpState.shared attributes are re-pointed at views
        # so the legacy fallback sees the same bytes after a dissolve
        self.shared_bytes = shared_bytes
        self.shared: Optional[np.ndarray] = None
        self.shared_word_off: Optional[np.ndarray] = None
        if shared_bytes:
            stride = -(-shared_bytes // 8) * 8
            block_ids: list[int] = []
            for w in warps:
                if w.block_id not in block_ids:
                    block_ids.append(w.block_id)
            self.shared = np.zeros(len(block_ids) * stride, dtype=np.uint8)
            index = {b: i for i, b in enumerate(block_ids)}
            off = np.empty((n, 1), dtype=np.int64)
            for i, w in enumerate(warps):
                base = index[w.block_id] * stride
                w.shared = self.shared[base : base + shared_bytes]
                off[i, 0] = base >> 2
            self.shared_word_off = off

    def dissolve(self, pc: int) -> list[WarpState]:
        """Write pack state back into the per-warp objects; returns the
        warps (shared memory views are already in place)."""
        for i, w in enumerate(self.warps):
            w.regs[:] = self.regs[:, i, :]
            w.preds[:] = self.preds[:, i, :]
            w.active[:] = self.active[i]
            w.local[:] = self.local[:, i, :]
            w.pc = pc
            w.done = not self.live[i]
        return self.warps


class _Dissolved(Exception):
    """Internal: the pack hit divergent control flow at ``self.pc``."""

    def __init__(self, pc: int):
        self.pc = pc


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
        self._handlers: list[Optional[Callable]] = [
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
        if mem.mem_base >= 0:
            base = self._reg(pack, mem.mem_base).astype(np.int64)
        else:
            base = np.zeros((pack.n, WARP), dtype=np.int64)
        return base + mem.mem_off

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

    def _b_lds(self, pack, dec, guard) -> None:
        d, mem = dec.ops[0], dec.ops[1]
        width = dec.width_regs
        smem = self._smem_u32(pack)
        if not guard.any():
            return
        addrs = self._addrs(pack, mem)
        act = addrs[guard]
        if (act < 0).any() or (act + 4 * width > pack.shared_bytes).any():
            raise SimulationError("shared memory access out of bounds")
        woff = np.broadcast_to(pack.shared_word_off, (pack.n, WARP))[guard]
        for k in range(width):
            pack.regs[d.reg + k][guard] = smem[(act >> 2) + woff + k]

    def _b_sts(self, pack, dec, guard) -> None:
        mem, src = dec.ops[0], dec.ops[1]
        width = dec.width_regs
        smem = self._smem_u32(pack)
        if not guard.any():
            return
        addrs = self._addrs(pack, mem)
        act = addrs[guard]
        if (act < 0).any() or (act + 4 * width > pack.shared_bytes).any():
            raise SimulationError("shared memory access out of bounds")
        woff = np.broadcast_to(pack.shared_word_off, (pack.n, WARP))[guard]
        for k in range(width):
            smem[(act >> 2) + woff + k] = self._reg(pack, src.reg + k)[guard]

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

    def run(self, pack: WarpPack) -> tuple[int, Optional[list[WarpState]]]:
        """Run the pack until all warps finish or control flow diverges.

        Returns ``(instructions_executed, leftover_warps)`` where
        ``leftover_warps`` is ``None`` on clean completion, else the
        written-back per-warp states for the legacy loop to finish.
        """
        table = self.decoded.table
        handlers = self._handlers
        nprog = len(table)
        max_insts = _MAX_STEPS_PER_BLOCK * max(
            len({w.block_id for w in pack.warps}), 1)
        insts = 0
        live = pack.live
        self._worklist = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while live.any() or self._worklist:
                if not live.any():
                    # current subgroup ran dry: resume a parked one
                    mask, resume_pc = self._worklist.pop()
                    live[:] = mask
                    pack.pc = resume_pc
                    self.emit.resume(mask)
                pc = pack.pc
                if pc >= nprog:
                    raise SimulationError("PC ran off the end of the program")
                dec = table[pc]
                n_live = int(live.sum())
                insts += n_live
                if insts > max_insts:
                    raise SimulationError(
                        "functional execution exceeded step budget")
                guard = pack.active & live[:, None]
                if dec.pred >= 0:
                    p = pack.preds[dec.pred]
                    guard &= (~p if dec.pred_neg else p)
                emit = self.emit
                if emit is not None:
                    emit.begin_row(pc)
                base = dec.base
                if base == "BRA":
                    prev_live = live.copy() if emit is not None else None
                    if not self._branch(pack, dec, guard):
                        # disagreement: rewind this BRA (the legacy loop
                        # re-executes it, reproducing exact semantics,
                        # including the divergent-lane error)
                        insts -= n_live
                        return insts, pack.dissolve(pc)
                    if emit is not None:
                        emit.deaths(prev_live & ~live)
                    continue
                if base == "EXIT":
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
                blocks = np.array([w.block_id for w in pack.warps])
                if np.intersect1d(blocks[taken], blocks[fall]).size:
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


def _finish_legacy(executor: Executor, warps: list[WarpState]) -> int:
    """Finish partially-executed warps on the per-warp path, respecting
    barriers block-by-block (mirrors ``Simulator._run_functional``)."""
    insts = 0
    by_block: dict[int, list[WarpState]] = {}
    for w in warps:
        by_block.setdefault(w.block_id, []).append(w)
    for block_warps in by_block.values():
        steps = 0
        pending = [w for w in block_warps if not w.done]
        while pending:
            progressed = False
            arrived: list[WarpState] = []
            for warp in pending:
                while not warp.done:
                    if executor.decoded.table[warp.pc].base == "BAR":
                        break
                    executor.step(warp)
                    progressed = True
                    steps += 1
                    if steps > _MAX_STEPS_PER_BLOCK:
                        raise SimulationError(
                            "functional execution exceeded step budget")
                if not warp.done:
                    arrived.append(warp)
            if arrived and len(arrived) == len(pending):
                for warp in arrived:
                    executor.step(warp)
                    steps += 1
                progressed = True
            pending = [w for w in pending if not w.done]
            if pending and not progressed:
                raise SimulationError(
                    "barrier deadlock during functional execution")
        insts += steps
    return insts


def run_functional_batched(
    make_warps: Callable[[int], list[WarpState]],
    executor: Executor,
    blocks: Iterable[int],
    shared_bytes: int,
) -> int:
    """Execute ``blocks`` functionally on the batched engine.

    ``make_warps`` builds the per-warp states for one block (the
    simulator's block factory).  ``blocks`` may be any iterable — it is
    consumed lazily, one pack's worth at a time, so huge grids never
    materialise a block list.  Returns the number of instructions
    executed.  The caller is responsible for routing non-batchable
    programs (see :func:`batchable`) to the legacy path.
    """
    fail_point("batch.functional")
    engine = BatchEngine(executor)
    insts = 0
    it = iter(blocks)
    carry: Optional[list[WarpState]] = None
    while True:
        if carry is not None:
            chunk_warps, carry = carry, None
        else:
            chunk_warps = []
        for block in it:
            block_warps = make_warps(block)
            if chunk_warps and (
                len(chunk_warps) + len(block_warps) > MAX_PACK_WARPS
            ):
                carry = block_warps
                break
            chunk_warps.extend(block_warps)
        if not chunk_warps:
            break
        pack = WarpPack(chunk_warps, shared_bytes)
        done, leftover = engine.run(pack)
        insts += done
        if leftover is not None:
            insts += _finish_legacy(executor, leftover)
    return insts
