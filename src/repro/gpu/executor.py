"""Functional SASS execution on 32-lane warps.

Each warp executes instructions on NumPy vectors of 32 lanes with full
predication.  The executor updates architectural state immediately and
returns an :class:`Effect` describing the memory/pipeline footprint of
the instruction; the scheduler turns effects into timing.

Dispatch runs off the :mod:`~repro.gpu.predecode` table: handler
resolution, operand kinds, modifier modes and branch targets are all
resolved once per program, so :meth:`Executor.step` does no string or
attribute dispatch on the hot path.  The batched functional engine in
:mod:`~repro.gpu.batch` consumes the same table.

Representation choices (documented simplifications):

* registers are 32-bit; 64-bit values occupy aligned pairs (as on real
  hardware) but *addresses* fit a single register — device memory is a
  flat byte array smaller than 4 GiB;
* divergent predicated execution is supported everywhere except ``BRA``:
  a branch whose active lanes disagree raises
  :class:`~repro.errors.SimulationError` (cudalite compiles ``if`` to
  predication and loop trip counts are warp-uniform in the case-study
  kernels, so this never triggers for in-tree workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cudalite.compiler import CompiledKernel
from repro.errors import SimulationError
from repro.testing.faultinject import fail_point
from repro.gpu.coalesce import coalesce_sectors, shared_transactions
from repro.gpu.config import GPUSpec
from repro.gpu.predecode import (
    ATOM_F32,
    ATOM_F64,
    DecOp,
    K_CONST,
    K_FIMM,
    K_REG,
    predecode,
)
from repro.sass.isa import Program

__all__ = ["DeviceMemory", "WarpState", "Effect", "Executor", "TextureLayout",
           "StaticEffect", "static_effect_table", "state_shape",
           "thread_geometry"]

WARP = 32


class DeviceMemory:
    """Flat byte-addressable device memory with typed vector access."""

    def __init__(self, size_bytes: int):
        size_bytes = (size_bytes + 7) // 8 * 8
        self.size = size_bytes
        self.buf = np.zeros(size_bytes, dtype=np.uint8)
        self._u32 = self.buf.view(np.uint32)

    def _check(self, addrs: np.ndarray, nbytes: int) -> None:
        if addrs.size == 0:
            return
        lo = int(addrs.min())
        hi = int(addrs.max()) + nbytes
        if lo < 0 or hi > self.size:
            raise SimulationError(
                f"device memory access out of bounds: [{lo:#x}, {hi:#x}) "
                f"outside 0..{self.size:#x}"
            )
        # natural-alignment check for every power-of-two access width
        # (the old form only looked at 4- and 8-byte accesses, behind an
        # inverted one-liner that read as if it skipped them)
        if nbytes > 1 and (nbytes & (nbytes - 1)) == 0:
            misaligned = addrs & (nbytes - 1)
            if misaligned.any():
                bad = int(addrs[np.nonzero(misaligned)[0][0]])
                raise SimulationError(
                    f"misaligned {nbytes}-byte access at {bad:#x}"
                )

    def read_u32(self, addrs: np.ndarray) -> np.ndarray:
        self._check(addrs, 4)
        return self._u32[addrs >> 2]

    def write_u32(self, addrs: np.ndarray, values: np.ndarray) -> None:
        self._check(addrs, 4)
        self._u32[addrs >> 2] = values

    def atomic_add_f32(self, addrs: np.ndarray, values: np.ndarray) -> None:
        self._check(addrs, 4)
        f32 = self.buf.view(np.float32)
        np.add.at(f32, addrs >> 2, values)

    def atomic_add_u32(self, addrs: np.ndarray, values: np.ndarray) -> None:
        self._check(addrs, 4)
        np.add.at(self._u32, addrs >> 2, values)

    def atomic_add_f64(self, addrs: np.ndarray, values: np.ndarray) -> None:
        self._check(addrs, 8)
        f64 = self.buf.view(np.float64)
        np.add.at(f64, addrs >> 3, values)


@dataclass
class TextureLayout:
    """A bound 2D texture: base offset, texel grid and tiling.

    Texture memory is stored *tiled* (block-linear): texel ``(x, y)``
    lives in tile ``(x // tx, y // ty)``; tiles are row-major and texels
    row-major inside a tile.  This is what gives the texture cache its
    2D locality (paper §4.6).
    """

    base: int
    width: int
    height: int
    tile_x: int = 8
    tile_y: int = 4
    elem_bytes: int = 4

    def addresses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.clip(x, 0, self.width - 1).astype(np.int64)
        y = np.clip(y, 0, self.height - 1).astype(np.int64)
        tiles_x = (self.width + self.tile_x - 1) // self.tile_x
        tile_id = (y // self.tile_y) * tiles_x + (x // self.tile_x)
        intra = (y % self.tile_y) * self.tile_x + (x % self.tile_x)
        tile_bytes = self.tile_x * self.tile_y * self.elem_bytes
        return self.base + tile_id * tile_bytes + intra * self.elem_bytes

    @property
    def nbytes(self) -> int:
        tiles_x = (self.width + self.tile_x - 1) // self.tile_x
        tiles_y = (self.height + self.tile_y - 1) // self.tile_y
        return tiles_x * tiles_y * self.tile_x * self.tile_y * self.elem_bytes

    def upload(self, mem: DeviceMemory, array: np.ndarray) -> None:
        """Copy a row-major f32 array into tiled texture storage."""
        if array.shape != (self.height, self.width):
            raise ValueError("texture array shape mismatch")
        ys, xs = np.mgrid[0 : self.height, 0 : self.width]
        addrs = self.addresses(xs.ravel(), ys.ravel())
        mem.buf.view(np.float32)[addrs >> 2] = array.astype(np.float32).ravel()


class WarpState:
    """Architectural state of one warp."""

    __slots__ = (
        "regs", "preds", "active", "pc", "done",
        "tid", "ctaid", "ntid", "nctaid", "local", "shared",
        "warp_id", "block_id",
    )

    def __init__(
        self,
        nregs: int,
        local_slots: int,
        shared: Optional[np.ndarray],
        tid: tuple[np.ndarray, np.ndarray, np.ndarray],
        ctaid: tuple[int, int, int],
        ntid: tuple[int, int, int],
        nctaid: tuple[int, int, int],
        active: np.ndarray,
        warp_id: int = 0,
        block_id: int = 0,
    ):
        self.regs = np.zeros((nregs, WARP), dtype=np.uint32)
        self.preds = np.zeros((8, WARP), dtype=bool)
        self.preds[7] = True  # PT
        self.active = active.copy()
        self.pc = 0
        self.done = False
        self.tid = tid
        self.ctaid = ctaid
        self.ntid = ntid
        self.nctaid = nctaid
        self.local = np.zeros((max(local_slots, 1), WARP), dtype=np.uint32)
        self.shared = shared
        self.warp_id = warp_id
        self.block_id = block_id


def state_shape(program: Program) -> tuple[int, int]:
    """``(nregs, local_slots)`` of a warp that runs ``program``."""
    return (max(program.registers_per_thread + 2, 8),
            max(program.local_bytes_per_thread // 4, 1))


def thread_geometry(config, blocks) -> tuple[tuple, np.ndarray, tuple]:
    """Thread geometry of whole blocks of a launch: the one place
    ``tid``/``ctaid``/``active`` are derived from a
    :class:`~repro.gpu.simulator.LaunchConfig`.

    Returns ``(tid, active, ctaid)``.  ``tid`` is three
    ``(warps_per_block, 32)`` uint32 planes and ``active`` the matching
    lane mask — the same template for every block: lanes past the
    block's thread count are inactive and read the last thread's ids.
    ``ctaid`` is three ``(len(blocks),)`` uint32 arrays, one entry per
    linear block id in ``blocks``.
    """
    gx = config.grid[0]
    bx = config.block[0]
    threads = config.threads_per_block
    wpb = config.warps_per_block
    linear = np.arange(wpb * WARP).reshape(wpb, WARP)
    active = linear < threads
    linear = np.minimum(linear, threads - 1)
    tid = (
        (linear % bx).astype(np.uint32),
        (linear // bx).astype(np.uint32),
        np.zeros((wpb, WARP), dtype=np.uint32),
    )
    blocks = np.asarray(blocks, dtype=np.int64)
    ctaid = (
        (blocks % gx).astype(np.uint32),
        (blocks // gx).astype(np.uint32),
        np.zeros(len(blocks), dtype=np.uint32),
    )
    return tid, active, ctaid


@dataclass
class Effect:
    """Timing-relevant footprint of one executed instruction."""

    kind: str  # alu|fp64|mufu|convert|branch|barrier|exit|nop|
    #      global_load|global_store|local_load|local_store|
    #      shared_load|shared_store|texture|atomic_global|atomic_shared
    sectors: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    transactions: int = 0
    dest_regs: tuple[int, ...] = ()
    space: str = ""
    unique_atomic_addrs: int = 0
    #: worst-case same-address lane count (serialization depth)
    atomic_serial: int = 0
    exited: bool = False


_NOSECTORS = np.empty(0, dtype=np.int64)


class Executor:
    """Functional stepper for one compiled kernel on device memory."""

    def __init__(
        self,
        compiled: CompiledKernel,
        memory: DeviceMemory,
        spec: GPUSpec,
        param_values: dict[int, int],
        textures: dict[int, TextureLayout],
    ):
        self.compiled = compiled
        self.program: Program = compiled.program
        self.memory = memory
        self.spec = spec
        self.param_values = param_values  # cbank offset -> 32-bit value
        self.textures = textures
        #: shared predecode table (also consumed by the batched engine)
        self.decoded = predecode(self.program)
        #: per-PC handlers, resolved once (no per-step dispatch).  Plain
        #: functions, not bound methods: a table of bound methods is a
        #: reference cycle through ``self``, and it kept every launch's
        #: device image alive until a full garbage collection
        self._handlers = [
            getattr(type(self), "_op_" + d.hname)
            if d.hname is not None else None
            for d in self.decoded.table
        ]
        #: (const_off, negated, domain) -> frozen 32-lane broadcast row
        self._const_cache: dict[tuple[int, bool, str], np.ndarray] = {}

    # ------------------------------------------------------------------
    # register/operand access helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _reg_row(warp: WarpState, idx: int) -> np.ndarray:
        if idx == 255:  # RZ
            return np.zeros(WARP, dtype=np.uint32)
        return warp.regs[idx]

    def _const_row(self, o: DecOp, domain: str) -> np.ndarray:
        key = (o.const_off, o.negated, domain)
        row = self._const_cache.get(key)
        if row is None:
            raw = self.param_values.get(o.const_off, 0)
            if domain == "f64":
                val = np.full(WARP, np.uint64(raw),
                              dtype=np.uint64).view(np.float64)
                if o.negated:
                    val = -val
            else:
                bits = np.uint32(raw & 0xFFFFFFFF)
                val = np.full(WARP, bits, dtype=np.uint32)
                if domain == "f32":
                    val = val.view(np.float32).copy()
                    if o.negated:
                        val = -val
                elif o.negated:
                    val = (~val + np.uint32(1)).astype(np.uint32)
            val.setflags(write=False)
            row = self._const_cache[key] = val
        return row

    def _ru32(self, warp: WarpState, o: DecOp) -> np.ndarray:
        k = o.kind
        if k == K_REG:
            val = self._reg_row(warp, o.reg).copy()
            if o.negated:
                val = (~val + np.uint32(1)).astype(np.uint32)
            return val
        if k == K_CONST:
            return self._const_row(o, "u32")
        if o.u32_row is not None:  # imm / fimm, negation pre-folded
            return o.u32_row
        raise SimulationError(f"cannot read operand {o.kind} as u32")

    def _rs32(self, warp: WarpState, o: DecOp) -> np.ndarray:
        return self._ru32(warp, o).view(np.int32)

    def _rf32(self, warp: WarpState, o: DecOp) -> np.ndarray:
        k = o.kind
        if k == K_REG:
            val = self._reg_row(warp, o.reg).copy().view(np.float32)
            if o.negated:
                val = -val
            return val
        if k == K_CONST:
            return self._const_row(o, "f32")
        if o.f32_row is not None:  # imm / fimm, negation pre-folded
            return o.f32_row
        raise SimulationError(f"cannot read operand {o.kind} as f32")

    def _rf64(self, warp: WarpState, o: DecOp) -> np.ndarray:
        k = o.kind
        if k == K_FIMM:
            return np.full(WARP, o.f64_val, dtype=np.float64)
        if k == K_REG:
            lo = self._reg_row(warp, o.reg).astype(np.uint64)
            hi_idx = o.reg + 1 if o.reg != 255 else 255
            hi = self._reg_row(warp, hi_idx).astype(np.uint64)
            val = ((hi << np.uint64(32)) | lo).view(np.float64)
            if o.negated:
                val = -val
            return val
        if k == K_CONST:
            return self._const_row(o, "f64")
        raise SimulationError(f"cannot read operand {o.kind} as f64")

    @staticmethod
    def _write_u32(warp: WarpState, reg_idx: int, value: np.ndarray,
                   guard: np.ndarray) -> None:
        if reg_idx == 255:
            return
        row = warp.regs[reg_idx]
        row[guard] = value[guard]

    def _write_f32(self, warp: WarpState, reg_idx: int, value: np.ndarray,
                   guard: np.ndarray) -> None:
        self._write_u32(warp, reg_idx, value.astype(np.float32).view(np.uint32),
                        guard)

    def _write_f64(self, warp: WarpState, reg_idx: int, value: np.ndarray,
                   guard: np.ndarray) -> None:
        bits = value.astype(np.float64).view(np.uint64)
        self._write_u32(warp, reg_idx, (bits & np.uint64(0xFFFFFFFF)).astype(np.uint32), guard)
        self._write_u32(warp, reg_idx + 1, (bits >> np.uint64(32)).astype(np.uint32), guard)

    def _pv(self, warp: WarpState, o: DecOp) -> np.ndarray:
        assert o.kind == K_REG and o.is_pred
        val = warp.preds[o.reg].copy()
        return ~val if o.negated else val

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, warp: WarpState) -> Effect:
        """Execute the instruction at ``warp.pc``; returns its effect.

        Advances the PC (or branches); sets ``warp.done`` on full EXIT.
        """
        fail_point("executor.step")
        if warp.done:
            raise SimulationError("stepping a finished warp")
        if warp.pc >= len(self.program):
            raise SimulationError("PC ran off the end of the program")
        dec = self.decoded.table[warp.pc]
        handler = self._handlers[warp.pc]
        if handler is None:
            ins = dec.ins
            raise SimulationError(
                f"unimplemented opcode {ins.opcode.name} at {ins.offset:#x}"
            )
        guard = warp.active.copy()
        if dec.pred >= 0:
            p = warp.preds[dec.pred]
            guard &= (~p if dec.pred_neg else p)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            effect = handler(self, warp, dec, guard)
        if effect.kind not in ("branch", "exit"):
            warp.pc += 1
        return effect

    # -- moves / special ------------------------------------------------
    def _op_mov(self, warp, dec, guard) -> Effect:
        val = self._ru32(warp, dec.ops[1])
        self._write_u32(warp, dec.ops[0].reg, val, guard)
        return Effect("alu", dest_regs=(dec.ops[0].reg,))

    _SR_VALUES = {
        "SR_TID.X": ("tid", 0), "SR_TID.Y": ("tid", 1), "SR_TID.Z": ("tid", 2),
        "SR_CTAID.X": ("ctaid", 0), "SR_CTAID.Y": ("ctaid", 1),
        "SR_CTAID.Z": ("ctaid", 2),
        "SR_NTID.X": ("ntid", 0), "SR_NTID.Y": ("ntid", 1),
        "SR_NTID.Z": ("ntid", 2),
        "SR_NCTAID.X": ("nctaid", 0), "SR_NCTAID.Y": ("nctaid", 1),
        "SR_NCTAID.Z": ("nctaid", 2),
    }

    def _op_s2r(self, warp, dec, guard) -> Effect:
        name = dec.ops[1].special
        if name == "SR_LANEID":
            val = np.arange(WARP, dtype=np.uint32)
        else:
            attr, axis = self._SR_VALUES[name]
            raw = getattr(warp, attr)[axis]
            if isinstance(raw, np.ndarray):
                val = raw.astype(np.uint32)
            else:
                val = np.full(WARP, np.uint32(raw), dtype=np.uint32)
        self._write_u32(warp, dec.ops[0].reg, val, guard)
        return Effect("alu", dest_regs=(dec.ops[0].reg,))

    # -- integer ALU ---------------------------------------------------
    def _op_iadd3(self, warp, dec, guard) -> Effect:
        d, a, b, c = dec.ops[:4]
        val = (
            self._ru32(warp, a)
            + self._ru32(warp, b)
            + self._ru32(warp, c)
        ).astype(np.uint32)
        self._write_u32(warp, d.reg, val, guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_imad(self, warp, dec, guard) -> Effect:
        d, a, b, c = dec.ops[:4]
        val = (
            self._ru32(warp, a).astype(np.uint64)
            * self._ru32(warp, b).astype(np.uint64)
            + self._ru32(warp, c).astype(np.uint64)
        ).astype(np.uint32)
        self._write_u32(warp, d.reg, val, guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_imnmx(self, warp, dec, guard) -> Effect:
        d, a, b, sel = dec.ops[:4]
        av = self._rs32(warp, a)
        bv = self._rs32(warp, b)
        use_min = self._pv(warp, sel)
        val = np.where(use_min, np.minimum(av, bv), np.maximum(av, bv))
        self._write_u32(warp, d.reg, val.view(np.uint32), guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_lop3(self, warp, dec, guard) -> Effect:
        d, a, b, c, lut = dec.ops[:5]
        av = self._ru32(warp, a)
        bv = self._ru32(warp, b)
        cv = self._ru32(warp, c)
        lut_val = lut.imm
        out = np.zeros(WARP, dtype=np.uint32)
        full = np.uint32(0xFFFFFFFF)
        for k in range(8):
            if (lut_val >> k) & 1:
                term = (av if k & 4 else av ^ full)
                term = term & (bv if k & 2 else bv ^ full)
                term = term & (cv if k & 1 else cv ^ full)
                out |= term
        self._write_u32(warp, d.reg, out, guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_shf(self, warp, dec, guard) -> Effect:
        d, a, b = dec.ops[:3]
        shift = (self._ru32(warp, b) & np.uint32(31)).astype(np.uint32)
        if dec.mode == 0:  # .L
            val = (self._ru32(warp, a) << shift).astype(np.uint32)
        elif dec.mode == 1:  # .S32 arithmetic right
            val = (self._rs32(warp, a) >> shift.view(np.int32)).view(np.uint32)
        else:  # logical right
            val = (self._ru32(warp, a) >> shift).astype(np.uint32)
        self._write_u32(warp, d.reg, val, guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_shfl(self, warp, dec, guard) -> Effect:
        if dec.shfl_idx is None:
            raise SimulationError(
                f"unknown SHFL mode {dec.ins.opcode.name}")
        d, a = dec.ops[:2]
        src = self._ru32(warp, a)
        out = np.where(dec.shfl_valid, src[dec.shfl_idx], src)
        self._write_u32(warp, d.reg, out.astype(np.uint32), guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_sel(self, warp, dec, guard) -> Effect:
        d, a, b, p = dec.ops[:4]
        pv = self._pv(warp, p)
        val = np.where(pv, self._ru32(warp, a), self._ru32(warp, b))
        self._write_u32(warp, d.reg, val, guard)
        return Effect("alu", dest_regs=(d.reg,))

    # -- comparisons -----------------------------------------------------
    def _setp_common(self, warp, dec, guard, av, bv) -> Effect:
        if dec.cmp is None:
            raise SimulationError(
                f"unknown comparison {dec.ins.opcode.name}")
        result = dec.cmp(av, bv)
        chain = self._pv(warp, dec.ops[4])
        if dec.setp_or:
            result = result | chain
        else:
            result = result & chain
        pd = dec.ops[0]
        if pd.reg != (7 if pd.is_pred else 255):  # PT/RZ writes discarded
            warp.preds[pd.reg][guard] = result[guard]
        return Effect("alu")

    def _op_isetp(self, warp, dec, guard) -> Effect:
        a, b = dec.ops[2], dec.ops[3]
        if dec.setp_u32:
            av, bv = self._ru32(warp, a), self._ru32(warp, b)
        else:
            av, bv = self._rs32(warp, a), self._rs32(warp, b)
        return self._setp_common(warp, dec, guard, av, bv)

    def _op_fsetp(self, warp, dec, guard) -> Effect:
        av = self._rf32(warp, dec.ops[2])
        bv = self._rf32(warp, dec.ops[3])
        return self._setp_common(warp, dec, guard, av, bv)

    def _op_dsetp(self, warp, dec, guard) -> Effect:
        av = self._rf64(warp, dec.ops[2])
        bv = self._rf64(warp, dec.ops[3])
        self._setp_common(warp, dec, guard, av, bv)
        return Effect("fp64")

    def _op_plop3(self, warp, dec, guard) -> Effect:
        pa = self._pv(warp, dec.ops[2])
        pb = self._pv(warp, dec.ops[3])
        result = (pa | pb) if dec.setp_or else (pa & pb)
        pd = dec.ops[0]
        if pd.reg != (7 if pd.is_pred else 255):
            warp.preds[pd.reg][guard] = result[guard]
        return Effect("alu")

    # -- fp32 ------------------------------------------------------------
    def _op_fadd(self, warp, dec, guard) -> Effect:
        d, a, b = dec.ops[:3]
        val = self._rf32(warp, a) + self._rf32(warp, b)
        self._write_f32(warp, d.reg, val, guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_fmul(self, warp, dec, guard) -> Effect:
        d, a, b = dec.ops[:3]
        val = self._rf32(warp, a) * self._rf32(warp, b)
        self._write_f32(warp, d.reg, val, guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_ffma(self, warp, dec, guard) -> Effect:
        d, a, b, c = dec.ops[:4]
        val = (
            self._rf32(warp, a) * self._rf32(warp, b)
            + self._rf32(warp, c)
        )
        self._write_f32(warp, d.reg, val, guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_fmnmx(self, warp, dec, guard) -> Effect:
        d, a, b, sel = dec.ops[:4]
        av = self._rf32(warp, a)
        bv = self._rf32(warp, b)
        use_min = self._pv(warp, sel)
        val = np.where(use_min, np.minimum(av, bv), np.maximum(av, bv))
        self._write_f32(warp, d.reg, val, guard)
        return Effect("alu", dest_regs=(d.reg,))

    def _op_mufu(self, warp, dec, guard) -> Effect:
        d, a = dec.ops[:2]
        av = self._rf32(warp, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            if dec.mode == 0:
                val = np.float32(1.0) / av
            elif dec.mode == 1:
                val = np.sqrt(av)
            elif dec.mode == 2:
                val = np.float32(1.0) / np.sqrt(av)
            else:
                raise SimulationError(
                    f"unknown MUFU mode {dec.ins.opcode.name}")
        self._write_f32(warp, d.reg, val, guard)
        return Effect("mufu", dest_regs=(d.reg,))

    # -- fp64 -------------------------------------------------------------
    def _op_dadd(self, warp, dec, guard) -> Effect:
        d, a, b = dec.ops[:3]
        val = self._rf64(warp, a) + self._rf64(warp, b)
        self._write_f64(warp, d.reg, val, guard)
        return Effect("fp64", dest_regs=(d.reg, d.reg + 1))

    def _op_dmul(self, warp, dec, guard) -> Effect:
        d, a, b = dec.ops[:3]
        val = self._rf64(warp, a) * self._rf64(warp, b)
        self._write_f64(warp, d.reg, val, guard)
        return Effect("fp64", dest_regs=(d.reg, d.reg + 1))

    def _op_dfma(self, warp, dec, guard) -> Effect:
        d, a, b, c = dec.ops[:4]
        val = (
            self._rf64(warp, a) * self._rf64(warp, b)
            + self._rf64(warp, c)
        )
        self._write_f64(warp, d.reg, val, guard)
        return Effect("fp64", dest_regs=(d.reg, d.reg + 1))

    # -- conversions ---------------------------------------------------------
    def _op_i2f(self, warp, dec, guard) -> Effect:
        d, a = dec.ops[:2]
        if dec.src_u32:
            src = self._ru32(warp, a).astype(np.float64)
        else:
            src = self._rs32(warp, a).astype(np.float64)
        if dec.dst_f64:
            self._write_f64(warp, d.reg, src, guard)
            dests = (d.reg, d.reg + 1)
        else:
            self._write_f32(warp, d.reg, src.astype(np.float32), guard)
            dests = (d.reg,)
        return Effect("convert", dest_regs=dests)

    def _op_f2i(self, warp, dec, guard) -> Effect:
        d, a = dec.ops[:2]
        if dec.dst_f64:
            src = self._rf64(warp, a)
        else:
            src = self._rf32(warp, a).astype(np.float64)
        val = np.trunc(src).astype(np.int64).astype(np.uint32)
        self._write_u32(warp, d.reg, val, guard)
        return Effect("convert", dest_regs=(d.reg,))

    def _op_f2f(self, warp, dec, guard) -> Effect:
        d, a = dec.ops[:2]
        if dec.f2f_widen:
            # F2F.F64.F32: widen
            src = self._rf32(warp, a).astype(np.float64)
            self._write_f64(warp, d.reg, src, guard)
            dests = (d.reg, d.reg + 1)
        else:
            # F2F.F32.F64: narrow
            src = self._rf64(warp, a).astype(np.float32)
            self._write_f32(warp, d.reg, src, guard)
            dests = (d.reg,)
        return Effect("convert", dest_regs=dests)

    def _op_i2i(self, warp, dec, guard) -> Effect:
        d, a = dec.ops[:2]
        self._write_u32(warp, d.reg, self._ru32(warp, a), guard)
        return Effect("convert", dest_regs=(d.reg,))

    # -- global memory ---------------------------------------------------
    def _lane_addresses(self, warp, mem: DecOp) -> np.ndarray:
        base = (
            self._reg_row(warp, mem.mem_base).astype(np.int64)
            if mem.mem_base >= 0
            else np.zeros(WARP, dtype=np.int64)
        )
        return base + mem.mem_off

    def _op_ldg(self, warp, dec, guard) -> Effect:
        d = dec.ops[0]
        mem = dec.ops[1]
        width_regs = dec.width_regs
        nbytes = 4 * width_regs
        addrs = self._lane_addresses(warp, mem)
        dests = tuple(d.reg + k for k in range(width_regs))
        if guard.any():
            act = addrs[guard]
            for k in range(width_regs):
                vals = self.memory.read_u32(act + 4 * k)
                row = warp.regs[d.reg + k] if d.reg != 255 else None
                if row is not None:
                    row[guard] = vals
        sectors = coalesce_sectors(addrs, nbytes, guard, self.spec.sector_bytes)
        space = "readonly" if dec.readonly else "global"
        return Effect("global_load", sectors=sectors, dest_regs=dests, space=space)

    def _op_stg(self, warp, dec, guard) -> Effect:
        mem = dec.ops[0]
        src = dec.ops[1]
        width_regs = dec.width_regs
        nbytes = 4 * width_regs
        addrs = self._lane_addresses(warp, mem)
        if guard.any():
            act = addrs[guard]
            for k in range(width_regs):
                self.memory.write_u32(act + 4 * k,
                                      self._reg_row(warp, src.reg + k)[guard])
        sectors = coalesce_sectors(addrs, nbytes, guard, self.spec.sector_bytes)
        return Effect("global_store", sectors=sectors, space="global")

    # -- local memory (spills) ----------------------------------------------
    def _op_ldl(self, warp, dec, guard) -> Effect:
        d = dec.ops[0]
        width_regs = dec.width_regs
        slot = dec.mem_slot
        for k in range(width_regs):
            row = warp.regs[d.reg + k]
            row[guard] = warp.local[slot + k][guard]
        # local memory is thread-interleaved: a full warp access to one
        # 32-bit slot touches 4 sectors
        n_sectors = 4 * width_regs
        sectors = np.arange(n_sectors, dtype=np.int64) * self.spec.sector_bytes \
            + (1 << 40) + slot * 128  # distinct local address space
        dests = tuple(d.reg + k for k in range(width_regs))
        return Effect("local_load", sectors=sectors, dest_regs=dests, space="local")

    def _op_stl(self, warp, dec, guard) -> Effect:
        src = dec.ops[1]
        width_regs = dec.width_regs
        slot = dec.mem_slot
        for k in range(width_regs):
            warp.local[slot + k][guard] = self._reg_row(warp, src.reg + k)[guard]
        n_sectors = 4 * width_regs
        sectors = np.arange(n_sectors, dtype=np.int64) * self.spec.sector_bytes \
            + (1 << 40) + slot * 128
        return Effect("local_store", sectors=sectors, space="local")

    # -- shared memory ------------------------------------------------------
    def _shared_u32(self, warp) -> np.ndarray:
        if warp.shared is None:
            raise SimulationError("kernel uses shared memory but none allocated")
        return warp.shared.view(np.uint32)

    def _op_lds(self, warp, dec, guard) -> Effect:
        d = dec.ops[0]
        mem = dec.ops[1]
        width_regs = dec.width_regs
        addrs = self._lane_addresses(warp, mem)
        smem = self._shared_u32(warp)
        if guard.any():
            act = addrs[guard]
            if (act < 0).any() or (act + 4 * width_regs > warp.shared.size).any():
                raise SimulationError("shared memory access out of bounds")
            for k in range(width_regs):
                warp.regs[d.reg + k][guard] = smem[(act >> 2) + k]
        tx = shared_transactions(addrs, 4 * width_regs, guard,
                                 self.spec.smem_banks, self.spec.smem_bank_bytes)
        dests = tuple(d.reg + k for k in range(width_regs))
        return Effect("shared_load", transactions=tx, dest_regs=dests,
                      space="shared")

    def _op_sts(self, warp, dec, guard) -> Effect:
        mem = dec.ops[0]
        src = dec.ops[1]
        width_regs = dec.width_regs
        addrs = self._lane_addresses(warp, mem)
        smem = self._shared_u32(warp)
        if guard.any():
            act = addrs[guard]
            if (act < 0).any() or (act + 4 * width_regs > warp.shared.size).any():
                raise SimulationError("shared memory access out of bounds")
            for k in range(width_regs):
                smem[(act >> 2) + k] = self._reg_row(warp, src.reg + k)[guard]
        tx = shared_transactions(addrs, 4 * width_regs, guard,
                                 self.spec.smem_banks, self.spec.smem_bank_bytes)
        return Effect("shared_store", transactions=tx, space="shared")

    # -- atomics -------------------------------------------------------------
    def _op_red(self, warp, dec, guard) -> Effect:
        mem = dec.ops[0]
        src = dec.ops[1]
        addrs = self._lane_addresses(warp, mem)
        uniq = 0
        serial = 0
        sectors = _NOSECTORS
        if guard.any():
            act = addrs[guard]
            if dec.atom_kind == ATOM_F32:
                self.memory.atomic_add_f32(act, self._rf32(warp, src)[guard])
                nbytes = 4
            elif dec.atom_kind == ATOM_F64:
                self.memory.atomic_add_f64(act, self._rf64(warp, src)[guard])
                nbytes = 8
            else:
                self.memory.atomic_add_u32(act, self._ru32(warp, src)[guard])
                nbytes = 4
            _, counts = np.unique(act, return_counts=True)
            uniq = int(counts.size)
            serial = int(counts.max())
            sectors = coalesce_sectors(addrs, nbytes, guard, self.spec.sector_bytes)
        return Effect("atomic_global", sectors=sectors, space="atomic",
                      unique_atomic_addrs=uniq, atomic_serial=serial)

    def _op_atoms(self, warp, dec, guard) -> Effect:
        mem = dec.ops[0]
        src = dec.ops[1]
        addrs = self._lane_addresses(warp, mem)
        uniq = 0
        serial = 0
        tx = 0
        if guard.any():
            act = addrs[guard]
            if (act < 0).any() or (act + 4 > warp.shared.size).any():
                raise SimulationError("shared atomic out of bounds")
            if dec.atom_kind == ATOM_F32:
                np.add.at(warp.shared.view(np.float32), act >> 2,
                          self._rf32(warp, src)[guard])
            else:
                np.add.at(self._shared_u32(warp), act >> 2,
                          self._ru32(warp, src)[guard])
            _, counts = np.unique(act, return_counts=True)
            uniq = int(counts.size)
            serial = int(counts.max())
            tx = shared_transactions(addrs, 4, guard, self.spec.smem_banks,
                                     self.spec.smem_bank_bytes)
        return Effect("atomic_shared", transactions=tx, space="shared",
                      unique_atomic_addrs=uniq, atomic_serial=serial)

    # -- texture ---------------------------------------------------------
    def _op_tex(self, warp, dec, guard) -> Effect:
        d = dec.ops[0]
        x = self._rs32(warp, dec.ops[1]).astype(np.int64)
        y = self._rs32(warp, dec.ops[2]).astype(np.int64)
        layout = self.textures.get(dec.tex_slot)
        if layout is None:
            raise SimulationError(f"no texture bound to slot {dec.tex_slot}")
        addrs = layout.addresses(x, y)
        if guard.any():
            vals = self.memory.read_u32(addrs[guard].astype(np.int64))
            warp.regs[d.reg][guard] = vals
        sectors = coalesce_sectors(addrs, layout.elem_bytes, guard,
                                   self.spec.sector_bytes)
        return Effect("texture", sectors=sectors, dest_regs=(d.reg,),
                      space="texture")

    # -- control flow -----------------------------------------------------
    def _op_bra(self, warp, dec, guard) -> Effect:
        if dec.target_pc < 0:
            raise SimulationError(
                f"unknown branch target at {dec.ins.offset:#x}")
        taken_pc = dec.target_pc
        if not warp.active.any():
            warp.done = True
            return Effect("branch")
        n_taken = int(guard[warp.active].sum()) if warp.active.any() else 0
        n_active = int(warp.active.sum())
        if 0 < n_taken < n_active:
            raise SimulationError(
                f"divergent branch at {dec.ins.offset:#x} "
                "(cudalite kernels keep loop trip counts warp-uniform; "
                "use predication for divergent control flow)"
            )
        if n_taken == n_active and n_active > 0:
            if taken_pc >= len(self.program):
                warp.done = True
            else:
                warp.pc = taken_pc
        else:
            warp.pc += 1
        return Effect("branch")

    def _op_exit(self, warp, dec, guard) -> Effect:
        warp.active &= ~guard
        if not warp.active.any():
            warp.done = True
            return Effect("exit", exited=True)
        warp.pc += 1
        return Effect("exit")

    def _op_bar(self, warp, dec, guard) -> Effect:
        return Effect("barrier")

    def _op_nop(self, warp, dec, guard) -> Effect:
        return Effect("nop")


# ---------------------------------------------------------------------------
# static effect metadata (consumed by the trace-driven timed scheduler)
# ---------------------------------------------------------------------------

class StaticEffect:
    """The launch-invariant part of an instruction's :class:`Effect`.

    Everything about an Effect that depends only on the decoded
    instruction — kind, destination registers, memory space, the fixed
    local-memory sector footprint and the opcode name — as opposed to
    the per-execution payload (coalesced sectors, bank transactions,
    atomic contention), which the trace builder records per warp.
    ``None`` entries mark instructions without a handler; such programs
    are not trace-eligible in the first place.
    """

    __slots__ = ("kind", "dest_regs", "space", "sectors", "opname")

    def __init__(self, kind: str, dest_regs: tuple[int, ...] = (),
                 space: str = "", sectors: Optional[np.ndarray] = None,
                 opname: str = ""):
        self.kind = kind
        self.dest_regs = dest_regs
        self.space = space
        self.sectors = sectors
        self.opname = opname


#: hnames whose Effect is ("alu", dest=(ops[0].reg,))
_ALU_DEST_HNAMES = frozenset((
    "mov", "s2r", "iadd3", "imad", "imnmx", "lop3", "shf", "shfl", "sel",
    "fadd", "fmul", "ffma", "fmnmx",
))
#: hnames whose Effect is ("alu") with no destinations
_ALU_NODEST_HNAMES = frozenset(("isetp", "fsetp", "plop3"))
_CTRL_KINDS = {"bra": "branch", "exit": "exit", "bar": "barrier",
               "nop": "nop"}


def static_effect_table(decoded, spec: GPUSpec) -> list:
    """Per-PC :class:`StaticEffect` rows for ``decoded``.

    Mirrors exactly what each ``Executor._op_*`` handler puts into the
    Effect it returns, minus the data-dependent fields.  Destination
    registers are pre-filtered of RZ (255), matching what
    ``SMScheduler._set_dests`` skips at run time.
    """
    table: list = []
    for dec in decoded.table:
        hname = dec.hname
        opname = dec.ins.opcode.name
        if hname is None:
            table.append(None)
            continue
        if hname in _ALU_DEST_HNAMES:
            se = StaticEffect("alu", (dec.ops[0].reg,), opname=opname)
        elif hname in _ALU_NODEST_HNAMES:
            se = StaticEffect("alu", opname=opname)
        elif hname == "dsetp":
            se = StaticEffect("fp64", opname=opname)
        elif hname in ("dadd", "dmul", "dfma"):
            d = dec.ops[0].reg
            se = StaticEffect("fp64", (d, d + 1), opname=opname)
        elif hname == "mufu":
            se = StaticEffect("mufu", (dec.ops[0].reg,), opname=opname)
        elif hname == "i2f":
            d = dec.ops[0].reg
            dests = (d, d + 1) if dec.dst_f64 else (d,)
            se = StaticEffect("convert", dests, opname=opname)
        elif hname == "f2f":
            d = dec.ops[0].reg
            dests = (d, d + 1) if dec.f2f_widen else (d,)
            se = StaticEffect("convert", dests, opname=opname)
        elif hname in ("f2i", "i2i"):
            se = StaticEffect("convert", (dec.ops[0].reg,), opname=opname)
        elif hname == "ldg":
            d = dec.ops[0].reg
            dests = tuple(d + k for k in range(dec.width_regs))
            space = "readonly" if dec.readonly else "global"
            se = StaticEffect("global_load", dests, space, opname=opname)
        elif hname == "stg":
            se = StaticEffect("global_store", space="global", opname=opname)
        elif hname in ("ldl", "stl"):
            # thread-interleaved spill space: the sector footprint is a
            # fixed function of the slot (see Executor._op_ldl)
            n_sectors = 4 * dec.width_regs
            sectors = (np.arange(n_sectors, dtype=np.int64)
                       * spec.sector_bytes + (1 << 40) + dec.mem_slot * 128)
            if hname == "ldl":
                d = dec.ops[0].reg
                dests = tuple(d + k for k in range(dec.width_regs))
                se = StaticEffect("local_load", dests, "local", sectors,
                                  opname)
            else:
                se = StaticEffect("local_store", (), "local", sectors, opname)
        elif hname == "lds":
            d = dec.ops[0].reg
            dests = tuple(d + k for k in range(dec.width_regs))
            se = StaticEffect("shared_load", dests, "shared", opname=opname)
        elif hname == "sts":
            se = StaticEffect("shared_store", space="shared", opname=opname)
        elif hname == "red":
            se = StaticEffect("atomic_global", space="atomic", opname=opname)
        elif hname == "atoms":
            se = StaticEffect("atomic_shared", space="shared", opname=opname)
        elif hname == "tex":
            se = StaticEffect("texture", (dec.ops[0].reg,), "texture",
                              opname=opname)
        elif hname in _CTRL_KINDS:
            se = StaticEffect(_CTRL_KINDS[hname], opname=opname)
        else:
            table.append(None)
            continue
        se.dest_regs = tuple(r for r in se.dest_regs if r != 255)
        table.append(se)
    return table
