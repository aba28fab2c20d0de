"""AST → SASS code generation.

:func:`compile_kernel` lowers a :class:`~repro.cudalite.builder.Kernel`
to a virtual-register instruction stream (``PTX``-like: unlimited
registers) and then runs linear-scan register allocation
(:mod:`repro.cudalite.regalloc`) against the kernel's register budget,
producing a :class:`~repro.sass.isa.Program` plus the launch metadata
the simulator needs (parameter constant-bank layout, shared-memory
layout, texture slots).

Code-generation strategy notes (what makes the SASS look like nvcc's):

* additive constants in indices are folded into the memory operand's
  byte offset, and address *variable parts* are value-numbered — so an
  unrolled ``a[base+0] ... a[base+3]`` becomes ``LDG [R2]``,
  ``LDG [R2+0x4]`` ... off one base register, the exact shape §4.1/§4.6
  of the paper pattern-match;
* pointers declared ``const __restrict__`` load via ``LDG.E.CONSTANT``
  (read-only cache);
* vector types load/store as a single ``LDG.E.{64,128}`` writing a
  register quad, with arithmetic lowered lane-wise;
* ``if`` bodies are predicated rather than branched (nvcc's choice for
  short bodies), loops use a pre-check plus bottom-test back edge;
* every instruction carries the pseudo-CUDA source line of its
  statement, standing in for ``-g --generate-line-info``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from repro.cudalite import ast as A
from repro.cudalite.builder import Kernel, TextureParam
from repro.cudalite.regalloc import (
    AllocationResult,
    VInstr,
    VOperand,
    VPred,
    VProgram,
    VReg,
    allocate,
)
from repro.cudalite.types import (
    DType,
    PointerType,
    common_type,
    f32,
    i32,
    u32,
    u64,
)
from repro.errors import CompileError
from repro.sass.isa import Label, Opcode, Program

__all__ = ["compile_kernel", "CompiledKernel", "ParamSlot", "SharedSlot"]

PARAM_BASE = 0x160  # first kernel-parameter offset in c[0x0] on sm_70


@dataclass(frozen=True)
class ParamSlot:
    """Constant-bank layout entry for one kernel parameter."""

    name: str
    offset: int
    type: Union[DType, PointerType]

    @property
    def is_pointer(self) -> bool:
        return isinstance(self.type, PointerType)


@dataclass(frozen=True)
class SharedSlot:
    """Static shared-memory layout entry for one ``__shared__`` array."""

    name: str
    offset: int
    dtype: DType
    size: int


@dataclass
class CompiledKernel:
    """A compiled kernel: SASS program + launch metadata."""

    kernel: Kernel
    program: Program
    params: list[ParamSlot]
    shared: list[SharedSlot]
    textures: list[TextureParam]
    allocation: AllocationResult
    #: the pre-allocation stream :func:`compile_kernel` lowered, kept so
    #: :attr:`ptx_text` need not lower again; not an init field, so a
    #: ``dataclasses.replace`` copy — whose kernel may differ — has none
    vprogram: Optional[VProgram] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.kernel.name

    # The renderings are pure functions of the fields, which nothing
    # mutates after compile_kernel; ``dataclasses.replace`` builds a new
    # object and so renders afresh.

    @cached_property
    def sass_text(self) -> str:
        from repro.sass.writer import format_program

        return format_program(self.program)

    @cached_property
    def sass_sha256(self) -> str:
        """Hex SHA-256 of :attr:`sass_text`: the program term of the
        trace-cache launch key and of both serve addresses."""
        return hashlib.sha256(self.sass_text.encode()).hexdigest()

    @cached_property
    def ptx_text(self) -> str:
        """The kernel rendered at the PTX stage (paper §2.1's first
        transformation): what :func:`repro.ptx.writer.kernel_to_ptx`
        returns for :attr:`kernel`."""
        from repro.ptx.writer import kernel_to_ptx, lowered_to_ptx

        if self.vprogram is None:
            return kernel_to_ptx(self.kernel)
        return lowered_to_ptx(self.kernel, self.vprogram, self.params)

    def param_slot(self, name: str) -> ParamSlot:
        for slot in self.params:
            if slot.name == name:
                return slot
        raise KeyError(name)

    def tex_slot(self, name: str) -> int:
        for i, tex in enumerate(self.textures):
            if tex.name == name:
                return i
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Val:
    """A lowered expression value.

    Exactly one representation is populated:

    * ``const``  — compile-time Python constant,
    * ``cref``   — a constant-bank slot (scalar parameter),
    * ``vreg``   — virtual register (``lane`` selects the 32-bit
      component for vector elements).
    """

    dtype: DType
    vreg: Optional[VReg] = None
    lane: int = 0
    const: Optional[Union[int, float]] = None
    cref: Optional[tuple[int, int]] = None

    @property
    def is_const(self) -> bool:
        return self.const is not None

    @property
    def is_cref(self) -> bool:
        return self.cref is not None


_ADD_OP = {False: "IADD3", True: "FADD"}
_MUL_OP = {False: "IMAD", True: "FMUL"}
_CMP_MOD = {"<": "LT", "<=": "LE", ">": "GT", ">=": "GE", "==": "EQ", "!=": "NE"}


class _Lowerer:
    """Single-use lowering context for one kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.items: list = []  # VInstr | Label
        self.next_vreg = 0
        self.next_vpred = 0
        self.next_label = 0
        self.line: Optional[int] = None
        self.guard: Optional[tuple[VPred, bool]] = None
        # name environments
        self.params: dict[str, ParamSlot] = {}
        self.vars: dict[str, tuple[VReg, DType]] = {}
        self.arrays: dict[str, tuple[list[VReg], DType]] = {}
        self.shared: dict[str, SharedSlot] = {}
        self.tex_index: dict[str, int] = {}
        # value numbering: scope stack of {expr-node: Val}, plus dep maps
        self.memo_scopes: list[dict[A.Expr, Val]] = [{}]
        self.memo_deps: list[dict[A.Expr, frozenset[str]]] = [{}]
        self._layout_params()

    # -- bookkeeping ----------------------------------------------------
    def _layout_params(self) -> None:
        offset = PARAM_BASE
        for p in self.kernel.params:
            size = 8 if isinstance(p.type, PointerType) else max(4, p.type.bytes)
            offset = (offset + size - 1) // size * size
            self.params[p.name] = ParamSlot(p.name, offset, p.type)
            offset += size
        for i, tex in enumerate(self.kernel.textures):
            self.tex_index[tex.name] = i

    def new_vreg(self, regs: int = 1) -> VReg:
        self.next_vreg += 1
        return VReg(self.next_vreg, regs)

    def new_vpred(self) -> VPred:
        self.next_vpred += 1
        return VPred(self.next_vpred)

    def new_label(self, stem: str) -> str:
        self.next_label += 1
        return f"L_{stem}_{self.next_label}"

    def emit(self, opcode: str, operands: list[VOperand],
             pred: Optional[tuple[VPred, bool]] = None) -> VInstr:
        guard = pred if pred is not None else self.guard
        ins = VInstr(
            Opcode.parse(opcode),
            operands,
            pred=guard[0] if guard else None,
            pred_negated=guard[1] if guard else False,
            line=self.line,
        )
        self.items.append(ins)
        return ins

    def emit_label(self, name: str) -> None:
        self.items.append(Label(name))

    # -- memoization ------------------------------------------------------
    def push_scope(self) -> None:
        self.memo_scopes.append({})
        self.memo_deps.append({})

    def pop_scope(self) -> None:
        self.memo_scopes.pop()
        self.memo_deps.pop()

    def memo_get(self, key: A.Expr) -> Optional[Val]:
        for scope in reversed(self.memo_scopes):
            if key in scope:
                return scope[key]
        return None

    def memo_put(self, key: A.Expr, val: Val) -> None:
        self.memo_scopes[-1][key] = val
        self.memo_deps[-1][key] = _deps(key)

    def invalidate(self, name: str) -> None:
        """Drop memoized values that depend on ``name``."""
        for scope, deps in zip(self.memo_scopes, self.memo_deps):
            dead = [k for k, d in deps.items() if name in d]
            for k in dead:
                del scope[k]
                del deps[k]

    # ------------------------------------------------------------------
    # Expression lowering
    # ------------------------------------------------------------------

    def lower(self, expr: A.Expr) -> Val:
        folded = _fold(expr)
        if isinstance(folded, A.Const):
            return Val(folded.dtype, const=folded.value)
        expr = folded
        if _is_pure(expr):
            hit = self.memo_get(expr)
            if hit is not None:
                return hit
        val = self._lower_uncached(expr)
        if _is_pure(expr) and val.vreg is not None:
            self.memo_put(expr, val)
        return val

    def _lower_uncached(self, expr: A.Expr) -> Val:
        if isinstance(expr, A.ParamRef):
            return self._lower_param(expr.name)
        if isinstance(expr, A.VarRef):
            if expr.name not in self.vars:
                raise CompileError(f"undefined variable {expr.name!r}")
            vreg, dtype = self.vars[expr.name]
            return Val(dtype, vreg=vreg)
        if isinstance(expr, A.Builtin):
            return self._lower_builtin(expr)
        if isinstance(expr, A.BinOp):
            return self._lower_binop(expr)
        if isinstance(expr, A.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, A.Cast):
            return self._lower_cast(self.lower(expr.operand), expr.dtype)
        if isinstance(expr, A.Call):
            return self._lower_call(expr)
        if isinstance(expr, A.Load):
            return self._lower_load(expr)
        if isinstance(expr, A.VecLane):
            return self._lower_veclane(expr)
        if isinstance(expr, A.SharedRef):
            return self._lower_shared_load(expr)
        if isinstance(expr, A.ArrayRef):
            vreg, dtype, _ = self._array_element(expr.name, expr.index)
            return Val(dtype, vreg=vreg)
        if isinstance(expr, A.TexFetch):
            return self._lower_tex(expr)
        if isinstance(expr, A.Shuffle):
            return self._lower_shuffle(expr)
        if isinstance(expr, A.Select):
            return self._lower_select(expr)
        raise CompileError(f"cannot lower expression {expr!r}")

    # -- leaves ---------------------------------------------------------
    def _lower_param(self, name: str) -> Val:
        if name not in self.params:
            raise CompileError(f"unknown parameter {name!r}")
        slot = self.params[name]
        if slot.is_pointer:
            # materialize the base address once (memoized by caller)
            dst = self.new_vreg()
            self.emit("MOV", [VOperand.r(dst), VOperand.c(0, slot.offset)])
            return Val(u64, vreg=dst)
        dtype = slot.type
        assert isinstance(dtype, DType)
        return Val(dtype, cref=(0, slot.offset))

    _SR_NAME = {"tid": "SR_TID", "ctaid": "SR_CTAID", "ntid": "SR_NTID",
                "nctaid": "SR_NCTAID"}

    def _lower_builtin(self, expr: A.Builtin) -> Val:
        dst = self.new_vreg()
        sr = f"{self._SR_NAME[expr.kind]}.{expr.axis.upper()}"
        self.emit("S2R", [VOperand.r(dst), VOperand.sr(sr)])
        return Val(u32, vreg=dst)

    # -- operand helpers ---------------------------------------------------
    def as_operand(self, val: Val) -> VOperand:
        """Use ``val`` as a data operand (register/immediate/cbank)."""
        if val.vreg is not None:
            return VOperand.r(val.vreg, val.lane)
        if val.is_cref:
            return VOperand.c(*val.cref)
        assert val.const is not None
        if val.dtype.is_float:
            return VOperand.f(float(val.const))
        return VOperand.i(int(val.const))

    def as_vreg(self, val: Val) -> tuple[VReg, int]:
        """Force ``val`` into a register, returning (vreg, lane)."""
        if val.vreg is not None:
            return val.vreg, val.lane
        dst = self.new_vreg(val.dtype.regs)
        if val.is_cref:
            self.emit("MOV", [VOperand.r(dst), VOperand.c(*val.cref)])
        elif val.dtype.is_float and val.dtype.scalar.bits == 64:
            # f64 immediates materialize as a MOV32I pair (raw bits),
            # the way nvcc emits double constants
            bits = _f64_bits(float(val.const))
            self.emit("MOV32I", [VOperand.r(dst, 0), VOperand.i(bits & 0xFFFFFFFF)])
            self.emit("MOV32I", [VOperand.r(dst, 1), VOperand.i(bits >> 32)])
        elif val.dtype.is_float:
            self.emit("MOV32I", [VOperand.r(dst), VOperand.f(float(val.const))])
        else:
            self.emit("MOV32I", [VOperand.r(dst), VOperand.i(int(val.const))])
        return dst, 0

    # -- arithmetic ---------------------------------------------------------
    def _arith_dtype(self, a: Val, b: Val) -> DType:
        return common_type(a.dtype, b.dtype)

    def coerce(self, val: Val, dtype: DType) -> Val:
        """Insert a conversion when ``val`` is not already ``dtype``."""
        if val.dtype == dtype:
            return val
        if val.is_const:
            # compile-time conversion, no instruction
            value = float(val.const) if dtype.is_float else int(val.const)
            return Val(dtype, const=value)
        if val.dtype.is_vector or dtype.is_vector:
            raise CompileError(f"no conversion {val.dtype} -> {dtype}")
        return self._lower_cast(val, dtype)

    def _lower_cast(self, val: Val, dtype: DType) -> Val:
        src = val.dtype
        if src == dtype:
            return val
        if val.is_const:
            value = float(val.const) if dtype.is_float else int(val.const)
            return Val(dtype, const=value)
        if not src.is_float and not dtype.is_float and src.bits == dtype.bits:
            # same-width signedness reinterpretation is free in SASS
            return Val(dtype, vreg=val.vreg, lane=val.lane, cref=val.cref)
        dst = self.new_vreg(dtype.regs)
        sop = self.as_operand(val)
        if not src.is_float and dtype.is_float:
            mods = ".F64" if dtype.bits == 64 else ""
            mods += ".U32" if not src.signed and src.bits == 32 else ""
            self.emit(f"I2F{mods}", [VOperand.r(dst), sop])
        elif src.is_float and not dtype.is_float:
            mods = ".F64" if src.bits == 64 else ""
            self.emit(f"F2I{mods}", [VOperand.r(dst), sop])
        elif src.is_float and dtype.is_float:
            self.emit(
                f"F2F.F{dtype.bits}.F{src.bits}", [VOperand.r(dst), sop]
            )
        else:
            self.emit("I2I", [VOperand.r(dst), sop])
        return Val(dtype, vreg=dst)

    def _lower_binop(self, expr: A.BinOp) -> Val:
        if expr.op in A.COMPARISONS or expr.op in ("&&", "||"):
            raise CompileError(
                f"comparison {expr.op!r} used as a value; use it in a "
                "condition position (if/return_if/loop bound)"
            )
        a = self.lower(expr.lhs)
        b = self.lower(expr.rhs)
        if a.dtype.is_vector or b.dtype.is_vector:
            # scalar operands broadcast across vector lanes
            dtype = a.dtype if a.dtype.is_vector else b.dtype
            return self._vector_binop(expr.op, a, b, dtype)
        dtype = self._arith_dtype(a, b)
        a = self.coerce(a, dtype)
        b = self.coerce(b, dtype)
        dst = self.new_vreg(dtype.regs)
        self._emit_scalar_binop(expr.op, dst, 0, a, b, dtype)
        return Val(dtype, vreg=dst)

    def _emit_scalar_binop(self, op: str, dst: VReg, dlane: int,
                           a: Val, b: Val, dtype: DType) -> None:
        d = VOperand.r(dst, dlane)
        ao, bo = self.as_operand(a), self.as_operand(b)
        fp = dtype.is_float
        prefix = "D" if fp and dtype.scalar.bits == 64 else ""
        if op == "+":
            if fp:
                self.emit(f"{prefix}ADD" if prefix else "FADD", [d, ao, bo])
            else:
                self.emit("IADD3", [d, ao, bo, VOperand.i(0)])
        elif op == "-":
            nb = _negate_operand(bo)
            if fp:
                self.emit(f"{prefix}ADD" if prefix else "FADD", [d, ao, nb])
            else:
                self.emit("IADD3", [d, ao, nb, VOperand.i(0)])
        elif op == "*":
            if fp:
                self.emit(f"{prefix}MUL" if prefix else "FMUL", [d, ao, bo])
            else:
                self.emit("IMAD", [d, ao, bo, VOperand.i(0)])
        elif op == "/":
            if fp and not prefix and b.is_const and b.const != 0:
                # nvcc folds division by a constant into a multiply
                self.emit("FMUL", [d, ao, VOperand.f(1.0 / float(b.const))])
            elif fp and not prefix:
                tmp = self.new_vreg()
                self.emit("MUFU.RCP", [VOperand.r(tmp), bo])
                self.emit("FMUL", [d, ao, VOperand.r(tmp)])
            elif not fp and b.is_const and _is_pow2(b.const):
                self.emit("SHF.R.S32", [d, ao, VOperand.i(int(b.const).bit_length() - 1)])
            else:
                raise CompileError(
                    "division supported only for f32 and int-by-power-of-2"
                )
        elif op == "%":
            if not fp and b.is_const and _is_pow2(b.const):
                self.emit("LOP3.LUT", [d, ao, VOperand.i(int(b.const) - 1),
                                       VOperand.i(0), VOperand.i(0xC0)])
            else:
                raise CompileError("modulo supported only for int-by-power-of-2")
        elif op in ("&", "|", "^"):
            lut = {"&": 0xC0, "|": 0xFC, "^": 0x3C}[op]
            self.emit("LOP3.LUT", [d, ao, bo, VOperand.i(0), VOperand.i(lut)])
        elif op == "<<":
            self.emit("SHF.L.U32", [d, ao, bo])
        elif op == ">>":
            self.emit("SHF.R.S32" if dtype.signed else "SHF.R.U32", [d, ao, bo])
        elif op in ("min", "max"):
            mn = "FMNMX" if fp else "IMNMX"
            # last operand: PT selects min, !PT selects max (SASS idiom)
            sel = VOperand.p(None, negated=(op == "max"))
            self.emit(mn, [d, ao, bo, sel])
        else:
            raise CompileError(f"unsupported operator {op!r}")

    def _vector_binop(self, op: str, a: Val, b: Val, dtype: DType) -> Val:
        dst = self.new_vreg(dtype.regs)
        self._vector_binop_into(op, dst, a, b, dtype)
        return Val(dtype, vreg=dst)

    def _vector_binop_into(self, op: str, dst: VReg, a: Val, b: Val,
                           dtype: DType) -> None:
        scalar = dtype.scalar
        step = scalar.regs
        for k in range(dtype.lanes):
            ak = self._vec_lane_val(a, k, scalar)
            bk = self._vec_lane_val(b, k, scalar)
            self._emit_scalar_binop(op, dst, k * step, ak, bk, scalar)

    def _vec_lane_val(self, val: Val, k: int, scalar: DType) -> Val:
        if val.dtype.is_vector:
            if val.is_const:
                raise CompileError("vector constants are not supported")
            return Val(scalar, vreg=val.vreg, lane=val.lane + k * scalar.regs)
        return val  # scalar broadcast

    def _lower_unary(self, expr: A.UnaryOp) -> Val:
        val = self.lower(expr.operand)
        if expr.op == "-":
            if val.is_const:
                return Val(val.dtype, const=-val.const)
            dtype = val.dtype
            dst = self.new_vreg(dtype.regs)
            so = _negate_operand(self.as_operand(val))
            if dtype.is_float:
                op = "DADD" if dtype.scalar.bits == 64 else "FADD"
                self.emit(op, [VOperand.r(dst), so, VOperand.f(0.0)])
            else:
                self.emit("IADD3", [VOperand.r(dst), so, VOperand.i(0), VOperand.i(0)])
            return Val(dtype, vreg=dst)
        raise CompileError(f"unsupported unary operator {expr.op!r}")

    def _lower_call(self, expr: A.Call) -> Val:
        if expr.name == "mad":
            return self._lower_mad(expr)
        if expr.name in ("sqrt", "rsqrt", "rcp"):
            val = self.coerce(self.lower(expr.args[0]), f32)
            dst = self.new_vreg()
            mod = {"sqrt": "SQRT", "rsqrt": "RSQ", "rcp": "RCP"}[expr.name]
            self.emit(f"MUFU.{mod}", [VOperand.r(dst), self.as_operand(val)])
            return Val(f32, vreg=dst)
        if expr.name in ("min", "max"):
            return self._lower_binop(A.BinOp(expr.name, expr.args[0], expr.args[1]))
        raise CompileError(f"unknown intrinsic {expr.name!r}")

    def _lower_mad(self, expr: A.Call) -> Val:
        a = self.lower(expr.args[0])
        b = self.lower(expr.args[1])
        c = self.lower(expr.args[2])
        if a.dtype.is_vector or b.dtype.is_vector or c.dtype.is_vector:
            dtype = next(v.dtype for v in (a, b, c) if v.dtype.is_vector)
        else:
            dtype = common_type(common_type(a.dtype, b.dtype), c.dtype)
        dst = self.new_vreg(dtype.regs)
        self._mad_into(dst, a, b, c, dtype)
        return Val(dtype, vreg=dst)

    def _mad_into(self, dst: VReg, a: Val, b: Val, c: Val, dtype: DType) -> None:
        if dtype.is_vector:
            scalar = dtype.scalar
            step = scalar.regs
            for k in range(dtype.lanes):
                self._mad_scalar(
                    dst, k * step,
                    self._vec_lane_val(a, k, scalar),
                    self._vec_lane_val(b, k, scalar),
                    self._vec_lane_val(c, k, scalar),
                    scalar,
                )
        else:
            a = self.coerce(a, dtype)
            b = self.coerce(b, dtype)
            c = self.coerce(c, dtype)
            self._mad_scalar(dst, 0, a, b, c, dtype)

    def _mad_scalar(self, dst: VReg, dlane: int, a: Val, b: Val, c: Val,
                    dtype: DType) -> None:
        a = self.coerce(a, dtype)
        b = self.coerce(b, dtype)
        c = self.coerce(c, dtype)
        d = VOperand.r(dst, dlane)
        ops = [d, self.as_operand(a), self.as_operand(b), self.as_operand(c)]
        if dtype.is_float:
            self.emit("DFMA" if dtype.bits == 64 else "FFMA", ops)
        else:
            self.emit("IMAD", ops)

    # -- memory ----------------------------------------------------------
    def _pointer_base(self, name: str) -> Val:
        return self.lower(A.ParamRef(name))  # memoized

    def _lower_address(self, pointer: str, index: A.Expr,
                       elem_bytes: int) -> tuple[Optional[VReg], int]:
        """Compute (base vreg, byte offset) for ``pointer[index]``.

        Additive constants fold into the offset; the variable part is
        value-numbered so repeated/adjacent accesses share one base.
        """
        var_part, const_add = _split_const(_fold(index))
        byte_off = const_add * elem_bytes
        base_val = self._pointer_base(pointer)
        if var_part is None:
            vreg, _ = self.as_vreg(base_val)
            return vreg, byte_off
        key = A.Call("__addr", (A.ParamRef(pointer), var_part,
                                A.Const(elem_bytes, i32)))
        hit = self.memo_get(key)
        if hit is not None:
            return hit.vreg, byte_off
        idx = self.lower(var_part)
        idx = self.coerce(idx, i32) if idx.dtype.is_float else idx
        base_vreg, _ = self.as_vreg(base_val)
        addr = self.new_vreg()
        self.emit("IMAD.WIDE", [VOperand.r(addr), self.as_operand(idx),
                                VOperand.i(elem_bytes), VOperand.r(base_vreg)])
        self.memo_put(key, Val(u64, vreg=addr))
        return addr, byte_off

    def _load_opcode(self, elem: DType, ptype: PointerType) -> str:
        op = "LDG.E"
        if elem.bits > 32:
            op += f".{elem.bits}"
        if ptype.uses_readonly_cache:
            op += ".CONSTANT"
        return op + ".SYS"

    def _lower_load(self, expr: A.Load) -> Val:
        name = expr.pointer.name
        slot = self.params.get(name)
        if slot is None or not slot.is_pointer:
            raise CompileError(f"{name!r} is not a pointer parameter")
        ptype = slot.type
        assert isinstance(ptype, PointerType)
        elem = expr.elem or ptype.elem
        base, off = self._lower_address(name, expr.index, elem.bytes)
        dst = self.new_vreg(elem.regs)
        self.emit(self._load_opcode(elem, ptype),
                  [VOperand.r(dst), VOperand.m(base, off)])
        return Val(elem, vreg=dst)

    def store_global(self, stmt: A.StoreStmt) -> None:
        name = stmt.pointer.name
        slot = self.params.get(name)
        if slot is None or not slot.is_pointer:
            raise CompileError(f"{name!r} is not a pointer parameter")
        ptype = slot.type
        assert isinstance(ptype, PointerType)
        if ptype.readonly:
            raise CompileError(f"cannot store through const pointer {name!r}")
        elem = stmt.elem or ptype.elem
        val = self.lower(stmt.value)
        if elem.is_vector and not val.dtype.is_vector:
            raise CompileError("cannot store scalar through vector pointer")
        if not elem.is_vector:
            val = self.coerce(val, elem)
        vreg, lane = self.as_vreg(val)
        base, off = self._lower_address(name, stmt.index, elem.bytes)
        op = "STG.E"
        if elem.bits > 32:
            op += f".{elem.bits}"
        self.emit(op + ".SYS", [VOperand.m(base, off), VOperand.r(vreg, lane)])

    # shared memory ------------------------------------------------------
    def _shared_addr(self, name: str, index: A.Expr) -> tuple[Optional[VReg], int]:
        slot = self.shared[name]
        var_part, const_add = _split_const(_fold(index))
        byte_off = slot.offset + const_add * slot.dtype.bytes
        if var_part is None:
            return None, byte_off
        key = A.Call("__saddr", (A.ParamRef(name), var_part,
                                 A.Const(slot.dtype.bytes, i32)))
        hit = self.memo_get(key)
        if hit is not None:
            return hit.vreg, byte_off
        idx = self.lower(var_part)
        addr = self.new_vreg()
        self.emit("IMAD", [VOperand.r(addr), self.as_operand(idx),
                           VOperand.i(slot.dtype.bytes), VOperand.i(0)])
        self.memo_put(key, Val(u32, vreg=addr))
        return addr, byte_off

    def _lower_shared_load(self, expr: A.SharedRef) -> Val:
        if expr.name not in self.shared:
            raise CompileError(f"unknown shared array {expr.name!r}")
        slot = self.shared[expr.name]
        base, off = self._shared_addr(expr.name, expr.index)
        dst = self.new_vreg(slot.dtype.regs)
        op = "LDS" + (f".{slot.dtype.bits}" if slot.dtype.bits > 32 else "")
        self.emit(op, [VOperand.r(dst), VOperand.m(base, off)])
        return Val(slot.dtype, vreg=dst)

    def store_shared(self, stmt: A.SharedStore) -> None:
        if stmt.name not in self.shared:
            raise CompileError(f"unknown shared array {stmt.name!r}")
        slot = self.shared[stmt.name]
        val = self.lower(stmt.value)
        if not slot.dtype.is_vector:
            val = self.coerce(val, slot.dtype)
        vreg, lane = self.as_vreg(val)
        base, off = self._shared_addr(stmt.name, stmt.index)
        op = "STS" + (f".{slot.dtype.bits}" if slot.dtype.bits > 32 else "")
        self.emit(op, [VOperand.m(base, off), VOperand.r(vreg, lane)])
        self.invalidate(stmt.name)

    # textures -------------------------------------------------------------
    def _lower_tex(self, expr: A.TexFetch) -> Val:
        if expr.tex not in self.tex_index:
            raise CompileError(f"unknown texture {expr.tex!r}")
        x = self.lower(expr.x)
        y = self.lower(expr.y)
        xr, xl = self.as_vreg(x)
        yr, yl = self.as_vreg(y)
        dst = self.new_vreg()
        self.emit("TEX.SCR.LL", [VOperand.r(dst), VOperand.r(xr, xl),
                                 VOperand.r(yr, yl),
                                 VOperand.i(self.tex_index[expr.tex])])
        return Val(f32, vreg=dst)

    _SHFL_MODE = {"down": "DOWN", "up": "UP", "xor": "BFLY"}

    def _lower_shuffle(self, expr: A.Shuffle) -> Val:
        if expr.mode not in self._SHFL_MODE:
            raise CompileError(f"unknown shuffle mode {expr.mode!r}")
        val = self.lower(expr.value)
        if val.dtype.regs != 1:
            raise CompileError("warp shuffles move 32-bit values only")
        vreg, lane = self.as_vreg(val)
        dst = self.new_vreg()
        self.emit(f"SHFL.{self._SHFL_MODE[expr.mode]}",
                  [VOperand.r(dst), VOperand.r(vreg, lane),
                   VOperand.i(expr.delta), VOperand.i(0x1F)])
        return Val(val.dtype, vreg=dst)

    def _lower_select(self, expr: A.Select) -> Val:
        p, neg = self.lower_cond(expr.cond)
        a = self.lower(expr.a)
        b = self.lower(expr.b)
        dtype = self._arith_dtype(a, b)
        if dtype.regs != 1:
            raise CompileError("select supports 32-bit scalars only")
        a = self.coerce(a, dtype)
        b = self.coerce(b, dtype)
        dst = self.new_vreg()
        self.emit("SEL", [VOperand.r(dst), self.as_operand(a),
                          self.as_operand(b), VOperand.p(p, neg)])
        return Val(dtype, vreg=dst)

    # vector lanes -----------------------------------------------------------
    def _lower_veclane(self, expr: A.VecLane) -> Val:
        vec = self.lower(expr.vec)
        if not vec.dtype.is_vector:
            raise CompileError(".x/.y/.z/.w on a non-vector value")
        if expr.lane >= vec.dtype.lanes:
            raise CompileError(f"lane {expr.lane} out of range for {vec.dtype}")
        scalar = vec.dtype.scalar
        return Val(scalar, vreg=vec.vreg, lane=vec.lane + expr.lane * scalar.regs)

    # register arrays ----------------------------------------------------------
    def _array_element(self, name: str, index: A.Expr) -> tuple[VReg, DType, int]:
        if name not in self.arrays:
            raise CompileError(f"unknown register array {name!r}")
        vregs, dtype = self.arrays[name]
        idx = _fold(index)
        if not isinstance(idx, A.Const):
            raise CompileError(
                f"register array {name!r} indexed with a non-constant "
                "expression; unroll the surrounding loop"
            )
        k = int(idx.value)
        if not 0 <= k < len(vregs):
            raise CompileError(f"index {k} out of bounds for {name!r}[{len(vregs)}]")
        return vregs[k], dtype, k

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------

    def lower_cond(self, expr: A.Expr) -> tuple[VPred, bool]:
        """Lower a boolean expression to (predicate, negated)."""
        expr = _fold(expr)
        if isinstance(expr, A.UnaryOp) and expr.op == "!":
            p, neg = self.lower_cond(expr.operand)
            return p, not neg
        if isinstance(expr, A.BinOp) and expr.op in ("&&", "||"):
            pa, na = self.lower_cond(expr.lhs)
            pb, nb = self.lower_cond(expr.rhs)
            dst = self.new_vpred()
            op = "PLOP3.AND" if expr.op == "&&" else "PLOP3.OR"
            self.emit(op, [VOperand.p(dst), VOperand.p(None),
                           VOperand.p(pa, na), VOperand.p(pb, nb),
                           VOperand.p(None)])
            return dst, False
        if isinstance(expr, A.BinOp) and expr.op in A.COMPARISONS:
            a = self.lower(expr.lhs)
            b = self.lower(expr.rhs)
            dtype = self._arith_dtype(a, b)
            a = self.coerce(a, dtype)
            b = self.coerce(b, dtype)
            dst = self.new_vpred()
            mod = _CMP_MOD[expr.op]
            if dtype.is_float:
                base = "DSETP" if dtype.bits == 64 else "FSETP"
            else:
                base = "ISETP"
                mod += ".U32" if not dtype.signed and dtype.bits == 32 else ""
            self.emit(f"{base}.{mod}.AND",
                      [VOperand.p(dst), VOperand.p(None),
                       self.as_operand(a), self.as_operand(b),
                       VOperand.p(None)])
            return dst, False
        raise CompileError(f"not a boolean expression: {expr!r}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def lower_stmt(self, stmt: A.Stmt) -> None:
        self.line = stmt.line
        if isinstance(stmt, A.Let):
            self._stmt_let(stmt)
        elif isinstance(stmt, A.AssignVar):
            self._stmt_assign(stmt)
        elif isinstance(stmt, A.ArrayDecl):
            vregs = [self.new_vreg(stmt.dtype.regs) for _ in range(stmt.size)]
            self.arrays[stmt.name] = (vregs, stmt.dtype)
        elif isinstance(stmt, A.ArrayAssign):
            self._stmt_array_assign(stmt)
        elif isinstance(stmt, A.StoreStmt):
            self.store_global(stmt)
        elif isinstance(stmt, A.SharedDecl):
            pass  # handled in the pre-scan (layout)
        elif isinstance(stmt, A.SharedStore):
            self.store_shared(stmt)
        elif isinstance(stmt, A.For):
            self._stmt_for(stmt)
        elif isinstance(stmt, A.If):
            self._stmt_if(stmt)
        elif isinstance(stmt, A.AtomicAdd):
            self._stmt_atomic(stmt)
        elif isinstance(stmt, A.SyncThreads):
            self.emit("BAR.SYNC", [VOperand.i(0)])
            # shared contents may have been produced by other threads
            for name in list(self.shared):
                self.invalidate(name)
        elif isinstance(stmt, A.ReturnIf):
            p, neg = self.lower_cond(stmt.cond)
            self.emit("EXIT", [], pred=(p, neg))
        else:
            raise CompileError(f"cannot lower statement {stmt!r}")

    def _stmt_let(self, stmt: A.Let) -> None:
        if stmt.name in self.vars:
            raise CompileError(f"redeclaration of {stmt.name!r}")
        dtype = stmt.dtype
        if dtype is None:
            dtype = self._infer_dtype(stmt.value)
        dst = self.new_vreg(dtype.regs)
        self.vars[stmt.name] = (dst, dtype)
        self.invalidate(stmt.name)
        self._lower_into(dst, stmt.value, dtype)

    def _stmt_assign(self, stmt: A.AssignVar) -> None:
        if stmt.name not in self.vars:
            raise CompileError(f"assignment to undeclared variable {stmt.name!r}")
        dst, dtype = self.vars[stmt.name]
        self.invalidate(stmt.name)
        self._lower_into(dst, stmt.value, dtype)

    def _stmt_array_assign(self, stmt: A.ArrayAssign) -> None:
        dst, dtype, _ = self._array_element(stmt.name, stmt.index)
        self.invalidate(stmt.name)
        self._lower_into(dst, stmt.value, dtype)

    def _infer_dtype(self, expr: A.Expr) -> DType:
        """Infer a result type without emitting code (side-effect free
        for the common cases; falls back to a dry lowering probe)."""
        expr = _fold(expr)
        if isinstance(expr, A.Const):
            return expr.dtype
        if isinstance(expr, A.Load):
            if expr.elem is not None:
                return expr.elem
            slot = self.params.get(expr.pointer.name)
            if slot is not None and slot.is_pointer:
                return slot.type.elem
        if isinstance(expr, A.SharedRef) and expr.name in self.shared:
            return self.shared[expr.name].dtype
        if isinstance(expr, A.ArrayRef) and expr.name in self.arrays:
            return self.arrays[expr.name][1]
        if isinstance(expr, A.VarRef) and expr.name in self.vars:
            return self.vars[expr.name][1]
        if isinstance(expr, A.Cast):
            return expr.dtype
        if isinstance(expr, A.TexFetch):
            return f32
        if isinstance(expr, A.Shuffle):
            return self._infer_dtype(expr.value)
        if isinstance(expr, A.Select):
            return common_type(self._infer_dtype(expr.a),
                               self._infer_dtype(expr.b))
        if isinstance(expr, A.Builtin):
            return u32
        if isinstance(expr, A.VecLane):
            return self._infer_dtype(expr.vec).scalar
        if isinstance(expr, A.BinOp):
            lt = self._infer_dtype(expr.lhs)
            rt = self._infer_dtype(expr.rhs)
            if lt.is_vector or rt.is_vector:
                return lt if lt.is_vector else rt
            return common_type(lt, rt)
        if isinstance(expr, A.UnaryOp):
            return self._infer_dtype(expr.operand)
        if isinstance(expr, A.Call):
            if expr.name in ("sqrt", "rsqrt", "rcp"):
                return f32
            types = [self._infer_dtype(a) for a in expr.args]
            vec = next((t for t in types if t.is_vector), None)
            if vec is not None:
                return vec
            out = types[0]
            for t in types[1:]:
                out = common_type(out, t)
            return out
        if isinstance(expr, A.ParamRef):
            slot = self.params.get(expr.name)
            if slot is not None and not slot.is_pointer:
                return slot.type
            return u64
        raise CompileError(f"cannot infer the type of {expr!r}")

    def _lower_into(self, dst: VReg, expr: A.Expr, dtype: DType) -> None:
        """Lower ``expr`` writing the result directly into ``dst``.

        Emitting the defining instruction with the variable's register
        as destination (instead of a temp + MOV) matters to the
        analyses: GPUscout correlates arithmetic *on the load's
        destination register* (§4.3), so the register graph must look
        like nvcc output, not like a copy-heavy O0 lowering.
        """
        folded = _fold(expr)
        if _is_pure(folded):
            hit = self.memo_get(folded)
            if hit is not None:
                val = hit if dtype.is_vector else self.coerce(hit, dtype)
                self._move_into(dst, val, dtype)
                return
        if isinstance(folded, A.Load):
            slot = self.params.get(folded.pointer.name)
            if slot is not None and slot.is_pointer:
                elem = folded.elem or slot.type.elem
                if elem == dtype:
                    base, off = self._lower_address(
                        folded.pointer.name, folded.index, elem.bytes
                    )
                    self.emit(self._load_opcode(elem, slot.type),
                              [VOperand.r(dst), VOperand.m(base, off)])
                    return
        if isinstance(folded, A.SharedRef) and folded.name in self.shared:
            sslot = self.shared[folded.name]
            if sslot.dtype == dtype:
                base, off = self._shared_addr(folded.name, folded.index)
                op = "LDS" + (f".{dtype.bits}" if dtype.bits > 32 else "")
                self.emit(op, [VOperand.r(dst), VOperand.m(base, off)])
                return
        if isinstance(folded, A.TexFetch) and dtype == f32 \
                and folded.tex in self.tex_index:
            x = self.lower(folded.x)
            y = self.lower(folded.y)
            xr, xl = self.as_vreg(x)
            yr, yl = self.as_vreg(y)
            self.emit("TEX.SCR.LL", [VOperand.r(dst), VOperand.r(xr, xl),
                                     VOperand.r(yr, yl),
                                     VOperand.i(self.tex_index[folded.tex])])
            return
        if isinstance(folded, A.Call) and folded.name == "mad":
            a = self.lower(folded.args[0])
            b = self.lower(folded.args[1])
            c = self.lower(folded.args[2])
            self._mad_into(dst, a, b, c, dtype)
            return
        if isinstance(folded, A.BinOp) and folded.op in _FOLD_OPS:
            a = self.lower(folded.lhs)
            b = self.lower(folded.rhs)
            if dtype.is_vector:
                self._vector_binop_into(folded.op, dst, a, b, dtype)
                return
            if not a.dtype.is_vector and not b.dtype.is_vector:
                a = self.coerce(a, dtype)
                b = self.coerce(b, dtype)
                self._emit_scalar_binop(folded.op, dst, 0, a, b, dtype)
                return
        val = self.lower(folded)
        if not dtype.is_vector:
            val = self.coerce(val, dtype)
        self._move_into(dst, val, dtype)

    def _move_into(self, dst: VReg, val: Val, dtype: DType) -> None:
        """Copy ``val`` into ``dst`` (lane-wise for vectors)."""
        if dtype.is_vector:
            scalar = dtype.scalar
            if val.is_const:
                # vector splat of a constant (e.g. float4 zero-init)
                for k in range(dtype.lanes):
                    lane_val = Val(scalar, const=val.const)
                    vreg, lane = self.as_vreg(lane_val)
                    for r in range(scalar.regs):
                        self.emit("MOV", [VOperand.r(dst, k * scalar.regs + r),
                                          VOperand.r(vreg, lane + r)])
                return
            if not val.dtype.is_vector:
                raise CompileError(f"cannot assign scalar to {dtype}")
            for k in range(dtype.lanes * scalar.regs):
                self.emit("MOV", [VOperand.r(dst, k), VOperand.r(val.vreg, val.lane + k)])
            return
        if val.vreg is dst and val.lane == 0:
            return
        if dtype.regs == 2:
            vreg, lane = self.as_vreg(val)
            if vreg is dst and lane == 0:
                return
            self.emit("MOV", [VOperand.r(dst, 0), VOperand.r(vreg, lane)])
            self.emit("MOV", [VOperand.r(dst, 1), VOperand.r(vreg, lane + 1)])
            return
        self.emit("MOV", [VOperand.r(dst), self.as_operand(val)])

    def _stmt_for(self, stmt: A.For) -> None:
        if stmt.unroll:
            self._unroll_for(stmt)
            return
        start = self.lower(stmt.start)
        start = self.coerce(start, i32)
        ivar = self.new_vreg()
        self._move_into(ivar, start, i32)
        self.vars[stmt.var] = (ivar, i32)
        self.invalidate(stmt.var)
        stop_val = self.lower(stmt.stop)
        stop_val = self.coerce(stop_val, i32) if stop_val.dtype.is_float else stop_val
        head = self.new_label(stmt.var)
        exit_lbl = self.new_label(f"{stmt.var}_exit")
        # pre-check: skip the loop entirely when start >= stop
        pre = self.new_vpred()
        self.emit("ISETP.GE.AND",
                  [VOperand.p(pre), VOperand.p(None), VOperand.r(ivar),
                   self.as_operand(stop_val), VOperand.p(None)])
        self.emit("BRA", [VOperand.lbl(exit_lbl)], pred=(pre, False))
        self.emit_label(head)
        self.push_scope()
        for s in stmt.body:
            self.lower_stmt(s)
        self.line = stmt.line
        step = self.lower(stmt.step)
        step = self.coerce(step, i32)
        self.emit("IADD3", [VOperand.r(ivar), VOperand.r(ivar),
                            self.as_operand(step), VOperand.i(0)])
        self.invalidate(stmt.var)
        self.pop_scope()
        cond = self.new_vpred()
        self.emit("ISETP.LT.AND",
                  [VOperand.p(cond), VOperand.p(None), VOperand.r(ivar),
                   self.as_operand(stop_val), VOperand.p(None)])
        self.emit("BRA", [VOperand.lbl(head)], pred=(cond, False))
        self.emit_label(exit_lbl)
        del self.vars[stmt.var]
        self.invalidate(stmt.var)

    def _unroll_for(self, stmt: A.For) -> None:
        start = _fold(stmt.start)
        stop = _fold(stmt.stop)
        step = _fold(stmt.step)
        if not all(isinstance(x, A.Const) for x in (start, stop, step)):
            raise CompileError("unrolled loop bounds must be compile-time constants")
        lo, hi, st = int(start.value), int(stop.value), int(step.value)
        if st <= 0:
            raise CompileError("unrolled loop step must be positive")
        if (hi - lo) // st > 4096:
            raise CompileError("unroll factor too large (>4096)")
        for k in range(lo, hi, st):
            for s in stmt.body:
                self.lower_stmt(_substitute_stmt(s, stmt.var, k))

    def _stmt_if(self, stmt: A.If) -> None:
        if self.guard is not None:
            raise CompileError("nested if is not supported (predication only)")
        for inner in stmt.then + stmt.els:
            if isinstance(inner, (A.For, A.If, A.SyncThreads, A.SharedDecl)):
                raise CompileError(
                    "if-bodies support only straight-line statements "
                    "(loads/stores/assignments); restructure the kernel"
                )
        p, neg = self.lower_cond(stmt.cond)
        self.push_scope()
        self.guard = (p, neg)
        for s in stmt.then:
            self.lower_stmt(s)
        self.pop_scope()
        if stmt.els:
            self.push_scope()
            self.guard = (p, not neg)
            for s in stmt.els:
                self.lower_stmt(s)
            self.pop_scope()
        self.guard = None
        # values written under guard are not safely reusable
        for name in {n for s in stmt.then + stmt.els
                     for n in _written_names(s)}:
            self.invalidate(name)

    def _stmt_atomic(self, stmt: A.AtomicAdd) -> None:
        val = self.lower(stmt.value)
        if stmt.shared is not None:
            slot = self.shared.get(stmt.shared)
            if slot is None:
                raise CompileError(f"unknown shared array {stmt.shared!r}")
            val = self.coerce(val, slot.dtype)
            vreg, lane = self.as_vreg(val)
            base, off = self._shared_addr(stmt.shared, stmt.shared_index)
            self.emit(f"ATOMS.ADD.{_atomic_type(slot.dtype)}",
                      [VOperand.m(base, off), VOperand.r(vreg, lane)])
            self.invalidate(stmt.shared)
            return
        name = stmt.pointer.name
        slot_p = self.params.get(name)
        if slot_p is None or not slot_p.is_pointer:
            raise CompileError(f"{name!r} is not a pointer parameter")
        ptype = slot_p.type
        assert isinstance(ptype, PointerType)
        val = self.coerce(val, ptype.elem)
        vreg, lane = self.as_vreg(val)
        base, off = self._lower_address(name, stmt.index, ptype.elem.bytes)
        # atomicAdd with unused result compiles to RED (reduction)
        self.emit(f"RED.E.ADD.{_atomic_type(ptype.elem)}",
                  [VOperand.m(base, off), VOperand.r(vreg, lane)])


# ---------------------------------------------------------------------------
# Helpers: folding, substitution, purity, deps
# ---------------------------------------------------------------------------


def _is_pow2(v) -> bool:
    v = int(v)
    return v > 0 and (v & (v - 1)) == 0


def _f64_bits(value: float) -> int:
    import struct

    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _atomic_type(dtype: DType) -> str:
    """SASS type suffix for an atomic operation."""
    if dtype.is_float:
        return "F64" if dtype.bits == 64 else "F32"
    return "U64" if dtype.bits == 64 else "U32"


def _negate_operand(op: VOperand) -> VOperand:
    from dataclasses import replace as _replace

    if op.kind == "imm":
        return VOperand.i(-op.imm)
    if op.kind == "fimm":
        return VOperand.f(-op.fimm)
    if op.kind in ("reg", "const"):
        return _replace(op, negated=not op.negated)
    raise CompileError(f"cannot negate operand {op!r}")


_FOLD_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if isinstance(a, int) and isinstance(b, int) else a / b,
    "%": lambda a, b: a % b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "min": min,
    "max": max,
}


def _fold(expr: A.Expr) -> A.Expr:
    """Constant folding (recursive); returns a simplified node."""
    if isinstance(expr, A.BinOp):
        lhs = _fold(expr.lhs)
        rhs = _fold(expr.rhs)
        if (
            isinstance(lhs, A.Const)
            and isinstance(rhs, A.Const)
            and expr.op in _FOLD_OPS
        ):
            dtype = common_type(lhs.dtype, rhs.dtype)
            if dtype.is_float and dtype.bits == 32:
                # fold in float32: the emitted instruction would round
                # after *this* operation, so folding must too — a single
                # float64 rounding at the end can be off by one ulp
                # (double rounding) from the stepwise hardware result
                value = float(_FOLD_OPS[expr.op](np.float32(lhs.value),
                                                 np.float32(rhs.value)))
            else:
                value = _FOLD_OPS[expr.op](lhs.value, rhs.value)
            return A.Const(value, dtype)
        # x*1, x*0, x+0 simplifications keep unrolled index math tidy
        if expr.op == "*":
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if isinstance(b, A.Const) and b.value == 1:
                    return a
                if isinstance(b, A.Const) and b.value == 0 and not b.dtype.is_float:
                    return b
        if expr.op == "+":
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if isinstance(b, A.Const) and b.value == 0:
                    return a
        if expr.op == "-" and isinstance(rhs, A.Const) and rhs.value == 0:
            return lhs
        if lhs is expr.lhs and rhs is expr.rhs:
            return expr
        return A.BinOp(expr.op, lhs, rhs)
    if isinstance(expr, A.UnaryOp):
        inner = _fold(expr.operand)
        if isinstance(inner, A.Const) and expr.op == "-":
            return A.Const(-inner.value, inner.dtype)
        return A.UnaryOp(expr.op, inner) if inner is not expr.operand else expr
    if isinstance(expr, A.Cast):
        inner = _fold(expr.operand)
        if isinstance(inner, A.Const):
            if expr.dtype.is_float:
                value = float(inner.value)
                if expr.dtype.bits == 32:
                    value = float(np.float32(value))  # F2F/I2F rounds
            else:
                value = int(inner.value)
            return A.Const(value, expr.dtype)
        return A.Cast(inner, expr.dtype) if inner is not expr.operand else expr
    return expr


def _split_const(expr: A.Expr) -> tuple[Optional[A.Expr], int]:
    """Split ``expr`` into (variable part, additive integer constant)."""
    if isinstance(expr, A.Const) and not expr.dtype.is_float:
        return None, int(expr.value)
    if isinstance(expr, A.BinOp) and expr.op in ("+", "-"):
        sign = 1 if expr.op == "+" else -1
        if isinstance(expr.rhs, A.Const) and not expr.rhs.dtype.is_float:
            var, c = _split_const(expr.lhs)
            return var, c + sign * int(expr.rhs.value)
        if expr.op == "+" and isinstance(expr.lhs, A.Const) \
                and not expr.lhs.dtype.is_float:
            var, c = _split_const(expr.rhs)
            return var, c + int(expr.lhs.value)
    return expr, 0


def _is_pure(expr: A.Expr) -> bool:
    """True when re-evaluating the expression is side-effect free and
    deterministic within a region — i.e. it contains no memory reads."""
    if isinstance(expr, (A.Const, A.ParamRef, A.VarRef, A.Builtin)):
        return True
    if isinstance(expr, A.BinOp):
        return _is_pure(expr.lhs) and _is_pure(expr.rhs)
    if isinstance(expr, A.UnaryOp):
        return _is_pure(expr.operand)
    if isinstance(expr, A.Cast):
        return _is_pure(expr.operand)
    if isinstance(expr, A.Call):
        return all(_is_pure(a) for a in expr.args)
    if isinstance(expr, A.Shuffle):
        return _is_pure(expr.value)
    if isinstance(expr, A.Select):
        return all(_is_pure(e) for e in (expr.cond, expr.a, expr.b))
    return False  # Load, SharedRef, ArrayRef, TexFetch, VecLane(vec=load)


def _deps(expr: A.Expr) -> frozenset[str]:
    """Names (variables/arrays/params) an expression depends on."""
    out: set[str] = set()

    def walk(e: A.Expr) -> None:
        if isinstance(e, A.VarRef):
            out.add(e.name)
        elif isinstance(e, A.ParamRef):
            out.add(e.name)
        elif isinstance(e, A.BinOp):
            walk(e.lhs)
            walk(e.rhs)
        elif isinstance(e, A.UnaryOp):
            walk(e.operand)
        elif isinstance(e, A.Cast):
            walk(e.operand)
        elif isinstance(e, A.Call):
            for a in e.args:
                walk(a)
        elif isinstance(e, (A.Load, A.SharedRef, A.ArrayRef)):
            if isinstance(e, A.Load):
                out.add(e.pointer.name)
                walk(e.index)
            else:
                out.add(e.name)
                walk(e.index)
        elif isinstance(e, A.VecLane):
            walk(e.vec)
        elif isinstance(e, A.TexFetch):
            out.add(e.tex)
            walk(e.x)
            walk(e.y)
        elif isinstance(e, A.Shuffle):
            walk(e.value)
        elif isinstance(e, A.Select):
            walk(e.cond)
            walk(e.a)
            walk(e.b)

    walk(expr)
    return frozenset(out)


def _written_names(stmt: A.Stmt) -> set[str]:
    if isinstance(stmt, (A.Let, A.AssignVar)):
        return {stmt.name}
    if isinstance(stmt, A.ArrayAssign):
        return {stmt.name}
    if isinstance(stmt, A.SharedStore):
        return {stmt.name}
    if isinstance(stmt, A.StoreStmt):
        return {stmt.pointer.name}
    if isinstance(stmt, A.AtomicAdd):
        if stmt.shared is not None:
            return {stmt.shared}
        return {stmt.pointer.name}
    return set()


def _substitute_expr(expr: A.Expr, var: str, value: int) -> A.Expr:
    """Replace ``VarRef(var)`` with an integer constant (loop unrolling)."""
    if isinstance(expr, A.VarRef) and expr.name == var:
        return A.Const(value, i32)
    if isinstance(expr, A.BinOp):
        return A.BinOp(expr.op, _substitute_expr(expr.lhs, var, value),
                       _substitute_expr(expr.rhs, var, value))
    if isinstance(expr, A.UnaryOp):
        return A.UnaryOp(expr.op, _substitute_expr(expr.operand, var, value))
    if isinstance(expr, A.Cast):
        return A.Cast(_substitute_expr(expr.operand, var, value), expr.dtype)
    if isinstance(expr, A.Call):
        return A.Call(expr.name,
                      tuple(_substitute_expr(a, var, value) for a in expr.args))
    if isinstance(expr, A.Load):
        return A.Load(expr.pointer, _substitute_expr(expr.index, var, value),
                      expr.elem)
    if isinstance(expr, A.VecLane):
        return A.VecLane(_substitute_expr(expr.vec, var, value), expr.lane)
    if isinstance(expr, A.SharedRef):
        return A.SharedRef(expr.name, _substitute_expr(expr.index, var, value))
    if isinstance(expr, A.ArrayRef):
        return A.ArrayRef(expr.name, _substitute_expr(expr.index, var, value))
    if isinstance(expr, A.TexFetch):
        return A.TexFetch(expr.tex, _substitute_expr(expr.x, var, value),
                          _substitute_expr(expr.y, var, value))
    if isinstance(expr, A.Shuffle):
        return A.Shuffle(expr.mode, _substitute_expr(expr.value, var, value),
                         expr.delta)
    if isinstance(expr, A.Select):
        return A.Select(_substitute_expr(expr.cond, var, value),
                        _substitute_expr(expr.a, var, value),
                        _substitute_expr(expr.b, var, value))
    return expr


def _substitute_stmt(stmt: A.Stmt, var: str, value: int) -> A.Stmt:
    sub = lambda e: _substitute_expr(e, var, value)  # noqa: E731
    if isinstance(stmt, A.Let):
        return A.Let(stmt.name, sub(stmt.value), stmt.dtype, line=stmt.line)
    if isinstance(stmt, A.AssignVar):
        return A.AssignVar(stmt.name, sub(stmt.value), line=stmt.line)
    if isinstance(stmt, A.ArrayAssign):
        return A.ArrayAssign(stmt.name, sub(stmt.index), sub(stmt.value),
                             line=stmt.line)
    if isinstance(stmt, A.StoreStmt):
        return A.StoreStmt(stmt.pointer, sub(stmt.index), sub(stmt.value),
                           stmt.elem, line=stmt.line)
    if isinstance(stmt, A.SharedStore):
        return A.SharedStore(stmt.name, sub(stmt.index), sub(stmt.value),
                             line=stmt.line)
    if isinstance(stmt, A.For):
        return A.For(stmt.var, sub(stmt.start), sub(stmt.stop), sub(stmt.step),
                     [_substitute_stmt(s, var, value) for s in stmt.body],
                     unroll=stmt.unroll, line=stmt.line)
    if isinstance(stmt, A.If):
        return A.If(sub(stmt.cond),
                    [_substitute_stmt(s, var, value) for s in stmt.then],
                    [_substitute_stmt(s, var, value) for s in stmt.els],
                    line=stmt.line)
    if isinstance(stmt, A.AtomicAdd):
        return A.AtomicAdd(
            sub(stmt.value),
            pointer=stmt.pointer,
            index=sub(stmt.index) if stmt.index is not None else None,
            shared=stmt.shared,
            shared_index=sub(stmt.shared_index)
            if stmt.shared_index is not None else None,
            line=stmt.line,
        )
    if isinstance(stmt, A.ReturnIf):
        return A.ReturnIf(sub(stmt.cond), line=stmt.line)
    if isinstance(stmt, (A.SyncThreads, A.ArrayDecl, A.SharedDecl)):
        return stmt
    raise CompileError(f"cannot substitute into {stmt!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _collect_shared(body: list[A.Stmt]) -> list[A.SharedDecl]:
    decls: list[A.SharedDecl] = []

    def walk(stmts: list[A.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, A.SharedDecl):
                decls.append(s)
            elif isinstance(s, A.For):
                walk(s.body)
            elif isinstance(s, A.If):
                walk(s.then)
                walk(s.els)

    walk(body)
    return decls


def lower_kernel(kernel: Kernel) -> tuple[VProgram, "_Lowerer"]:
    """Lower ``kernel`` to the virtual-register stream (the PTX stage).

    Returns the :class:`VProgram` plus the lowering context (parameter
    layout, shared layout, texture slots).  :func:`compile_kernel`
    continues from here through register allocation;
    :func:`repro.ptx.writer.kernel_to_ptx` renders this stage directly.
    """
    low = _Lowerer(kernel)
    # static shared-memory layout (16-byte aligned per array)
    offset = 0
    for decl in _collect_shared(kernel.body):
        offset = (offset + 15) // 16 * 16
        low.shared[decl.name] = SharedSlot(decl.name, offset, decl.dtype, decl.size)
        offset += decl.dtype.bytes * decl.size
    shared_bytes = (offset + 15) // 16 * 16 if offset else 0

    for stmt in kernel.body:
        low.lower_stmt(stmt)
    low.line = None
    low.emit("EXIT", [])

    vprog = VProgram(
        kernel.name, low.items, shared_bytes=shared_bytes, source=kernel.source
    )
    return vprog, low


def compile_kernel(kernel: Kernel, max_registers: Optional[int] = None) -> CompiledKernel:
    """Compile ``kernel`` to SASS.

    ``max_registers`` caps the general-register budget (like
    ``__launch_bounds__``/``-maxrregcount``); values below the kernel's
    natural pressure force spills to local memory.
    """
    vprog, low = lower_kernel(kernel)
    budget = max_registers or kernel.launch_bounds_regs or 253
    result = allocate(vprog, budget=budget)
    compiled = CompiledKernel(
        kernel=kernel,
        program=result.program,
        params=[low.params[p.name] for p in kernel.params],
        shared=sorted(low.shared.values(), key=lambda s: s.offset),
        textures=list(kernel.textures),
        allocation=result,
    )
    compiled.vprogram = vprog
    return compiled
