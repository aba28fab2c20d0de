"""Render cudalite's virtual-register stage as PTX text.

PTX is a virtual-architecture assembly with an unlimited register count
(paper §2.1) — exactly what cudalite's pre-allocation instruction
stream is.  The writer maps each virtual instruction to its PTX
equivalent, producing a listing in NVIDIA's syntax: ``.visible .entry``
header, ``.param`` declarations, ``%r``/``%rd``/``%q``/``%p`` virtual
registers, ``ld.global``/``st.shared``/``fma.rn.f32``-style opcodes,
``$L_*`` labels and ``@%p`` guards.

The output is consumed by :mod:`repro.ptx.parser` and the §4.4 PTX
atomics analysis; it is a faithful *dialect*, not input for ``ptxas``.
"""

from __future__ import annotations

from repro.cudalite.builder import Kernel
from repro.cudalite.compiler import lower_kernel
from repro.cudalite.regalloc import VInstr, VOperand, VProgram
from repro.cudalite.types import PointerType
from repro.sass.isa import Label

__all__ = ["kernel_to_ptx", "lowered_to_ptx", "vprogram_to_ptx"]


def _reg(op: VOperand) -> str:
    assert op.vreg is not None
    prefix = {1: "%r", 2: "%rd", 4: "%q"}.get(op.vreg.regs, "%r")
    name = f"{prefix}{op.vreg.id}"
    if op.lane:
        name += f".{'xyzw'[op.lane] if op.lane < 4 else op.lane}"
    return ("-" if op.negated else "") + name


def _operand(op: VOperand, param_names: dict[int, str]) -> str:
    if op.kind == "reg":
        return _reg(op)
    if op.kind == "pred":
        if op.vpred is None:
            return "!%pt" if op.negated else "%pt"
        return ("!" if op.negated else "") + f"%p{op.vpred.id}"
    if op.kind == "imm":
        return str(op.imm)
    if op.kind == "fimm":
        return f"0f{_f32_bits(op.fimm):08X}"  # PTX float literal form
    if op.kind == "mem":
        base = _reg(VOperand.r(op.mem_base)) if op.mem_base is not None else ""
        if op.mem_offset and base:
            return f"[{base}+{op.mem_offset}]"
        if base:
            return f"[{base}]"
        return f"[{op.mem_offset}]"
    if op.kind == "const":
        name = param_names.get(op.const_offset, f"param_{op.const_offset:#x}")
        return f"[{name}]"
    if op.kind == "special":
        sr = op.special or ""
        table = {
            "SR_TID": "%tid", "SR_CTAID": "%ctaid",
            "SR_NTID": "%ntid", "SR_NCTAID": "%nctaid",
            "SR_LANEID": "%laneid",
        }
        stem, _, axis = sr.partition(".")
        base = table.get(stem, sr.lower())
        return f"{base}.{axis.lower()}" if axis else base
    if op.kind == "label":
        return f"$L_{op.label}"
    raise ValueError(f"cannot render operand kind {op.kind!r}")


def _f32_bits(value: float) -> int:
    import struct

    return struct.unpack("<I", struct.pack("<f", float(value)))[0]


_SETP_CMP = {"LT": "lt", "LE": "le", "GT": "gt", "GE": "ge",
             "EQ": "eq", "NE": "ne"}


def _trim_operands(ins: VInstr, opcode: str) -> list[VOperand]:
    """Strip SASS-only operand artifacts for the PTX rendering:
    IADD3's third addend when zero, LOP3's immediates once the opcode
    is a named and/or/xor, and SETP's hardwired PT chain operands."""
    ops = list(ins.operands)
    base = ins.opcode.base
    if base == "IADD3" and len(ops) == 4 and ops[3].kind == "imm" \
            and ops[3].imm == 0:
        ops = ops[:3]
    elif base == "LOP3" and not opcode.startswith("lop3"):
        ops = ops[:3]
    elif base in ("ISETP", "FSETP", "DSETP"):
        # [pd, PT, a, b, PT] -> [pd, a, b]
        ops = [ops[0], ops[2], ops[3]]
    elif base == "PLOP3":
        # [pd, PT, pa, pb, PT] -> [pd, pa, pb]
        ops = [ops[0], ops[2], ops[3]]
    elif base in ("IMNMX", "FMNMX"):
        ops = ops[:3]  # min/max already encodes the selector
    return ops


def _ptx_opcode(ins: VInstr) -> str:
    """Map a virtual SASS opcode to its PTX mnemonic."""
    op = ins.opcode
    base = op.base
    mods = op.modifiers
    if base in ("MOV", "MOV32I"):
        if any(o.kind == "const" for o in ins.operands[1:]):
            width = "u64" if ins.operands[0].vreg is not None \
                and ins.operands[0].vreg.regs == 2 else "b32"
            return f"ld.param.{width}"
        return "mov.b32"
    if base == "S2R":
        return "mov.u32"
    if base == "IADD3":
        return "add.s32"
    if base == "IMAD":
        return "mad.wide.s32" if "WIDE" in mods else "mad.lo.s32"
    if base == "IMNMX":
        # min/max selected by the trailing predicate operand
        sel = ins.operands[-1]
        return "max.s32" if sel.negated else "min.s32"
    if base == "LOP3":
        lut = ins.operands[-1].imm
        named = {0xC0: "and.b32", 0xFC: "or.b32", 0x3C: "xor.b32"}
        return named.get(lut, "lop3.b32")
    if base == "SHF":
        if "L" in mods:
            return "shl.b32"
        return "shr.s32" if "S32" in mods else "shr.u32"
    if base == "SEL":
        return "selp.b32"
    if base == "SHFL":
        mode = {"DOWN": "down", "UP": "up", "BFLY": "bfly"}[mods[0]]
        return f"shfl.sync.{mode}.b32"
    if base in ("ISETP", "FSETP", "DSETP"):
        cmp_mod = next(m for m in mods if m in _SETP_CMP)
        ty = {"ISETP": "u32" if "U32" in mods else "s32",
              "FSETP": "f32", "DSETP": "f64"}[base]
        return f"setp.{_SETP_CMP[cmp_mod]}.{ty}"
    if base == "PLOP3":
        return "or.pred" if "OR" in mods else "and.pred"
    if base in ("FADD", "FMUL"):
        return f"{'add' if base == 'FADD' else 'mul'}.f32"
    if base == "FFMA":
        return "fma.rn.f32"
    if base == "FMNMX":
        sel = ins.operands[-1]
        return "max.f32" if sel.negated else "min.f32"
    if base in ("DADD", "DMUL"):
        return f"{'add' if base == 'DADD' else 'mul'}.f64"
    if base == "DFMA":
        return "fma.rn.f64"
    if base == "MUFU":
        fn = {"RCP": "rcp", "SQRT": "sqrt", "RSQ": "rsqrt"}[mods[0]]
        return f"{fn}.approx.f32"
    if base == "I2F":
        dst = "f64" if "F64" in mods else "f32"
        src = "u32" if "U32" in mods else "s32"
        return f"cvt.rn.{dst}.{src}"
    if base == "F2I":
        src = "f64" if "F64" in mods else "f32"
        return f"cvt.rzi.s32.{src}"
    if base == "F2F":
        if mods and mods[0] == "F64":
            return "cvt.f64.f32"
        return "cvt.rn.f32.f64"
    if base == "I2I":
        return "cvt.s32.s32"
    if base in ("LDG", "LDL", "LDS", "LDC"):
        space = {"LDG": "global", "LDL": "local", "LDS": "shared",
                 "LDC": "const"}[base]
        nc = ".nc" if "CONSTANT" in mods or "CI" in mods else ""
        width = next((m for m in mods if m in ("64", "128")), None)
        vec = {None: "", "64": ".v2", "128": ".v4"}[width]
        return f"ld.{space}{nc}{vec}.f32" if vec or space != "global" \
            else f"ld.{space}{nc}.f32"
    if base in ("STG", "STL", "STS"):
        space = {"STG": "global", "STL": "local", "STS": "shared"}[base]
        width = next((m for m in mods if m in ("64", "128")), None)
        vec = {None: "", "64": ".v2", "128": ".v4"}[width]
        return f"st.{space}{vec}.f32"
    if base in ("RED", "ATOM"):
        ty = mods[-1].lower() if mods else "u32"
        stem = "red" if base == "RED" else "atom"
        return f"{stem}.global.add.{ty}"
    if base == "ATOMS":
        ty = mods[-1].lower() if mods else "u32"
        return f"atom.shared.add.{ty}"
    if base == "TEX":
        return "tex.2d.v4.f32.s32"
    if base == "BRA":
        return "bra"
    if base == "EXIT":
        return "exit" if ins.pred is not None else "ret"
    if base == "BAR":
        return "bar.sync"
    if base == "NOP":
        return "nop"
    return base.lower()


def vprogram_to_ptx(vprog: VProgram, param_names: dict[int, str],
                    param_decls: list[str], name: str) -> str:
    """Render a virtual program in the PTX dialect."""
    lines = [
        "//",
        "// Generated by cudalite (PTX stage of the two-ISA pipeline)",
        "//",
        ".version 7.0",
        ".target sm_70",
        ".address_size 64",
        "",
        f".visible .entry {name}(",
    ]
    lines.extend(
        f"    {decl}{',' if i + 1 < len(param_decls) else ''}"
        for i, decl in enumerate(param_decls)
    )
    lines.append(")")
    lines.append("{")
    if vprog.shared_bytes:
        lines.append(
            f"    .shared .align 16 .b8 __smem[{vprog.shared_bytes}];"
        )
    last_line = None
    for item in vprog.items:
        if isinstance(item, Label):
            lines.append(f"$L_{item.name}:")
            continue
        assert isinstance(item, VInstr)
        if item.line is not None and item.line != last_line:
            lines.append(f"    // line {item.line}")
            last_line = item.line
        guard = ""
        if item.pred is not None:
            guard = f"@{'!' if item.pred_negated else ''}%p{item.pred.id} "
        opcode = _ptx_opcode(item)
        operands = _trim_operands(item, opcode)
        ops = ", ".join(_operand(op, param_names) for op in operands)
        lines.append(f"    {guard}{opcode}" + (f" {ops};" if ops else ";"))
    lines.append("}")
    return "\n".join(lines) + "\n"


_PTX_TYPES = {
    "int": ".s32", "unsigned int": ".u32", "float": ".f32",
    "double": ".f64", "unsigned long long": ".u64",
}


def kernel_to_ptx(kernel: Kernel) -> str:
    """Compile ``kernel`` only to the PTX stage and render it.

    This is the "first transformation" of the paper's §2.1 pipeline;
    :func:`repro.cudalite.compile_kernel` continues to SASS.
    """
    vprog, low = lower_kernel(kernel)
    return lowered_to_ptx(kernel, vprog,
                          [low.params[p.name] for p in kernel.params])


def lowered_to_ptx(kernel: Kernel, vprog: VProgram, params: list) -> str:
    """Render a kernel :func:`~repro.cudalite.compiler.lower_kernel`
    already lowered: ``vprog`` is its stream, ``params`` its
    ``ParamSlot`` per kernel parameter (what a ``CompiledKernel``
    keeps, so its ``ptx_text`` costs no second lowering)."""
    param_names = {}
    param_decls = []
    for i, (p, slot) in enumerate(zip(kernel.params, params)):
        pname = f"{kernel.name}_param_{i}"
        param_names[slot.offset] = pname
        if isinstance(p.type, PointerType):
            param_decls.append(f".param .u64 {pname}")
        else:
            ty = _PTX_TYPES.get(p.type.name, ".b32")
            param_decls.append(f".param {ty} {pname}")
    for i, tex in enumerate(kernel.textures):
        param_decls.append(
            f".param .u64 {kernel.name}_param_tex_{i}  // texture object"
        )
    return vprogram_to_ptx(vprog, param_names, param_decls, kernel.name)
