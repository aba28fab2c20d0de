"""SASS instruction set model.

The model follows the Volta (SM70) SASS dialect as printed by
``nvdisasm``.  It is deliberately a *subset*: only the opcodes that the
cudalite compiler emits and that GPUscout's analyses inspect are
classified, but the parser accepts any opcode mnemonic so that real
disassembly snippets can be fed through the static analyses.

Simplifications versus real Volta SASS (documented in DESIGN.md):

* addresses are 64-bit logically but held in a single general register
  (real SASS uses aligned register pairs); this keeps the functional
  executor simple without changing any instruction *pattern* that the
  analyses look for;
* the control word (stall/yield/barrier hints encoded in the high bits
  of every real instruction) is not modelled — scheduling is performed
  dynamically by the simulator's scoreboard instead.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Optional

__all__ = [
    "Register",
    "RZ",
    "PT",
    "RegisterFile",
    "Operand",
    "MemRef",
    "ConstRef",
    "Opcode",
    "OpClass",
    "Instruction",
    "Label",
    "Program",
    "SPECIAL_REGISTERS",
]

# Number of addressable general-purpose registers; R255 is RZ (zero).
NUM_GPRS = 256
#: Special registers readable through ``S2R``.
SPECIAL_REGISTERS = (
    "SR_TID.X",
    "SR_TID.Y",
    "SR_TID.Z",
    "SR_CTAID.X",
    "SR_CTAID.Y",
    "SR_CTAID.Z",
    "SR_NTID.X",
    "SR_NTID.Y",
    "SR_NTID.Z",
    "SR_NCTAID.X",
    "SR_NCTAID.Y",
    "SR_NCTAID.Z",
    "SR_LANEID",
)


@dataclass(frozen=True, order=True)
class Register:
    """A general-purpose (``R``) or predicate (``P``) register.

    ``Register(255)`` is the hardwired zero register ``RZ`` and
    ``Register(7, predicate=True)`` is the always-true predicate ``PT``.
    """

    index: int
    predicate: bool = False

    def __post_init__(self) -> None:
        limit = 8 if self.predicate else NUM_GPRS
        if not 0 <= self.index < limit:
            raise ValueError(f"register index {self.index} out of range")

    @property
    def is_zero(self) -> bool:
        """True for ``RZ`` (reads as 0, writes discarded) and ``PT``."""
        return self.index == (7 if self.predicate else NUM_GPRS - 1)

    @property
    def name(self) -> str:
        if self.predicate:
            return "PT" if self.is_zero else f"P{self.index}"
        return "RZ" if self.is_zero else f"R{self.index}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @staticmethod
    def parse(text: str) -> "Register":
        """Parse ``R12``/``RZ``/``P3``/``PT`` into a :class:`Register`."""
        text = text.strip()
        if text == "RZ":
            return RZ
        if text == "PT":
            return PT
        m = re.fullmatch(r"R(\d+)", text)
        if m:
            return Register(int(m.group(1)))
        m = re.fullmatch(r"P(\d+)", text)
        if m:
            return Register(int(m.group(1)), predicate=True)
        raise ValueError(f"not a register: {text!r}")


RZ = Register(NUM_GPRS - 1)
PT = Register(7, predicate=True)


class RegisterFile:
    """Allocation bookkeeping for architectural registers.

    Used by the compiler back-end to reserve fixed registers and to
    report the per-thread register count that feeds the occupancy
    calculator (``launch__registers_per_thread`` in ncu terms).
    """

    def __init__(self, budget: int = NUM_GPRS - 2):
        if not 1 <= budget <= NUM_GPRS - 2:
            raise ValueError(f"register budget {budget} out of range")
        self.budget = budget
        self._used: set[int] = set()

    @property
    def used_count(self) -> int:
        """Number of distinct general registers referenced."""
        return len(self._used)

    @property
    def high_water(self) -> int:
        """Highest register index used plus one (the allocation size)."""
        return max(self._used) + 1 if self._used else 0

    def mark(self, reg: Register) -> None:
        if not reg.predicate and not reg.is_zero:
            self._used.add(reg.index)


class OpClass(enum.Enum):
    """Coarse functional classification of an opcode.

    GPUscout's analyses and the simulator's pipeline model both key off
    this classification rather than raw mnemonics.
    """

    INT_ALU = "int_alu"  # IADD3, IMAD, LOP3, SHF, ISETP, SEL, MOV ...
    FP32 = "fp32"  # FADD, FMUL, FFMA, FSETP, MUFU
    FP64 = "fp64"  # DADD, DMUL, DFMA, DSETP
    CONVERT = "convert"  # I2F, F2I, F2F, I2I
    GLOBAL_LOAD = "global_load"  # LDG
    GLOBAL_STORE = "global_store"  # STG
    LOCAL_LOAD = "local_load"  # LDL
    LOCAL_STORE = "local_store"  # STL
    SHARED_LOAD = "shared_load"  # LDS
    SHARED_STORE = "shared_store"  # STS
    CONST_LOAD = "const_load"  # LDC
    TEXTURE = "texture"  # TEX, TLD
    ATOMIC_GLOBAL = "atomic_global"  # ATOM, RED
    ATOMIC_SHARED = "atomic_shared"  # ATOMS
    BRANCH = "branch"  # BRA, EXIT, RET
    BARRIER = "barrier"  # BAR.SYNC
    SPECIAL = "special"  # S2R, CS2R
    MISC = "misc"  # NOP and anything unrecognised


_BASE_CLASS = {
    "IADD3": OpClass.INT_ALU,
    "IMAD": OpClass.INT_ALU,
    "IMNMX": OpClass.INT_ALU,
    "LOP3": OpClass.INT_ALU,
    "SHF": OpClass.INT_ALU,
    "ISETP": OpClass.INT_ALU,
    "SEL": OpClass.INT_ALU,
    "MOV": OpClass.INT_ALU,
    "MOV32I": OpClass.INT_ALU,
    "FADD": OpClass.FP32,
    "FMUL": OpClass.FP32,
    "FFMA": OpClass.FP32,
    "FMNMX": OpClass.FP32,
    "FSETP": OpClass.FP32,
    "MUFU": OpClass.FP32,
    "DADD": OpClass.FP64,
    "DMUL": OpClass.FP64,
    "DFMA": OpClass.FP64,
    "DSETP": OpClass.FP64,
    "I2F": OpClass.CONVERT,
    "F2I": OpClass.CONVERT,
    "F2F": OpClass.CONVERT,
    "I2I": OpClass.CONVERT,
    "LDG": OpClass.GLOBAL_LOAD,
    "STG": OpClass.GLOBAL_STORE,
    "LDL": OpClass.LOCAL_LOAD,
    "STL": OpClass.LOCAL_STORE,
    "LDS": OpClass.SHARED_LOAD,
    "STS": OpClass.SHARED_STORE,
    "LDC": OpClass.CONST_LOAD,
    "TEX": OpClass.TEXTURE,
    "TLD": OpClass.TEXTURE,
    "ATOM": OpClass.ATOMIC_GLOBAL,
    "RED": OpClass.ATOMIC_GLOBAL,
    "ATOMS": OpClass.ATOMIC_SHARED,
    "BRA": OpClass.BRANCH,
    "EXIT": OpClass.BRANCH,
    "RET": OpClass.BRANCH,
    "BAR": OpClass.BARRIER,
    "SHFL": OpClass.INT_ALU,
    "S2R": OpClass.SPECIAL,
    "CS2R": OpClass.SPECIAL,
    "NOP": OpClass.MISC,
}


@dataclass(frozen=True)
class Opcode:
    """An opcode mnemonic split into its base and modifier chain.

    ``LDG.E.128.SYS`` has ``base == "LDG"`` and
    ``modifiers == ("E", "128", "SYS")``.
    """

    base: str
    modifiers: tuple[str, ...] = ()

    @staticmethod
    def parse(text: str) -> "Opcode":
        parts = text.strip().split(".")
        if not parts or not parts[0]:
            raise ValueError(f"empty opcode: {text!r}")
        return Opcode(parts[0], tuple(parts[1:]))

    @property
    def name(self) -> str:
        return ".".join((self.base,) + self.modifiers)

    @property
    def op_class(self) -> OpClass:
        return _BASE_CLASS.get(self.base, OpClass.MISC)

    def has_modifier(self, mod: str) -> bool:
        return mod in self.modifiers

    # -- width ---------------------------------------------------------
    @property
    def width_bits(self) -> int:
        """Access width of a memory opcode in bits (32 when untagged).

        Real SASS tags wide accesses with ``.64``/``.128`` modifiers
        (``LDG.E.128``); untagged global/local/shared accesses are
        32-bit.
        """
        for mod in self.modifiers:
            if mod in ("64", "128"):
                return int(mod)
        if self.base in ("DADD", "DMUL", "DFMA", "DSETP"):
            return 64
        return 32

    @property
    def width_regs(self) -> int:
        """Number of consecutive 32-bit registers moved by the access."""
        return max(1, self.width_bits // 32)

    # -- classification shortcuts used throughout the analyses ---------
    @property
    def is_memory(self) -> bool:
        return self.op_class in (
            OpClass.GLOBAL_LOAD,
            OpClass.GLOBAL_STORE,
            OpClass.LOCAL_LOAD,
            OpClass.LOCAL_STORE,
            OpClass.SHARED_LOAD,
            OpClass.SHARED_STORE,
            OpClass.CONST_LOAD,
            OpClass.TEXTURE,
            OpClass.ATOMIC_GLOBAL,
            OpClass.ATOMIC_SHARED,
        )

    @property
    def is_load(self) -> bool:
        return self.op_class in (
            OpClass.GLOBAL_LOAD,
            OpClass.LOCAL_LOAD,
            OpClass.SHARED_LOAD,
            OpClass.CONST_LOAD,
            OpClass.TEXTURE,
        )

    @property
    def is_global_load(self) -> bool:
        return self.op_class is OpClass.GLOBAL_LOAD

    @property
    def is_readonly_load(self) -> bool:
        """A global load routed through the read-only data cache.

        nvcc emits ``LDG.E.CONSTANT`` (or ``.CI`` pre-Volta) when the
        pointer is known not to alias — typically via ``const
        __restrict__`` or ``__ldg``.
        """
        return self.is_global_load and (
            self.has_modifier("CONSTANT") or self.has_modifier("CI")
        )

    @property
    def is_arithmetic(self) -> bool:
        return self.op_class in (OpClass.INT_ALU, OpClass.FP32, OpClass.FP64)

    @property
    def is_conversion(self) -> bool:
        return self.op_class is OpClass.CONVERT

    @property
    def is_atomic(self) -> bool:
        return self.op_class in (OpClass.ATOMIC_GLOBAL, OpClass.ATOMIC_SHARED)

    @property
    def is_control(self) -> bool:
        return self.op_class in (OpClass.BRANCH, OpClass.BARRIER)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemRef:
    """A memory operand ``[Rn]``, ``[Rn+0x10]`` or ``[0x10]``.

    ``base`` may be ``None`` for absolute addressing (local/shared
    slots).  ``offset`` is a byte offset and may be negative, printed
    the way nvdisasm prints it (``[R4+-0x8]``).
    """

    base: Optional[Register]
    offset: int = 0

    def __str__(self) -> str:
        if self.base is None:
            return f"[{_fmt_imm(self.offset)}]"
        if self.offset == 0:
            return f"[{self.base}]"
        return f"[{self.base}+{_fmt_imm(self.offset)}]"


@dataclass(frozen=True)
class ConstRef:
    """A constant-bank operand ``c[0x0][0x160]`` (kernel parameters)."""

    bank: int
    offset: int

    def __str__(self) -> str:
        return f"c[{_fmt_imm(self.bank)}][{_fmt_imm(self.offset)}]"


def _fmt_imm(value: int) -> str:
    return f"-0x{-value:x}" if value < 0 else f"0x{value:x}"


@dataclass(frozen=True)
class Operand:
    """A single instruction operand.

    Exactly one of the payload fields is set; ``kind`` says which:

    * ``"reg"`` — :class:`Register` in ``reg``
    * ``"imm"`` — integer immediate in ``imm``
    * ``"fimm"`` — floating-point immediate in ``fimm``
    * ``"mem"`` — :class:`MemRef` in ``mem``
    * ``"const"`` — :class:`ConstRef` in ``const``
    * ``"special"`` — special-register name in ``special``
    * ``"label"`` — branch-target label name in ``label``
    """

    kind: str
    reg: Optional[Register] = None
    imm: Optional[int] = None
    fimm: Optional[float] = None
    mem: Optional[MemRef] = None
    const: Optional[ConstRef] = None
    special: Optional[str] = None
    label: Optional[str] = None
    negated: bool = False  # for predicate sources like !P0

    # Constructors -----------------------------------------------------
    @staticmethod
    def r(reg: Register, negated: bool = False) -> "Operand":
        return Operand("reg", reg=reg, negated=negated)

    @staticmethod
    def i(value: int) -> "Operand":
        return Operand("imm", imm=int(value))

    @staticmethod
    def f(value: float) -> "Operand":
        return Operand("fimm", fimm=float(value))

    @staticmethod
    def m(base: Optional[Register], offset: int = 0) -> "Operand":
        return Operand("mem", mem=MemRef(base, offset))

    @staticmethod
    def c(bank: int, offset: int) -> "Operand":
        return Operand("const", const=ConstRef(bank, offset))

    @staticmethod
    def sr(name: str) -> "Operand":
        if name not in SPECIAL_REGISTERS:
            raise ValueError(f"unknown special register {name!r}")
        return Operand("special", special=name)

    @staticmethod
    def lbl(name: str) -> "Operand":
        return Operand("label", label=name)

    def __str__(self) -> str:
        if self.kind == "reg":
            assert self.reg is not None
            # predicates negate with "!", data registers with "-"
            sigil = ("!" if self.reg.predicate else "-") if self.negated else ""
            return sigil + self.reg.name
        if self.kind == "imm":
            assert self.imm is not None
            return _fmt_imm(self.imm)
        if self.kind == "fimm":
            assert self.fimm is not None
            return repr(self.fimm)
        if self.kind == "mem":
            return str(self.mem)
        if self.kind == "const":
            return ("-" if self.negated else "") + str(self.const)
        if self.kind == "special":
            return str(self.special)
        if self.kind == "label":
            return f"`({self.label})"
        raise AssertionError(f"bad operand kind {self.kind}")


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass
class Instruction:
    """A single SASS instruction.

    ``offset`` is the byte offset within the function (the PC); Volta
    instructions are 16 bytes.  ``line`` is the CUDA source line from
    the ``--generate-line-info`` tables (``None`` if not attributed).
    ``pred``/``pred_negated`` hold the ``@P0``/``@!P0`` guard.
    """

    opcode: Opcode
    operands: list[Operand] = field(default_factory=list)
    offset: int = 0
    line: Optional[int] = None
    file: Optional[str] = None
    pred: Optional[Register] = None
    pred_negated: bool = False

    # -- register def/use ----------------------------------------------
    def dest_registers(self) -> list[Register]:
        """Architectural registers written by this instruction.

        Wide loads (``.64``/``.128``) write ``width_regs`` consecutive
        registers starting at the named destination, matching hardware
        register-pair/quad allocation.
        """
        return list(self._def_use[0])

    def source_registers(self) -> list[Register]:
        """Architectural registers read by this instruction (with the
        predicate guard and memory-address bases included)."""
        return list(self._def_use[1])

    @cached_property
    def _def_use(self) -> tuple[tuple[Register, ...], tuple[Register, ...]]:
        """``(dests, sources)``, derived on first use.  An instruction
        is not mutated once built; ``replace`` constructs a new one,
        whose ``__dict__`` starts without this entry.  Not a dataclass
        field, so ``==`` and ``repr`` never see it."""
        dests = self._derive_dests()
        return tuple(dests), tuple(self._derive_sources(bool(dests)))

    def _derive_dests(self) -> list[Register]:
        op = self.opcode
        regs: list[Register] = []
        if op.op_class in (
            OpClass.GLOBAL_STORE,
            OpClass.LOCAL_STORE,
            OpClass.SHARED_STORE,
            OpClass.BRANCH,
            OpClass.BARRIER,
        ):
            return regs
        if op.base == "RED":  # reduction: no return value
            return regs
        if not self.operands:
            return regs
        if op.base in ("ISETP", "FSETP", "DSETP"):
            # setp-style opcodes may write a predicate pair
            for cand in self.operands[:2]:
                if cand.kind == "reg" and cand.reg is not None and cand.reg.predicate:
                    if not cand.reg.is_zero:
                        regs.append(cand.reg)
            return regs
        first = self.operands[0]
        if first.kind == "reg" and first.reg is not None and not first.reg.is_zero:
            base_reg = first.reg
            if op.is_memory and op.is_load or op.base in ("ATOM", "ATOMS"):
                for k in range(op.width_regs):
                    regs.append(Register(base_reg.index + k))
            elif op.op_class is OpClass.FP64 and not base_reg.predicate:
                regs.extend((base_reg, Register(base_reg.index + 1)))
            else:
                regs.append(base_reg)
        return regs

    def _derive_sources(self, has_dest: bool) -> list[Register]:
        op = self.opcode
        regs: list[Register] = []
        if self.pred is not None and not self.pred.is_zero:
            regs.append(self.pred)
        # operand 0 (and the predicate pair of SETP) is a dest
        dest_count = 1 if has_dest else 0
        if op.base in ("ISETP", "FSETP", "DSETP"):
            dest_count = sum(
                1
                for cand in self.operands[:2]
                if cand.kind == "reg" and cand.reg is not None and cand.reg.predicate
            )
        is_store = op.op_class in (
            OpClass.GLOBAL_STORE,
            OpClass.LOCAL_STORE,
            OpClass.SHARED_STORE,
        )
        if is_store or op.base == "RED":
            dest_count = 0
        for idx, operand in enumerate(self.operands):
            if idx < dest_count:
                continue
            if operand.kind == "reg" and operand.reg is not None:
                if not operand.reg.is_zero:
                    regs.append(operand.reg)
                    if op.op_class is OpClass.FP64 and not operand.reg.predicate:
                        regs.append(Register(operand.reg.index + 1))
                    if is_store or op.base in ("RED", "ATOM", "ATOMS"):
                        # stored data may span multiple registers
                        for k in range(1, op.width_regs):
                            regs.append(Register(operand.reg.index + k))
            elif operand.kind == "mem" and operand.mem is not None:
                if operand.mem.base is not None and not operand.mem.base.is_zero:
                    regs.append(operand.mem.base)
        return regs

    def mem_operand(self) -> Optional[MemRef]:
        """The memory operand of a load/store/atomic, if any."""
        for operand in self.operands:
            if operand.kind == "mem":
                return operand.mem
        return None

    def branch_target(self) -> Optional[str]:
        if self.opcode.base != "BRA":
            return None
        for operand in self.operands:
            if operand.kind == "label":
                return operand.label
        return None

    def with_offset(self, offset: int) -> "Instruction":
        return replace(self, offset=offset)

    def __str__(self) -> str:
        from repro.sass.writer import format_instruction

        return format_instruction(self)


@dataclass(frozen=True)
class Label:
    """A branch-target label in the instruction stream."""

    name: str


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------


class Program:
    """A disassembled SASS function: an ordered instruction stream plus
    label → offset mapping and launch-related attributes.

    Instructions are stored in stream order with 16-byte offsets (the
    Volta instruction size).  ``labels`` maps label names to the offset
    of the instruction that follows them.
    """

    INSTR_BYTES = 16

    def __init__(
        self,
        name: str,
        items: Iterable["Instruction | Label"],
        *,
        registers_per_thread: int = 0,
        local_bytes_per_thread: int = 0,
        shared_bytes: int = 0,
        source: Optional[str] = None,
    ):
        self.name = name
        self.instructions: list[Instruction] = []
        self.labels: dict[str, int] = {}
        offset = 0
        for item in items:
            if isinstance(item, Label):
                if item.name in self.labels:
                    raise ValueError(f"duplicate label {item.name!r}")
                self.labels[item.name] = offset
            else:
                self.instructions.append(item.with_offset(offset))
                offset += self.INSTR_BYTES
        self.registers_per_thread = registers_per_thread
        self.local_bytes_per_thread = local_bytes_per_thread
        self.shared_bytes = shared_bytes
        #: Optional pseudo-CUDA source text (for line-correlated reports).
        self.source = source
        self._offset_index = {
            ins.offset: i for i, ins in enumerate(self.instructions)
        }

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self.instructions[idx]

    def at_offset(self, offset: int) -> Instruction:
        """The instruction at byte offset ``offset`` (the PC)."""
        try:
            return self.instructions[self._offset_index[offset]]
        except KeyError:
            raise KeyError(f"no instruction at offset {offset:#x}") from None

    def index_of_offset(self, offset: int) -> int:
        return self._offset_index[offset]

    def label_offset(self, name: str) -> int:
        return self.labels[name]

    def labels_at(self, offset: int) -> list[str]:
        return [n for n, off in self.labels.items() if off == offset]

    def source_lines(self) -> dict[int, list[Instruction]]:
        """Group instructions by attributed CUDA source line."""
        by_line: dict[int, list[Instruction]] = {}
        for ins in self.instructions:
            if ins.line is not None:
                by_line.setdefault(ins.line, []).append(ins)
        return by_line

    def opcode_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for ins in self.instructions:
            hist[ins.opcode.base] = hist.get(ins.opcode.base, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program {self.name!r}: {len(self)} instructions>"
