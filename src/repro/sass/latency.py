"""Per-opcode issue latencies, pipe assignment and control codes.

Since Kepler, NVIDIA hardware has not interlocked fixed-latency
dependencies at run time: the assembler bakes them into per-instruction
*control codes* — a stall count the dispatcher honours after issue, a
yield hint, and six scoreboard slots ("barriers") that guard the
variable-latency instructions (memory, MUFU, S2R) a stall count cannot
cover.  Disassemblers such as SASSOverlay (SNIPPETS.md §3) recover and
print them as ``[ 2 Y ]`` / ``[ 1 | WR3 ]`` annotations.

This module reproduces that machinery statically for the Volta subset
the parser understands:

* :data:`OPCODE_LATENCY` — per-base issue cost, fixed result latency
  (``None`` for variable-latency instructions) and execution pipe.  The
  numbers follow the published Volta microbenchmark figures (4-cycle
  FMA/ALU core pipes, 5-cycle IMAD, wider FP64/convert), not the
  simulator's deliberately coarse uniform defaults.
* :func:`assign_control_codes` — a deterministic scoreboard-allocation
  pass emitting one :class:`ControlCode` per instruction: write
  barriers on variable-latency results, read barriers on store data,
  wait masks on the first dependent consumer, stall counts covering
  fixed-latency producer→consumer gaps.

The overlay renderer (:func:`repro.sass.writer.format_overlay`) prints
all of it next to each instruction.  The table annotates the listing
only: the timed simulator (:mod:`repro.gpu.scheduler`) keeps its
uniform :class:`~repro.gpu.config.GPUSpec` latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sass.isa import Instruction, OpClass, Opcode, Program

__all__ = [
    "ControlCode",
    "OPCODE_LATENCY",
    "OpLatency",
    "assign_control_codes",
    "op_latency",
]

#: control codes expose six scoreboard slots (SM70 encoding)
NUM_BARRIERS = 6

#: the stall-count field is 4 bits wide
MAX_STALL = 15


@dataclass(frozen=True)
class OpLatency:
    """Static issue facts for one opcode base.

    ``latency`` is the fixed producer→consumer latency in cycles, or
    ``None`` when the result arrives at a data-dependent time and must
    be guarded by a scoreboard barrier instead of a stall count.
    """

    issue_cost: float
    latency: Optional[int]
    pipe: str

    @property
    def variable(self) -> bool:
        return self.latency is None


#: per-base table (Volta SM70 subset).  Pipes: ``alu`` (integer core),
#: ``fma`` (FP32/IMAD core), ``fp64``, ``mufu`` (transcendental), ``xu``
#: (converts/shuffles), ``lsu`` (global/local/const), ``mio`` (shared),
#: ``tex``, ``ctrl`` (branches, barriers).
OPCODE_LATENCY: dict[str, OpLatency] = {
    # integer core pipe: 4-cycle dependent-issue latency
    "MOV": OpLatency(1.0, 4, "alu"),
    "MOV32I": OpLatency(1.0, 4, "alu"),
    "IADD3": OpLatency(1.0, 4, "alu"),
    "IMNMX": OpLatency(1.0, 4, "alu"),
    "LOP3": OpLatency(1.0, 4, "alu"),
    "SHF": OpLatency(1.0, 4, "alu"),
    "SEL": OpLatency(1.0, 4, "alu"),
    "ISETP": OpLatency(1.0, 4, "alu"),
    # IMAD executes on the FMA pipe: one cycle longer
    "IMAD": OpLatency(1.0, 5, "fma"),
    # FP32 core pipe
    "FADD": OpLatency(1.0, 4, "fma"),
    "FMUL": OpLatency(1.0, 4, "fma"),
    "FFMA": OpLatency(1.0, 4, "fma"),
    "FMNMX": OpLatency(1.0, 4, "fma"),
    "FSETP": OpLatency(1.0, 4, "fma"),
    # FP64 issues at half rate and resolves later
    "DADD": OpLatency(2.0, 8, "fp64"),
    "DMUL": OpLatency(2.0, 8, "fp64"),
    "DFMA": OpLatency(2.0, 8, "fp64"),
    "DSETP": OpLatency(2.0, 8, "fp64"),
    # transcendental: quarter-rate issue, result via scoreboard
    "MUFU": OpLatency(4.0, None, "mufu"),
    # converts/shuffles ride the crossbar ("xu") pipe
    "I2F": OpLatency(1.0, 8, "xu"),
    "F2I": OpLatency(1.0, 8, "xu"),
    "F2F": OpLatency(1.0, 8, "xu"),
    "I2I": OpLatency(1.0, 8, "xu"),
    "SHFL": OpLatency(1.0, 8, "xu"),
    # special-register reads are variable latency on real parts
    "S2R": OpLatency(1.0, None, "xu"),
    "CS2R": OpLatency(1.0, 4, "alu"),
    # memory: result timing is cache-level dependent -> barrier-guarded
    "LDG": OpLatency(1.0, None, "lsu"),
    "STG": OpLatency(1.0, None, "lsu"),
    "LDL": OpLatency(1.0, None, "lsu"),
    "STL": OpLatency(1.0, None, "lsu"),
    "LDC": OpLatency(1.0, None, "lsu"),
    "LDS": OpLatency(1.0, None, "mio"),
    "STS": OpLatency(1.0, None, "mio"),
    "ATOM": OpLatency(1.0, None, "lsu"),
    "RED": OpLatency(1.0, None, "lsu"),
    "ATOMS": OpLatency(1.0, None, "mio"),
    "TEX": OpLatency(1.0, None, "tex"),
    "TLD": OpLatency(1.0, None, "tex"),
    # control
    "BRA": OpLatency(1.0, 2, "ctrl"),
    "EXIT": OpLatency(1.0, 1, "ctrl"),
    "RET": OpLatency(1.0, 2, "ctrl"),
    "BAR": OpLatency(1.0, 1, "ctrl"),
    "NOP": OpLatency(1.0, 1, "alu"),
}

#: anything unrecognised behaves like a plain ALU op
_DEFAULT = OpLatency(1.0, 4, "alu")


def op_latency(op: Opcode) -> OpLatency:
    """Latency-table entry for ``op`` (by base mnemonic)."""
    return OPCODE_LATENCY.get(op.base, _DEFAULT)


# ---------------------------------------------------------------------------
# control codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlCode:
    """The per-instruction scheduling word the assembler emits.

    ``stall`` is the dispatcher hold after issue (1..15); ``yields``
    hints the scheduler to deprioritise the warp during a long hold;
    ``write_bar``/``read_bar`` name the scoreboard slot guarding this
    instruction's result / operand reads; ``wait_mask`` is the 6-bit
    set of slots that must clear before this instruction issues.
    """

    stall: int = 1
    yields: bool = False
    write_bar: Optional[int] = None
    read_bar: Optional[int] = None
    wait_mask: int = 0

    def render(self) -> str:
        """SASSOverlay-style annotation, fixed width for listings."""
        bars = []
        if self.write_bar is not None:
            bars.append(f"WR{self.write_bar}")
        if self.read_bar is not None:
            bars.append(f"RD{self.read_bar}")
        wait = f"{self.wait_mask:06b}" if self.wait_mask else "------"
        y = "Y" if self.yields else " "
        return (f"[ {self.stall:>2d} {y} {' '.join(bars):<7s} "
                f"| {wait} ]")


def _dest_indices(ins: Instruction) -> frozenset[int]:
    return frozenset(r.index for r in ins.dest_registers())


def _src_indices(ins: Instruction) -> frozenset[int]:
    return frozenset(r.index for r in ins.source_registers())


def assign_control_codes(program: Program) -> list[ControlCode]:
    """Derive one :class:`ControlCode` per instruction.

    A single deterministic forward pass over the stream (conservative
    across joins: barriers allocated on one path stay armed on the
    other, which only ever adds waits).  Rules:

    * a variable-latency instruction with destinations allocates the
      lowest free scoreboard slot as its **write barrier**; stores and
      reductions (which read registers at a data-dependent time)
      allocate a **read barrier** over their sources;
    * an instruction whose sources (or destinations — WAR/WAW) overlap
      a pending write barrier, or whose destinations overlap a pending
      read barrier, **waits** on those slots, which then retire;
    * a fixed-latency producer stalls long enough to cover the gap to
      its first in-stream consumer: ``clamp(latency - gap, 1, 15)``
      where ``gap`` counts intervening instructions; without a nearby
      consumer the stall is the 1-cycle issue hold;
    * stalls of 8+ cycles set the **yield** flag (the warp cannot use
      the slot anyway); branches always keep a 2-cycle hold.
    """
    n = len(program.instructions)
    dests = [_dest_indices(ins) for ins in program.instructions]
    srcs = [_src_indices(ins) for ins in program.instructions]

    #: slot -> (kind, guarded register set); kind "W" or "R"
    active: dict[int, tuple[str, frozenset[int]]] = {}
    out: list[ControlCode] = []

    def allocate() -> int:
        for slot in range(NUM_BARRIERS):
            if slot not in active:
                return slot
        # all six busy: retire the oldest allocation (real assemblers
        # insert a wait; for annotation purposes reuse is equivalent)
        slot = next(iter(active))
        del active[slot]
        return slot

    for i, ins in enumerate(program.instructions):
        info = op_latency(ins.opcode)
        ds, ss = dests[i], srcs[i]

        wait_mask = 0
        for slot, (kind, regs) in list(active.items()):
            hit = (
                (kind == "W" and (regs & ss or regs & ds))
                or (kind == "R" and regs & ds)
            )
            # a barrier instruction drains every outstanding slot
            if hit or ins.opcode.op_class is OpClass.BARRIER:
                wait_mask |= 1 << slot
                del active[slot]

        write_bar = read_bar = None
        if info.variable:
            if ds:
                write_bar = allocate()
                active[write_bar] = ("W", ds)
            store_like = ins.opcode.op_class in (
                OpClass.GLOBAL_STORE, OpClass.LOCAL_STORE,
                OpClass.SHARED_STORE, OpClass.ATOMIC_GLOBAL,
                OpClass.ATOMIC_SHARED,
            )
            if store_like and ss:
                read_bar = allocate()
                active[read_bar] = ("R", ss)

        stall = 1
        if ins.opcode.op_class is OpClass.BRANCH:
            stall = 2
        elif info.latency is not None and ds:
            gap = None
            for j in range(i + 1, n):
                if ds & srcs[j] or ds & dests[j]:
                    gap = j - i - 1
                    break
                if program.instructions[j].opcode.is_control:
                    break  # past a branch the consumer is unknown
            if gap is not None:
                stall = max(1, min(info.latency - gap, MAX_STALL))

        out.append(ControlCode(
            stall=stall,
            yields=stall >= 8,
            write_bar=write_bar,
            read_bar=read_bar,
            wait_mask=wait_mask,
        ))
    return out
