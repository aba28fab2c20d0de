"""SASS substrate: instruction set model, parser/writer, and the static
analysis toolkit (control-flow graph, liveness, occupancy).

The dialect implemented here mirrors the textual output of NVIDIA's
``nvdisasm``/``cuobjdump`` for Volta-class GPUs closely enough that all
of GPUscout's pattern analyses operate on the same shapes they would see
on real disassembly: instruction offsets, predication, opcode modifier
chains (``LDG.E.128.SYS``), register/memory/constant-bank operands and
``//## File "...", line N`` source-line markers.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Instruction": ("repro.sass.isa", "Instruction"),
    "Label": ("repro.sass.isa", "Label"),
    "MemRef": ("repro.sass.isa", "MemRef"),
    "Opcode": ("repro.sass.isa", "Opcode"),
    "OpClass": ("repro.sass.isa", "OpClass"),
    "Operand": ("repro.sass.isa", "Operand"),
    "Program": ("repro.sass.isa", "Program"),
    "Register": ("repro.sass.isa", "Register"),
    "RegisterFile": ("repro.sass.isa", "RegisterFile"),
    "PT": ("repro.sass.isa", "PT"),
    "RZ": ("repro.sass.isa", "RZ"),
    "parse_sass": ("repro.sass.parser", "parse_sass"),
    "format_instruction": ("repro.sass.writer", "format_instruction"),
    "format_program": ("repro.sass.writer", "format_program"),
    "BasicBlock": ("repro.sass.cfg", "BasicBlock"),
    "ControlFlowGraph": ("repro.sass.cfg", "ControlFlowGraph"),
    "Loop": ("repro.sass.cfg", "Loop"),
    "build_cfg": ("repro.sass.cfg", "build_cfg"),
    "LivenessInfo": ("repro.sass.liveness", "LivenessInfo"),
    "compute_liveness": ("repro.sass.liveness", "compute_liveness"),
    "def_use_chains": ("repro.sass.liveness", "def_use_chains"),
    "OccupancyResult": ("repro.sass.occupancy", "OccupancyResult"),
    "compute_occupancy": ("repro.sass.occupancy", "compute_occupancy"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
