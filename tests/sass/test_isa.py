"""Unit tests for the SASS ISA model (registers, opcodes, operands,
instruction def/use)."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.sass import parse_sass
from repro.sass.isa import (
    Instruction,
    MemRef,
    Opcode,
    OpClass,
    Operand,
    PT,
    RZ,
    Register,
    RegisterFile,
)
from repro.sass.parser import parse_instruction
from repro.sass.writer import format_program


class TestRegister:
    def test_basic_names(self):
        assert Register(0).name == "R0"
        assert Register(42).name == "R42"
        assert Register(3, predicate=True).name == "P3"

    def test_zero_registers(self):
        assert RZ.name == "RZ"
        assert RZ.is_zero
        assert PT.name == "PT"
        assert PT.is_zero

    def test_parse(self):
        assert Register.parse("R7") == Register(7)
        assert Register.parse("RZ") is RZ
        assert Register.parse("P2") == Register(2, predicate=True)
        assert Register.parse("PT") is PT

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            Register.parse("X3")
        with pytest.raises(ValueError):
            Register.parse("")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Register(256)
        with pytest.raises(ValueError):
            Register(8, predicate=True)
        with pytest.raises(ValueError):
            Register(-1)

    def test_ordering_and_hash(self):
        assert Register(1) < Register(2)
        assert len({Register(5), Register(5)}) == 1


class TestRegisterFile:
    def test_usage_tracking(self):
        rf = RegisterFile()
        rf.mark(Register(4))
        rf.mark(Register(9))
        rf.mark(RZ)  # never counted
        rf.mark(PT)
        assert rf.used_count == 2
        assert rf.high_water == 10

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            RegisterFile(0)
        with pytest.raises(ValueError):
            RegisterFile(255)


class TestOpcode:
    def test_parse_modifiers(self):
        op = Opcode.parse("LDG.E.128.SYS")
        assert op.base == "LDG"
        assert op.modifiers == ("E", "128", "SYS")
        assert op.name == "LDG.E.128.SYS"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Opcode.parse("")

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("LDG.E.SYS", OpClass.GLOBAL_LOAD),
            ("STG.E.SYS", OpClass.GLOBAL_STORE),
            ("LDL", OpClass.LOCAL_LOAD),
            ("STL.64", OpClass.LOCAL_STORE),
            ("LDS", OpClass.SHARED_LOAD),
            ("STS.128", OpClass.SHARED_STORE),
            ("TEX.SCR.LL", OpClass.TEXTURE),
            ("ATOM.E.ADD", OpClass.ATOMIC_GLOBAL),
            ("RED.E.ADD.F32", OpClass.ATOMIC_GLOBAL),
            ("ATOMS.ADD.F32", OpClass.ATOMIC_SHARED),
            ("IADD3", OpClass.INT_ALU),
            ("FFMA", OpClass.FP32),
            ("DFMA", OpClass.FP64),
            ("I2F.U32", OpClass.CONVERT),
            ("BRA", OpClass.BRANCH),
            ("BAR.SYNC", OpClass.BARRIER),
            ("S2R", OpClass.SPECIAL),
            ("WEIRDOP", OpClass.MISC),
        ],
    )
    def test_classification(self, name, expected):
        assert Opcode.parse(name).op_class is expected

    @pytest.mark.parametrize(
        "name,bits,regs",
        [
            ("LDG.E.SYS", 32, 1),
            ("LDG.E.64.SYS", 64, 2),
            ("LDG.E.128.SYS", 128, 4),
            ("STG.E.128.SYS", 128, 4),
            ("DADD", 64, 2),
            ("FFMA", 32, 1),
        ],
    )
    def test_width(self, name, bits, regs):
        op = Opcode.parse(name)
        assert op.width_bits == bits
        assert op.width_regs == regs

    def test_readonly_load(self):
        assert Opcode.parse("LDG.E.CONSTANT.SYS").is_readonly_load
        assert Opcode.parse("LDG.E.CI").is_readonly_load
        assert not Opcode.parse("LDG.E.SYS").is_readonly_load
        assert not Opcode.parse("LDS").is_readonly_load

    def test_category_predicates(self):
        assert Opcode.parse("LDG.E.SYS").is_load
        assert Opcode.parse("LDG.E.SYS").is_memory
        assert not Opcode.parse("STG.E.SYS").is_load
        assert Opcode.parse("STG.E.SYS").is_memory
        assert Opcode.parse("FFMA").is_arithmetic
        assert Opcode.parse("I2F").is_conversion
        assert Opcode.parse("RED.E.ADD.F32").is_atomic
        assert Opcode.parse("BAR.SYNC").is_control


class TestOperandFormatting:
    def test_negated_register(self):
        op = Operand.r(Register(5), negated=True)
        assert str(op) == "-R5"

    def test_negated_predicate(self):
        op = Operand.r(Register(1, predicate=True), negated=True)
        assert str(op) == "!P1"

    def test_memref_negative_offset(self):
        assert str(MemRef(Register(4), -8)) == "[R4+-0x8]"
        assert str(MemRef(Register(4), 16)) == "[R4+0x10]"
        assert str(MemRef(Register(4), 0)) == "[R4]"
        assert str(MemRef(None, 4)) == "[0x4]"

    def test_const_ref(self):
        assert str(Operand.c(0, 0x160)) == "c[0x0][0x160]"

    def test_special_register_validation(self):
        with pytest.raises(ValueError):
            Operand.sr("SR_BOGUS")


class TestInstructionDefUse:
    def test_simple_alu(self):
        ins = parse_instruction("IADD3 R1, R2, R3, RZ ;")
        assert ins.dest_registers() == [Register(1)]
        assert set(ins.source_registers()) == {Register(2), Register(3)}

    def test_load_wide_defines_quad(self):
        ins = parse_instruction("LDG.E.128.SYS R4, [R2] ;")
        assert ins.dest_registers() == [Register(4 + k) for k in range(4)]
        assert ins.source_registers() == [Register(2)]

    def test_store_has_no_dest(self):
        ins = parse_instruction("STG.E.SYS [R2], R5 ;")
        assert ins.dest_registers() == []
        assert set(ins.source_registers()) == {Register(2), Register(5)}

    def test_wide_store_reads_quad(self):
        ins = parse_instruction("STG.E.128.SYS [R2], R4 ;")
        srcs = set(ins.source_registers())
        assert {Register(2), Register(4), Register(5), Register(6),
                Register(7)} == srcs

    def test_fp64_register_pairs(self):
        ins = parse_instruction("DADD R4, R6, R8 ;")
        assert set(ins.dest_registers()) == {Register(4), Register(5)}
        assert {Register(6), Register(7), Register(8), Register(9)} <= set(
            ins.source_registers()
        )

    def test_setp_writes_predicate(self):
        ins = parse_instruction("ISETP.LT.AND P0, PT, R1, 0x10, PT ;")
        assert ins.dest_registers() == [Register(0, predicate=True)]
        assert Register(1) in ins.source_registers()

    def test_red_has_no_dest(self):
        ins = parse_instruction("RED.E.ADD.F32 [R2], R5 ;")
        assert ins.dest_registers() == []

    def test_predicate_guard_is_source(self):
        ins = parse_instruction("@P1 MOV R2, R3 ;")
        assert Register(1, predicate=True) in ins.source_registers()

    def test_rz_never_defined(self):
        ins = parse_instruction("IADD3 RZ, R1, R2, RZ ;")
        assert ins.dest_registers() == []

    def test_branch_target(self):
        ins = parse_instruction("@P0 BRA `(LOOP) ;")
        assert ins.branch_target() == "LOOP"
        assert parse_instruction("EXIT ;").branch_target() is None

    def test_mem_operand(self):
        ins = parse_instruction("LDG.E.SYS R0, [R2+0x10] ;")
        mem = ins.mem_operand()
        assert mem is not None and mem.base == Register(2) and mem.offset == 16
        assert parse_instruction("EXIT ;").mem_operand() is None


class TestDefUseMemo:
    """Def/use is derived once per instruction object; the memo is
    invisible to everything but the two query methods."""

    def test_replaced_operands_are_rederived(self):
        ins = parse_instruction("IADD3 R1, R2, R3, RZ ;")
        assert ins.dest_registers() == [Register(1)]
        other = replace(ins, operands=[Operand.r(Register(7)),
                                       Operand.r(Register(8)),
                                       Operand.r(RZ), Operand.r(RZ)])
        assert other.dest_registers() == [Register(7)]
        assert other.source_registers() == [Register(8)]
        moved = ins.with_offset(0x40)
        assert "_def_use" not in vars(moved)
        assert moved.dest_registers() == ins.dest_registers()

    def test_results_are_private_lists(self):
        ins = parse_instruction("IADD3 R1, R2, R3, RZ ;")
        ins.dest_registers().clear()
        ins.source_registers().append(Register(9))
        assert ins.dest_registers() == [Register(1)]
        assert ins.source_registers() == [Register(2), Register(3)]

    def test_equality_repr_and_listing_ignore_the_memo(self):
        text = ("S2R R0, SR_TID.X ;\n@P0 IADD3 R1, R0, 0x4, RZ ;\n"
                "STG.E.SYS [R2], R1 ;\nEXIT ;\n")
        fresh, queried = parse_sass(text), parse_sass(text)
        for ins in queried:
            ins.dest_registers(), ins.source_registers()
        assert all("_def_use" in vars(ins) for ins in queried)
        assert list(fresh) == list(queried)
        assert [repr(i) for i in fresh] == [repr(i) for i in queried]
        assert format_program(fresh) == format_program(queried)

    def test_warm_analyze_derives_each_instruction_at_most_once(
            self, monkeypatch, fresh_programs):
        from repro.cli import resolve_kernel
        from repro.core import GPUscout

        derived = Counter()
        derive = Instruction._derive_dests

        def counting(ins):
            derived[id(ins)] += 1
            return derive(ins)

        monkeypatch.setattr(Instruction, "_derive_dests", counting)
        ck, config, args, textures = resolve_kernel("sgemm:shared", 96, 4)
        scout = GPUscout()
        scout.analyze(ck, config, args, textures=textures)
        assert set(derived.values()) == {1}
        assert set(derived) == {id(ins) for ins in ck.program}
        before = dict(derived)
        scout.analyze(ck, config, args, textures=textures)  # warm
        assert derived == before
