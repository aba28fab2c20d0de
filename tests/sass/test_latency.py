"""Per-opcode latency table and control-code assignment."""

from repro.sass import parse_sass
from repro.sass.latency import (
    MAX_STALL,
    NUM_BARRIERS,
    OPCODE_LATENCY,
    assign_control_codes,
    op_latency,
)


def _codes(text: str):
    program = parse_sass(text)
    return program, assign_control_codes(program)


class TestOpLatency:
    def test_known_bases_resolve(self):
        program = parse_sass("LDG.E.SYS R4, [R2] ;\nEXIT ;\n")
        info = op_latency(program[0].opcode)
        assert info.pipe == "lsu"
        assert info.variable

    def test_modifiers_do_not_matter(self):
        p = parse_sass("IADD3.X R1, R2, R3, RZ ;\nEXIT ;\n")
        assert op_latency(p[0].opcode) is OPCODE_LATENCY["IADD3"]

    def test_unknown_base_gets_alu_default(self):
        p = parse_sass("NOP ;\nEXIT ;\n")
        info = op_latency(p[0].opcode)
        assert info.pipe in ("alu",)  # NOP is in the table as alu

    def test_fixed_latencies_positive(self):
        for base, info in OPCODE_LATENCY.items():
            assert info.issue_cost >= 1.0, base
            if info.latency is not None:
                assert 1 <= info.latency <= 16, base


class TestControlCodes:
    def test_load_allocates_write_barrier(self):
        _, codes = _codes(
            "LDG.E.SYS R4, [R2] ;\n"
            "FADD R5, R4, R4 ;\n"
            "EXIT ;\n"
        )
        assert codes[0].write_bar == 0
        # the consumer waits on that slot
        assert codes[1].wait_mask == 1 << 0

    def test_store_allocates_read_barrier(self):
        _, codes = _codes(
            "STG.E.SYS [R2], R4 ;\n"
            "EXIT ;\n"
        )
        assert codes[0].read_bar is not None
        assert codes[0].write_bar is None  # stores produce nothing

    def test_barrier_retires_on_wait(self):
        _, codes = _codes(
            "LDG.E.SYS R4, [R2] ;\n"
            "FADD R5, R4, R4 ;\n"
            "LDG.E.SYS R6, [R2+0x10] ;\n"
            "EXIT ;\n"
        )
        # slot 0 freed by the FADD wait, so the second load reuses it
        assert codes[2].write_bar == 0

    def test_war_hazard_waits(self):
        _, codes = _codes(
            "LDG.E.SYS R4, [R2] ;\n"
            "MOV R4, RZ ;\n"  # overwrites the in-flight destination
            "EXIT ;\n"
        )
        assert codes[1].wait_mask == 1 << 0

    def test_bar_sync_drains_all_slots(self):
        _, codes = _codes(
            "LDG.E.SYS R4, [R2] ;\n"
            "LDG.E.SYS R6, [R2+0x10] ;\n"
            "BAR.SYNC 0x0 ;\n"
            "EXIT ;\n"
        )
        assert codes[2].wait_mask == (1 << 0) | (1 << 1)

    def test_fixed_latency_stall_covers_gap(self):
        # MOV (4-cycle) feeding the very next instruction: stall 4
        _, codes = _codes(
            "MOV R1, R2 ;\n"
            "IADD3 R3, R1, R1, RZ ;\n"
            "EXIT ;\n"
        )
        assert codes[0].stall == 4
        # with two independent fillers in between: 4 - 2 = 2
        _, codes = _codes(
            "MOV R1, R2 ;\n"
            "MOV R5, R6 ;\n"
            "MOV R7, R8 ;\n"
            "IADD3 R3, R1, R1, RZ ;\n"
            "EXIT ;\n"
        )
        assert codes[0].stall == 2

    def test_long_stall_sets_yield(self):
        _, codes = _codes(
            "DADD R2, R4, R6 ;\n"
            "DADD R8, R2, R2 ;\n"
            "EXIT ;\n"
        )
        assert codes[0].stall == 8
        assert codes[0].yields

    def test_branch_keeps_two_cycle_hold(self):
        _, codes = _codes(
            "BRA `(END) ;\n"
            ".END:\n"
            "EXIT ;\n"
        )
        assert codes[0].stall == 2

    def test_stall_clamped_to_field_width(self):
        for c in _codes("MOV R1, R2 ;\nMOV R3, R1 ;\nEXIT ;\n")[1]:
            assert 1 <= c.stall <= MAX_STALL

    def test_slot_exhaustion_reuses_oldest(self):
        # seven back-to-back loads with no consumer: only six slots
        text = "".join(
            f"LDG.E.SYS R{2 * i + 4}, [R2+{hex(16 * i)}] ;\n"
            for i in range(7)
        ) + "EXIT ;\n"
        _, codes = _codes(text)
        slots = [c.write_bar for c in codes[:7]]
        assert slots[:6] == list(range(NUM_BARRIERS))
        assert slots[6] in range(NUM_BARRIERS)

    def test_render_is_fixed_width(self):
        _, codes = _codes(
            "LDG.E.SYS R4, [R2] ;\n"
            "FADD R5, R4, R4 ;\n"
            "EXIT ;\n"
        )
        widths = {len(c.render()) for c in codes}
        assert len(widths) == 1
        assert "WR0" in codes[0].render()
        assert "000001" in codes[1].render()
