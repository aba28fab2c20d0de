"""CFG and reaching-definitions edge cases: predicated defs,
self-loops, unreachable blocks — the shapes the blame slicer leans on."""

import pytest

from repro.kernels.catalog import CATALOG, resolve_kernel
from repro.sass import parse_sass
from repro.sass.affine import _LIVE_IN, ReachingDefinitions
from repro.sass.cfg import build_cfg


def _passes(text: str):
    program = parse_sass(text)
    cfg = build_cfg(program)
    return program, cfg, ReachingDefinitions(program, cfg)


class TestPredicatedDefs:
    TEXT = (
        "ISETP.LT.AND P0, PT, R0, 0x4, PT ;\n"  # 0: defines P0
        "MOV R0, 0x7 ;\n"                       # 1: defines R0
        "@P0 MOV R4, RZ ;\n"                    # 2: guarded def of R4
        "IADD3 R5, R4, R0, RZ ;\n"              # 3
        "EXIT ;\n"
    )

    def test_guarded_def_is_still_a_def(self):
        program, _, rd = _passes(self.TEXT)
        r4 = program[2].dest_registers()[0]
        assert rd.defs_before(r4, 3) == (2,)

    def test_predicate_and_gpr_zero_do_not_collide(self):
        # P0 and R0 share index 0 but live in separate key spaces
        program, _, rd = _passes(self.TEXT)
        p0 = program[2].pred
        assert p0 is not None and p0.predicate
        assert rd.defs_before(p0, 2) == (0,)
        r0 = [r for r in program[3].source_registers()
              if not r.predicate and r.index == 0]
        assert rd.defs_before(r0[0], 3) == (1,)

    def test_defs_at_includes_the_def_site_defs_before_does_not(self):
        program, _, rd = _passes(self.TEXT)
        r4 = program[2].dest_registers()[0]
        assert rd.defs_at(r4, 2) == (2,)
        assert rd.defs_before(r4, 2) == (-1,)  # live-in before it


class TestBranchMerge:
    TEXT = (
        "ISETP.LT.AND P0, PT, R0, 0x10, PT ;\n"
        "@P0 BRA `(ELSE) ;\n"
        "MOV R4, 0x1 ;\n"
        "BRA `(JOIN) ;\n"
        ".ELSE:\n"
        "MOV R4, 0x2 ;\n"
        ".JOIN:\n"
        "IADD3 R5, R4, R4, RZ ;\n"
        "EXIT ;\n"
    )

    def test_union_over_paths_at_join(self):
        program, _, rd = _passes(self.TEXT)
        r4 = program[2].dest_registers()[0]
        assert rd.defs_before(r4, 5) == (2, 4)

    def test_kill_within_one_arm(self):
        program, _, rd = _passes(self.TEXT)
        r4 = program[2].dest_registers()[0]
        # inside the fallthrough arm only its own def reaches
        assert rd.defs_at(r4, 2) == (2,)


class TestSelfLoop:
    TEXT = (
        "MOV R0, RZ ;\n"                          # 0
        ".SELF:\n"
        "IADD3 R0, R0, 0x1, RZ ;\n"               # 1
        "ISETP.LT.AND P0, PT, R0, 0x8, PT ;\n"    # 2
        "@P0 BRA `(SELF) ;\n"                     # 3
        "EXIT ;\n"                                # 4
    )

    def test_block_is_its_own_successor(self):
        _, cfg, _ = _passes(self.TEXT)
        blk = cfg.block_of_instruction(1)
        assert blk.bid in blk.successors
        assert blk.bid in blk.predecessors

    def test_self_loop_detected_as_natural_loop(self):
        _, cfg, _ = _passes(self.TEXT)
        header = cfg.block_of_instruction(1).bid
        matching = [lp for lp in cfg.loops if lp.header == header]
        assert len(matching) == 1
        assert matching[0].blocks == frozenset({header})
        assert matching[0].back_edge_from == header
        assert cfg.in_loop(1) and not cfg.in_loop(0)

    def test_loop_carried_def_reaches_loop_head(self):
        program, _, rd = _passes(self.TEXT)
        r0 = program[1].dest_registers()[0]
        # entering the IADD3: the preheader MOV and the previous
        # iteration's own update both reach
        assert rd.defs_before(r0, 1) == (0, 1)
        # after it, within the block, only the local def
        assert rd.defs_before(r0, 2) == (1,)


class TestUnreachable:
    TEXT = (
        "MOV R4, R5 ;\n"   # 0
        "EXIT ;\n"         # 1
        ".DEAD:\n"
        "MOV R4, R6 ;\n"   # 2: never executed
        "EXIT ;\n"         # 3
    )

    def test_dead_block_has_no_predecessors(self):
        _, cfg, _ = _passes(self.TEXT)
        blk = cfg.block_of_instruction(2)
        assert blk.predecessors == []
        # EXIT really terminates: the entry block has no successors
        assert cfg.block_of_instruction(0).successors == []

    def test_dead_block_not_dominated_and_not_a_loop(self):
        _, cfg, _ = _passes(self.TEXT)
        dead = cfg.block_of_instruction(2).bid
        assert cfg.idom[dead] is None
        assert not cfg.dominates(0, dead)
        assert cfg.loops == []

    def test_live_defs_do_not_leak_into_dead_code(self):
        program, _, rd = _passes(self.TEXT)
        r4 = program[0].dest_registers()[0]
        # the dead block sees only the live-in sentinel, not index 0
        assert rd.defs_before(r4, 2) == (-1,)
        assert rd.defs_at(r4, 2) == (2,)


def _rescan(rd, reg, index, at):
    """Reference: the block-rescan query the per-index walk replaced —
    re-derive every instruction's destinations from the block start and
    keep the last match (``at`` counts a definition at ``index``)."""
    blk = rd.cfg.block_of_instruction(index)
    key = (reg.index, reg.predicate)
    last = None
    stop = min(index, blk.end - 1) + 1 if at else index
    for i in range(blk.start, stop):
        for dreg in rd.program[i].dest_registers():
            if (dreg.index, dreg.predicate) == key:
                last = i
    if last is not None:
        return (last,)
    return tuple(sorted(rd._in[blk.bid].get(key, _LIVE_IN)))


@pytest.mark.parametrize("spec", sorted(CATALOG))
def test_queries_by_index_equal_block_rescan(spec):
    program = resolve_kernel(spec, 128, 8)[0].program
    rd = ReachingDefinitions(program, build_cfg(program))
    regs = sorted({r for ins in program for r in ins.dest_registers()})
    assert regs
    for index in range(len(program)):
        for reg in regs:
            assert rd.defs_before(reg, index) == _rescan(rd, reg, index, False)
            assert rd.defs_at(reg, index) == _rescan(rd, reg, index, True)

