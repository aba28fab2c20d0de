"""Counter-block semantics: aggregation, scaling, stall tables, and the
texture line-fill accounting added to the hierarchy."""

import dataclasses

import pytest

from repro.gpu.caches import MemoryHierarchy
from repro.gpu.config import GPUSpec
from repro.gpu.counters import Counters
from repro.gpu.stalls import StallReason


class TestCounters:
    def test_record_l2(self):
        c = Counters()
        c.record_l2("global", hits=3, misses=2)
        c.record_l2("local", hits=1, misses=0)
        assert c.l2_sectors_by_space["global"] == 5
        assert c.dram_sectors == 2
        assert c.l2_sectors_total == 6

    def test_record_l2_noop_when_empty(self):
        c = Counters()
        c.record_l2("global", 0, 0)
        assert c.l2_sectors_total == 0

    def test_stall_aggregation(self):
        c = Counters()
        c.add_stall(3, StallReason.WAIT, 5.0)
        c.add_stall(3, StallReason.WAIT, 2.0)
        c.add_stall(4, StallReason.BARRIER, 1.0)
        c.add_stall(4, StallReason.WAIT, 0.0)  # zero ignored
        assert c.stall_totals() == {StallReason.WAIT: 7.0,
                                    StallReason.BARRIER: 1.0}
        assert c.stalls_at_pc(3) == {StallReason.WAIT: 7.0}
        assert c.stalls_at_pc(99) == {}

    def test_scaled_preserves_ratios(self):
        c = Counters()
        c.inst_issued = 100
        c.global_load_l1_hits = 30
        c.global_load_l1_misses = 10
        c.add_stall(0, StallReason.WAIT, 8.0)
        c.inst_by_pc[0] = 100
        s = c.scaled(4.0)
        assert s.inst_issued == 400
        assert s.global_load_l1_hits / s.global_load_l1_misses == \
            c.global_load_l1_hits / c.global_load_l1_misses
        assert s.stall_cycles[(0, StallReason.WAIT)] == 32.0
        assert s.inst_by_pc[0] == 400
        # original untouched
        assert c.inst_issued == 100

    def test_scaled_identity(self):
        c = Counters()
        c.inst_issued = 7
        s = c.scaled(1.0)
        assert s.inst_issued == 7
        assert s is not c

    @staticmethod
    def _filled():
        c = Counters(cycles=12.5, inst_issued=9, inst_functional=3,
                     warp_cycles_active=40.0, dram_sectors=2)
        c.inst_by_class["int_alu"] = 5
        c.inst_by_pc[0] = 9
        c.mem_sectors_by_pc[3] = 4
        c.shared_tx_by_pc[4] = 2
        c.record_l2("global", hits=3, misses=2)
        c.add_stall(3, StallReason.LONG_SCOREBOARD, 6.0)
        return c

    def test_scaled_copy_shares_no_dict(self):
        c = self._filled()
        dicts = {n for n, v in vars(c).items() if isinstance(v, dict)}
        assert len(dicts) == 8
        for factor in (1.0, 3.0):
            s = c.scaled(factor)
            for name in dicts:
                mine, theirs = getattr(c, name), getattr(s, name)
                assert mine is not theirs
                # still a defaultdict with the same zero
                assert type(theirs) is type(mine)
                assert theirs["fresh key"] == mine.default_factory()
                assert "fresh key" not in mine
        s = c.scaled(2.0)
        s.inst_by_pc[0] += 1
        s.stall_cycles[(3, StallReason.LONG_SCOREBOARD)] = 0.0
        assert c == self._filled()

    def test_scaled_by_one_equals_source_field_by_field(self):
        c = self._filled()
        s = c.scaled(1.0)
        for f in dataclasses.fields(Counters):
            assert getattr(s, f.name) == getattr(c, f.name), f.name


class TestTextureLineFill:
    @pytest.fixture
    def hier(self):
        return MemoryHierarchy(GPUSpec.small(1))

    def test_miss_promotes_siblings(self, hier):
        res = hier.access([0], "texture")
        assert res.l1_misses == 1
        assert res.fill_sectors == 3  # rest of the 128 B line
        # every sector of the line now hits
        for sector in (32, 64, 96):
            follow = hier.access([sector], "texture")
            assert follow.l1_hits == 1

    def test_fill_traffic_accounted_at_l2(self, hier):
        res = hier.access([0], "texture")
        # 1 requested + 3 promoted sectors all reached L2
        assert res.l2_hits + res.l2_misses == 4

    def test_lsu_path_not_line_filled(self, hier):
        hier.access([0], "global")
        follow = hier.access([32], "global")
        assert follow.l1_misses == 1  # sibling was NOT promoted

    def test_requested_counts_exclude_fills(self, hier):
        # the first sector's line fill promotes the second request too
        res = hier.access([0, 32], "texture")
        assert res.sectors_total == 2
        assert res.l1_misses == 1
        assert res.l1_hits == 1
        assert res.fill_sectors == 3
