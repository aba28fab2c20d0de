"""Coalescing and shared-memory bank-conflict model tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.coalesce import (
    coalesce_sector_counts,
    coalesce_sectors,
    shared_transaction_counts,
    shared_transactions,
)

ALL = np.ones(32, dtype=bool)


class TestCoalesceSectors:
    def test_fully_coalesced_f32(self):
        addrs = np.arange(32, dtype=np.int64) * 4
        sectors = coalesce_sectors(addrs, 4, ALL)
        assert len(sectors) == 4  # 128 B / 32 B

    def test_broadcast_single_sector(self):
        addrs = np.full(32, 256, dtype=np.int64)
        assert len(coalesce_sectors(addrs, 4, ALL)) == 1

    def test_fully_strided_worst_case(self):
        addrs = np.arange(32, dtype=np.int64) * 128
        assert len(coalesce_sectors(addrs, 4, ALL)) == 32

    def test_vector_load_coalesced(self):
        addrs = np.arange(32, dtype=np.int64) * 16
        sectors = coalesce_sectors(addrs, 16, ALL)
        assert len(sectors) == 16  # 512 B

    def test_straddling_access_touches_both(self):
        addrs = np.array([30], dtype=np.int64)
        mask = np.zeros(32, dtype=bool)
        mask[0] = True
        addrs = np.full(32, 30, dtype=np.int64)
        sectors = coalesce_sectors(addrs, 4, mask)
        assert len(sectors) == 2

    def test_inactive_lanes_ignored(self):
        addrs = np.arange(32, dtype=np.int64) * 128
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        assert len(coalesce_sectors(addrs, 4, mask)) == 4

    def test_empty_mask(self):
        addrs = np.zeros(32, dtype=np.int64)
        assert len(coalesce_sectors(addrs, 4, np.zeros(32, dtype=bool))) == 0

    def test_sector_base_alignment(self):
        addrs = np.array([100] * 32, dtype=np.int64)
        sectors = coalesce_sectors(addrs, 4, ALL)
        assert all(s % 32 == 0 for s in sectors)

    def test_unsorted_addresses(self):
        addrs = np.arange(32, dtype=np.int64)[::-1].copy() * 4
        assert len(coalesce_sectors(addrs, 4, ALL)) == 4


class TestSharedTransactions:
    def test_conflict_free_stride_1(self):
        addrs = np.arange(32, dtype=np.int64) * 4
        assert shared_transactions(addrs, 4, ALL) == 1

    def test_broadcast_is_one(self):
        addrs = np.full(32, 64, dtype=np.int64)
        assert shared_transactions(addrs, 4, ALL) == 1

    def test_two_way_conflict(self):
        # stride 2 words: lanes pair up on 16 banks, 2 words per bank
        addrs = np.arange(32, dtype=np.int64) * 8
        assert shared_transactions(addrs, 4, ALL) == 2

    def test_32_way_conflict(self):
        # all lanes hit bank 0 with distinct words
        addrs = np.arange(32, dtype=np.int64) * 128
        assert shared_transactions(addrs, 4, ALL) == 32

    def test_wide_access_splits_words(self):
        # 8-byte accesses at stride 8: each of the two word-phases sees
        # 64 words over 32 banks -> 2 words/bank -> 2 transactions each
        addrs = np.arange(32, dtype=np.int64) * 8
        tx = shared_transactions(addrs, 8, ALL)
        assert tx == 4

    def test_empty_mask_zero(self):
        assert shared_transactions(np.zeros(32, np.int64), 4,
                                   np.zeros(32, bool)) == 0

    def test_monotone_in_conflicts(self):
        free = shared_transactions(np.arange(32, dtype=np.int64) * 4, 4, ALL)
        conflicted = shared_transactions(
            np.arange(32, dtype=np.int64) * 256, 4, ALL
        )
        assert conflicted > free


@st.composite
def _warp_rows(draw):
    """``(rows, 32)`` addresses and masks: dense word-aligned windows
    (real conflicts and broadcasts), byte-granular ones (accesses that
    straddle a sector) and sparse 40-bit ones, with some rows fully
    masked."""
    rows = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["words", "bytes", "sparse"]))
    lane = {"words": st.integers(0, 96).map(lambda w: 4 * w),
            "bytes": st.integers(-64, 700),
            "sparse": st.integers(0, 2 ** 40)}[shape]
    addrs = draw(st.lists(st.lists(lane, min_size=32, max_size=32),
                          min_size=rows, max_size=rows))
    mask = draw(st.lists(
        st.one_of(st.just([False] * 32),
                  st.lists(st.booleans(), min_size=32, max_size=32)),
        min_size=rows, max_size=rows))
    return np.array(addrs, dtype=np.int64), np.array(mask, dtype=bool)


class TestBatchedCounts:
    """The predictor's row-wise counters equal the scalar model on every
    row."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_warp_rows(), access_bytes=st.sampled_from([4, 8, 16]))
    def test_sector_counts_match_scalar(self, rows, access_bytes):
        addrs, mask = rows
        want = [len(coalesce_sectors(a, access_bytes, m))
                for a, m in zip(addrs, mask)]
        got = coalesce_sector_counts(addrs, access_bytes, mask)
        assert got.tolist() == want

    @settings(max_examples=150, deadline=None)
    @given(rows=_warp_rows(), access_bytes=st.sampled_from([4, 8, 16]))
    def test_transaction_counts_match_scalar(self, rows, access_bytes):
        addrs, mask = rows
        want = [shared_transactions(a, access_bytes, m)
                for a, m in zip(addrs, mask)]
        got = shared_transaction_counts(addrs, access_bytes, mask)
        assert got.tolist() == want

    def test_straddling_access_counts_both_sectors(self):
        addrs = np.full((2, 32), 30, dtype=np.int64)
        addrs[1] = 28  # fits: the row must not inherit row 0's span
        mask = np.ones((2, 32), dtype=bool)
        assert coalesce_sector_counts(addrs, 4, mask).tolist() == [2, 1]

    def test_all_masked_rows_count_zero(self):
        addrs = np.arange(64, dtype=np.int64).reshape(2, 32) * 4
        mask = np.zeros((2, 32), dtype=bool)
        assert coalesce_sector_counts(addrs, 16, mask).tolist() == [0, 0]
        assert shared_transaction_counts(addrs, 16, mask).tolist() == [0, 0]
