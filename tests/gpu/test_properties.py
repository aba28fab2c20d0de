"""Property-based tests for the hardware substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gpu.batch import WarpPack
from repro.gpu.caches import SectorCache, line_groups
from repro.gpu.coalesce import coalesce_sectors, shared_transactions
from repro.gpu.scheduler import Timeline
from repro.gpu.simulator import LaunchConfig
from repro.gpu.timed_trace import (
    _pack_coalesce,
    _pack_shared_tx,
    _pack_unique_counts,
)


addresses = hnp.arrays(
    dtype=np.int64,
    shape=32,
    elements=st.integers(0, 2**20).map(lambda v: v * 4),
)
masks = hnp.arrays(dtype=np.bool_, shape=32)

#: (rows, 32) packs — the stacked warp-major shape the trace build
#: feeds to the vectorized per-warp packers
pack_addresses = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 4), st.just(32)),
    elements=st.integers(0, 2**14).map(lambda v: v * 4),
)
pack_masks = hnp.arrays(dtype=np.bool_,
                        shape=st.tuples(st.integers(1, 4), st.just(32)))


@given(pack_addresses, st.sampled_from([4, 8, 16, 64]), pack_masks)
@settings(max_examples=100, deadline=None)
def test_pack_coalesce_matches_scalar(addrs, nbytes, guard):
    """The vectorized pack produces, row by row, exactly the scalar
    ``coalesce_sectors`` pools and exactly the ``line_groups`` structure
    over each pool (with absolute pool indices).  nbytes=64 forces the
    wider-than-a-sector fallback path."""
    rows = min(addrs.shape[0], guard.shape[0])
    addrs, guard = addrs[:rows], guard[:rows]
    offs, pool, groups = _pack_coalesce(addrs, nbytes, guard, 32, 128)
    assert len(offs) == rows + 1 and len(groups) == rows
    assert all(type(s) is int for s in pool)
    for w in range(rows):
        o0, o1 = offs[w], offs[w + 1]
        ref = coalesce_sectors(addrs[w], nbytes, guard[w], 32).tolist()
        assert pool[o0:o1] == ref
        ref_groups = line_groups(ref, 128, 32, 4)
        rebased = tuple((ln, mk, c, i - o0, j - o0)
                        for ln, mk, c, i, j in groups[w])
        assert rebased == ref_groups


@given(pack_addresses, st.sampled_from([4, 8]), pack_masks)
@settings(max_examples=100, deadline=None)
def test_pack_shared_tx_matches_scalar(addrs, nbytes, guard):
    rows = min(addrs.shape[0], guard.shape[0])
    addrs, guard = addrs[:rows] % 4096, guard[:rows]
    tx = _pack_shared_tx(addrs, nbytes, guard, 32, 4)
    assert tx == [shared_transactions(addrs[w], nbytes, guard[w], 32, 4)
                  for w in range(rows)]


@given(pack_addresses, pack_masks)
@settings(max_examples=100, deadline=None)
def test_pack_unique_counts_matches_numpy(addrs, guard):
    rows = min(addrs.shape[0], guard.shape[0])
    addrs, guard = addrs[:rows], guard[:rows]
    uniq, serial = _pack_unique_counts(addrs.copy(), guard)
    for w in range(rows):
        act = addrs[w][guard[w]]
        if len(act) == 0:
            assert uniq[w] == 0 and serial[w] == 0
            continue
        vals, counts = np.unique(act, return_counts=True)
        assert uniq[w] == len(vals)
        assert serial[w] == counts.max()


pool_streams = st.lists(
    st.lists(st.integers(0, 255).map(lambda v: v * 32),
             min_size=0, max_size=48),
    min_size=1, max_size=10,
)


@given(pool_streams, st.sampled_from([512, 1024]))
@settings(max_examples=80, deadline=None)
def test_probe_pool_variants_match_lookup(streams, size):
    """``probe_pool`` and ``probe_pool_grouped`` are bit-identical to a
    per-sector ``lookup`` walk: same hit/miss totals, same forwarded
    miss order, same resident lines, masks and LRU stamps — across a
    stream of pools long enough to force evictions."""
    ref = SectorCache("ref", size, assoc=2)
    via_pool = SectorCache("p", size, assoc=2)
    via_groups = SectorCache("g", size, assoc=2)
    for raw in streams:
        pool = sorted(set(raw))
        expect_missed = [s for s in pool if not ref.lookup(s)]
        h1, m1, missed1 = via_pool.probe_pool(pool)
        groups = line_groups(pool, 128, 32, 4)
        h2, m2, missed2 = via_groups.probe_pool_grouped(groups, pool)
        assert missed1 == expect_missed and missed2 == expect_missed
        assert h1 == h2 == len(pool) - len(expect_missed)
        assert m1 == m2 == len(expect_missed)
    for c in (via_pool, via_groups):
        assert c.stats.hits == ref.stats.hits
        assert c.stats.misses == ref.stats.misses
        assert c._clock == ref._clock
        assert c._lines == ref._lines
        assert c._sets == ref._sets


@given(addresses, st.sampled_from([4, 8, 16]), masks)
@settings(max_examples=120, deadline=None)
def test_coalesce_bounds(addrs, nbytes, mask):
    """Sector count is bounded by active lanes x sectors-per-access and
    at least 1 when any lane is active."""
    sectors = coalesce_sectors(addrs, nbytes, mask)
    active = int(mask.sum())
    if active == 0:
        assert len(sectors) == 0
        return
    per_access = nbytes // 32 + 2  # an access can straddle
    assert 1 <= len(sectors) <= active * per_access
    assert all(s % 32 == 0 for s in sectors)
    # sorted unique
    assert np.array_equal(sectors, np.unique(sectors))


@given(addresses, masks)
@settings(max_examples=120, deadline=None)
def test_coalesce_covers_accesses(addrs, mask):
    """Every active access byte-range falls inside some reported sector."""
    sectors = set(coalesce_sectors(addrs, 4, mask).tolist())
    for a in addrs[mask]:
        assert (a // 32) * 32 in sectors
        assert ((a + 3) // 32) * 32 in sectors


@given(addresses, masks)
@settings(max_examples=120, deadline=None)
def test_shared_transactions_bounds(addrs, mask):
    tx = shared_transactions(addrs % 4096, 4, mask)
    active = int(mask.sum())
    if active == 0:
        assert tx == 0
    else:
        assert 1 <= tx <= 32


@given(addresses, masks)
@settings(max_examples=100, deadline=None)
def test_coalesce_mask_monotone(addrs, mask):
    """Activating more lanes can only add sectors."""
    some = set(coalesce_sectors(addrs, 4, mask).tolist())
    all_on = set(coalesce_sectors(addrs, 4, np.ones(32, bool)).tolist())
    assert some <= all_on


@given(
    st.lists(st.integers(0, 255).map(lambda v: v * 32),
             min_size=1, max_size=300),
    st.sampled_from([512, 1024, 4096]),
)
@settings(max_examples=80, deadline=None)
def test_cache_conservation(sector_stream, size):
    """hits + misses == accesses; a repeat of the immediately preceding
    sector is always a hit."""
    c = SectorCache("t", size, assoc=2)
    prev = None
    for s in sector_stream:
        hit = c.lookup(s)
        if s == prev:
            assert hit
        prev = s
    assert c.stats.hits + c.stats.misses == len(sector_stream)


@given(st.lists(st.integers(0, 63).map(lambda v: v * 32),
                min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_cache_large_enough_never_evicts(stream):
    """A cache bigger than the touched footprint misses each sector at
    most once."""
    c = SectorCache("t", 64 * 1024, assoc=16)
    for s in stream:
        c.lookup(s)
    assert c.stats.misses == len(set(stream))


bookings = st.lists(
    st.tuples(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=100,
)


@given(bookings, st.sampled_from([0.25, 1.0, 4.0, 32.0]))
@settings(max_examples=120, deadline=None)
def test_timeline_completions_monotone(reqs, rate):
    """A pipelined resource completes requests in booking order: for
    positive units the returned completion times never decrease, and
    each booking strictly advances ``next_free``."""
    tl = Timeline(rate)
    prev_done = 0.0
    for t, units in reqs:
        done = tl.book(t, units)
        assert done >= prev_done
        assert done == tl.next_free
        assert done >= t  # cannot complete before the request arrives
        prev_done = done


@given(bookings, st.sampled_from([0.25, 1.0, 4.0, 32.0]),
       st.floats(0.0, 2e6, allow_nan=False, allow_infinity=False))
@settings(max_examples=120, deadline=None)
def test_timeline_backlog_never_negative(reqs, rate, probe_t):
    """``backlog`` is clamped at zero no matter how the resource was
    booked or when it is probed."""
    tl = Timeline(rate)
    assert tl.backlog(probe_t) >= 0.0
    for t, units in reqs:
        tl.book(t, units)
        assert tl.backlog(t) >= 0.0
        assert tl.backlog(probe_t) >= 0.0


# ---------------------------------------------------------------------------
# WarpPack built from launch geometry == the per-warp construction it
# replaced (kept here, test-local, as the oracle)
# ---------------------------------------------------------------------------

class _Program:
    """The three sizes a pack reads off a ``Program``."""

    def __init__(self, registers: int, local_bytes: int, shared_bytes: int):
        self.registers_per_thread = registers
        self.local_bytes_per_thread = local_bytes
        self.shared_bytes = shared_bytes


def _reference_planes(config, blocks, shared_bytes):
    """One record per warp, as ``Simulator._make_block_warps`` used to
    derive it, then stacked the way ``WarpPack.__init__`` used to."""
    gx, _ = config.grid
    bx, _ = config.block
    threads = config.threads_per_block
    warps = []
    for block_id in blocks:
        ctaid = (block_id % gx, block_id // gx, 0)
        for w in range(-(-threads // 32)):
            linear = np.arange(w * 32, (w + 1) * 32)
            active = linear < threads
            linear = np.minimum(linear, threads - 1)
            tid = ((linear % bx).astype(np.uint32),
                   (linear // bx).astype(np.uint32),
                   np.zeros(32, dtype=np.uint32))
            warps.append((block_id, ctaid, tid, active))
    n = len(warps)
    planes = {
        "active": np.stack([w[3] for w in warps]),
        "block_of": np.array([w[0] for w in warps]),
        "shared_word_off": None,
    }
    for axis in range(3):
        planes[f"tid{axis}"] = np.stack(
            [w[2][axis] for w in warps]).astype(np.uint32)
        planes[f"ctaid{axis}"] = np.array(
            [w[1][axis] for w in warps], dtype=np.uint32).reshape(n, 1)
    if shared_bytes:
        stride = -(-shared_bytes // 8) * 8
        index = {b: i for i, b in enumerate(dict.fromkeys(blocks))}
        planes["shared_word_off"] = np.array(
            [[(index[w[0]] * stride) >> 2] for w in warps], dtype=np.int64)
    return planes


launch_shapes = st.tuples(
    st.tuples(st.integers(1, 5), st.integers(1, 4)),
    st.sampled_from([(32, 1), (48, 1), (8, 6), (64, 1), (16, 16), (33, 3),
                     (1, 1), (5, 1), (128, 2), (1024, 1)]),
)


@given(launch_shapes, st.sampled_from([0, 4, 1020, 2048]),
       st.integers(0, 40), st.sampled_from([0, 4, 16]), st.data())
@settings(max_examples=120, deadline=None)
def test_geometry_built_pack_equals_stacked_warps(shape, shared_bytes,
                                                  registers, local_bytes,
                                                  data):
    grid, block = shape
    config = LaunchConfig(grid=grid, block=block)
    # any subset of the grid, in any order: packs hold what is left
    # after the timed blocks, and a wave is a strided range
    blocks = data.draw(st.lists(st.integers(0, config.num_blocks - 1),
                                min_size=1, max_size=6, unique=True))
    pack = WarpPack(_Program(registers, local_bytes, shared_bytes),
                    config, blocks)
    ref = _reference_planes(config, blocks, shared_bytes)
    n = len(blocks) * config.warps_per_block
    assert pack.n == n and pack.warps_per_block == config.warps_per_block
    got = {"active": pack.active, "block_of": pack.block_of,
           "shared_word_off": pack.shared_word_off}
    for axis in range(3):
        got[f"tid{axis}"] = pack.tid[axis]
        got[f"ctaid{axis}"] = pack.ctaid[axis]
    for name, want in ref.items():
        if want is None:
            assert got[name] is None, name
            continue
        assert got[name].shape == want.shape, name
        assert got[name].dtype == want.dtype, name
        assert np.array_equal(got[name], want), name
    assert pack.ntid == (block[0], block[1], 1)
    assert pack.nctaid == (grid[0], grid[1], 1)
    # the state planes: zeroed, PT set, every warp live at pc 0
    assert pack.nregs == max(registers + 2, 8)
    assert pack.regs.shape == (pack.nregs, n, 32)
    assert pack.regs.dtype == np.uint32 and not pack.regs.any()
    assert pack.preds.shape == (8, n, 32)
    assert pack.preds[7].all() and not pack.preds[:7].any()
    assert pack.local.shape == (max(local_bytes // 4, 1), n, 32)
    assert pack.local.dtype == np.uint32 and not pack.local.any()
    assert pack.live.shape == (n,) and pack.live.all() and pack.pc == 0
    if shared_bytes:
        stride = -(-shared_bytes // 8) * 8
        assert pack.shared.dtype == np.uint8
        assert pack.shared.size == len(blocks) * stride
        assert not pack.shared.any()
    else:
        assert pack.shared is None
    # the base guard is a fresh array, never the pack's own plane
    assert not np.shares_memory(pack.lanes(), pack.active)
    assert np.array_equal(pack.lanes(), pack.active)
