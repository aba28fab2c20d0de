"""Content-addressed trace cache: warm replays must be hits, bit-equal,
and skippable via the environment."""

import numpy as np
import pytest

from repro.cli import resolve_kernel
from repro.gpu.simulator import Simulator
from repro.gpu.trace_cache import TraceCache, trace_cache


@pytest.fixture
def cache():
    c = trace_cache()
    assert c is not None
    c.clear()
    yield c
    c.clear()


def _resolve(spec="sgemm:naive", size=64):
    return resolve_kernel(spec, size, 4)


def _launch(resolved, **kw):
    ck, config, args, textures = resolved
    sim = Simulator()
    return sim.launch(ck, config, args, textures=textures,
                      max_blocks=2, functional_all=True, **kw)


class TestWarmReplay:
    def test_two_resolutions_of_one_spec_share_the_memory_tier(
            self, cache):
        """The cache keys program identity by object (``id(compiled)``
        plus a strong ref); the catalog hands every resolution of a
        variant the same program, so a second ``resolve_kernel`` — a
        second request, a what-if rerun — replays from memory with no
        disk tier attached."""
        assert cache.store is None
        first = _launch(_resolve())
        assert cache.hits == 0 and cache.misses > 0
        misses = cache.misses
        second = _launch(_resolve())
        assert cache.hits > 0 and cache.misses == misses
        assert first.cycles == second.cycles
        assert first.counters == second.counters

    def test_repeat_launch_hits_cache(self, cache):
        rk = _resolve()
        first = _launch(rk)
        assert cache.hits == 0 and cache.misses > 0
        second = _launch(rk)
        assert cache.hits > 0, "warm repeat rebuilt every trace"
        assert first.timed_fast_path and second.timed_fast_path

    def test_warm_replay_bit_identical(self, cache):
        rk = _resolve()
        first = _launch(rk)
        second = _launch(rk)
        assert cache.hits > 0
        assert first.cycles == second.cycles
        assert first.counters == second.counters
        assert np.array_equal(first.memory.buf, second.memory.buf)

    def test_deferred_atomics_hit_cache_and_commit(self, cache):
        """reduction:atomic defers float atomics to replay; the cached
        trace must re-commit them on every warm replay, not carry the
        first replay's values in ``post_writes``."""
        rk = _resolve("reduction:atomic", 512)
        first = _launch(rk)
        second = _launch(rk)
        assert cache.hits > 0
        assert first.cycles == second.cycles
        assert first.counters == second.counters
        assert np.array_equal(first.memory.buf, second.memory.buf)

    def test_mutated_input_misses(self, cache):
        ck, config, args, textures = resolve_kernel("sgemm:naive", 64, 4)
        Simulator().launch(ck, config, args, textures=textures,
                           max_blocks=2, functional_all=True)
        hits_before = cache.hits
        args2 = {k: (v + 1 if isinstance(v, np.ndarray) else v)
                 for k, v in args.items()}
        Simulator().launch(ck, config, args2, textures=textures,
                           max_blocks=2, functional_all=True)
        assert cache.hits == hits_before, (
            "launch against mutated buffers replayed a stale trace"
        )


class TestDisable:
    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert trace_cache() is None

    def test_disabled_launch_still_trace_timed(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        rk = _resolve()
        reference = _launch(rk)
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        res = _launch(rk)
        assert res.timed_fast_path
        assert res.cycles == reference.cycles
        assert res.counters == reference.counters

    def test_budgeted_launch_bypasses_cache(self, cache):
        """Supervised/budgeted launches must not populate or consume the
        cache: skipping build work would change degradation decisions."""
        from repro.gpu.budget import SimBudget

        _launch(_resolve(), budget=SimBudget(max_cycles=10**9))
        assert cache.hits == 0 and cache.misses == 0


class TestLRU:
    def test_capacity_evicts_oldest(self):
        c = TraceCache(capacity=2)
        for i in range(3):
            c.put((("k", i), 0, 0, 1, 1), _FakeTrace(), {}, object())
        assert len(c.keys()) == 2
        assert c.stats()["evictions"] == 1
        assert c.get((("k", 0), 0, 0, 1, 1)) is None
        assert c.get((("k", 2), 0, 0, 1, 1)) is not None


class _FakeTrace:
    n_warps = 0
    nbytes = 64  # what an entry reads: the trace's own payload size


# the ten op classes of the end-to-end benchmark's engine_* workloads
ENGINE_CLASSES = [
    ("sgemm:naive", 96, 8), ("sgemm:shared", 96, 8),
    ("sgemm:shared_vec", 256, 16), ("histogram:global", 65536, 32),
    ("histogram:shared", 65536, 32), ("heat:naive", 256, 32),
    ("heat:texture", 256, 32), ("mixbench:sp:naive", 8192, 16),
    ("mixbench:dp:vec", 8192, 16), ("reduction:shared", 65536, 32),
]


def _distinct_arrays(obj, found):
    """Every ndarray reachable from a trace field, keyed by identity."""
    if isinstance(obj, np.ndarray):
        found[id(obj)] = obj
    elif isinstance(obj, dict):
        for v in obj.values():
            _distinct_arrays(v, found)
    elif isinstance(obj, (list, tuple)) and not (
            obj and isinstance(obj[0], int)):
        for v in obj:
            _distinct_arrays(v, found)
    return found


class TestPayloadAccounting:
    def _trace(self, dyn, post_writes=None):
        from repro.gpu.timed_trace import TimedTrace

        return TimedTrace([0] * len(dyn), [[0]], [[len(dyn)]], dyn, 1, 8,
                          [0], post_writes=post_writes)

    def test_shared_columns_count_once(self):
        from repro.gpu.timed_trace import _ELEM_BYTES, _ROW_BYTES

        offs, pool = list(range(9)), list(range(1000))
        groups = [((1, 1, 1, 0, 1),)] * 8
        one = self._trace({0: (offs, pool, 0, groups)})
        # another row of the same group: same column objects, new base
        two = self._trace({0: (offs, pool, 0, groups),
                           1: (offs, pool, 8, groups)})
        assert two.nbytes - one.nbytes == _ROW_BYTES + _ELEM_BYTES  # + its pc
        # the same row over its own copies pays for the columns again
        apart = self._trace({0: (offs, pool, 0, groups),
                             1: (list(offs), list(pool), 8, list(groups))})
        assert apart.nbytes - two.nbytes >= _ELEM_BYTES * len(pool)

    def test_arrays_and_post_writes_counted(self):
        addrs = np.arange(64, dtype=np.int64)
        vals = np.zeros(64, dtype=np.uint32)
        lanes = (np.arange(4, dtype=np.int64), np.ones(4, dtype=np.float32))
        bare = self._trace({0: ([0, 1], [0], 0, [1], [1], None, [()])})
        full = self._trace(
            {0: ([0, 1], [0], 0, [1], [1], (1, [lanes, None]), [()])},
            post_writes=[(addrs, vals)])
        arrays = addrs.nbytes + vals.nbytes + lanes[0].nbytes + lanes[1].nbytes
        assert full.nbytes - bare.nbytes >= arrays

    def test_engine_classes_are_sized_honestly(self, cache):
        """Each estimate covers the trace's real array bytes, and the
        ten traces together are a few MB (465 MB by the recursive walk
        this replaced), so the default caps keep all ten resident."""
        total = 0
        for spec, size, max_blocks in ENGINE_CLASSES:
            ck, config, args, textures = resolve_kernel(spec, size, 4)
            Simulator().launch(
                ck, config, args, textures=textures, max_blocks=max_blocks,
                functional_all=False)
        stats = cache.stats()
        assert stats["evictions"] == 0
        assert stats["entries"] == stats["misses"] >= len(ENGINE_CLASSES)
        for wave_key in cache.keys():
            ent = cache.get(wave_key)
            trace = ent.trace
            arrays = _distinct_arrays(
                [trace.pcs, trace.dyn, trace.post_writes], {})
            assert ent.nbytes == trace.nbytes
            assert trace.nbytes >= sum(a.nbytes for a in arrays.values())
            total += ent.nbytes
        assert total == stats["bytes"]
        assert total < 16 * 1024 * 1024

    def test_disk_round_trip_keeps_size(self, cache, tmp_path):
        """A trace loaded from the disk tier is charged what its
        in-memory insert was (float atomics: ndarray payloads too)."""
        from repro.gpu.trace_cache import FileStore, configure_trace_cache

        rk = _resolve("reduction:atomic", 512)
        configure_trace_cache(tmp_path)
        try:
            _launch(rk)
        finally:
            configure_trace_cache(None)
        assert cache.keys()
        reader = TraceCache(store=FileStore(tmp_path))
        for wave_key in cache.keys():
            ent = reader.get(wave_key, compiled=rk[0])
            assert ent is not None
            assert ent.nbytes == cache.get(wave_key).nbytes > 0
        assert reader.disk_hits == len(cache.keys())
        assert reader.bytes == cache.bytes
