"""Cache tiers: FileStore integrity/eviction, the bounded in-memory
trace-cache LRU (entry- and byte-capped), the shared disk L2 tier, and
the ReportCache's memory/disk interplay."""

import os
import pickle
import time

import numpy as np

from repro.gpu.trace_cache import FileStore, TraceCache
from repro.serve.cache import ReportCache, StaticCache


class _FakeTrace:
    """What ``_Entry`` reads of a trace: ``n_warps`` and the payload
    size the trace carries (``TimedTrace.nbytes``)."""

    n_warps = 0

    def __init__(self, nbytes=64):
        self.nbytes = nbytes


def _key(i):
    return (("k", i), 0, 0, 1, 1)


class TestFileStore:
    def test_round_trip(self, tmp_path):
        s = FileStore(tmp_path)
        s.put("abc", b"payload")
        payload, corrupted = s.get("abc")
        assert payload == b"payload" and not corrupted

    def test_miss(self, tmp_path):
        s = FileStore(tmp_path)
        assert s.get("nope") == (None, False)
        assert s.misses == 1

    def test_no_partial_files_visible(self, tmp_path):
        s = FileStore(tmp_path)
        s.put("abc", b"x" * 1000)
        assert [p.name for p in tmp_path.iterdir()] == ["abc.bin"]

    def test_corrupted_entry_discarded(self, tmp_path):
        s = FileStore(tmp_path)
        s.put("abc", b"payload")
        path = tmp_path / "abc.bin"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # bit rot in the payload: CRC must catch it
        path.write_bytes(bytes(raw))
        payload, corrupted = s.get("abc")
        assert payload is None and corrupted
        assert not path.exists(), "corrupt entry must be deleted"
        assert s.corrupt == 1
        # and the follow-up read is a clean miss, not corruption again
        assert s.get("abc") == (None, False)

    def test_truncated_entry_discarded(self, tmp_path):
        s = FileStore(tmp_path)
        s.put("abc", b"payload")
        path = tmp_path / "abc.bin"
        path.write_bytes(path.read_bytes()[:6])
        assert s.get("abc") == (None, True)

    def test_eviction_drops_least_recently_used(self, tmp_path):
        s = FileStore(tmp_path, max_bytes=3500)
        for i, name in enumerate(["a", "b", "c"]):
            s.put(name, bytes(1000))
            os.utime(tmp_path / f"{name}.bin", (i + 1, i + 1))
        # reading "a" touches it; inserting "d" must evict "b" (oldest)
        now = time.time()
        os.utime(tmp_path / "a.bin", (now, now))
        s.put("d", bytes(1000))
        present = {p.stem for p in tmp_path.glob("*.bin")}
        assert "b" not in present
        assert "a" in present and "d" in present


    def test_stats_and_bytes_used_share_one_scan(self, tmp_path):
        s = FileStore(tmp_path)
        s.put("a", bytes(100))
        s.put("b", bytes(200))
        (tmp_path / ".c.bin.123.tmp").write_bytes(bytes(50))  # mid-write
        (tmp_path / "notes.txt").write_bytes(bytes(50))
        stats = s.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] == s.bytes_used() == 300 + 2 * 8


class TestTraceCacheLRU:
    def test_capacity_eviction_order(self):
        c = TraceCache(capacity=3)
        for i in range(3):
            c.put(_key(i), _FakeTrace(), {}, object())
        assert c.keys() == [_key(0), _key(1), _key(2)]
        # a hit refreshes recency: 0 moves to the back...
        assert c.get(_key(0)) is not None
        assert c.keys() == [_key(1), _key(2), _key(0)]
        # ...so inserting past capacity evicts 1, not 0
        c.put(_key(3), _FakeTrace(), {}, object())
        assert c.keys() == [_key(2), _key(0), _key(3)]
        assert c.get(_key(1)) is None

    def test_byte_cap_evicts(self):
        c = TraceCache(capacity=100, max_bytes=4096)
        for i in range(4):
            c.put(_key(i), _FakeTrace(1500), {}, object())
        # 4 x 1.5KB > 4KB: the byte cap, not the entry cap, must bite
        assert c.keys() == [_key(2), _key(3)]
        assert c.bytes == 3000
        assert c.stats()["evictions"] == 2
        assert c.get(_key(3)) is not None, "newest entry evicted"

    def test_update_replaces_byte_accounting(self):
        c = TraceCache(capacity=4, max_bytes=10**9)
        assert c.bytes == 0
        c.put(_key(0), _FakeTrace(4000), {}, object())
        assert c.bytes == 4000
        c.put(_key(0), _FakeTrace(4000), {}, object())
        assert c.bytes == 4000, "re-put double-counted entry bytes"
        assert c.stats()["evictions"] == 0


class TestTraceCacheDiskTier:
    def _trace(self):
        from repro.gpu.timed_trace import TimedTrace

        z = np.zeros(0, dtype=np.int64)
        return TimedTrace(z, z, z, {}, 1, 8, np.zeros(1, dtype=np.int64))

    def _wave_key(self, tag="deadbeef"):
        # element 0 is the in-process id; the rest is content
        return ((12345, tag, (1, 1), (32, 1)), 0, 0, 1, 1)

    def test_cross_process_content_hit(self, tmp_path):
        """A second cache (fresh process in real life) with a different
        id component but identical content must hit through the store."""
        store = FileStore(tmp_path)
        a = TraceCache(store=store)
        a.put(self._wave_key(), self._trace(), {0: 1}, object())
        b = TraceCache(store=store)
        other_id_key = ((99999,) + self._wave_key()[0][1:],) + \
            self._wave_key()[1:]
        ent = b.get(other_id_key, compiled=object())
        assert ent is not None
        assert ent.warp_counts == {0: 1}
        assert b.disk_hits == 1

    def test_different_content_misses(self, tmp_path):
        store = FileStore(tmp_path)
        a = TraceCache(store=store)
        a.put(self._wave_key("aaaa"), self._trace(), {}, object())
        b = TraceCache(store=store)
        assert b.get(self._wave_key("bbbb"), compiled=object()) is None

    def test_disk_payload_has_no_plan(self, tmp_path):
        store = FileStore(tmp_path)
        c = TraceCache(store=store)
        trace = self._trace()
        trace.plan = ["decoded-program-ref"]  # lazily built, process-local
        c.put(self._wave_key(), trace, {}, object())
        (path,) = tmp_path.glob("*.bin")
        stored, _ = pickle.loads(path.read_bytes()[8:])
        assert stored.plan is None


class TestStaticCache:
    def test_lru(self):
        c = StaticCache(capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1
        c.put("c", 3)
        assert c.get("b") is None and c.get("a") == 1
        assert c.stats()["entries"] == 2


class TestReportCache:
    def test_memory_round_trip_is_isolated(self, tmp_path):
        c = ReportCache(tmp_path)
        c.put("k", {"findings": [1, 2]})
        got, corrupted = c.get("k")
        assert got == {"findings": [1, 2]} and not corrupted
        got["findings"].append(3)  # callers may mutate their copy
        assert c.get("k")[0] == {"findings": [1, 2]}

    def test_disk_tier_survives_new_instance(self, tmp_path):
        ReportCache(tmp_path).put("k", {"x": 1})
        fresh = ReportCache(tmp_path)
        assert fresh.get("k") == ({"x": 1}, False)
        assert fresh.disk_hits == 1

    def test_corrupt_disk_entry_reported(self, tmp_path):
        c = ReportCache(tmp_path)
        c.put("k", {"x": 1})
        fresh = ReportCache(tmp_path)
        (path,) = (tmp_path).glob("*.bin")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert fresh.get("k") == (None, True)

    def test_memory_only(self):
        c = ReportCache(None)
        c.put("k", {"x": 1})
        assert c.get("k") == ({"x": 1}, False)
        assert c.get("other") == (None, False)
