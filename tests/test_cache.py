"""``repro.cache.TieredCache``: the one LRU every tier instantiates.

A Hypothesis model drives random operation sequences under random
entry and byte caps against a list that is the specification; the
plain tests cover what the model leaves out — the disk tier, its
corruption paths, the stats shape and a concurrent hammer.
"""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import FileStore, TieredCache
from repro.obs import metrics as obs_metrics
from repro.serve.cache import ReportCache


class ListModel:
    """``[(key, entry)]``, least- to most-recently used."""

    def __init__(self, capacity, max_bytes):
        self.capacity, self.max_bytes = capacity, max_bytes
        self.items = []

    def get(self, key):
        found = [item for item in self.items if item[0] == key]
        if not found:
            return None
        self.items.remove(found[0])
        self.items.append(found[0])
        return found[0][1]

    def insert(self, key, entry):
        self.items = [item for item in self.items if item[0] != key]
        self.items.append((key, entry))
        while self.items and (len(self.items) > self.capacity
                              or self.bytes() > self.max_bytes):
            self.items.pop(0)

    def bytes(self):
        return sum(len(entry) for _, entry in self.items)


KEYS = st.integers(0, 7)
ENTRIES = st.binary(max_size=24)
OPS = st.one_of(
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.sampled_from(["put", "remember"]), KEYS, ENTRIES),
    st.tuples(st.just("clear")),
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 5),
       max_bytes=st.one_of(st.just(math.inf), st.integers(0, 48)),
       ops=st.lists(OPS, max_size=60))
def test_memory_tier_matches_the_list_model(capacity, max_bytes, ops):
    cache = TieredCache("model", capacity, max_bytes=max_bytes, size=len)
    model = ListModel(capacity, max_bytes)
    gets = 0
    for op, *args in ops:
        if op == "get":
            gets += 1
            assert cache.get(*args) == (model.get(*args), False)
        elif op == "clear":
            cache.clear()
            model.items, gets = [], 0
        else:
            getattr(cache, op)(*args)
            model.insert(*args)
        stats = cache.stats()
        assert cache.keys() == [key for key, _ in model.items]
        assert stats["entries"] == len(model.items) <= capacity
        assert stats["bytes"] == cache.bytes == model.bytes()
        assert stats["bytes"] <= max_bytes
        assert stats["hits"] + stats["misses"] == gets


def test_an_entry_larger_than_the_byte_cap_is_evicted_at_once():
    cache = TieredCache("model", 4, max_bytes=8, size=len)
    cache.put("small", b"1234")
    cache.put("huge", b"123456789")
    assert cache.keys() == [] and cache.bytes == 0
    assert cache.stats()["evictions"] == 2


def _tiered(tmp_path, **kw):
    return TieredCache("model", 2, size=len, store=FileStore(tmp_path),
                       encode=bytes, decode=bytes, **kw)


class TestDiskTier:
    def test_disk_hit_promotes_and_counts_once(self, tmp_path):
        _tiered(tmp_path).put("k", b"payload")
        fresh = _tiered(tmp_path)
        assert fresh.get("k") == (b"payload", False)
        assert fresh.keys() == ["k"] and fresh.bytes == 7
        assert fresh.get("k") == (b"payload", False)
        assert (fresh.hits, fresh.disk_hits, fresh.misses) == (2, 1, 0)
        assert fresh.store.hits == 1, "second get must not touch the disk"

    def test_remember_and_memory_only_get_stay_off_the_disk(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.remember("m", b"x")
        assert cache.get("m") == (b"x", False)
        assert list(tmp_path.iterdir()) == []
        cache.put("k", b"y")
        fresh = _tiered(tmp_path)
        assert fresh.get("k", disk=False) == (None, False)
        assert fresh.store.hits == fresh.store.misses == 0

    def test_disk_key_names_the_file(self, tmp_path):
        _tiered(tmp_path, disk_key="f{}".format).put(7, b"y")
        assert [p.name for p in tmp_path.iterdir()] == ["f7.bin"]
        assert _tiered(tmp_path, disk_key="f{}".format).get(7)[0] == b"y"

    def test_flipped_byte_is_corrupt_once_then_a_clean_miss(self, tmp_path):
        _tiered(tmp_path).put("k", b"payload")
        path = tmp_path / "k.bin"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        fresh = _tiered(tmp_path)
        assert fresh.get("k") == (None, True)
        assert fresh.get("k") == (None, False)
        assert (fresh.hits, fresh.misses) == (0, 2)
        assert fresh.store.corrupt == 1

    def test_undecodable_payload_is_discarded_as_corrupt(self, tmp_path):
        _tiered(tmp_path).put("k", b"\xff not utf-8")
        reader = TieredCache("model", 2, store=FileStore(tmp_path),
                             decode=bytes.decode)
        assert reader.get("k") == (None, True)
        assert not (tmp_path / "k.bin").exists()
        assert reader.store.corrupt == 1

    def test_unencodable_entry_stays_in_memory(self, tmp_path):
        cache = TieredCache("model", 2, store=FileStore(tmp_path),
                            encode=str.encode)
        cache.put("k", 12)
        assert cache.get("k") == (12, False)
        assert list(tmp_path.iterdir()) == []


class TestStatsAndSeries:
    def test_one_shape(self, tmp_path):
        base = {"entries", "hits", "misses", "evictions"}
        assert set(TieredCache("model", 1).stats()) == base
        assert set(TieredCache("model", 1, size=len).stats()) == \
            base | {"bytes"}
        tiered = _tiered(tmp_path).stats()
        assert set(tiered) == base | {"bytes", "disk_hits", "store"}
        assert tiered["store"]["entries"] == 0

    def test_series_carry_the_tier_name(self):
        obs_metrics.arm(True)
        try:
            cache = TieredCache("probe-tier", 1)
            cache.get("absent")
            cache.put("a", 1)
            cache.put("b", 2)
            cache.get("b")
            snap = obs_metrics.REGISTRY.snapshot()
        finally:
            obs_metrics.arm(False)
        for family in ("hits", "misses", "evictions"):
            series = snap[f"gpuscout_cache_{family}_total"]["series"]
            assert series['tier="probe-tier"'] == 1, family


@pytest.mark.parametrize("make", [
    lambda path: ReportCache(path, capacity=4),
    lambda path: TieredCache("model", 4),
], ids=["reports", "memory"])
def test_two_threads_lose_no_count(tmp_path, make):
    """``hits + misses == lookups`` with two threads on one instance:
    memory hits, disk promotions, evictions and misses interleaved."""
    cache = make(tmp_path)
    for i in range(8):
        cache.put(f"k{i}", {"i": i})
    lookups = 3000

    def hammer(seed):
        for i in range(lookups):
            cache.get(f"k{(i * seed) % 12}")

    threads = [threading.Thread(target=hammer, args=(seed,))
               for seed in (5, 7)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert cache.hits + cache.misses == 2 * lookups
    assert cache.stats()["entries"] <= 4
