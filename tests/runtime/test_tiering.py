"""Tests of the tiered cache: LRU bounds, promotion, write-behind."""

import pickle
import threading
import time

import pytest

from repro.runtime import ResultCache
from repro.runtime.tiering import (
    CacheStore,
    MemoryLRUStore,
    TieredStore,
    TierStats,
    make_tiered_store,
    value_bytes,
)


class RecordingStore(CacheStore):
    """In-memory CacheStore test double with scriptable failures."""

    def __init__(self, fail_puts=0, raise_on_get=False):
        super().__init__()
        self.data = {}
        self.put_calls = 0
        self.fail_puts = fail_puts
        self.raise_on_get = raise_on_get

    def _key(self, namespace, payload):
        return (namespace, tuple(sorted(payload.items())))

    def get(self, namespace, payload):
        if self.raise_on_get:
            self.tier.errors += 1
            raise OSError("backend down")
        value = self.data.get(self._key(namespace, payload))
        self.tier.record_get(value, 0.0)
        return value

    def put(self, namespace, payload, value):
        self.put_calls += 1
        if self.put_calls <= self.fail_puts:
            self.tier.errors += 1
            raise OSError("backend down")
        self.data[self._key(namespace, payload)] = value
        self.tier.record_put(value, 0.0)

    def describe(self):
        return "recording:test"


class TestTierStats:
    def test_get_accounting(self):
        stats = TierStats()
        stats.record_get(None, 0.25)
        stats.record_get({"v": 1}, 0.25)
        assert stats.hits == 1 and stats.misses == 1
        assert stats.bytes_read == value_bytes({"v": 1})
        assert stats.get_seconds == pytest.approx(0.5)

    def test_to_dict_rounds_latency(self):
        stats = TierStats()
        stats.get_seconds = 0.123456789
        out = stats.to_dict()
        assert out["get_seconds"] == 0.123457
        assert set(out) == {
            "hits", "misses", "puts", "bytes_read", "bytes_written",
            "errors", "retries", "evictions", "expirations",
            "get_seconds", "put_seconds",
        }

    def test_value_bytes_is_canonical(self):
        # Key order must not change the byte accounting.
        assert value_bytes({"a": 1, "b": 2}) == value_bytes({"b": 2, "a": 1})


class TestMemoryLRUStore:
    def test_round_trip_and_miss(self):
        store = MemoryLRUStore()
        assert store.get("ns", {"k": 1}) is None
        store.put("ns", {"k": 1}, [1.5, 2.5])
        assert store.get("ns", {"k": 1}) == [1.5, 2.5]
        assert store.tier.hits == 1 and store.tier.misses == 1

    def test_entry_bound_evicts_least_recently_used(self):
        store = MemoryLRUStore(max_entries=2)
        store.put("ns", {"k": 1}, "a")
        store.put("ns", {"k": 2}, "b")
        assert store.get("ns", {"k": 1}) == "a"  # 1 is now most recent
        store.put("ns", {"k": 3}, "c")           # evicts 2, not 1
        assert store.get("ns", {"k": 2}) is None
        assert store.get("ns", {"k": 1}) == "a"
        assert store.get("ns", {"k": 3}) == "c"
        assert store.tier.evictions == 1

    def test_byte_bound_evicts_until_it_holds(self):
        one = value_bytes("xxxx")
        store = MemoryLRUStore(max_entries=100, max_bytes=3 * one)
        for k in range(3):
            store.put("ns", {"k": k}, "xxxx")
        assert len(store) == 3 and store.total_bytes == 3 * one
        store.put("ns", {"k": 3}, "xxxx")  # one over budget: evict oldest
        assert len(store) == 3
        assert store.get("ns", {"k": 0}) is None
        assert store.tier.evictions == 1
        assert store.total_bytes == 3 * one

    def test_oversized_value_not_admitted(self):
        store = MemoryLRUStore(max_bytes=8)
        store.put("ns", {"k": 0}, "ok")
        store.put("ns", {"k": 1}, "x" * 64)  # larger than the whole tier
        assert store.get("ns", {"k": 1}) is None
        # ...and it did not evict what was already hot.
        assert store.get("ns", {"k": 0}) == "ok"

    def test_replacing_a_key_updates_bytes(self):
        store = MemoryLRUStore()
        store.put("ns", {"k": 1}, "aa")
        store.put("ns", {"k": 1}, "bbbb")
        assert store.total_bytes == value_bytes("bbbb")
        assert len(store) == 1

    def test_ttl_expires_at_exactly_ttl(self, monkeypatch):
        store = MemoryLRUStore(ttl=30.0)
        store.put("ns", {"k": 1}, "fresh")
        stored_at = store._entries[store._key("ns", {"k": 1})][2]
        monkeypatch.setattr(time, "monotonic", lambda: stored_at + 30.0)
        assert store.get("ns", {"k": 1}) is None
        assert store.tier.expirations == 1
        assert len(store) == 0  # expired entries are dropped eagerly

    def test_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            MemoryLRUStore(max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            MemoryLRUStore(max_bytes=0)
        with pytest.raises(ValueError, match="ttl"):
            MemoryLRUStore(ttl=-1.0)

    def test_describe(self):
        assert MemoryLRUStore(max_entries=5, max_bytes=100).describe() == (
            "memory:lru(entries<=5,bytes<=100)"
        )
        assert "ttl=30s" in MemoryLRUStore(ttl=30.0).describe()

    def test_pickles_as_empty_with_same_config(self):
        store = MemoryLRUStore(max_entries=7, max_bytes=99, ttl=5.0)
        store.put("ns", {"k": 1}, "hot")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.max_entries == 7 and clone.max_bytes == 99
        assert clone.ttl == 5.0
        assert len(clone) == 0  # hot entries do not travel
        clone.put("ns", {"k": 2}, "works")
        assert clone.get("ns", {"k": 2}) == "works"


class TestTieredStoreReads:
    def test_read_through_promotes_into_faster_tiers(self):
        memory, local, remote = (
            MemoryLRUStore(), RecordingStore(), RecordingStore()
        )
        remote.put("ns", {"k": 1}, {"v": 42})
        store = TieredStore(memory=memory, local=local, remote=remote)
        assert store.get("ns", {"k": 1}) == {"v": 42}
        # Promoted: both faster tiers now hold the value.
        assert memory.get("ns", {"k": 1}) == {"v": 42}
        assert local.get("ns", {"k": 1}) == {"v": 42}
        # The next read stops at the memory tier.
        store.get("ns", {"k": 1})
        assert remote.tier.hits == 1

    def test_middle_tier_hit_promotes_upward_only(self):
        memory, local, remote = (
            MemoryLRUStore(), RecordingStore(), RecordingStore()
        )
        local.put("ns", {"k": 1}, "mid")
        store = TieredStore(memory=memory, local=local, remote=remote)
        assert store.get("ns", {"k": 1}) == "mid"
        assert memory.get("ns", {"k": 1}) == "mid"
        assert remote.data == {}  # promotion never writes downward

    def test_raising_tier_degrades_to_the_next(self):
        broken = RecordingStore(raise_on_get=True)
        remote = RecordingStore()
        remote.put("ns", {"k": 1}, "still there")
        store = TieredStore(local=broken, remote=remote)
        assert store.get("ns", {"k": 1}) == "still there"
        assert broken.tier.errors == 1

    def test_total_miss_returns_none(self):
        store = TieredStore(memory=MemoryLRUStore())
        assert store.get("ns", {"k": 1}) is None


class TestTieredStoreWrites:
    def test_put_lands_synchronously_on_local_tiers(self):
        memory, local = MemoryLRUStore(), RecordingStore()
        store = TieredStore(memory=memory, local=local)
        store.put("ns", {"k": 1}, "v")
        assert memory.get("ns", {"k": 1}) == "v"
        assert local.get("ns", {"k": 1}) == "v"
        store.close()

    def test_write_behind_reaches_remote_after_flush(self):
        remote = RecordingStore()
        with TieredStore(memory=MemoryLRUStore(), remote=remote) as store:
            store.put("ns", {"k": 1}, "v")
            assert store.flush(timeout=10.0)
            assert remote.get("ns", {"k": 1}) == "v"
            assert store.flushed == 1 and store.queued == 1

    def test_retry_with_backoff_then_success(self):
        remote = RecordingStore(fail_puts=2)
        store = TieredStore(
            remote=remote, flush_retries=3, flush_backoff=0.001,
            flush_backoff_cap=0.01,
        )
        store.put("ns", {"k": 1}, "v")
        assert store.flush(timeout=10.0)
        assert remote.get("ns", {"k": 1}) == "v"
        assert store.retried == 2 and store.flushed == 1
        assert store.dropped == 0
        store.close()

    def test_exhausted_retries_drop_and_count(self):
        remote = RecordingStore(fail_puts=10**6)
        store = TieredStore(
            local=RecordingStore(), remote=remote,
            flush_retries=2, flush_backoff=0.001, flush_backoff_cap=0.005,
        )
        store.put("ns", {"k": 1}, "v")
        assert store.flush(timeout=10.0)
        assert store.dropped == 1 and store.flushed == 0
        assert store.retried == 2
        # Fail-open: the local tier still answers.
        assert store.get("ns", {"k": 1}) == "v"
        store.close()

    def test_bounded_queue_drops_excess_puts(self):
        gate = threading.Event()

        class Stalling(RecordingStore):
            def put(self, namespace, payload, value):
                gate.wait(10.0)
                super().put(namespace, payload, value)

        store = TieredStore(remote=Stalling(), flush_queue=2)
        # First put occupies the flusher; two more fill the queue; the
        # rest must drop without blocking this thread.
        for k in range(6):
            store.put("ns", {"k": k}, "v")
        assert store.dropped >= 3
        gate.set()
        assert store.flush(timeout=10.0)
        assert store.queued + store.dropped == 6
        store.close()

    def test_raising_synchronous_tier_counts_not_raises(self):
        class Exploding(RecordingStore):
            def put(self, namespace, payload, value):
                raise RuntimeError("unexpected")

        exploding = Exploding()
        store = TieredStore(local=exploding)
        store.put("ns", {"k": 1}, "v")  # must not raise
        assert exploding.tier.errors == 1
        store.close()

    def test_close_is_idempotent_and_stops_the_flusher(self):
        remote = RecordingStore()
        store = TieredStore(remote=remote)
        store.put("ns", {"k": 1}, "v")
        store.close()
        store.close()
        assert remote.get("ns", {"k": 1}) == "v"

    def test_flush_timeout_returns_false(self):
        class Stuck(RecordingStore):
            def put(self, namespace, payload, value):
                time.sleep(30.0)

        store = TieredStore(remote=Stuck())
        store.put("ns", {"k": 1}, "v")
        assert store.flush(timeout=0.05) is False


class TestTieredStoreStats:
    def test_nested_payload_shape(self):
        store = TieredStore(
            memory=MemoryLRUStore(), local=RecordingStore(),
            remote=RecordingStore(),
        )
        store.put("ns", {"k": 1}, "v")
        store.flush(timeout=10.0)
        payload = store.stats_payload()
        assert payload["store"].startswith("tiered:[")
        assert set(payload["tiers"]) == {"memory", "local", "remote"}
        assert payload["tiers"]["memory"]["puts"] == 1
        wb = payload["write_behind"]
        assert wb["queued"] == wb["flushed"] == 1
        assert wb["queue_depth"] == 0
        store.close()

    def test_describe_chains_the_tiers(self):
        store = TieredStore(memory=MemoryLRUStore(), local=RecordingStore())
        assert store.describe() == (
            f"tiered:[{store.memory.describe()} -> recording:test]"
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one tier"):
            TieredStore()
        with pytest.raises(ValueError, match="flush_queue"):
            TieredStore(memory=MemoryLRUStore(), flush_queue=0)
        with pytest.raises(ValueError, match="flush_retries"):
            TieredStore(memory=MemoryLRUStore(), flush_retries=-1)
        with pytest.raises(ValueError, match="flush_backoff"):
            TieredStore(memory=MemoryLRUStore(), flush_backoff=0.0)
        with pytest.raises(ValueError, match="flush_backoff"):
            TieredStore(
                memory=MemoryLRUStore(), flush_backoff=1.0,
                flush_backoff_cap=0.5,
            )


class TestPickling:
    def test_tiered_store_travels_config_not_state(self, tmp_path):
        store = make_tiered_store(cache_dir=str(tmp_path / "c"))
        store.put("ns", {"k": 1}, "v")
        store.flush(timeout=10.0)
        clone = pickle.loads(pickle.dumps(store))
        # The directory tier is shared state, the memory tier is not.
        assert len(clone.memory) == 0
        assert clone.get("ns", {"k": 1}) == "v"
        clone.put("ns", {"k": 2}, "w")
        clone.close()
        assert store.get("ns", {"k": 2}) == "w"
        store.close()


class TestMakeTieredStore:
    def test_default_composition(self, tmp_path):
        store = make_tiered_store(cache_dir=str(tmp_path / "c"))
        assert isinstance(store.memory, MemoryLRUStore)
        assert isinstance(store.local, ResultCache)
        assert store.remote is None
        store.close()

    def test_lru_entries_zero_drops_the_memory_tier(self, tmp_path):
        store = make_tiered_store(cache_dir=str(tmp_path / "c"),
                                  lru_entries=0)
        assert store.memory is None
        store.close()

    def test_store_url_adds_the_remote_tier(self, tmp_path):
        from repro.distributed.objectstore import ObjectStore

        store = make_tiered_store(
            cache_dir=str(tmp_path / "c"),
            store_url="http://127.0.0.1:1/repro-cache",
        )
        assert isinstance(store.remote, ObjectStore)
        store.close(timeout=0.1)

    def test_ttl_reaches_both_local_tiers(self, tmp_path):
        store = make_tiered_store(cache_dir=str(tmp_path / "c"), ttl=60.0)
        assert store.memory.ttl == 60.0
        assert store.local.ttl == 60.0
        store.close()

    def test_shares_bytes_with_result_cache(self, tmp_path):
        """A tiered store over a directory a plain ResultCache wrote is
        warm from the start — one content address everywhere."""
        path = str(tmp_path / "shared")
        ResultCache(cache_dir=path).put("mcshard", {"k": 1}, [1.5])
        store = make_tiered_store(cache_dir=path)
        assert store.get("mcshard", {"k": 1}) == [1.5]
        store.close()
