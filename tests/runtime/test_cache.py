"""Tests of the content-addressed result cache — the directory store."""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.runtime import ResultCache, TierStats
from repro.runtime.cache import value_bytes


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(cache_dir=str(tmp_path / "cache"))


class TestAddressing:
    def test_key_is_deterministic_across_instances(self, tmp_path):
        a = ResultCache(cache_dir=str(tmp_path))
        b = ResultCache(cache_dir=str(tmp_path))
        payload = {"cell": "6t", "vdd": 0.7, "n": 1000}
        assert a.key("mc", payload) == b.key("mc", payload)

    def test_key_ignores_dict_order(self, cache):
        assert cache.key("mc", {"a": 1, "b": 2}) == cache.key("mc", {"b": 2, "a": 1})

    def test_key_differs_by_payload(self, cache):
        assert cache.key("mc", {"vdd": 0.7}) != cache.key("mc", {"vdd": 0.75})

    def test_key_differs_by_namespace(self, cache):
        assert cache.key("mc", {"vdd": 0.7}) != cache.key("is", {"vdd": 0.7})

    def test_numpy_values_canonicalized(self, cache):
        assert cache.key("mc", {"vdd": np.float64(0.7)}) == \
            cache.key("mc", {"vdd": 0.7})
        assert cache.key("mc", {"grid": np.array([0.7, 0.8])}) == \
            cache.key("mc", {"grid": [0.7, 0.8]})

    def test_unserializable_payload_rejected(self, cache):
        with pytest.raises(TypeError):
            cache.key("mc", {"cell": object()})


class TestRoundtrip:
    def test_miss_returns_none(self, cache):
        assert cache.get("mc", {"vdd": 0.7}) is None
        assert cache.tier.misses == 1

    def test_put_then_get(self, cache):
        value = {"p_cell": 1.25e-3, "stats": {"mu": 0.1}}
        cache.put("mc", {"vdd": 0.7}, value)
        assert cache.get("mc", {"vdd": 0.7}) == value
        assert cache.tier.hits == 1

    def test_floats_roundtrip_bit_exact(self, cache):
        value = {"p": 0.1 + 0.2, "tiny": 4.9e-324}
        cache.put("mc", {"k": 1}, value)
        got = cache.get("mc", {"k": 1})
        assert got["p"] == value["p"]
        assert got["tiny"] == value["tiny"]

    def test_get_or_compute(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return {"x": 42}

        assert cache.get_or_compute("mc", {"k": 1}, compute) == {"x": 42}
        assert cache.get_or_compute("mc", {"k": 1}, compute) == {"x": 42}
        assert len(calls) == 1

    def test_corrupt_entry_is_a_miss(self, cache):
        cache.put("mc", {"k": 1}, {"x": 1})
        with open(cache.path("mc", {"k": 1}), "w") as fh:
            fh.write("{not json")
        assert cache.get("mc", {"k": 1}) is None

    def test_non_utf8_entry_is_a_miss(self, cache):
        cache.put("mc", {"k": 1}, {"x": 1})
        with open(cache.path("mc", {"k": 1}), "wb") as fh:
            fh.write(b"\xff\xfe\x00garbage")
        assert cache.get("mc", {"k": 1}) is None

    def test_foreign_json_shape_is_a_miss(self, cache):
        cache.put("mc", {"k": 1}, {"x": 1})
        for foreign in ("[1, 2, 3]", '{"no": "value key"}', '"just a string"'):
            with open(cache.path("mc", {"k": 1}), "w") as fh:
                fh.write(foreign)
            assert cache.get("mc", {"k": 1}) is None

    def test_torn_document_reads_as_none(self, cache):
        """The store contract: corruption is a miss, never an error.

        A torn write (killed process, full disk on a non-atomic backend)
        leaves a truncated JSON document; ``get`` must return ``None``
        so the caller recomputes — the fresh put then repairs the entry.
        """
        payload = {"cell": "6t", "vdd": 0.7}
        cache.put("mcshard", payload, {"fails": [1, 2, 3]})
        path = cache.path("mcshard", payload)
        with open(path) as fh:
            intact = fh.read()
        for torn in (intact[: len(intact) // 2],  # truncated mid-document
                     "",                           # zero bytes
                     "{\"value\": "):              # cut inside the value
            with open(path, "w") as fh:
                fh.write(torn)
            assert cache.get("mcshard", payload) is None, repr(torn[:20])
        # The recompute path heals the slot.
        cache.put("mcshard", payload, {"fails": [1, 2, 3]})
        assert cache.get("mcshard", payload) == {"fails": [1, 2, 3]}

    def test_no_temp_files_left_behind(self, cache):
        for i in range(5):
            cache.put("mc", {"k": i}, {"x": i})
        leftovers = [n for n in os.listdir(cache.cache_dir) if n.endswith(".tmp")]
        assert leftovers == []


class TestInvalidation:
    def test_version_bump_invalidates(self, tmp_path):
        d = str(tmp_path / "cache")
        v1 = ResultCache(cache_dir=d, version=1)
        v1.put("mc", {"k": 1}, {"x": 1})
        assert v1.get("mc", {"k": 1}) == {"x": 1}

        v2 = ResultCache(cache_dir=d, version=2)
        assert v2.get("mc", {"k": 1}) is None
        v2.put("mc", {"k": 1}, {"x": 2})
        # Both versions remain independently addressable.
        assert v1.get("mc", {"k": 1}) == {"x": 1}
        assert v2.get("mc", {"k": 1}) == {"x": 2}

    def test_disabled_cache_never_hits(self, tmp_path):
        d = str(tmp_path / "cache")
        off = ResultCache(cache_dir=d, enabled=False)
        off.put("mc", {"k": 1}, {"x": 1})
        assert off.get("mc", {"k": 1}) is None
        on = ResultCache(cache_dir=d)
        assert on.get("mc", {"k": 1}) is None  # put was a no-op


class TestMaintenance:
    def test_stats_counts_namespaces(self, cache):
        cache.put("mc", {"k": 1}, {"x": 1})
        cache.put("mc", {"k": 2}, {"x": 2})
        cache.put("cell", {"k": 1}, {"x": 3})
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.by_namespace == {"mc": 2, "cell": 1}
        assert stats.total_bytes > 0
        assert "entries" in stats.summary()

    def test_stats_counts_legacy_underscore_files(self, cache):
        os.makedirs(cache.cache_dir, exist_ok=True)
        with open(os.path.join(cache.cache_dir, "ann_0123abcd.npz"), "wb") as fh:
            fh.write(b"\x00")
        assert cache.stats().by_namespace == {"ann": 1}

    def test_clear_namespace(self, cache):
        cache.put("mc", {"k": 1}, {"x": 1})
        cache.put("cell", {"k": 1}, {"x": 2})
        assert cache.clear(namespace="mc") == 1
        assert cache.get("mc", {"k": 1}) is None
        assert cache.get("cell", {"k": 1}) == {"x": 2}

    def test_clear_all(self, cache):
        cache.put("mc", {"k": 1}, {"x": 1})
        cache.put("cell", {"k": 1}, {"x": 2})
        assert cache.clear() == 2
        assert cache.stats().entries == 0

    def test_stats_on_missing_dir(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path / "nope"))
        assert cache.stats().entries == 0
        assert cache.clear() == 0


class TestConcurrency:
    """Atomic writes: concurrent writers never expose a torn document."""

    def test_concurrent_writers_and_readers(self, cache):
        payload = {"k": "contended"}
        value = {"x": list(range(200))}  # big enough to make torn writes likely
        cache.put("mc", payload, value)
        errors = []
        stop = threading.Event()

        def writer():
            local = ResultCache(cache_dir=cache.cache_dir)
            while not stop.is_set():
                local.put("mc", payload, value)

        def reader():
            local = ResultCache(cache_dir=cache.cache_dir)
            for _ in range(300):
                got = local.get("mc", payload)
                if got != value:  # a miss here would mean a torn/partial file
                    errors.append(got)

        writers = [threading.Thread(target=writer) for _ in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in writers + readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        for t in writers:
            t.join()
        assert errors == []

    def test_concurrent_distinct_keys(self, cache):
        def worker(i):
            local = ResultCache(cache_dir=cache.cache_dir)
            local.put("mc", {"k": i}, {"x": i})

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(8):
            assert cache.get("mc", {"k": i}) == {"x": i}

    def test_document_is_valid_json_on_disk(self, cache):
        cache.put("mc", {"k": 1}, {"x": 1})
        with open(cache.path("mc", {"k": 1})) as fh:
            document = json.load(fh)
        assert document["value"] == {"x": 1}
        assert document["payload"] == {"k": 1}


class TestStore:
    """ResultCache as the shared store of every command and fleet."""

    def test_describe_names_the_directory(self, tmp_path):
        store = ResultCache(str(tmp_path / "s"))
        assert store.describe() == f"directory:{tmp_path / 's'}"

    def test_tier_counters(self, cache):
        payload = {"k": 1}
        assert cache.get("mcshard", payload) is None
        cache.put("mcshard", payload, [1, 2])
        assert cache.get("mcshard", payload) == [1, 2]
        stats = cache.stats_payload()
        assert stats["store"] == f"directory:{cache.cache_dir}"
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["bytes_written"] == stats["bytes_read"] > 0
        assert stats["errors"] == 0
        # `repro-sram cache stats` reads its session line from the tier.
        assert (cache.stats().hits, cache.stats().misses) == (1, 1)

    def test_unwritable_directory_put_degrades_and_counts(
        self, cache, monkeypatch
    ):
        """A directory that refuses the final rename (read-only mount,
        revoked permissions) costs the caching, never the run: ``put``
        does not raise, counts an error and leaves no temp file."""
        cache.put("mcshard", {"k": 0}, "seed the directory")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(os, "replace", refuse)
        cache.put("mcshard", {"k": 1}, 42)  # must not raise
        monkeypatch.undo()
        assert cache.tier.errors == 1
        assert cache.tier.puts == 2
        assert cache.get("mcshard", {"k": 1}) is None
        assert [n for n in os.listdir(cache.cache_dir) if n.endswith(".tmp")] == []

    def test_directory_path_taken_by_a_file_degrades(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupies the cache path")
        store = ResultCache(str(blocker))
        store.put("mcshard", {"k": 1}, 42)  # must not raise
        assert store.tier.errors == 1
        assert store.get("mcshard", {"k": 1}) is None

    def test_address_and_document_format_are_stable(self, tmp_path):
        """Caches written by earlier releases must stay warm: the file
        name of an address and the document shape are pinned."""
        cache = ResultCache(str(tmp_path))
        cache.put("mcshard", {"k": 1}, [1.5, 2.5])
        name = "mcshard-76d2e227ab37c5d493b27b9a69c49146.json"
        assert os.listdir(tmp_path) == [name]
        with open(tmp_path / name) as fh:
            document = json.load(fh)
        assert set(document) == {
            "namespace", "cache_version", "payload", "written_at", "value",
        }
        assert document["value"] == [1.5, 2.5]

    def test_shares_bytes_with_result_cache(self, tmp_path):
        """A store opened with a TTL (``worker --ttl``) over a directory
        a plain ResultCache wrote is warm from the start — one content
        address everywhere."""
        path = str(tmp_path / "shared")
        ResultCache(cache_dir=path).put("mcshard", {"k": 1}, [1.5])
        store = ResultCache(cache_dir=path, ttl=3600.0)
        assert store.get("mcshard", {"k": 1}) == [1.5]
        assert store.tier.hits == 1 and store.tier.expirations == 0


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
            "errors", "expirations", "get_seconds", "put_seconds",
        }

    def test_value_bytes_is_canonical(self):
        # Key order must not change the byte accounting.
        assert value_bytes({"a": 1, "b": 2}) == value_bytes({"b": 2, "a": 1})


class TestTTL:
    """Constructor ``ttl``: entries that lived their full TTL read as
    expired misses; files stay on disk for ``compact``."""

    def _aged(self, cache, age):
        cache.put("mc", {"k": 1}, "v")
        path = cache.path("mc", {"k": 1})
        then = time.time() - age
        os.utime(path, (then, then))
        return path

    def test_entry_younger_than_ttl_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path), ttl=3600.0)
        self._aged(cache, 0.0)
        assert cache.get("mc", {"k": 1}) == "v"
        assert cache.tier.expirations == 0

    def test_expiry_at_exactly_ttl(self, tmp_path):
        """The boundary rule: an entry that has lived its FULL ttl (age
        >= ttl, not age > ttl) is expired."""
        cache = ResultCache(str(tmp_path), ttl=30.0)
        self._aged(cache, 30.0)
        assert cache.get("mc", {"k": 1}) is None
        assert cache.tier.expirations == 1

    def test_expired_file_left_for_compact(self, tmp_path):
        cache = ResultCache(str(tmp_path), ttl=60.0)
        path = self._aged(cache, 61.0)
        assert cache.get("mc", {"k": 1}) is None
        assert cache.tier.expirations == 1 and cache.tier.misses == 1
        assert os.path.exists(path)  # left for compact to reap

    def test_ttl_none_never_expires(self, cache):
        self._aged(cache, 1e9)
        assert cache.get("mc", {"k": 1}) == "v"

    def test_ttl_zero_means_already_expired(self, tmp_path):
        """``ttl=0`` is legal and means every entry has lived its full
        TTL — reads miss (and count an expiration), writes still land."""
        cache = ResultCache(str(tmp_path), ttl=0.0)
        path = self._aged(cache, 0.0)
        assert cache.get("mc", {"k": 1}) is None
        assert cache.tier.expirations == 1
        assert os.path.exists(path)

    def test_absent_entry_is_not_an_expiry(self, tmp_path):
        cache = ResultCache(str(tmp_path), ttl=0.0)
        assert cache.get("mc", {"k": 1}) is None
        assert cache.tier.expirations == 0

    def test_ttl_validation(self, tmp_path):
        for ttl in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="ttl"):
                ResultCache(str(tmp_path), ttl=ttl)

    def test_backward_clock_step_clamps_age_to_zero(self, tmp_path, monkeypatch):
        """File ages are wall-clock (``time.time() - mtime``), so a
        backward clock step makes entries look younger than they are —
        but never *negatively* aged.  The clamp's observable edge is
        ``ttl=0`` ("already expired"): a negative age would compare
        ``< 0`` and resurrect the entry."""
        fresh = ResultCache(str(tmp_path), ttl=30.0)
        zero = ResultCache(str(tmp_path), ttl=0.0)
        path = self._aged(fresh, 0.0)
        mtime = os.path.getmtime(path)
        monkeypatch.setattr(time, "time", lambda: mtime - 1000.0)
        # Clamped age 0 is younger than any positive ttl: a hit.
        assert fresh.get("mc", {"k": 1}) == "v"
        assert fresh.tier.expirations == 0
        # ...and exactly at ttl=0, so the entry is already expired —
        # unclamped, -1000 < 0 would make ttl=0 a hit.
        assert zero.get("mc", {"k": 1}) is None
        assert zero.tier.expirations == 1


class TestCompaction:
    def _plant(self, cache, namespace, key, age, size=None):
        """One entry whose file is ``age`` seconds old (and optionally
        padded to a deliberate size for byte-budget tests)."""
        cache.put(namespace, {"k": key}, "x" * (size or 1))
        path = cache.path(namespace, {"k": key})
        then = time.time() - age
        os.utime(path, (then, then))
        return path

    def test_max_age_zero_reaps_future_mtime_files(self, cache):
        """A file stamped *ahead* of the wall clock (clock stepped back
        since it was written) has clamped age 0, so ``max_age=0``
        deletes it like everything else — unclamped, its negative age
        would dodge compaction forever."""
        future = self._plant(cache, "mc", "future", age=-3600.0)
        result = cache.compact(max_age=0.0)
        assert result.removed == 1
        assert not os.path.exists(future)

    def test_max_age_deletes_exactly_the_expired(self, cache):
        old = self._plant(cache, "mc", "old", age=100.0)
        boundary = self._plant(cache, "mc", "boundary", age=50.0)
        fresh = self._plant(cache, "mc", "fresh", age=0.0)
        result = cache.compact(max_age=50.0)
        # age >= max_age expires: the boundary entry goes too (same rule
        # a ttl read applies, so compact deletes what reads refuse).
        assert result.removed == 2
        assert not os.path.exists(old) and not os.path.exists(boundary)
        assert os.path.exists(fresh)
        assert result.remaining == 1

    def test_max_bytes_evicts_oldest_first(self, cache):
        oldest = self._plant(cache, "mc", "a", age=30.0)
        middle = self._plant(cache, "mc", "b", age=20.0)
        newest = self._plant(cache, "mc", "c", age=10.0)
        one = os.path.getsize(newest)
        result = cache.compact(max_bytes=2 * one)
        assert result.removed == 1
        assert not os.path.exists(oldest)
        assert os.path.exists(middle) and os.path.exists(newest)
        assert result.remaining_bytes <= 2 * one

    def test_namespace_filter(self, cache):
        doomed = self._plant(cache, "mc", "x", age=100.0)
        spared = self._plant(cache, "serve", "x", age=100.0)
        result = cache.compact(namespace="mc", max_age=1.0)
        assert result.removed == 1
        assert not os.path.exists(doomed)
        assert os.path.exists(spared)

    def test_empty_namespace_is_a_noop(self, cache):
        survivor = self._plant(cache, "mc", "x", age=100.0)
        result = cache.compact(namespace="nothing-here", max_age=0.0,
                               max_bytes=0)
        assert result.removed == 0 and result.reclaimed_bytes == 0
        assert result.remaining == 0
        assert os.path.exists(survivor)

    def test_compact_without_policies_removes_nothing(self, cache):
        self._plant(cache, "mc", "x", age=100.0)
        result = cache.compact()
        assert result.removed == 0
        assert result.remaining == 1

    def test_missing_dir_is_a_noop(self, tmp_path):
        result = ResultCache(cache_dir=str(tmp_path / "never")).compact(
            max_age=1.0
        )
        assert result.removed == 0 and result.remaining == 0

    def test_summary_mentions_counts(self, cache):
        self._plant(cache, "mc", "x", age=100.0)
        result = cache.compact(max_age=1.0)
        assert "removed 1 entries" in result.summary()
