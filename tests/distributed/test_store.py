"""Tests of ``DirectoryStore``, the former name of the directory store.

``repro.distributed.DirectoryStore`` is an alias of ``ResultCache`` kept
for existing callers (the benchmark harness constructs it by that name
and reads ``store.tier``).  These tests pin the store behaviour those
callers rely on through the old name.
"""

import os
import time

from repro.distributed import DirectoryStore
from repro.runtime import ResultCache


class TestDirectoryStore:
    def test_round_trip(self, tmp_path):
        store = DirectoryStore(str(tmp_path / "s"))
        assert isinstance(store, ResultCache)
        payload = {"cell": "6t", "vdd": 0.7, "seed": 3}
        assert store.get("mcshard", payload) is None
        store.put("mcshard", payload, {"fails": [1, 2]})
        assert store.get("mcshard", payload) == {"fails": [1, 2]}
        assert store.tier.puts == 1

    def test_ttl_expires_and_counts(self, tmp_path):
        store = DirectoryStore(str(tmp_path / "s"), ttl=60.0)
        payload = {"k": 1}
        store.put("mcshard", payload, "fresh")
        assert store.get("mcshard", payload) == "fresh"
        path = store.path("mcshard", payload)
        old = time.time() - 61.0
        os.utime(path, (old, old))
        assert store.get("mcshard", payload) is None
        assert store.tier.expirations == 1
        assert os.path.exists(path)  # left for compact to reap

    def test_backward_clock_step_clamps_age_to_zero(
        self, tmp_path, monkeypatch
    ):
        """File tiers age by wall-clock mtime, so a backward clock step
        yields a *future* mtime; the age clamp makes that read as age 0
        (fresh for any positive ttl) rather than a negative age."""
        store = DirectoryStore(str(tmp_path / "s"), ttl=60.0)
        store.put("mcshard", {"k": 1}, "v")
        mtime = os.path.getmtime(store.path("mcshard", {"k": 1}))
        monkeypatch.setattr(time, "time", lambda: mtime - 500.0)
        assert store.get("mcshard", {"k": 1}) == "v"
        assert store.tier.expirations == 0
