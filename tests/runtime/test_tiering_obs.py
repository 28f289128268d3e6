"""Observability of the tiered cache: drops are loud and structured.

A write-behind entry that falls off the queue (or exhausts its retry
budget) silently erodes the shared remote tier — the next fleet pays
recompute for a value this process already had.  The contract pinned
here: every drop emits a WARNING log *and* a flight-recorder
``write_behind_drop`` event, both carrying the dropped content address,
and a raising tier leaves a ``tier_error`` event behind.
"""

import logging
import threading

from repro.obs import bind_store_metrics
from repro.obs.flight import FlightRecorder, get_flight_recorder, set_flight_recorder
from repro.obs.metrics import MetricsRegistry
from repro.runtime.cache import CACHE_VERSION, content_key
from repro.runtime.tiering import TieredStore

from tests.runtime.test_tiering import RecordingStore


def drop_events(recorder):
    return [e for e in recorder.snapshot() if e["kind"] == "write_behind_drop"]


class TestWriteBehindDropObservability:
    def test_exhausted_retries_warn_and_record_the_address(self, caplog):
        flight = FlightRecorder(capacity=16)
        remote = RecordingStore(fail_puts=10**6)
        store = TieredStore(
            local=RecordingStore(), remote=remote,
            flush_retries=1, flush_backoff=0.001, flush_backoff_cap=0.005,
            flight=flight,
        )
        with caplog.at_level(logging.WARNING, logger="repro.runtime.tiering"):
            store.put("ns", {"k": 1}, "v")
            assert store.flush(timeout=10.0)
        store.close()
        assert store.dropped == 1

        address = content_key(
            "ns", {"k": 1}, getattr(remote, "version", CACHE_VERSION)
        )
        (event,) = drop_events(flight)
        assert event["namespace"] == "ns"
        assert event["address"] == address
        assert event["reason"] == "retries_exhausted"

        (record,) = [r for r in caplog.records
                     if "write-behind drop" in r.getMessage()]
        assert record.levelno == logging.WARNING
        assert address in record.getMessage()
        assert "recording:test" in record.getMessage()

    def test_queue_full_drops_are_recorded_per_entry(self, caplog):
        flight = FlightRecorder(capacity=32)
        gate = threading.Event()

        class Stalling(RecordingStore):
            def put(self, namespace, payload, value):
                gate.wait(10.0)
                super().put(namespace, payload, value)

        store = TieredStore(remote=Stalling(), flush_queue=2, flight=flight)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.tiering"):
            for k in range(6):
                store.put("ns", {"k": k}, "v")
        gate.set()
        assert store.flush(timeout=10.0)
        dropped = store.dropped
        store.close()
        assert dropped >= 3

        events = drop_events(flight)
        assert len(events) == dropped
        assert all(e["reason"] == "queue_full" for e in events)
        # Addresses are distinct: one event per dropped entry, each
        # naming exactly what will be missing from the remote tier.
        assert len({e["address"] for e in events}) == dropped
        warned = [r for r in caplog.records
                  if "write-behind drop" in r.getMessage()]
        assert len(warned) == dropped

    def test_without_injection_drops_reach_the_process_recorder(self):
        try:
            set_flight_recorder(None)
            store = TieredStore(
                local=RecordingStore(), remote=RecordingStore(fail_puts=10**6),
                flush_retries=0, flush_backoff=0.001, flush_backoff_cap=0.005,
            )
            store.put("ns", {"k": 2}, "v")
            assert store.flush(timeout=10.0)
            store.close()
            assert drop_events(get_flight_recorder())
        finally:
            set_flight_recorder(None)

    def test_raising_tier_records_a_tier_error_event(self):
        flight = FlightRecorder(capacity=16)
        store = TieredStore(
            local=RecordingStore(raise_on_get=True),
            remote=RecordingStore(),
            flight=flight,
        )
        assert store.get("ns", {"k": 3}) is None
        store.close()
        (event,) = [e for e in flight.snapshot() if e["kind"] == "tier_error"]
        assert event["tier"] == "local"
        assert event["op"] == "get"

    def test_write_behind_counters_live_in_the_registry(self):
        registry = MetricsRegistry()
        store = TieredStore(local=RecordingStore(), remote=RecordingStore())
        bind_store_metrics(registry, store, component="serve")
        store.put("ns", {"k": 4}, "v")
        assert store.flush(timeout=10.0)
        store.close()
        registry.collect()
        labels = {"component": "serve"}
        assert registry.counter(
            "repro_cache_write_behind_queued_total", labels
        ).value == 1
        assert registry.counter(
            "repro_cache_write_behind_flushed_total", labels
        ).value == 1
