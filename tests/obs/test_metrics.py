"""Unit coverage of the metrics registry behind every ``/metrics``.

Pinned here directly: thread-safe series creation, integer
preservation on the JSON wire, Prometheus text rendering, and the
scrape-time collectors that publish the components' own counters.
"""

import threading

import pytest

from repro.obs.metrics import (
    STATS_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    publish_counters,
    set_default_registry,
)


class TestSeries:
    def test_counter_inc_and_set(self):
        c = Counter("x_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.set(2)
        assert c.value == 2

    def test_counter_stays_int_until_float_observed(self):
        c = Counter("x_total")
        c.inc(3)
        assert isinstance(c.value, int)
        c.inc(0.5)
        assert isinstance(c.value, float)

    def test_gauge_is_counter_with_gauge_kind(self):
        g = Gauge("pool")
        assert g.kind == "gauge"
        g.set(7)
        g.inc(-2)
        assert g.value == 5

    def test_histogram_observe_and_cumulative(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        cumulative = dict(h.cumulative())
        assert cumulative["0.1"] == 1
        assert cumulative["1.0"] == 3
        assert cumulative["10.0"] == 4
        assert cumulative["+Inf"] == 5
        assert h.value["count"] == 5

    def test_histogram_boundary_lands_in_its_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1.0" is inclusive, Prometheus-style
        assert dict(h.cumulative())["1.0"] == 1

    @pytest.mark.parametrize("buckets", [(), (1.0, 1.0), (2.0, 1.0)])
    def test_histogram_rejects_bad_buckets(self, buckets):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("lat", buckets=buckets)


class TestRegistry:
    def test_same_name_same_labels_is_same_series(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.counter("a", {"x": "1"}) is not r.counter("a", {"x": "2"})
        # Label insertion order cannot mint a second series.
        assert r.counter("b", {"x": "1", "y": "2"}) is r.counter(
            "b", {"y": "2", "x": "1"}
        )

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(TypeError, match="already registered as counter"):
            r.gauge("a")

    def test_collectors_run_on_snapshot_and_broken_ones_are_survived(self):
        r = MetricsRegistry()

        def broken(_registry):
            raise RuntimeError("scrape race")

        def publish(registry):
            registry.gauge("depth").set(3)

        r.add_collector(broken)
        r.add_collector(publish)
        snap = r.snapshot()
        assert snap["stats_version"] == STATS_VERSION
        by_name = {row["name"]: row for row in snap["series"]}
        assert by_name["depth"]["value"] == 3

    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("jobs_total", {"kind": "margin"}).inc(2)
        (row,) = r.snapshot()["series"]
        assert row == {
            "name": "jobs_total",
            "kind": "counter",
            "labels": {"kind": "margin"},
            "value": 2,
        }

    def test_render_prometheus_text_format(self):
        r = MetricsRegistry()
        r.counter("jobs_total").inc(3)
        r.gauge("workers", {"pool": "a"}).set(2)
        r.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
        text = r.render_prometheus()
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3" in text
        assert '# TYPE workers gauge' in text
        assert 'workers{pool="a"} 2' in text
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        r = MetricsRegistry()
        r.counter("c", {"path": 'a"b\\c\nd'}).inc()
        text = r.render_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_publish_counters_mirrors_plain_values(self):
        r = MetricsRegistry()
        counts = {"done": 0, "seconds": 0.0}
        r.add_collector(
            lambda reg: publish_counters(reg, "x_", counts, {"tier": "a"})
        )
        counts["done"] += 2
        rows = {row["name"]: row for row in r.snapshot()["series"]}
        assert rows["x_done_total"] == {
            "name": "x_done_total", "kind": "counter",
            "labels": {"tier": "a"}, "value": 2,
        }
        # Int-vs-float follows the published attribute.
        assert isinstance(rows["x_seconds_total"]["value"], float)

    def test_concurrent_increments_do_not_lose_updates(self):
        r = MetricsRegistry()
        c = r.counter("n")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000

    def test_default_registry_is_process_wide_and_resettable(self):
        try:
            set_default_registry(None)
            first = default_registry()
            assert default_registry() is first
            mine = MetricsRegistry()
            set_default_registry(mine)
            assert default_registry() is mine
        finally:
            set_default_registry(None)
