"""HTTP exposition: /metrics over a real localhost socket."""

import urllib.error
import urllib.request

import pytest

from repro.obs import bind_store_metrics
from repro.obs.exposition import CONTENT_TYPE, MetricsServer
from repro.obs.metrics import MetricsRegistry


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, dict(response.headers), response.read().decode()


class TestMetricsServer:
    def test_serves_prometheus_text_on_an_ephemeral_port(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(3)
        with MetricsServer(registry, port=0) as server:
            assert server.url.endswith("/metrics")
            status, headers, body = _get(server.url)
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        assert "repro_test_total 3" in body

    def test_root_path_also_renders_and_query_strings_are_ignored(self):
        registry = MetricsRegistry()
        registry.gauge("up").set(1)
        with MetricsServer(registry) as server:
            base = f"http://{server.host}:{server.port}"
            assert "up 1" in _get(base + "/")[2]
            assert "up 1" in _get(base + "/metrics?x=1")[2]

    def test_unknown_paths_are_404(self):
        with MetricsServer(MetricsRegistry()) as server:
            base = f"http://{server.host}:{server.port}"
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base + "/healthz")
            assert err.value.code == 404

    def test_scrape_runs_collectors(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda r: r.gauge("live_depth").set(9))
        with MetricsServer(registry) as server:
            assert "live_depth 9" in _get(server.url)[2]

    def test_port_before_start_raises(self):
        server = MetricsServer(MetricsRegistry())
        with pytest.raises(RuntimeError, match="not started"):
            server.port

    def test_double_start_raises_and_stop_is_idempotent(self):
        server = MetricsServer(MetricsRegistry()).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()
        server.stop()  # no-op after shutdown
        server.start()  # restartable once stopped
        server.stop()


class TestBindStoreMetrics:
    def test_plain_store_binds_one_local_tier(self, tmp_path):
        from repro.runtime import ResultCache

        store = ResultCache(str(tmp_path))
        store.put("ns", {"k": 1}, {"v": 2})
        assert store.get("ns", {"k": 1}) == {"v": 2}
        registry = MetricsRegistry()
        bind_store_metrics(registry, store, component="worker")
        registry.collect()
        labels = {"component": "worker", "tier": "local"}
        assert registry.counter("repro_cache_puts_total", labels).value == 1
        assert registry.counter("repro_cache_hits_total", labels).value == 1

    def test_storeless_objects_are_a_no_op(self):
        registry = MetricsRegistry()
        bind_store_metrics(registry, object(), component="dispatch")
        assert registry.snapshot()["series"] == []
