"""Unified observability layer: metrics, tracing, flight recorder.

Import from here for the common surface; ``repro.obs.top`` (the
dashboard) is imported lazily by the CLI to keep this package free of
:mod:`repro.distributed` imports.
"""

from dataclasses import asdict

from .exposition import CONTENT_TYPE, MetricsServer
from .flight import FlightRecorder, get_flight_recorder, set_flight_recorder
from .metrics import (
    STATS_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    publish_counters,
    set_default_registry,
)
from .tracing import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    chrome_trace_document,
    get_tracer,
    maybe_enable_tracing_from_env,
    set_tracer,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_SPAN",
    "STATS_VERSION",
    "Span",
    "TraceContext",
    "Tracer",
    "bind_store_metrics",
    "chrome_trace_document",
    "default_registry",
    "get_flight_recorder",
    "get_tracer",
    "maybe_enable_tracing_from_env",
    "publish_counters",
    "set_default_registry",
    "set_flight_recorder",
    "set_tracer",
]


def bind_store_metrics(registry: MetricsRegistry, store: object, component: str) -> None:
    """Publish a cache store's counters through ``registry``.

    Adds a scrape-time collector: a
    :class:`~repro.runtime.cache.ResultCache` publishes its
    :class:`~repro.runtime.cache.TierStats` as ``{component,
    tier="local"}``-labeled ``repro_cache_*`` counters; anything else
    is a no-op.  Used by CLI entry points before starting a
    :class:`MetricsServer`.
    """
    # Imported here: importing this package loads no runtime module.
    from repro.runtime.cache import ResultCache

    if isinstance(store, ResultCache):
        labels = {"component": component, "tier": "local"}
        registry.add_collector(
            lambda r: publish_counters(r, "repro_cache_", asdict(store.tier), labels)
        )
