"""Unified observability layer: metrics, tracing, flight recorder.

Import from here for the common surface; ``repro.obs.top`` (the
dashboard) is imported lazily by the CLI to keep this package free of
serving-layer imports.
"""

from .exposition import CONTENT_TYPE, MetricsServer
from .flight import FlightRecorder, get_flight_recorder, set_flight_recorder
from .metrics import (
    STATS_VERSION,
    Counter,
    Gauge,
    Histogram,
    Instrumented,
    LabeledCounterMap,
    MetricField,
    MetricsRegistry,
    default_registry,
    metric_fields,
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
    "Instrumented",
    "LabeledCounterMap",
    "MetricField",
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
    "metric_fields",
    "set_default_registry",
    "set_flight_recorder",
    "set_tracer",
]


def bind_store_metrics(registry: MetricsRegistry, store: object, component: str) -> None:
    """Gather a cache store's tier counters into ``registry``.

    A :class:`~repro.runtime.tiering.TieredStore` binds one labeled
    series per tier plus the write-behind counters; any other
    :class:`~repro.runtime.cache.CacheStore` binds its counters as the
    ``local`` tier; anything else is a no-op.  Used by CLI entry points
    before starting a :class:`MetricsServer`.
    """
    # Imported here: the runtime stores import this package for metrics.
    from repro.runtime.cache import CacheStore
    from repro.runtime.tiering import TieredStore

    base = {"component": component}
    if isinstance(store, TieredStore):
        for name, tier_store in store.tier_stores():
            tier_store.tier.bind_metrics(registry, {**base, "tier": name})
        store.bind_metrics(registry, base)
    elif isinstance(store, CacheStore):
        store.tier.bind_metrics(registry, {**base, "tier": "local"})
