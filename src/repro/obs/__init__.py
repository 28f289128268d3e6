"""Unified observability layer: metrics, tracing, flight recorder.

Import from here for the common surface; ``repro.obs.top`` (the
dashboard) is imported lazily by the CLI to keep this package free of
:mod:`repro.distributed` imports.
"""

from dataclasses import asdict
from typing import TYPE_CHECKING, Dict

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

if TYPE_CHECKING:
    from repro.runtime.cache import CacheStore

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
    """Publish a cache store's tier counters through ``registry``.

    Adds scrape-time collectors: a
    :class:`~repro.runtime.tiering.TieredStore` publishes one
    ``{component, tier}``-labeled set of ``repro_cache_*`` counters per
    tier plus its ``{component}``-labeled write-behind counters; any
    other :class:`~repro.runtime.cache.CacheStore` publishes its
    counters as the ``local`` tier; anything else is a no-op.  Used by
    CLI entry points before starting a :class:`MetricsServer`.
    """
    # Imported here: the tiered store imports this package for its
    # flight recorder.
    from repro.runtime.cache import CacheStore
    from repro.runtime.tiering import TieredStore

    base = {"component": component}
    if isinstance(store, TieredStore):
        for name, tier_store in store.tier_stores():
            _add_tier_collector(registry, tier_store, {**base, "tier": name})
        write_behind = store.write_behind_counters
        registry.add_collector(
            lambda r: publish_counters(
                r, "repro_cache_write_behind_", write_behind(), base
            )
        )
    elif isinstance(store, CacheStore):
        _add_tier_collector(registry, store, {**base, "tier": "local"})


def _add_tier_collector(
    registry: MetricsRegistry, store: "CacheStore", labels: Dict[str, str]
) -> None:
    registry.add_collector(
        lambda r: publish_counters(r, "repro_cache_", asdict(store.tier), labels)
    )
