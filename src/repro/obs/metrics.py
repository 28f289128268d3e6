"""Zero-dependency metrics registry: counters, gauges, histograms.

Components count their work in plain attributes — the stats
dataclasses (``DispatcherStats``, ``TierStats``) — and the ``stats``
probes read those attributes directly.  A component that serves ``/metrics``
owns a :class:`MetricsRegistry` and registers a *collector*
(:meth:`MetricsRegistry.add_collector`) that copies the same
attributes into counters and gauges at scrape time
(:func:`publish_counters`), so the probe and the exposition read one
set of numbers.

Design constraints honoured here:

- zero third-party dependencies (stdlib ``threading`` only);
- thread safety: every series guards mutation with its own lock, the
  registry guards series creation with an ``RLock``; collectors run on
  the scraping thread, so they copy any container another thread
  mutates before iterating it;
- integer-preserving: counters started from ``0`` stay ``int`` until a
  float is observed, so JSON wire formats keep emitting ``3`` rather
  than ``3.0``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "STATS_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "publish_counters",
    "set_default_registry",
]

#: Version of the stats-probe document schema.  Bumped whenever the
#: shape of a probe response changes incompatibly.
STATS_VERSION = 1

LabelItems = Tuple[Tuple[str, str], ...]
Number = Union[int, float]

#: Default latency buckets (seconds) for histograms, spanning the
#: observed shard-compute range from sub-10ms cache hits to minutes.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _label_items(labels: Optional[Mapping[str, Any]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: LabelItems) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


class _SeriesBase:
    """Shared plumbing for a single (name, labels) series."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}{_format_labels(self.labels)}>"


class Counter(_SeriesBase):
    """Monotonic-by-convention numeric series.

    Collectors publish a component's own running total with ``set``;
    exporters treat the series as a counter either way.
    """

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        super().__init__(name, labels)
        self._value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> Number:
        return self._value


class Gauge(Counter):
    """A series that goes up and down (pool sizes, queue depths)."""

    kind = "gauge"


class Histogram(_SeriesBase):
    """Fixed-bucket histogram of observations (e.g. compute seconds)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: LabelItems = (),
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ValueError("histogram buckets must be strictly increasing and non-empty")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> List[Tuple[str, int]]:
        """Cumulative (upper-bound, count) pairs, Prometheus-style."""
        out: List[Tuple[str, int]] = []
        running = 0
        with self._lock:
            for bound, count in zip(self.buckets, self._counts):
                running += count
                out.append((repr(bound), running))
            out.append(("+Inf", running + self._counts[-1]))
        return out

    @property
    def value(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": {bound: count for bound, count in self.cumulative()},
        }


Series = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Thread-safe home for every metric series.

    Each component that serves ``/metrics`` owns a private registry, so
    two dispatchers in one test process never share series.
    ``add_collector`` registers callbacks that publish the component's
    counters and live state (queue depths, pool sizes) just before a
    snapshot or exposition render; :func:`bind_store_metrics
    <repro.obs.bind_store_metrics>` adds a cache store's collectors to
    the registry of the component serving it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._series: Dict[Tuple[str, LabelItems], Series] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- series creation ------------------------------------------------

    def _get_or_create(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]],
        factory: Callable[[str, LabelItems], Series],
        kind: str,
    ) -> Series:
        items = _label_items(labels)
        key = (name, items)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = factory(name, items)
                self._series[key] = series
            elif series.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {series.kind}, not {kind}"
                )
            return series

    def counter(self, name: str, labels: Optional[Mapping[str, Any]] = None) -> Counter:
        series = self._get_or_create(name, labels, Counter, "counter")
        assert isinstance(series, Counter)
        return series

    def gauge(self, name: str, labels: Optional[Mapping[str, Any]] = None) -> Gauge:
        series = self._get_or_create(name, labels, Gauge, "gauge")
        assert isinstance(series, Gauge)
        return series

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> Histogram:
        series = self._get_or_create(
            name, labels, lambda n, items: Histogram(n, buckets, items), "histogram"
        )
        assert isinstance(series, Histogram)
        return series

    # -- collectors -----------------------------------------------------

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        with self._lock:
            self._collectors.append(fn)

    def collect(self) -> None:
        """Run collectors; a broken collector never breaks a scrape."""
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - scrape must survive races
                pass

    # -- export ---------------------------------------------------------

    def series(self) -> List[Series]:
        self.collect()
        with self._lock:
            return sorted(self._series.values(), key=lambda s: (s.name, s.labels))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump of every series (used by benchmarks)."""
        return {
            "stats_version": STATS_VERSION,
            "series": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "labels": dict(s.labels),
                    "value": s.value,
                }
                for s in self.series()
            ],
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        typed: set = set()
        for series in self.series():
            if series.name not in typed:
                typed.add(series.name)
                lines.append(f"# TYPE {series.name} {series.kind}")
            if isinstance(series, Histogram):
                for bound, count in series.cumulative():
                    items = series.labels + (("le", bound),)
                    lines.append(f"{series.name}_bucket{_format_labels(items)} {count}")
                label_str = _format_labels(series.labels)
                lines.append(f"{series.name}_sum{label_str} {series.sum}")
                lines.append(f"{series.name}_count{label_str} {series.count}")
            else:
                lines.append(f"{series.name}{_format_labels(series.labels)} {series.value}")
        return "\n".join(lines) + "\n"


def publish_counters(
    registry: MetricsRegistry,
    prefix: str,
    values: Mapping[str, Number],
    labels: Optional[Mapping[str, Any]] = None,
) -> None:
    """Collector helper: set a ``<prefix><name>_total`` counter per value."""
    for name, value in values.items():
        registry.counter(f"{prefix}{name}_total", labels).set(value)


_default_lock = threading.Lock()
_default_registry: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """A process-wide registry for callers without a component's own."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry


def set_default_registry(registry: Optional[MetricsRegistry]) -> None:
    """Replace the process-default registry (tests; ``None`` resets)."""
    global _default_registry
    with _default_lock:
        _default_registry = registry
