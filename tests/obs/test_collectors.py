"""Every ``/metrics`` series is documented, and collectors mirror the probes.

The components count their work in plain attributes and publish them
through scrape-time collectors.  Pinned here:

* the union of the series the fleet components render — a dispatcher
  that has merged one job and a result cache bound with
  ``bind_store_metrics`` — equals the catalogue tables of
  ``docs/observability.md`` exactly, as ``(name, kind, label keys)``;
* a dispatcher's registry reports the very numbers of its ``stats``
  probe, scalar for scalar and worker for worker.
"""

import re
import threading
import time
from pathlib import Path

from repro.obs import bind_store_metrics
from repro.obs.metrics import MetricsRegistry
from repro.runtime import ResultCache
from repro.sram.montecarlo import MonteCarloAnalyzer

from tests.distributed.conftest import (
    BLOCK_SAMPLES,
    N_SAMPLES,
    WorkerThread,
    make_dispatcher,
)

CATALOGUE = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
ROW = re.compile(r"^\| `(\w+)` \| (\w+) \| (.+) \|$")


def documented_series():
    """``{(name, kind, label keys)}`` of the docs' series catalogue."""
    text = CATALOGUE.read_text(encoding="utf-8")
    section = text.split("### Series catalogue", 1)[1].split("\n## ", 1)[0]
    rows = set()
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            name, kind, labels = match.groups()
            keys = () if labels.strip() == "—" else tuple(
                sorted(label.strip(" `") for label in labels.split(","))
            )
            rows.add((name, kind, keys))
    return rows


def rendered_series(registry):
    return {
        (s.name, s.kind, tuple(key for key, _ in s.labels))
        for s in registry.series()
    }


def scalar_series(registry):
    """``{(name, labels): value}`` of every non-histogram series."""
    return {
        (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
        for row in registry.snapshot()["series"]
        if row["kind"] != "histogram"
    }


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def merge_one_job(cell6, **dispatcher_kwargs):
    """A dispatcher that was scraped with the job queued, then merged it
    on one worker; returns ``(dispatcher, worker)`` (dispatcher closed)."""
    analyzer = MonteCarloAnalyzer(
        cell=cell6, n_samples=N_SAMPLES, block_samples=BLOCK_SAMPLES
    )
    with make_dispatcher(None, **dispatcher_kwargs) as dispatcher:
        host, port = dispatcher.start()
        run = threading.Thread(
            target=analyzer.analyze_sharded,
            args=(0.7,),
            kwargs={"shards": 1, "dispatcher": dispatcher},
            daemon=True,
        )
        run.start()
        # Scrape while the job waits for a worker: the per-kind and
        # per-client queue gauges only exist once a scrape saw them.
        wait_until(lambda: any(
            s.name == "repro_dispatch_queue_depth_kind"
            for s in dispatcher.metrics.series()
        ))
        worker = WorkerThread(host, port, name="w0")
        run.join(60)
        assert not run.is_alive(), "dispatch did not complete"
    worker.join()
    return dispatcher


class TestCatalogue:
    def test_rendered_series_match_the_docs_catalogue(self, cell6, tmp_path):
        # A fixed speculation threshold publishes the cutoff gauge.
        dispatcher = merge_one_job(cell6, speculation_threshold=30.0)

        store_registry = MetricsRegistry()
        bind_store_metrics(
            store_registry, ResultCache(str(tmp_path)), component="dispatch"
        )

        rendered = (
            rendered_series(dispatcher.metrics) | rendered_series(store_registry)
        )
        documented = documented_series()
        assert rendered - documented == set(), "series missing from the docs"
        assert documented - rendered == set(), "documented series not rendered"


class TestDispatcherCollector:
    def test_registry_reports_the_stats_probe_numbers(self, cell6):
        dispatcher = merge_one_job(cell6)
        probe = dispatcher.stats.to_dict()
        assert probe["completed"] == 1 and probe["per_worker"] == {"w0": 1}
        scraped = scalar_series(dispatcher.metrics)

        per_worker = probe.pop("per_worker")
        for name, value in probe.items():
            series = (
                "repro_dispatch_active_workers" if name == "active_workers"
                else f"repro_dispatch_{name}_total"
            )
            published = scraped[(series, ())]
            assert published == value and type(published) is type(value), name
        assert {
            dict(labels)["worker"]: value
            for (series, labels), value in scraped.items()
            if series == "repro_dispatch_worker_assignments_total"
        } == per_worker
