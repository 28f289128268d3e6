"""Validate the benchmark JSON artifacts that CI uploads.

``python -m json.tool`` only proves an artifact parses; a benchmark
whose ``emit(..., data=...)`` payload silently lost a column would
still pass and quietly break the downstream consumers (plotting, the
perf dashboards fed from the CI uploads).  This checker pins the
contract instead: every document must carry the standard ``emit``
metadata envelope (see ``benchmarks/conftest.py``) and the per-artifact
``data`` keys the consumers read.

Run it after the perf-smoke benchmarks::

    python benchmarks/check_artifacts.py [results_dir]

Exits nonzero with one line per violation.  Deliberately *not* named
``bench_*.py``: it is a checker of benchmark outputs, not a benchmark,
and must not appear in the reproduction map.
"""

from __future__ import annotations

import json
import numbers
import os
import sys
from typing import Any, Dict, List

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Keys benchmarks/conftest.py `emit` stamps on every JSON document.
ENVELOPE_KEYS = {
    "name", "version", "generated_at", "n_samples", "profile", "data",
    "metrics",
}

# Keys every metrics-snapshot series row carries (repro.obs.metrics).
METRIC_SERIES_KEYS = {"name", "kind", "labels", "value"}

# Keys every Chrome trace event exported by repro.obs.tracing carries.
CHROME_EVENT_KEYS = {"name", "ph", "ts", "dur", "pid", "tid", "cat", "args"}

# Per-artifact `data` contracts: the keys downstream consumers read.
ROW_KEYS = {
    "margin_kernels": {
        "cell", "block_samples", "reference_samples_per_sec",
        "fused_samples_per_sec", "speedup", "check_accept_ratio",
    },
}
# Floor on the share of lanes the fused kernel's two-point check accepts
# (a counter, not a timing): below it the root estimator has degraded
# and the exact fallback is doing the work.
MIN_CHECK_ACCEPT_RATIO = 0.99

DISPATCH_MIXED_KEYS = {
    "fleet_workers", "concurrent_wall_seconds", "kinds",
    "speculation", "dispatcher_stats",
}
DISPATCH_KIND_KEYS = {"kind", "jobs", "wall_seconds", "jobs_per_second"}
DISPATCH_SPECULATION_KEYS = {
    "jobs", "stall_seconds", "cutoff_seconds", "speculative_wins",
    "disabled_wall_seconds", "enabled_wall_seconds", "savings_seconds",
}
DISPATCH_STATS_KEYS = {
    "jobs", "completed", "assignments", "retries",
    "speculations", "speculative_wins", "workers_lost",
}


def _load(results_dir: str, name: str, errors: List[str]) -> Any:
    path = os.path.join(results_dir, f"{name}.json")
    if not os.path.isfile(path):
        errors.append(f"{name}: missing artifact {path}")
        return None
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        errors.append(f"{name}: unreadable JSON ({exc})")
        return None


def _check_envelope(name: str, doc: Any, errors: List[str]) -> Any:
    """Check the shared `emit` metadata; returns the data payload."""
    if not isinstance(doc, dict):
        errors.append(f"{name}: document is {type(doc).__name__}, not object")
        return None
    missing = ENVELOPE_KEYS - doc.keys()
    if missing:
        errors.append(f"{name}: envelope missing {sorted(missing)}")
        return None
    if doc["name"] != name:
        errors.append(f"{name}: envelope name is {doc['name']!r}")
    if not isinstance(doc["n_samples"], int) or doc["n_samples"] <= 0:
        errors.append(f"{name}: n_samples must be a positive int, "
                      f"got {doc['n_samples']!r}")
    _check_metrics(name, doc["metrics"], errors)
    return doc["data"]


def _check_metrics(name: str, metrics: Any, errors: List[str]) -> None:
    """Validate the embedded metrics snapshot (repro.obs.metrics shape)."""
    if not isinstance(metrics, dict):
        errors.append(f"{name}: metrics is {type(metrics).__name__}, "
                      f"not object")
        return
    if not isinstance(metrics.get("stats_version"), int):
        errors.append(f"{name}: metrics.stats_version must be an int, "
                      f"got {metrics.get('stats_version')!r}")
    series = metrics.get("series")
    if not isinstance(series, list):
        errors.append(f"{name}: metrics.series must be a list")
        return
    for i, row in enumerate(series):
        if not isinstance(row, dict):
            errors.append(f"{name}: metrics.series[{i}] is not an object")
            continue
        missing = METRIC_SERIES_KEYS - row.keys()
        if missing:
            errors.append(
                f"{name}: metrics.series[{i}] missing {sorted(missing)}"
            )


def _check_rows(name: str, data: Any, keys: set, errors: List[str]) -> None:
    if not isinstance(data, list) or not data:
        errors.append(f"{name}: data must be a non-empty list of rows")
        return
    for i, row in enumerate(data):
        if not isinstance(row, dict):
            errors.append(f"{name}: row {i} is not an object")
            continue
        missing = keys - row.keys()
        if missing:
            errors.append(f"{name}: row {i} missing {sorted(missing)}")


def _check_keys(name: str, label: str, doc: Any, keys: set,
                errors: List[str]) -> bool:
    if not isinstance(doc, dict):
        errors.append(f"{name}: {label} is not an object")
        return False
    missing = keys - doc.keys()
    if missing:
        errors.append(f"{name}: {label} missing {sorted(missing)}")
        return False
    return True


def _check_dispatch_mixed(data: Any, errors: List[str]) -> None:
    name = "dispatch_mixed"
    if not _check_keys(name, "data", data, DISPATCH_MIXED_KEYS, errors):
        return
    kinds = data["kinds"]
    if not isinstance(kinds, list) or not kinds:
        errors.append(f"{name}: data.kinds must be a non-empty list")
    else:
        for i, row in enumerate(kinds):
            _check_keys(name, f"kinds[{i}]", row, DISPATCH_KIND_KEYS, errors)
    _check_keys(name, "speculation", data["speculation"],
                DISPATCH_SPECULATION_KEYS, errors)
    stats = data["dispatcher_stats"]
    if _check_keys(name, "dispatcher_stats", stats,
                   DISPATCH_STATS_KEYS, errors):
        for key in DISPATCH_STATS_KEYS:
            value = stats[key]
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < 0):
                errors.append(f"{name}: dispatcher_stats.{key} must be a "
                              f"non-negative integer, got {value!r}")


def _check_accept_ratio(data: Any, errors: List[str]) -> None:
    if not isinstance(data, list):
        return  # reported by _check_rows
    for i, row in enumerate(data):
        ratio = row.get("check_accept_ratio") if isinstance(row, dict) else None
        if ratio is None:
            continue  # reported by _check_rows
        if (not isinstance(ratio, numbers.Real) or isinstance(ratio, bool)
                or not ratio >= MIN_CHECK_ACCEPT_RATIO):
            errors.append(
                f"margin_kernels: row {i} check_accept_ratio must be a "
                f"number >= {MIN_CHECK_ACCEPT_RATIO}, got {ratio!r}"
            )


def check_artifacts(results_dir: str = RESULTS_DIR) -> List[str]:
    """Return a list of violations (empty means every contract holds)."""
    errors: List[str] = []
    docs: Dict[str, Any] = {}
    for name in ("margin_kernels", "dispatch_mixed"):
        doc = _load(results_dir, name, errors)
        if doc is not None:
            docs[name] = _check_envelope(name, doc, errors)
    for name, keys in ROW_KEYS.items():
        if name in docs and docs[name] is not None:
            _check_rows(name, docs[name], keys, errors)
    if docs.get("margin_kernels") is not None:
        _check_accept_ratio(docs["margin_kernels"], errors)
    if docs.get("dispatch_mixed") is not None:
        _check_dispatch_mixed(docs["dispatch_mixed"], errors)
    return errors


def check_chrome_trace(path: str) -> List[str]:
    """Validate a Chrome trace-event export (repro.obs.tracing shape).

    Pins the Perfetto-loadable contract: a ``traceEvents`` list of
    complete (``"ph": "X"``) events with numeric microsecond
    timestamps/durations and the span-identity ``args``.
    """
    errors: List[str] = []
    label = os.path.basename(path)
    if not os.path.isfile(path):
        return [f"{label}: missing trace file {path}"]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{label}: unreadable JSON ({exc})"]
    if not isinstance(doc, dict):
        return [f"{label}: document is {type(doc).__name__}, not object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"{label}: traceEvents must be a non-empty list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"{label}: traceEvents[{i}] is not an object")
            continue
        missing = CHROME_EVENT_KEYS - event.keys()
        if missing:
            errors.append(f"{label}: traceEvents[{i}] missing "
                          f"{sorted(missing)}")
            continue
        if event["ph"] != "X":
            errors.append(f"{label}: traceEvents[{i}].ph must be 'X', "
                          f"got {event['ph']!r}")
        for key in ("ts", "dur"):
            value = event[key]
            if (not isinstance(value, numbers.Real)
                    or isinstance(value, bool) or value < 0):
                errors.append(f"{label}: traceEvents[{i}].{key} must be a "
                              f"non-negative number, got {value!r}")
        args = event["args"]
        if not isinstance(args, dict) or "span_id" not in args:
            errors.append(f"{label}: traceEvents[{i}].args must carry "
                          f"span identity")
    return errors


def main(argv: List[str]) -> int:
    if len(argv) > 1 and argv[1] == "--chrome-trace":
        if len(argv) != 3:
            print("usage: check_artifacts.py --chrome-trace PATH")
            return 2
        errors = check_chrome_trace(argv[2])
        for line in errors:
            print(f"FAIL {line}")
        if errors:
            return 1
        print(f"chrome trace OK: {argv[2]}")
        return 0
    results_dir = argv[1] if len(argv) > 1 else RESULTS_DIR
    errors = check_artifacts(results_dir)
    for line in errors:
        print(f"FAIL {line}")
    if errors:
        return 1
    print(f"artifact check OK: margin_kernels, dispatch_mixed under "
          f"{results_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
