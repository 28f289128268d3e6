"""Merge the traced pass's span files into per-layer metrics.

A layer's self time is the duration of its spans minus the part of each
span that its child spans (same process and thread, linked by
``parent``) cover.  Counts come from the number of spans and the
per-call attributes ``benchtrace`` records.  ``dist.*`` figures that the
dispatcher already keeps (jobs, retries, speculations, store hits) are
taken from its public stats instead, by the caller.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Any, Dict, Iterable, List, Tuple

#: Per-layer metric name -> (unit, better).  Order is the report order.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "executor.maps": ("count", "lower"),
    "executor.children": ("count", "lower"),
    "executor.map_s": ("s", "lower"),
    "cache.gets": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.puts": ("count", "lower"),
    "cache.put_bytes": ("bytes", "lower"),
    "cache.io_s": ("s", "lower"),
    "datasets.calls": ("count", "lower"),
    "datasets.images": ("count", "lower"),
    "datasets.s": ("s", "lower"),
    "trainer.calls": ("count", "lower"),
    "trainer.s": ("s", "lower"),
    "forward.calls": ("count", "lower"),
    "forward.s": ("s", "lower"),
    "core.model_builds": ("count", "lower"),
    "core.model_build_s": ("s", "lower"),
    "core.study_s": ("s", "lower"),
    "fault.evaluations": ("count", "lower"),
    "fault.trials": ("count", "lower"),
    "fault.s": ("s", "lower"),
    "kernels.margin.calls": ("count", "lower"),
    "kernels.margin.samples": ("count", "lower"),
    "kernels.margin.samples_per_s": ("1/s", "higher"),
    "sram.characterize_s": ("s", "lower"),
    "sram.points_computed": ("count", "lower"),
    "sram.tally_self_s": ("s", "lower"),
    "mem.tables_build_s": ("s", "lower"),
    "dist.jobs": ("count", "lower"),
    "dist.job_p50_s.margin_tally": ("s", "lower"),
    "dist.job_p50_s.nn_fault_eval": ("s", "lower"),
    "dist.dag.margin_phase_s": ("s", "lower"),
    "dist.dag.nn_phase_s": ("s", "lower"),
    "dist.worker_busy_ratio": ("ratio", "higher"),
    "dist.retries": ("count", "lower"),
    "dist.speculations": ("count", "lower"),
    "dist.speculative_waste_ratio": ("ratio", "lower"),
    "dist.store_hits": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

#: Span name -> per-layer self-time metric.
SELF_TIME = {
    "executor.map": "executor.map_s",
    "cache.get": "cache.io_s",
    "cache.put": "cache.io_s",
    "nn.datasets": "datasets.s",
    "nn.trainer": "trainer.s",
    "nn.forward": "forward.s",
    "core.model_build": "core.model_build_s",
    "core.study": "core.study_s",
    "fault.evaluate": "fault.s",
    "sram.characterize": "sram.characterize_s",
    "sram.tally": "sram.tally_self_s",
    "mem.tables_build": "mem.tables_build_s",
}

#: Span name -> call-count metric.
CALLS = {
    "executor.map": "executor.maps",
    "cache.get": "cache.gets",
    "cache.put": "cache.puts",
    "nn.datasets": "datasets.calls",
    "nn.trainer": "trainer.calls",
    "nn.forward": "forward.calls",
    "core.model_build": "core.model_builds",
    "fault.evaluate": "fault.evaluations",
    "kernels.margin": "kernels.margin.calls",
    "sram.point": "sram.points_computed",
}


def load(trace_dir: str) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """All ``(processes, spans)`` recorded under ``trace_dir``."""
    processes: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            for line in fh:
                if not line.endswith("\n"):
                    break  # a process killed mid-write leaves a torn tail
                record = json.loads(line)
                (processes if record.get("meta") else spans).append(record)
    return processes, spans


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the union its direct children cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        covered = union_length(
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], ())
            if min(e, span["end"]) > max(s, span["start"])
        )
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def per_layer(
    processes: List[Dict[str, Any]],
    spans: List[Dict[str, Any]],
    window: Tuple[float, float],
    n_workers: int = 0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass spanning ``window``.

    ``dist.*`` counters from the dispatcher's stats, ``cli.import_s``
    and ``trace.overhead_s`` are measured elsewhere and filled in by the
    caller; they start at 0 here.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    selfs = self_times(spans)
    hits = 0
    job_times: Dict[str, List[float]] = {}
    busy = 0.0
    for span in spans:
        name = span["name"]
        attrs = span.get("attrs", {})
        if name in SELF_TIME:
            metrics[SELF_TIME[name]] += selfs[span["id"]]
        if name in CALLS:
            metrics[CALLS[name]] += 1
        if name == "cache.get" and attrs.get("hit"):
            hits += 1
        elif name == "cache.put":
            metrics["cache.put_bytes"] += attrs.get("bytes", 0)
        elif name == "nn.datasets":
            metrics["datasets.images"] += attrs.get("images", 0)
        elif name == "fault.evaluate":
            metrics["fault.trials"] += attrs.get("trials", 0)
        elif name == "kernels.margin":
            metrics["kernels.margin.samples"] += attrs.get("samples", 0)
        elif name == "dist.job":
            duration = span["end"] - span["start"]
            job_times.setdefault(attrs.get("kind", "?"), []).append(duration)
            busy += duration
    metrics["executor.children"] = sum(
        1 for p in processes if p["role"] == "executor_child"
    )
    if metrics["cache.gets"]:
        metrics["cache.hit_ratio"] = hits / metrics["cache.gets"]
    kernel_s = sum(
        span["end"] - span["start"] for span in spans
        if span["name"] == "kernels.margin"
    )
    if kernel_s > 0:
        metrics["kernels.margin.samples_per_s"] = (
            metrics["kernels.margin.samples"] / kernel_s
        )
    for kind in ("margin_tally", "nn_fault_eval"):
        if job_times.get(kind):
            metrics[f"dist.job_p50_s.{kind}"] = statistics.median(job_times[kind])

    dags = [s for s in spans if s["name"] == "dist.dag"]
    if dags:
        dag_start = min(s["start"] for s in dags)
        dag_end = max(s["end"] for s in dags)
        margin_end = max(
            (s["end"] for s in spans if s["name"] == "dist.dispatch"
             and s.get("attrs", {}).get("client", "").startswith("dag:margin-")),
            default=dag_start,
        )
        metrics["dist.dag.margin_phase_s"] = margin_end - dag_start
        metrics["dist.dag.nn_phase_s"] = dag_end - margin_end
        if n_workers:
            metrics["dist.worker_busy_ratio"] = busy / (
                n_workers * (dag_end - dag_start)
            )

    start, end = window
    covered = union_length(
        (max(s["start"], start), min(s["end"], end)) for s in spans
        if min(s["end"], end) > max(s["start"], start)
    )
    metrics["trace.unattributed_s"] = (end - start) - covered
    return metrics


def chrome_trace(spans: List[Dict[str, Any]], processes: List[Dict[str, Any]],
                 origin: float) -> Dict[str, Any]:
    """The spans as a Chrome/Perfetto trace-event document."""
    roles = {p["pid"]: p["role"] for p in processes}
    events = []
    for span in sorted(spans, key=lambda s: s["start"]):
        args = {"span_id": span["id"], "parent_id": span["parent"],
                "role": roles.get(span["pid"], "other")}
        args.update(span.get("attrs", {}))
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": span["pid"],
            "tid": span["tid"],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
