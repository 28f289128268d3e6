"""Tracing under chaos: spans survive failure, and never change a byte.

The distributed-tracing contract, stated as properties over the chaos
harness (``tests/distributed/chaos.py``):

* with tracing *on*, every merged output stays byte-identical to the
  single-process oracle — instrumentation is invisible to the numbers;
* every executed job lands in **exactly one** completed ``job:`` span,
  no matter how many times workers died, stalled or raced on it;
* a speculative duplicate shows up as *two* ``assign`` child spans of
  one job span, exactly one of them marked ``winner``;
* worker-side ``worker.execute`` spans parent to the dispatcher's
  ``assign`` spans across the wire (the additive ``"trace"`` field);
* the exported Chrome trace of a chaos DAG run is Perfetto-loadable
  per ``benchmarks/check_artifacts.py`` — the PR's acceptance check.
"""

import asyncio
import importlib.util
import json
import os
import tempfile
import threading
from functools import lru_cache, reduce

import pytest

from repro.devices import ptm22
from repro.distributed import ShardDispatcher, Worker
from repro.distributed.dag import DagRun, job_node, reduce_node
from repro.distributed.jobs import execute_job, margin_tally_jobs
from repro.obs.tracing import Tracer
from repro.runtime import ResultCache
from repro.sram import make_cell
from repro.sram.montecarlo import MarginTally, MonteCarloAnalyzer

from tests.distributed.chaos import (
    ChaosEvent,
    ChaosSchedule,
    digest_of,
    run_chaos_dag,
    run_chaos_fleet,
)
from tests.distributed.conftest import (
    BLOCK_SAMPLES,
    HEARTBEAT_INTERVAL,
    N_SAMPLES,
)

VDD = 0.7

CHECK_ARTIFACTS = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "check_artifacts.py"
)


def _load_check_artifacts():
    """The CI artifact checker, imported from its file (it is not a
    package member — the perf-smoke job runs it bare, stdlib-only)."""
    spec = importlib.util.spec_from_file_location(
        "check_artifacts", os.path.abspath(CHECK_ARTIFACTS)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def _analyzer():
    return MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=N_SAMPLES, block_samples=BLOCK_SAMPLES,
    ).resolved()


@lru_cache(maxsize=None)
def margin_case(vdd=VDD, shards=4):
    analyzer = _analyzer()
    jobs = tuple(margin_tally_jobs(analyzer, vdd, analyzer.shard_plan(shards=shards)))
    values = [MarginTally.from_dict(execute_job(job, None)[0]) for job in jobs]
    oracle = reduce(lambda acc, head: MarginTally.merge([acc, head]), values)
    return jobs, digest_of(oracle)


def job_spans(tracer):
    return [s for s in tracer.finished() if s.name.startswith("job:")]


def assign_spans_of(tracer, job_span):
    return [s for s in tracer.finished()
            if s.name == "assign" and s.parent_id == job_span.span_id]


def assert_jobs_covered_exactly_once(tracer, jobs, context=""):
    """Every dispatched job id in exactly one completed job span
    (``context`` is appended to every failure message)."""
    spans = job_spans(tracer)
    ids = [s.attrs["job_id"] for s in spans]
    assert sorted(ids) == sorted({job.job_id for job in jobs}), (
        f"job spans {sorted(ids)}{context}"
    )
    for span in spans:
        assert span.ended, f"{span.name} never ended{context}"
        assert span.status == "ok", f"{span.name}: {span.status}{context}"
        if span.attrs.get("outcome") == "store_hit":
            continue  # answered at enqueue; no assignment ever existed
        winners = [a for a in assign_spans_of(tracer, span)
                   if a.attrs.get("winner") is True]
        assert len(winners) == 1, (
            f"job {span.attrs['job_id']}: {len(winners)} winning "
            f"assignments{context}"
        )


class TestChaosTracing:
    def test_kill_mid_run_keeps_coverage_and_bytes(self):
        jobs, oracle = margin_case()
        tracer = Tracer(enabled=True, deterministic=True)
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=0, action="kill"),),
        )
        with tempfile.TemporaryDirectory() as store_dir:
            run = run_chaos_fleet(
                jobs, schedule, store_dir,
                decode=MarginTally.from_dict, merge=MarginTally.merge,
                tracer=tracer,
            )
        context = (f" under [{schedule.describe()}]; stats {run.stats}; "
                   f"digest {run.digest}, oracle {oracle}")
        assert run.digest == oracle, f"tracing changed the merged bytes{context}"
        assert run.stats.completed == len(jobs), (
            f"{run.stats.completed} of {len(jobs)} jobs completed{context}"
        )
        assert_jobs_covered_exactly_once(tracer, jobs, context)
        # The kill leaves a failed assign span behind; its job span
        # still completes (through the retry) with one winner.
        roots = [s for s in tracer.finished() if s.name == "dispatch.run"]
        assert len(roots) == 1 and roots[0].status == "ok", (
            f"dispatch.run spans {[r.status for r in roots]}{context}"
        )
        if run.stats.retries:
            failed = [s for s in tracer.finished()
                      if s.name == "assign" and s.status == "failed"]
            assert failed, f"retried run recorded no failed assign span{context}"

    def test_speculation_is_two_assign_children_with_one_winner(self):
        jobs, oracle = margin_case()
        tracer = Tracer(enabled=True, deterministic=True)
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=0, action="stall"),),
            stall_seconds=2.0,
        )
        with tempfile.TemporaryDirectory() as store_dir:
            run = run_chaos_fleet(
                jobs, schedule, store_dir,
                decode=MarginTally.from_dict, merge=MarginTally.merge,
                tracer=tracer,
            )
        assert run.digest == oracle
        assert run.stats.speculative_wins >= 1
        assert_jobs_covered_exactly_once(tracer, jobs)
        speculated = [
            span for span in job_spans(tracer)
            if any(a.attrs.get("speculative") for a in assign_spans_of(tracer, span))
        ]
        assert speculated, "no job span carries a speculative assignment"
        for span in speculated:
            assigns = assign_spans_of(tracer, span)
            assert len(assigns) >= 2, "speculation must duplicate the assign"
            winners = [a for a in assigns if a.attrs.get("winner") is True]
            losers = [a for a in assigns if a.attrs.get("winner") is False]
            assert len(winners) == 1
            assert losers and all(
                a.status in ("lost_race", "failed") for a in losers
            )

    def test_worker_execute_spans_parent_to_assigns_across_the_wire(
        self, store_dir
    ):
        jobs, oracle = margin_case()
        tracer = Tracer(enabled=True, deterministic=True)
        dispatcher = ShardDispatcher(
            store=ResultCache(store_dir),
            heartbeat_interval=HEARTBEAT_INTERVAL,
            tracer=tracer,
        )
        with dispatcher:
            host, port = dispatcher.start()
            worker = Worker(
                host, port, store=ResultCache(store_dir),
                name="traced", tracer=tracer,
            )
            thread = threading.Thread(
                target=lambda: asyncio.run(worker.run()), daemon=True
            )
            thread.start()
            dispatcher.await_workers(1, timeout=30)
            merged = dispatcher.dispatch(
                list(jobs), decode=MarginTally.from_dict,
                merge=MarginTally.merge,
            )
        thread.join(timeout=10)
        assert digest_of(merged) == oracle
        executes = [s for s in tracer.finished() if s.name == "worker.execute"]
        assigns = {s.span_id: s for s in tracer.finished()
                   if s.name == "assign"}
        assert len(executes) == len(jobs)
        for span in executes:
            parent = assigns.get(span.parent_id)
            assert parent is not None, "execute span lost its assign parent"
            assert span.trace_id == parent.trace_id
            assert span.attrs["job_id"] == parent.attrs["job_id"]

    def test_disabled_tracer_adds_no_wire_field(self, store_dir):
        # The duck-typed contract: with tracing off (the default), no
        # span is minted and no "trace" key rides on assignments.
        jobs, oracle = margin_case()
        dispatcher = ShardDispatcher(
            store=ResultCache(store_dir),
            heartbeat_interval=HEARTBEAT_INTERVAL,
        )
        with dispatcher:
            host, port = dispatcher.start()
            worker = Worker(host, port, store=ResultCache(store_dir))
            thread = threading.Thread(
                target=lambda: asyncio.run(worker.run()), daemon=True
            )
            thread.start()
            dispatcher.await_workers(1, timeout=30)
            merged = dispatcher.dispatch(
                list(jobs), decode=MarginTally.from_dict,
                merge=MarginTally.merge,
            )
        thread.join(timeout=10)
        assert digest_of(merged) == oracle
        assert dispatcher.tracer.finished() == []


class TestDagTraceAcceptance:
    """The PR's acceptance scenario: a chaos DAG run — one worker
    killed, one speculation — exports a Perfetto-loadable Chrome trace
    whose span tree covers every executed job exactly once, while the
    merged output stays byte-identical to the single-process oracle."""

    @staticmethod
    def _dag():
        analyzer = _analyzer()

        def margin_node(vdd):
            return job_node(
                f"margin@{vdd}",
                lambda upstream, v=vdd: margin_tally_jobs(
                    analyzer, v, analyzer.shard_plan(shards=3)
                ),
                decode=MarginTally.from_dict,
                merge=MarginTally.merge,
            )

        combine = reduce_node(
            "combine",
            lambda upstream: {
                name: tally.to_dict() for name, tally in upstream.items()
            },
            deps=["margin@0.65", f"margin@{VDD}"],
        )
        return DagRun(nodes=[margin_node(0.65), margin_node(VDD), combine])

    def test_chaos_dag_chrome_trace_covers_every_job_once(self, tmp_path):
        class _Local:
            def dispatch(self, jobs, decode=None, merge=None, timeout=None,
                         client="default"):
                values = [execute_job(job, None)[0] for job in jobs]
                if decode is not None:
                    values = [decode(v) for v in values]
                if merge is None:
                    return values
                return reduce(lambda a, h: merge([a, h]), values)

        oracle = digest_of(self._dag().run(_Local()))

        tracer = Tracer(enabled=True, deterministic=True)
        schedule = ChaosSchedule(
            events=(
                ChaosEvent(worker=0, after_jobs=0, action="kill"),
                ChaosEvent(worker=1, after_jobs=0, action="stall"),
            ),
            stall_seconds=2.0,
        )
        with tempfile.TemporaryDirectory() as store_dir:
            run = run_chaos_dag(
                self._dag(), schedule, store_dir, tracer=tracer
            )
        assert run.digest == oracle, "chaos DAG diverged from the oracle"
        assert run.stats.workers_lost >= 1, "the kill was not observed"
        assert run.stats.speculations >= 1, "the stall never speculated"
        # 2 margin nodes x 3 shards, each accepted exactly once.
        assert run.stats.completed == 6

        path = str(tmp_path / "chaos-dag-trace.json")
        count = tracer.write_chrome_trace(path)
        assert count == len(tracer.finished())

        checker = _load_check_artifacts()
        assert checker.check_chrome_trace(path) == []

        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        names = [e["name"] for e in events]
        assert names.count("dag.run") == 1
        assert {"dag.node:margin@0.65", f"dag.node:margin@{VDD}",
                "dag.node:combine"} <= set(names)
        job_ids = [e["args"]["job_id"] for e in events
                   if e["name"].startswith("job:")]
        assert len(job_ids) == 6
        assert len(set(job_ids)) == 6, "a job appears in two span trees"
        # Every job span hangs off a dispatch.run which hangs off a
        # DAG node span: one connected tree per trace.
        by_id = {e["args"]["span_id"]: e for e in events}
        for event in events:
            if not event["name"].startswith("job:"):
                continue
            parent = by_id.get(event["args"]["parent_id"])
            assert parent is not None and parent["name"] == "dispatch.run"
            node = by_id.get(parent["args"]["parent_id"])
            assert node is not None and node["name"].startswith("dag.node:")


@pytest.mark.parametrize("deterministic", [False, True])
def test_tracer_injection_does_not_leak_into_the_process_default(
    deterministic,
):
    from repro.obs.tracing import get_tracer

    Tracer(enabled=True, deterministic=deterministic)
    assert get_tracer().enabled is False
