"""Chaos properties: every job kind merges exactly under any failure mix.

The subsystem's acceptance bar, stated as hypothesis properties: for
every registered job kind and *any* deterministic schedule of worker
misbehaviour (kill / stall / corrupt / disconnect, at any point in each
worker's job stream), the dispatched-and-merged output is byte-identical
to executing the same jobs in a single process.  Speculation, retries
and store dedupe may all fire along the way — none of them may change a
byte.

The oracle is uniform across kinds: run every job in-process with
:func:`~repro.distributed.jobs.execute_job`, apply the same
decode/merge the dispatcher would, digest the canonical JSON.
"""

import json
import os
import tempfile
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.devices import ptm22
from repro.distributed.jobs import (
    benchmark_model_spec,
    execute_job,
    is_shard_jobs,
    margin_tally_jobs,
    model_from_spec,
    nn_fault_eval_jobs,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.sram import make_cell
from repro.sram.importance_sampling import (
    ImportanceSampler,
    ImportanceSamplingResult,
)
from repro.sram.montecarlo import MarginTally, MonteCarloAnalyzer

from tests.distributed.chaos import (
    CHAOS_ACTIONS,
    ChaosEvent,
    ChaosScaleEvent,
    ChaosSchedule,
    digest_of,
    run_chaos_dag,
    run_chaos_fleet,
)
from tests.distributed.conftest import BLOCK_SAMPLES, N_SAMPLES

VDD = 0.7

#: Tiny benchmark model: trains in seconds, npz-cached after the first
#: build, and still exercises the full quantize→inject→evaluate path.
MODEL = benchmark_model_spec(
    profile="fast", n_train=120, n_val=40, n_test=160, epochs=1
)


@pytest.fixture(scope="module", autouse=True)
def _module_cache(tmp_path_factory):
    """One shared REPRO_CACHE_DIR for the module: the benchmark model
    trains once, then every worker (and oracle) loads cached weights."""
    path = str(tmp_path_factory.mktemp("chaos-cache"))
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = path
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


def oracle_for(jobs, decode=None, merge=None):
    """Single-process reference: execute, decode, fold — dispatcher-free."""
    values = [execute_job(job, None)[0] for job in jobs]
    if decode is not None:
        values = [decode(v) for v in values]
    if merge is None:
        return values
    return reduce(lambda acc, head: merge([acc, head]), values)


@lru_cache(maxsize=None)
def margin_case():
    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=N_SAMPLES, block_samples=BLOCK_SAMPLES,
    )
    resolved = analyzer.resolved()
    jobs = tuple(margin_tally_jobs(resolved, VDD, resolved.shard_plan(shards=4)))
    oracle = oracle_for(jobs, decode=MarginTally.from_dict,
                        merge=MarginTally.merge)
    return jobs, digest_of(oracle)


@lru_cache(maxsize=None)
def is_case():
    sampler = ImportanceSampler(make_cell("6t", ptm22()))
    jobs = tuple(is_shard_jobs(sampler, [0.65, VDD], n_samples=200, seed=11))
    oracle = oracle_for(jobs, decode=ImportanceSamplingResult.from_dict)
    return jobs, digest_of(oracle)


def _rates():
    return BitErrorRates(
        vdd=VDD, n_bits=8, msb_in_8t=2,
        p_read=np.full(8, 5e-3), p_write=np.full(8, 2e-3),
    )


@lru_cache(maxsize=None)
def nn_case():
    model = model_from_spec(MODEL)
    injector = WeightFaultInjector([_rates()] * model.image.n_layers)
    jobs = tuple(nn_fault_eval_jobs(MODEL, [
        {"vdd": VDD, "injector": injector, "n_trials": 2, "seed": 3,
         "label": "hybrid"},
        {"vdd": VDD, "injector": None, "n_trials": 1, "seed": 0,
         "label": "baseline"},
    ]))
    oracle = oracle_for(jobs)
    return jobs, digest_of(oracle)


class _LocalDispatcher:
    """Duck-typed stand-in for a DAG's dispatcher: every job node runs
    through the same in-process oracle as the flat cases."""

    def dispatch(self, jobs, decode=None, merge=None, timeout=None,
                 client="default"):
        return oracle_for(jobs, decode=decode, merge=merge)


@lru_cache(maxsize=None)
def dag_case():
    from repro.distributed.dag import paper_pipeline_dag

    model_from_spec(MODEL)  # warms the weight cache for the fleet
    dag = paper_pipeline_dag(
        MODEL, [0.65, VDD], rows=64, n_samples=N_SAMPLES,
        block_samples=BLOCK_SAMPLES, shards=3, n_trials=1, eval_seed=5,
        run_id="chaosdag",
    )
    return dag, digest_of(dag.run(_LocalDispatcher()))


@st.composite
def schedules(draw, max_workers=2, max_after=2, stall_seconds=0.6):
    """Any failure plan for a small fleet: 0..max_workers misbehaving
    workers, each with any action at any point in its job stream."""
    n = draw(st.integers(min_value=0, max_value=max_workers))
    events = tuple(
        ChaosEvent(
            worker=index,
            after_jobs=draw(st.integers(min_value=0, max_value=max_after)),
            action=draw(st.sampled_from(CHAOS_ACTIONS)),
        )
        for index in range(n)
    )
    return ChaosSchedule(events=events, stall_seconds=stall_seconds)


CHAOS_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run_and_check(case, schedule, decode=None, merge=None, **kwargs):
    jobs, oracle_digest = case()
    with tempfile.TemporaryDirectory() as store_dir:
        run = run_chaos_fleet(
            jobs, schedule, store_dir, decode=decode, merge=merge, **kwargs
        )
    context = (f" under [{schedule.describe()}]; stats {run.stats}; "
               f"digest {run.digest}, oracle {oracle_digest}")
    assert run.digest == oracle_digest, (
        f"merge diverged from the single-process oracle{context}"
    )
    # Exactly one accepted answer per job, however many were computed.
    assert run.stats.completed == len(jobs), (
        f"{run.stats.completed} of {len(jobs)} jobs completed{context}"
    )
    return run


class TestChaosProperties:
    @given(schedule=schedules())
    @settings(max_examples=6, **CHAOS_SETTINGS)
    def test_margin_tally_merges_exactly(self, schedule):
        run_and_check(margin_case, schedule,
                      decode=MarginTally.from_dict, merge=MarginTally.merge)

    @given(schedule=schedules(max_after=1))
    @settings(max_examples=4, **CHAOS_SETTINGS)
    def test_is_shard_merges_exactly(self, schedule):
        run_and_check(is_case, schedule,
                      decode=ImportanceSamplingResult.from_dict)

    @given(schedule=schedules(max_after=1))
    @settings(max_examples=3, **CHAOS_SETTINGS)
    def test_nn_fault_eval_merges_exactly(self, schedule):
        run_and_check(nn_case, schedule)


class TestChaosScenarios:
    """Pinned single-failure regressions (each action exercised once,
    with the stats assertions the property tests cannot make)."""

    def test_kill_on_first_assignment_is_reassigned(self):
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=0, action="kill"),)
        )
        run = run_and_check(margin_case, schedule,
                            decode=MarginTally.from_dict,
                            merge=MarginTally.merge)
        assert run.stats.retries >= 1
        assert run.stats.workers_lost >= 1

    def test_stall_triggers_speculation_and_backup_wins(self):
        """The straggler scenario speculation exists for: one worker
        sits on its shard for 2 s; with a 0.2 s cutoff the dispatcher
        duplicates the job onto the idle anchor, whose answer wins."""
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=0, action="stall"),),
            stall_seconds=2.0,
        )
        run = run_and_check(margin_case, schedule,
                            decode=MarginTally.from_dict,
                            merge=MarginTally.merge,
                            speculation_threshold=0.2)
        assert run.stats.speculations >= 1
        assert run.stats.speculative_wins >= 1
        assert run.stats.retries == 0  # speculation never burns retries
        assert run.stats.failures == 0

    def test_corrupt_stream_is_survived(self):
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=0, action="corrupt"),)
        )
        run = run_and_check(margin_case, schedule,
                            decode=MarginTally.from_dict,
                            merge=MarginTally.merge)
        assert run.stats.retries >= 1

    def test_disconnect_is_survived(self):
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=0, action="disconnect"),)
        )
        run = run_and_check(margin_case, schedule,
                            decode=MarginTally.from_dict,
                            merge=MarginTally.merge)
        assert run.stats.retries >= 1

    def test_is_jobs_match_local_estimate_sweep_under_chaos(self):
        """Cross-path identity: a chaos fleet's is_shard answers equal
        the local estimate_sweep numbers (same seed derivation)."""
        jobs, _ = is_case()
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=0, action="kill"),)
        )
        with tempfile.TemporaryDirectory() as store_dir:
            run = run_chaos_fleet(
                jobs, schedule, store_dir,
                decode=ImportanceSamplingResult.from_dict,
            )
        sampler = ImportanceSampler(make_cell("6t", ptm22()))
        local = sampler.estimate_sweep([0.65, VDD], n_samples=200, seed=11)
        assert [r.to_dict() for r in run.result] == [
            r.to_dict() for r in local
        ]


class TestDagScaleScenario:
    """The PR's acceptance scenario: the full paper pipeline runs as
    one DAG through one dispatcher while the fleet is killed, grown and
    drained mid-run — and not a byte moves."""

    def test_dag_scale_up_and_drain_mid_run_is_byte_identical(self):
        dag, oracle_digest = dag_case()
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=1, action="kill"),),
            scale_events=(
                ChaosScaleEvent(at_completed=2, action="spawn",
                                workers=2, max_jobs=3),
                ChaosScaleEvent(at_completed=6, action="drain", workers=1),
            ),
        )
        with tempfile.TemporaryDirectory() as store_dir:
            run = run_chaos_dag(dag, schedule, store_dir)
        assert run.digest == oracle_digest, (
            f"DAG merge diverged from the phase-by-phase oracle under "
            f"[{schedule.describe()}]"
        )
        # 2 kinds x 2 vdds x 3 margin shards + 2 hybrid + 1 baseline.
        assert run.stats.completed == 15
        assert run.stats.retries >= 1        # the kill's requeue
        assert run.stats.workers_lost >= 1
        assert any(line.startswith("spawn") for line in run.scale_log)
        assert any(line.startswith("drain") for line in run.scale_log)

    def test_scale_event_validation(self):
        with pytest.raises(ValueError, match="unknown scale action"):
            ChaosScaleEvent(at_completed=0, action="replace")
        with pytest.raises(ValueError, match="max_jobs"):
            ChaosScaleEvent(at_completed=0, action="drain", max_jobs=2)
        with pytest.raises(ValueError, match="workers >= 1"):
            ChaosScaleEvent(at_completed=0, action="spawn", workers=0)


class TestHarness:
    def test_schedule_rejects_duplicate_workers(self):
        with pytest.raises(ValueError, match="one chaos event per worker"):
            ChaosSchedule(events=(
                ChaosEvent(worker=0, after_jobs=0, action="kill"),
                ChaosEvent(worker=0, after_jobs=1, action="stall"),
            ))

    def test_event_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosEvent(worker=0, after_jobs=0, action="explode")

    def test_artifact_records_schedule_and_digest(self, tmp_path, monkeypatch):
        art_dir = tmp_path / "artifacts"
        monkeypatch.setenv("CHAOS_ARTIFACT_DIR", str(art_dir))
        schedule = ChaosSchedule(
            events=(ChaosEvent(worker=0, after_jobs=0, action="disconnect"),)
        )
        run = run_and_check(margin_case, schedule,
                            decode=MarginTally.from_dict,
                            merge=MarginTally.merge)
        assert run.artifact_path is not None
        with open(run.artifact_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["merged_digest"] == run.digest
        assert doc["schedule"] == schedule.to_dict()
        assert {j["kind"] for j in doc["jobs"]} == {"margin_tally"}
        assert doc["stats"]["completed"] == len(margin_case()[0])
