"""Tests of shard-job serialization and worker-side execution."""

import json
import os
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import framework
from repro.devices import ptm22
from repro.distributed import (
    ShardJob,
    analyzer_from_spec,
    benchmark_model_spec,
    execute_job,
    fault_block_jobs,
    is_shard_jobs,
    margin_tally_jobs,
    nn_fault_eval_jobs,
    register_job_kind,
    registered_job_kinds,
)
from repro.distributed import concat_blocks, model_from_spec, sampler_from_spec
from repro.distributed import jobs as jobs_module
from repro.distributed.jobs import _JOB_KINDS
from repro.errors import ConfigurationError
from repro.fault.evaluate import (
    FaultTrialSpec,
    evaluate_many_under_faults,
    evaluate_under_faults,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.runtime import ResultCache
from repro.runtime.sharding import ShardedMonteCarlo
from repro.sram import make_cell
from repro.sram.importance_sampling import ImportanceSampler
from repro.sram.montecarlo import MarginTally, MonteCarloAnalyzer, tally_shard

VDD = 0.7

#: Tiny model spec: job construction never trains it, and the tests
#: that execute NN jobs train it in about a second.
MODEL = benchmark_model_spec(profile="fast", n_train=120, n_val=40,
                             n_test=160, epochs=1)


def jobs_for(analyzer, shards=3):
    resolved = analyzer.resolved()
    plan = resolved.shard_plan(shards=shards)
    return resolved, plan, margin_tally_jobs(resolved, VDD, plan)


class TestShardJob:
    def test_wire_round_trip(self, dist_analyzer):
        _, _, jobs = jobs_for(dist_analyzer)
        for job in jobs:
            assert ShardJob.from_wire(job.to_wire()) == job

    def test_unknown_kind_rejected(self, dist_analyzer):
        _, _, (job, *_) = jobs_for(dist_analyzer)
        wire = job.to_wire()
        wire["kind"] = "quantum_tally"
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            ShardJob.from_wire(wire)

    def test_missing_fields_rejected(self, dist_analyzer):
        _, _, (job, *_) = jobs_for(dist_analyzer)
        wire = job.to_wire()
        del wire["payload"]
        with pytest.raises(ConfigurationError, match="lacks fields"):
            ShardJob.from_wire(wire)

    def test_inconsistent_descriptor_rejected(self, dist_analyzer):
        _, _, (job, *_) = jobs_for(dist_analyzer)
        wire = job.to_wire()
        wire["shard"] = {"start_block": 0, "n_blocks": 2, "n_samples": 10_000}
        with pytest.raises(ConfigurationError, match="inconsistent"):
            ShardJob.from_wire(wire)

    def test_to_shard_matches_plan(self, dist_analyzer):
        _, plan, jobs = jobs_for(dist_analyzer)
        assert [job.to_shard() for job in jobs] == list(plan.shards())


class TestAddressCompatibility:
    def test_payload_equals_local_sharded_address(self, dist_analyzer):
        """A distributed job writes to the exact store address a local
        ``analyze_sharded`` run uses — the cross-mode dedupe contract."""
        resolved, plan, jobs = jobs_for(dist_analyzer)
        engine = ShardedMonteCarlo(plan)
        spec = resolved.cache_payload(VDD)
        for job, shard in zip(jobs, plan.shards()):
            assert job.namespace == engine.namespace
            assert job.payload == engine.shard_payload(spec, shard)

    def test_job_ids_unique_and_ordered(self, dist_analyzer):
        _, _, jobs = jobs_for(dist_analyzer)
        assert len({job.job_id for job in jobs}) == len(jobs)
        assert [job.shard_index for job in jobs] == list(range(len(jobs)))


class TestAnalyzerFromSpec:
    def test_spec_round_trip(self, dist_analyzer):
        resolved = dist_analyzer.resolved()
        spec = resolved.cache_payload(VDD)
        rebuilt = analyzer_from_spec(spec)
        # The rebuilt analyzer addresses the same population: identical
        # cache payloads means identical streams, blocks and numbers.
        assert rebuilt.cache_payload(VDD) == spec

    def test_unreconstructible_spec_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="not reconstructible"):
            analyzer_from_spec({"technology": {}, "kind": "6t"})


class TestExecuteJob:
    def test_computes_the_reference_tally(self, dist_analyzer):
        resolved, plan, jobs = jobs_for(dist_analyzer)
        for job, shard in zip(jobs, plan.shards()):
            value, cached = execute_job(job, store=None)
            assert cached is False
            reference = tally_shard(resolved, VDD, shard).to_dict()
            assert value == reference

    def test_store_short_circuits_recomputation(self, dist_analyzer, store_dir):
        store = ResultCache(store_dir)
        _, _, (job, *_) = jobs_for(dist_analyzer)
        value, cached = execute_job(job, store)
        assert cached is False
        again, cached_again = execute_job(job, store)
        assert cached_again is True
        assert again == value
        # The cached dict decodes to the same exact tally.
        assert MarginTally.from_dict(again) == MarginTally.from_dict(value)

    def test_bad_vdd_in_spec_is_a_job_error(self, dist_analyzer):
        _, _, (job, *_) = jobs_for(dist_analyzer)
        wire = job.to_wire()
        wire["spec"] = {**wire["spec"], "vdd": -1.0}
        bad = ShardJob.from_wire(wire)
        with pytest.raises(ConfigurationError, match="vdd"):
            execute_job(bad, store=None)


# ----------------------------------------------------------------------
# Job-kind registry and the multi-workload wire format
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _resolved_analyzer():
    return MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()), n_samples=1200, block_samples=256
    ).resolved()


@lru_cache(maxsize=None)
def _sampler():
    return ImportanceSampler(make_cell("6t", ptm22()))


def _rates(p_read, p_write):
    return BitErrorRates(
        vdd=VDD, n_bits=8, msb_in_8t=2,
        p_read=np.full(8, p_read), p_write=np.full(8, p_write),
    )


@st.composite
def any_kind_jobs(draw):
    """One job of any registered kind, with drawn parameters.

    Construction only — no compute function ever runs, so the strategy
    is cheap enough to sweep every kind's parameter space.
    """
    kind = draw(st.sampled_from(registered_job_kinds()))
    if kind == "margin_tally":
        resolved = _resolved_analyzer()
        shards = draw(st.integers(min_value=1, max_value=5))
        jobs = margin_tally_jobs(
            resolved, VDD, resolved.shard_plan(shards=shards)
        )
    elif kind == "is_shard":
        n_points = draw(st.integers(min_value=1, max_value=4))
        jobs = is_shard_jobs(
            _sampler(),
            [0.6 + 0.05 * i for i in range(n_points)],
            n_samples=draw(st.integers(min_value=100, max_value=2000)),
            seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
            max_shift_sigma=draw(st.floats(min_value=4.0, max_value=14.0)),
        )
    elif kind == "fault_block":
        n_specs = draw(st.integers(min_value=1, max_value=6))
        with_injector = draw(st.booleans())
        injector = (
            WeightFaultInjector([_rates(5e-3, 2e-3)] * 2)
            if with_injector else None
        )
        specs = [
            FaultTrialSpec(
                injector=injector,
                n_trials=draw(st.integers(min_value=1, max_value=4)),
                seed=s,
            )
            for s in range(n_specs)
        ]
        jobs = fault_block_jobs(
            MODEL, specs,
            blocks=draw(st.integers(min_value=1, max_value=n_specs)),
        )
    else:  # nn_fault_eval
        n_points = draw(st.integers(min_value=1, max_value=3))
        points = []
        for i in range(n_points):
            clean = draw(st.booleans())
            points.append({
                "vdd": 0.6 + 0.05 * i,
                "injector": (
                    None if clean
                    else WeightFaultInjector([_rates(1e-2, 4e-3)] * 2)
                ),
                "n_trials": draw(st.integers(min_value=1, max_value=4)),
                "seed": draw(st.one_of(
                    st.none(), st.integers(min_value=0, max_value=1000)
                )),
                "label": f"point-{i}",
            })
        jobs = nn_fault_eval_jobs(MODEL, points)
    return draw(st.sampled_from(jobs))


class TestMultiKindWire:
    @given(job=any_kind_jobs())
    @settings(max_examples=60, deadline=None)
    def test_wire_round_trip_through_json(self, job):
        """Every kind survives the actual wire: to_wire → JSON text →
        from_wire reconstructs an equal job (validators and all)."""
        line = json.dumps(job.to_wire())
        assert ShardJob.from_wire(json.loads(line)) == job

    @given(job=any_kind_jobs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_missing_wire_field_rejected(self, job, data):
        wire = job.to_wire()
        del wire[data.draw(st.sampled_from(sorted(wire)))]
        with pytest.raises(ConfigurationError, match="lacks fields"):
            ShardJob.from_wire(wire)

    @given(job=any_kind_jobs(), kind=st.text(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_unknown_kinds_rejected(self, job, kind):
        if kind in registered_job_kinds():
            return
        wire = {**job.to_wire(), "kind": kind}
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            ShardJob.from_wire(wire)

    def test_all_four_kinds_registered(self):
        assert set(registered_job_kinds()) >= {
            "margin_tally", "is_shard", "fault_block", "nn_fault_eval",
        }

    def test_register_job_kind_validator_runs_at_construction(self):
        def reject_odd(spec):
            if spec.get("n") % 2:
                raise ConfigurationError("n must be even")

        register_job_kind("test_parity", lambda job: job.spec["n"],
                          validate_spec=reject_odd)
        try:
            good = ShardJob(
                job_id="t-0", kind="test_parity", spec={"n": 2},
                shard_index=0,
                shard={"start_block": 0, "n_blocks": 1, "n_samples": 1},
                block_samples=1, namespace="test", payload={"n": 2},
            )
            assert execute_job(good, store=None) == (2, False)
            with pytest.raises(ConfigurationError, match="must be even"):
                ShardJob(
                    job_id="t-1", kind="test_parity", spec={"n": 3},
                    shard_index=0,
                    shard={"start_block": 0, "n_blocks": 1, "n_samples": 1},
                    block_samples=1, namespace="test", payload={"n": 3},
                )
        finally:
            _JOB_KINDS.pop("test_parity", None)


class TestMalformedSpecs:
    """Every new kind's validator fires at construction, not on a worker."""

    def _mutated(self, jobs, **spec_updates):
        wire = jobs[0].to_wire()
        wire["spec"] = {**wire["spec"], **spec_updates}
        return wire

    def test_is_shard_missing_fields(self):
        jobs = is_shard_jobs(_sampler(), [VDD], n_samples=200, seed=1)
        wire = jobs[0].to_wire()
        wire["spec"] = {
            k: v for k, v in wire["spec"].items() if k != "failure_type"
        }
        with pytest.raises(ConfigurationError, match="missing fields"):
            ShardJob.from_wire(wire)

    @pytest.mark.parametrize("updates,match", [
        ({"vdd": -0.7}, "vdd"),
        ({"vdd": True}, "vdd"),
        ({"n_samples": 50}, "n_samples"),
        ({"n_samples": 200.0}, "n_samples"),
        ({"seed": -1}, "seed"),
        ({"max_shift_sigma": 0}, "max_shift_sigma"),
        ({"failure_type": "meltdown"}, "failure_type"),
    ])
    def test_is_shard_bad_values(self, updates, match):
        jobs = is_shard_jobs(_sampler(), [VDD], n_samples=200, seed=1)
        with pytest.raises(ConfigurationError, match=match):
            ShardJob.from_wire(self._mutated(jobs, **updates))

    def test_fault_block_empty_specs(self):
        specs = [FaultTrialSpec(injector=None, n_trials=1, seed=0)]
        jobs = fault_block_jobs(MODEL, specs, blocks=1)
        with pytest.raises(ConfigurationError, match="non-empty"):
            ShardJob.from_wire(self._mutated(jobs, specs=[]))

    def test_fault_block_bad_model_spec(self):
        specs = [FaultTrialSpec(injector=None, n_trials=1, seed=0)]
        jobs = fault_block_jobs(MODEL, specs, blocks=1)
        bad_model = {k: v for k, v in MODEL.items() if k != "epochs"}
        with pytest.raises(ConfigurationError, match="missing fields"):
            ShardJob.from_wire(self._mutated(jobs, model=bad_model))

    def test_fault_block_bad_trial_spec(self):
        specs = [FaultTrialSpec(injector=None, n_trials=1, seed=0)]
        jobs = fault_block_jobs(MODEL, specs, blocks=1)
        wire = self._mutated(jobs)
        wire["spec"]["specs"] = [
            {**wire["spec"]["specs"][0], "n_trials": 0}
        ]
        with pytest.raises(ConfigurationError, match="n_trials"):
            ShardJob.from_wire(wire)

    @pytest.mark.parametrize("updates,match", [
        ({"rates": []}, "rates"),
        ({"rates": [{"vdd": 0.7}]}, "."),
        ({"n_trials": 0}, "n_trials"),
        ({"seed": "entropy"}, "seed"),
        ({"vdd": -1.0}, "vdd"),
        ({"label": 7}, "label"),
    ])
    def test_nn_fault_eval_bad_values(self, updates, match):
        jobs = nn_fault_eval_jobs(MODEL, [{"vdd": VDD, "injector": None,
                                           "n_trials": 1, "seed": 0}])
        with pytest.raises(ConfigurationError, match=match):
            ShardJob.from_wire(self._mutated(jobs, **updates))

    def test_point_without_vdd_rejected(self):
        with pytest.raises(ConfigurationError, match="lacks a vdd"):
            nn_fault_eval_jobs(MODEL, [{"injector": None}])

    def test_sampler_spec_not_reconstructible_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="not reconstructible"):
            sampler_from_spec({"technology": {}, "kind": "6t"})

    def test_store_addresses_disjoint_across_kinds(self):
        """The four kinds write to four namespaces: a fleet mixing
        workloads can never alias one kind's result into another's."""
        is_jobs = is_shard_jobs(_sampler(), [VDD], n_samples=200, seed=1)
        fb_jobs = fault_block_jobs(
            MODEL, [FaultTrialSpec(injector=None, n_trials=1, seed=0)]
        )
        nn_jobs = nn_fault_eval_jobs(MODEL, [{"vdd": VDD, "injector": None}])
        resolved = _resolved_analyzer()
        mt_jobs = margin_tally_jobs(
            resolved, VDD, resolved.shard_plan(shards=1)
        )
        namespaces = {
            job.namespace
            for job in [*is_jobs, *fb_jobs, *nn_jobs, *mt_jobs]
        }
        assert namespaces == {"is", "faultblock", "nnfault", "mcshard"}


# ----------------------------------------------------------------------
# In-process execution of every kind (the worker's compute functions,
# checked against the library's direct call paths)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model_cache(tmp_path_factory):
    """Private weight cache: the tiny model trains once per module."""
    path = str(tmp_path_factory.mktemp("jobs-cache"))
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = path
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class TestExecuteAllKinds:
    def test_is_shard_matches_local_estimate_sweep(self):
        """A fleet's is_shard answers are the bytes a local sweep
        produces — same estimator rebuild, same per-point seed."""
        sampler = _sampler()
        vdds = [0.65, VDD]
        jobs = is_shard_jobs(sampler, vdds, n_samples=200, seed=11)
        local = sampler.estimate_sweep(vdds, n_samples=200, seed=11)
        for job, reference in zip(jobs, local):
            value, cached = execute_job(job, store=None)
            assert cached is False
            assert value == reference.to_dict()

    def test_fault_block_concatenates_to_direct_batch(self, model_cache):
        model = model_from_spec(MODEL)
        injector = WeightFaultInjector(
            [_rates(5e-3, 2e-3)] * model.image.n_layers
        )
        specs = [
            FaultTrialSpec(injector=injector, n_trials=1, seed=s)
            for s in range(3)
        ] + [FaultTrialSpec(injector=None, n_trials=1, seed=None)]
        jobs = fault_block_jobs(MODEL, specs, blocks=2)
        blocks = [execute_job(job, store=None)[0] for job in jobs]
        reference = [
            e.to_dict()
            for e in evaluate_many_under_faults(
                model.network, model.image, specs,
                model.dataset.x_test, model.dataset.y_test,
            )
        ]
        assert concat_blocks(blocks) == reference

    def test_nn_fault_eval_matches_direct_evaluation(self, model_cache):
        model = model_from_spec(MODEL)
        injector = WeightFaultInjector(
            [_rates(1e-2, 4e-3)] * model.image.n_layers
        )
        (job,) = nn_fault_eval_jobs(MODEL, [
            {"vdd": VDD, "injector": injector, "n_trials": 2, "seed": 7,
             "label": "hybrid"},
        ])
        value, cached = execute_job(job, store=None)
        assert cached is False
        reference = evaluate_under_faults(
            model.network, model.image, injector,
            model.dataset.x_test, model.dataset.y_test,
            n_trials=2, seed=7,
        )
        assert value == {
            "vdd": VDD, "label": "hybrid", "evaluation": reference.to_dict(),
        }


# ----------------------------------------------------------------------
# The per-process model memo behind model_from_spec
# ----------------------------------------------------------------------
@pytest.fixture()
def empty_memo(monkeypatch, model_cache):
    """A cold memo for one test (the previous entry comes back after)."""
    monkeypatch.setattr(jobs_module, "_model_memo", None)


@pytest.fixture()
def counted_builds(monkeypatch):
    """Every model build, recorded as its keyword arguments."""
    calls = []
    real = framework.train_benchmark_ann

    def counting(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(framework, "train_benchmark_ann", counting)
    return calls


class TestModelMemo:
    def test_calls_return_independent_networks(self, empty_memo):
        a = model_from_spec(MODEL)
        b = model_from_spec(MODEL)
        assert a.network is not b.network
        before = [layer.weights.copy() for layer in b.network.layers]
        injector = WeightFaultInjector([_rates(0.2, 0.1)] * a.image.n_layers)
        injector.inject(a.image, seed=1).apply_to(a.network)
        assert any(
            not np.array_equal(x.weights, y.weights)
            for x, y in zip(a.network.layers, b.network.layers)
        )
        for layer, weights in zip(b.network.layers, before):
            assert layer.weights.tobytes() == weights.tobytes()
        # A third caller still gets the pristine network.
        c = model_from_spec(MODEL)
        for layer, weights in zip(c.network.layers, before):
            assert layer.weights.tobytes() == weights.tobytes()

    def test_concurrent_jobs_match_serial_run(self, empty_memo):
        """In-process workers run jobs of one spec on concurrent threads
        (each faulting its own network); the answers stay the serial
        bytes, including when the threads race for the first build."""
        from concurrent.futures import ThreadPoolExecutor

        injector = WeightFaultInjector([_rates(1e-2, 4e-3)] * 5)
        nn_jobs = nn_fault_eval_jobs(MODEL, [
            {"vdd": VDD, "injector": injector, "n_trials": 2, "seed": s}
            for s in range(6)
        ] + [{"vdd": VDD, "injector": None, "n_trials": 1, "seed": 0}])
        fb_jobs = fault_block_jobs(MODEL, [
            FaultTrialSpec(injector=injector, n_trials=1, seed=s)
            for s in range(6)
        ], blocks=3)
        jobs = nn_jobs + fb_jobs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(execute_job, job, None) for job in jobs]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        serial = [execute_job(job, None) for job in jobs]
        assert json.dumps(threaded) == json.dumps(serial)

    def test_profile_none_follows_repro_profile(
        self, empty_memo, monkeypatch, counted_builds
    ):
        spec = {**MODEL, "profile": None}
        monkeypatch.setenv("REPRO_PROFILE", "fast")
        fast = model_from_spec(spec)
        assert model_from_spec({**MODEL, "profile": "fast"}).spec == fast.spec
        assert len(counted_builds) == 1
        monkeypatch.setenv("REPRO_PROFILE", "paper")
        paper = model_from_spec(spec)
        assert len(counted_builds) == 2
        assert fast.spec.layer_sizes[1] == 300
        assert paper.spec.layer_sizes[1] == 1000

    def test_failed_build_is_not_memoized(self, empty_memo, monkeypatch):
        calls = []
        real = framework.train_benchmark_ann

        def flaky(**kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise OSError("weight cache unreadable")
            return real(**kwargs)

        monkeypatch.setattr(framework, "train_benchmark_ann", flaky)
        with pytest.raises(OSError, match="unreadable"):
            model_from_spec(MODEL)
        assert jobs_module._model_memo is None
        model_from_spec(MODEL)
        model_from_spec(MODEL)
        assert len(calls) == 2

    def test_memo_holds_one_entry(self, empty_memo, counted_builds):
        other = {**MODEL, "n_test": 80}
        assert len(model_from_spec(MODEL).dataset.y_test) == 160
        assert len(model_from_spec(other).dataset.y_test) == 80
        key, model = jobs_module._model_memo
        assert len(model.dataset.y_test) == 80
        model_from_spec(MODEL)  # evicted by `other`: built again
        assert len(counted_builds) == 3

    def test_nn_fault_node_never_builds_a_model(self, empty_memo, monkeypatch):
        from repro.distributed.dag import paper_pipeline_dag
        from repro.mem import CellTables

        tables = CellTables.build(vdd_grid=(0.65, VDD), n_samples=1000,
                                  use_cache=False)

        def refuse(**kwargs):
            raise AssertionError("the coordinator built a model")

        monkeypatch.setattr(framework, "train_benchmark_ann", refuse)
        dag = paper_pipeline_dag(MODEL, [0.65, VDD], n_samples=1000)
        (node,) = [n for n in dag.nodes if n.name == "nn-fault"]
        jobs = node.jobs_fn({"tables": tables})
        n_weight_layers = len(framework.fast_ann_spec().layer_sizes) - 1
        assert [len(job.spec["rates"]) for job in jobs[:-1]] == [
            n_weight_layers, n_weight_layers,
        ]
        assert jobs[-1].spec["label"] == "baseline"
        assert jobs[-1].spec["rates"] is None
