"""Tests of cross-kind DAG dispatch (:mod:`repro.distributed.dag`).

Validation is all-at-construction (duplicate names, unknown deps,
cycles); execution is checked end-to-end: the full paper pipeline —
margin shards → rate tables → ``nn_fault_eval`` points — run through
one real dispatcher must digest byte-identically to the phase-by-phase
single-process oracle.
"""

import os
from functools import reduce

import pytest

from repro.distributed.dag import (
    MAX_PARALLEL,
    DagNode,
    DagRun,
    job_node,
    paper_pipeline_dag,
    reduce_node,
)
from repro.distributed.jobs import benchmark_model_spec, execute_job
from repro.errors import ConfigurationError

from tests.distributed.chaos import digest_of
from tests.distributed.conftest import (
    BLOCK_SAMPLES,
    N_SAMPLES,
    WorkerThread,
    make_dispatcher,
)

VDD = 0.7

MODEL = benchmark_model_spec(
    profile="fast", n_train=120, n_val=40, n_test=160, epochs=1
)


@pytest.fixture(scope="module", autouse=True)
def _module_cache(tmp_path_factory):
    """Module-scoped REPRO_CACHE_DIR: the benchmark model trains once."""
    path = str(tmp_path_factory.mktemp("dag-cache"))
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = path
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class LocalDispatcher:
    """Phase-by-phase single-process oracle: a job node's jobs execute
    in-process with :func:`execute_job`, folded with the node's own
    decode/merge — no fleet, no store, no retries."""

    def dispatch(self, jobs, decode=None, merge=None, timeout=None,
                 client="default"):
        values = [execute_job(job, None)[0] for job in jobs]
        if decode is not None:
            values = [decode(v) for v in values]
        if merge is None:
            return list(values)
        return reduce(lambda acc, head: merge([acc, head]), values)


def _jobs_fn(upstream):  # placeholder for validation tests
    raise AssertionError("never dispatched")


class TestNodeValidation:
    def test_exactly_one_of_jobs_fn_and_compute(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            DagNode(name="both", jobs_fn=_jobs_fn, compute=lambda u: None)
        with pytest.raises(ConfigurationError, match="exactly one"):
            DagNode(name="neither")

    def test_reduce_node_cannot_fold(self):
        with pytest.raises(ConfigurationError, match="decode/merge/finalize"):
            DagNode(name="r", compute=lambda u: None, merge=lambda vs: None)

    def test_self_dependency_rejected(self):
        with pytest.raises(ConfigurationError, match="depends on itself"):
            DagNode(name="a", deps=("a",), compute=lambda u: None)

    def test_name_must_be_non_empty(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            DagNode(name="", compute=lambda u: None)


class TestDagValidation:
    def test_empty_dag_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one node"):
            DagRun(nodes=[])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate node name"):
            DagRun(nodes=[
                reduce_node("a", lambda u: 1),
                reduce_node("a", lambda u: 2),
            ])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown node 'ghost'"):
            DagRun(nodes=[reduce_node("a", lambda u: 1, deps=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(ConfigurationError, match="dependency cycle"):
            DagRun(nodes=[
                reduce_node("a", lambda u: 1, deps=("b",)),
                reduce_node("b", lambda u: 2, deps=("a",)),
            ])

    def test_names_are_topologically_ordered(self):
        dag = DagRun(nodes=[
            reduce_node("sink", lambda u: 3, deps=("mid",)),
            reduce_node("mid", lambda u: 2, deps=("source",)),
            reduce_node("source", lambda u: 1),
        ])
        names = dag.names
        assert names.index("source") < names.index("mid") < names.index("sink")


class TestDagExecution:
    def test_reduce_chain_threads_upstream_results(self):
        """A reduce-only DAG needs no dispatcher at all; each node sees
        exactly its declared dependencies' results."""
        seen = {}

        def tail(upstream):
            seen.update(upstream)
            return upstream["head"] + 1

        dag = DagRun(nodes=[
            reduce_node("head", lambda u: 41),
            reduce_node("tail", tail, deps=("head",)),
        ])
        results = dag.run(dispatcher=None)
        assert results == {"head": 41, "tail": 42}
        assert seen == {"head": 41}

    def test_diamond_runs_with_bounded_pool(self):
        """A diamond wider than the MAX_PARALLEL coordinator threads
        still completes (the topological-submission deadlock-freedom
        argument)."""
        def add(upstream):
            return sum(upstream.values())

        middle = [f"l{i}" for i in range(MAX_PARALLEL + 2)]
        dag = DagRun(nodes=[
            reduce_node("src", lambda u: 1),
            *(reduce_node(name, add, deps=("src",)) for name in middle),
            reduce_node("sink", add, deps=middle),
        ])
        assert dag.run(dispatcher=None)["sink"] == len(middle)

    def test_node_failure_propagates_by_name(self):
        def boom(upstream):
            raise RuntimeError("node exploded")

        dag = DagRun(nodes=[
            reduce_node("bad", boom),
            reduce_node("after", lambda u: 1, deps=("bad",)),
        ])
        with pytest.raises(RuntimeError, match="node exploded"):
            dag.run(dispatcher=None)

    def test_empty_job_list_is_a_configuration_error(self):
        dag = DagRun(nodes=[job_node("hollow", lambda upstream: [])])
        with pytest.raises(ConfigurationError, match="produced no jobs"):
            dag.run(dispatcher=None)


class TestPaperPipelineDag:
    def test_vdds_validated(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            paper_pipeline_dag(MODEL, [])
        with pytest.raises(ConfigurationError, match="ascending"):
            paper_pipeline_dag(MODEL, [0.7, 0.6])
        with pytest.raises(ConfigurationError, match="ascending"):
            paper_pipeline_dag(MODEL, [0.7, 0.7])

    def test_shape(self):
        dag = paper_pipeline_dag(MODEL, [0.6, VDD], n_samples=N_SAMPLES)
        names = dag.names
        assert set(names) == {
            "margin-6t-v0600", "margin-6t-v0700",
            "margin-8t-v0600", "margin-8t-v0700",
            "tables", "nn-fault",
        }
        assert names[-1] == "nn-fault"
        assert names.index("tables") > max(
            names.index(n) for n in names if n.startswith("margin-")
        )

    def test_end_to_end_matches_single_process_oracle(self, store_dir):
        """The acceptance bar: the whole pipeline through one real
        dispatcher and fleet digests identically to the phase-by-phase
        in-process run — every number of the paper's loop, one DAG."""
        dag = paper_pipeline_dag(
            MODEL, [VDD], rows=64, n_samples=N_SAMPLES,
            block_samples=BLOCK_SAMPLES, shards=3,
            n_trials=1, eval_seed=7, run_id="dagtest",
        )
        oracle = dag.run(LocalDispatcher())
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            workers = [
                WorkerThread(host, port, store_dir, name=f"w{i}")
                for i in range(2)
            ]
            dispatcher.await_workers(2, timeout=10)
            result = dag.run(dispatcher, timeout=120)
            stats = dispatcher.stats
        for worker in workers:
            worker.join()
        assert digest_of(result) == digest_of(oracle)
        assert set(result) == set(dag.names)
        # 3 margin shards x 2 kinds + 1 hybrid point + 1 baseline.
        assert stats.jobs == 8 and stats.completed == 8
        # The stats probe attributed each stage's queue to its node.
        labels = [doc["label"] for doc in result["nn-fault"]]
        assert labels == ["hybrid-v0700", "baseline"]

    def test_job_ids_are_node_scoped_and_run_tagged(self):
        dag = paper_pipeline_dag(
            MODEL, [VDD], n_samples=N_SAMPLES,
            block_samples=BLOCK_SAMPLES, shards=2, run_id="tag0",
        )
        margin_node = next(
            node for node in dag.nodes if node.name == "margin-6t-v0700"
        )
        ids = [job.job_id for job in margin_node.jobs_fn({})]
        assert ids == ["mt-tag06t0-0", "mt-tag06t0-1"]
