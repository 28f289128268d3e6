"""Distributed shard dispatcher: multi-machine Monte-Carlo execution.

This subpackage takes the single-host sharding layer
(:mod:`repro.runtime.sharding`) across machine boundaries.  A
:class:`~repro.distributed.dispatcher.ShardDispatcher` farms
serializable :class:`~repro.distributed.jobs.ShardJob` descriptors to a
fleet of :class:`~repro.distributed.worker.Worker` processes over the
library's JSON-lines TCP protocol, and folds their tallies with the
same exact (grouping-independent) merge the local path uses — so a
distributed run is **bit-identical** to a monolithic one for any worker
count, any retry history and any cache state.

The pieces:

* the shared store — a :class:`~repro.runtime.cache.ResultCache`
  directory, the same content-addressed cache single-host sweeps
  write — that makes recomputation idempotent and lets local and
  distributed runs resume from each other's work;
* :mod:`~repro.distributed.jobs` — wire-format shard jobs plus the
  closed table of job kinds that run them (``JOB_KINDS``).  Three
  kinds — the whole circuit → memory system → NN pipeline of the
  paper: ``margin_tally`` (Monte-Carlo failure margins), ``is_shard``
  (importance-sampled points) and ``nn_fault_eval`` (NN accuracy under
  faults);
* :mod:`~repro.distributed.protocol` — the message vocabulary
  (register / ready / assign / result / heartbeat / stats);
* :mod:`~repro.distributed.client` — the reconnecting JSON-lines
  client and the ``stats`` probe helpers (``dispatch --stats``,
  ``top``);
* :mod:`~repro.distributed.dispatcher` /
  :mod:`~repro.distributed.worker` — the two processes, with
  heartbeat-based liveness, retry/reassignment of shards from dead
  workers, one FIFO job queue, speculative re-execution of stragglers
  (first bit-identical answer wins), and streaming merges;
* :mod:`~repro.distributed.dag` — cross-kind dependencies: a
  :class:`~repro.distributed.dag.DagRun` of named job/reduce nodes over
  one dispatcher, and :func:`~repro.distributed.dag.paper_pipeline_dag`
  (margin shards → rate tables → NN fault points as one DAG).

Deployment topology, failure semantics and the cache-store contract
are documented in ``docs/distributed.md``; the CLI front-ends are
``repro-sram dispatch`` and ``repro-sram worker``.
"""

from repro.distributed.dag import (
    DagNode,
    DagRun,
    job_node,
    paper_pipeline_dag,
    reduce_node,
)
from repro.distributed.dispatcher import ShardDispatcher
from repro.distributed.journal import (
    JournalReplay,
    RunJournal,
    job_address,
)
from repro.distributed.jobs import (
    JOB_KINDS,
    ShardJob,
    analyzer_from_spec,
    benchmark_model_spec,
    execute_job,
    is_shard_jobs,
    margin_tally_jobs,
    model_from_spec,
    nn_fault_eval_jobs,
    sampler_from_spec,
)
from repro.distributed.protocol import PROTOCOL_VERSION, ProtocolError
from repro.distributed.scheduler import DispatchError, DispatcherStats
from repro.distributed.worker import Worker, run_worker, worker_command
from repro.runtime.cache import ResultCache

#: Former name of the directory store, kept for existing callers.
DirectoryStore = ResultCache

__all__ = [
    "DagNode",
    "DagRun",
    "DispatchError",
    "DispatcherStats",
    "JOB_KINDS",
    "JournalReplay",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RunJournal",
    "ShardDispatcher",
    "ShardJob",
    "Worker",
    "analyzer_from_spec",
    "benchmark_model_spec",
    "execute_job",
    "is_shard_jobs",
    "job_address",
    "job_node",
    "margin_tally_jobs",
    "model_from_spec",
    "nn_fault_eval_jobs",
    "paper_pipeline_dag",
    "reduce_node",
    "run_worker",
    "sampler_from_spec",
    "worker_command",
]
