"""Serializable shard jobs and their worker-side execution registry.

A :class:`ShardJob` is everything a remote worker needs to recompute
one shard of work from scratch: a *kind* naming the compute function, a
kind-specific *spec* (for ``margin_tally`` exactly the fields of
:meth:`~repro.sram.montecarlo.MonteCarloAnalyzer.cache_payload`, so the
spec doubles as the population's cache identity), the shard's
:meth:`~repro.runtime.sharding.Shard.descriptor`, and the content
address (``namespace`` + ``payload``) the result is stored under in the
shared :class:`~repro.runtime.cache.CacheStore`.

The address is built with the *same* rule the single-host paths use,
which is the load-bearing design decision of the subsystem: a
distributed fleet, a local sharded run and a resumed run after a crash
all read and write the very same store entries, so work is never
repeated across execution modes.  The same property makes **speculative
re-execution** safe: two workers racing on one job produce identical
bytes at one address, so whichever answer arrives first is *the*
answer.

Execution is a registry keyed by ``kind``.  Four kinds ship — the whole
circuit → memory system → NN pipeline of the paper as distributable
units:

``margin_tally``
    One Monte-Carlo failure-margin shard
    (:func:`~repro.sram.montecarlo.tally_shard`); merges exactly via
    :meth:`~repro.sram.montecarlo.MarginTally.merge`.
``is_shard``
    One importance-sampled failure estimate
    (:meth:`~repro.sram.importance_sampling.ImportanceSampler.estimate`),
    sharing the ``is`` namespace with local
    :meth:`~repro.sram.importance_sampling.ImportanceSampler.estimate_sweep`
    caches.
``fault_block``
    A block of :class:`~repro.fault.evaluate.FaultTrialSpec` requests
    through :func:`~repro.fault.evaluate.evaluate_many_under_faults`;
    blocks concatenate (the batch split is proven not to change bits).
``nn_fault_eval``
    One NN fault-accuracy point
    (:func:`~repro.fault.evaluate.evaluate_under_faults`) against the
    cached benchmark model.

New kinds register a compute function (and optionally a construction-
time spec validator) via :func:`register_job_kind` without touching
dispatcher or worker code.
"""

from __future__ import annotations

import copy
import threading
import uuid
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.devices.technology import MosfetParams, Technology
from repro.errors import ConfigurationError
from repro.fault.evaluate import (
    FaultTrialSpec,
    evaluate_many_under_faults,
    evaluate_under_faults,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.rng import SeedLike, derive_seed, resolve_seed
from repro.runtime.cache import CacheStore
from repro.runtime.sharding import Shard, ShardedMonteCarlo, ShardPlan
from repro.sram.bitcell import make_cell
from repro.sram.failures import FailureType
from repro.sram.importance_sampling import ImportanceSampler
from repro.sram.montecarlo import MonteCarloAnalyzer, tally_shard
from repro.sram.read_path import BitlineModel
from repro.sram.sizing import CellSizing

#: Cache namespace of distributed margin tallies — deliberately the
#: same namespace :class:`~repro.runtime.sharding.ShardedMonteCarlo`
#: defaults to, so local and distributed runs share entries.
MARGIN_TALLY_NAMESPACE = "mcshard"

#: Namespace of importance-sampling points — the same namespace
#: ``ImportanceSampler.estimate_sweep(..., cache=...)`` writes, so
#: fleets resume local sweeps and vice versa.
IS_SHARD_NAMESPACE = "is"

#: Namespace of batched fault-trial blocks.
FAULT_BLOCK_NAMESPACE = "faultblock"

#: Namespace of NN fault-accuracy points.
NN_FAULT_EVAL_NAMESPACE = "nnfault"


@dataclass(frozen=True)
class JobKind:
    """One registered workload: its compute function and spec contract."""

    name: str
    compute: Callable[["ShardJob"], Any]
    validate_spec: Optional[Callable[[Dict[str, Any]], None]] = None


#: Registry of job kinds, keyed by kind name.
_JOB_KINDS: Dict[str, JobKind] = {}

_WIRE_FIELDS = (
    "job_id", "kind", "spec", "shard_index", "shard",
    "block_samples", "namespace", "payload",
)


def register_job_kind(
    kind: str,
    fn: Callable[["ShardJob"], Any],
    validate_spec: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> None:
    """Register (or replace) the compute function of one job kind.

    ``validate_spec`` (optional) runs at :class:`ShardJob` construction
    — dispatcher side *and* on the worker's ``from_wire`` — so a
    malformed spec fails loudly before any fleet time is spent on it.
    """
    _JOB_KINDS[kind] = JobKind(name=kind, compute=fn, validate_spec=validate_spec)


def registered_job_kinds() -> Tuple[str, ...]:
    """Sorted names of every registered job kind."""
    return tuple(sorted(_JOB_KINDS))


@dataclass(frozen=True)
class ShardJob:
    """One unit of distributable work: a shard of one population.

    ``payload`` is the result's full content address in the shared
    store; ``spec`` is the population identity the compute function
    rebuilds its inputs from.  Instances are immutable and fully
    JSON-serializable via :meth:`to_wire`/:meth:`from_wire`.
    """

    job_id: str
    kind: str
    spec: Dict[str, Any]
    shard_index: int
    shard: Dict[str, int]
    block_samples: int
    namespace: str
    payload: Dict[str, Any]

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be non-empty")
        if self.kind not in _JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; registered: "
                f"{', '.join(registered_job_kinds()) or '(none)'}"
            )
        if self.shard_index < 0:
            raise ConfigurationError(
                f"shard_index must be >= 0, got {self.shard_index}"
            )
        if self.block_samples < 1:
            raise ConfigurationError(
                f"block_samples must be positive, got {self.block_samples}"
            )
        # Descriptor validation: fail at construction (dispatcher side),
        # not on a remote worker mid-run.
        Shard.from_descriptor(
            self.shard, block_samples=self.block_samples, index=self.shard_index
        )
        validate = _JOB_KINDS[self.kind].validate_spec
        if validate is not None:
            validate(self.spec)

    def to_shard(self) -> Shard:
        """The :class:`~repro.runtime.sharding.Shard` this job computes."""
        return Shard.from_descriptor(
            self.shard, block_samples=self.block_samples, index=self.shard_index
        )

    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """JSON-able wire form (the ``job`` field of ``assign``)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "spec": self.spec,
            "shard_index": self.shard_index,
            "shard": dict(self.shard),
            "block_samples": self.block_samples,
            "namespace": self.namespace,
            "payload": self.payload,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "ShardJob":
        """Parse one wire object (validates through ``__post_init__``)."""
        missing = [f for f in _WIRE_FIELDS if f not in payload]
        if missing:
            raise ConfigurationError(
                f"job object lacks fields: {', '.join(missing)}"
            )
        return cls(
            job_id=str(payload["job_id"]),
            kind=str(payload["kind"]),
            spec=dict(payload["spec"]),
            shard_index=int(payload["shard_index"]),
            shard=dict(payload["shard"]),
            block_samples=int(payload["block_samples"]),
            namespace=str(payload["namespace"]),
            payload=dict(payload["payload"]),
        )


def execute_job(job: ShardJob, store: Optional[CacheStore]) -> Tuple[Any, bool]:
    """Run one job against the shared store (the worker's core loop).

    Returns ``(value, cached)``: a populated store address short-circuits
    the computation (``cached=True``) — the mechanism that keeps two
    workers sharing one store from recomputing each other's shards —
    otherwise the kind's compute function runs and its value is
    persisted before the wire ever sees it.
    """
    if store is not None:
        hit = store.get(job.namespace, job.payload)
        if hit is not None:
            return hit, True
    value = _JOB_KINDS[job.kind].compute(job)
    if store is not None:
        store.put(job.namespace, job.payload, value)
    return value, False


def _point_shard(index: int) -> Dict[str, int]:
    """Trivial one-block descriptor for point-shaped job kinds.

    ``is_shard``/``nn_fault_eval`` jobs are one indivisible point each;
    with ``block_samples=1`` this descriptor keeps the 8-field wire
    format (and protocol revision) unchanged across every kind.
    """
    return {"start_block": index, "n_blocks": 1, "n_samples": 1}


def _require_fields(kind: str, spec: Mapping[str, Any], fields: Sequence[str]) -> None:
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"{kind} spec must be a mapping, got {type(spec)!r}")
    missing = [f for f in fields if f not in spec]
    if missing:
        raise ConfigurationError(
            f"{kind} spec missing fields: {', '.join(missing)}"
        )


def _positive_number(kind: str, name: str, value: Any) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(
            f"{kind} spec {name} must be a positive number, got {value!r}"
        )
    return float(value)


def _strict_int(kind: str, name: str, value: Any, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigurationError(
            f"{kind} spec {name} must be an int >= {minimum}, got {value!r}"
        )
    return value


# ----------------------------------------------------------------------
# The "margin_tally" kind: Monte-Carlo failure-margin shards
# ----------------------------------------------------------------------
def analyzer_from_spec(spec: Dict[str, Any]) -> MonteCarloAnalyzer:
    """Rebuild a resolved analyzer from its ``cache_payload`` fields.

    Inverse of :meth:`~repro.sram.montecarlo.MonteCarloAnalyzer.cache_payload`
    for everything that defines the population (the ``vdd`` entry rides
    along untouched; ``rev`` is cache bookkeeping).  Raises
    :class:`~repro.errors.ConfigurationError` on a spec this library
    version cannot reproduce.
    """
    try:
        tech_fields = dict(spec["technology"])
        tech = Technology(
            **{
                **tech_fields,
                "nmos": MosfetParams(**tech_fields["nmos"]),
                "pmos": MosfetParams(**tech_fields["pmos"]),
            }
        )
        cell = make_cell(spec["kind"], tech, CellSizing(**spec["sizing"]))
        bitline = None
        if spec["bitline"] is not None:
            bitline = BitlineModel(
                tech,
                rows=int(spec["bitline"]["rows"]),
                port_width=spec["bitline"]["port_width"],
            )
        # Canonical margin backends never appear in the spec (they are
        # bit-identical, so the worker's own default applies); a
        # nonzero-rev backend travels with the population identity.
        kernel = spec.get("margin_kernel") or {}
        return MonteCarloAnalyzer(
            cell=cell,
            n_samples=int(spec["n_samples"]),
            bitline=bitline,
            seed=int(spec["seed"]),
            read_cycle=float(spec["read_cycle"]),
            block_samples=int(spec["block_samples"]),
            backend=kernel.get("backend"),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"margin-tally spec is not reconstructible: {exc!r}"
        ) from None


def _run_margin_tally(job: ShardJob) -> Dict[str, Any]:
    """Worker compute function: tally one shard, return its JSON form."""
    analyzer = analyzer_from_spec(job.spec)
    vdd = job.spec.get("vdd")
    if not isinstance(vdd, (int, float)) or isinstance(vdd, bool) or vdd <= 0:
        raise ConfigurationError(f"spec vdd must be a positive number, got {vdd!r}")
    return tally_shard(analyzer, float(vdd), job.to_shard()).to_dict()


register_job_kind("margin_tally", _run_margin_tally)


def margin_tally_jobs(
    analyzer: MonteCarloAnalyzer, vdd: float, plan: ShardPlan,
    run_id: Optional[str] = None,
) -> List[ShardJob]:
    """The job list of one distributed ``analyze_sharded`` voltage point.

    ``analyzer`` must be :meth:`~repro.sram.montecarlo.MonteCarloAnalyzer.resolved`
    (integer seed, concrete read cycle) so the spec round-trips exactly.
    Jobs come back in shard order — the order the dispatcher's streaming
    merge consumes — and each job's store address equals the one a local
    :meth:`~repro.sram.montecarlo.MonteCarloAnalyzer.analyze_sharded`
    run would use for the same shard.

    ``run_id`` tags the job ids (``mt-<run_id>-<shard>``); the default
    is a fresh random tag.  DAG runs pass deterministic node-scoped
    tags so concurrent nodes get readable, non-clashing ids — the tag
    never reaches the store address, which is content-only.
    """
    engine: ShardedMonteCarlo[Any] = ShardedMonteCarlo(
        plan, namespace=MARGIN_TALLY_NAMESPACE
    )
    spec = analyzer.cache_payload(vdd)
    run_id = run_id or uuid.uuid4().hex[:12]
    return [
        ShardJob(
            job_id=f"mt-{run_id}-{shard.index}",
            kind="margin_tally",
            spec=spec,
            shard_index=shard.index,
            shard=shard.descriptor(),
            block_samples=plan.block_samples,
            namespace=MARGIN_TALLY_NAMESPACE,
            payload=engine.shard_payload(spec, shard),
        )
        for shard in plan.shards()
    ]


# ----------------------------------------------------------------------
# The "is_shard" kind: importance-sampled failure estimates
# ----------------------------------------------------------------------
_IS_SHARD_FIELDS = (
    "technology", "kind", "sizing", "bitline", "read_cycle",
    "failure_type", "n_samples", "seed", "max_shift_sigma", "vdd",
)


def _validate_is_shard_spec(spec: Dict[str, Any]) -> None:
    _require_fields("is_shard", spec, _IS_SHARD_FIELDS)
    _positive_number("is_shard", "vdd", spec["vdd"])
    _positive_number("is_shard", "max_shift_sigma", spec["max_shift_sigma"])
    _strict_int("is_shard", "n_samples", spec["n_samples"], 100)
    _strict_int("is_shard", "seed", spec["seed"], 0)
    try:
        FailureType(spec["failure_type"])
    except ValueError:
        raise ConfigurationError(
            f"is_shard spec failure_type is unknown: {spec['failure_type']!r}"
        ) from None


def sampler_from_spec(spec: Dict[str, Any]) -> ImportanceSampler:
    """Rebuild an importance sampler from its ``point_payload`` fields.

    Inverse of
    :meth:`~repro.sram.importance_sampling.ImportanceSampler.point_payload`
    for everything that defines the estimator (the per-point fields —
    ``vdd``, ``n_samples``, ``seed``, ... — ride along untouched).
    """
    try:
        tech_fields = dict(spec["technology"])
        tech = Technology(
            **{
                **tech_fields,
                "nmos": MosfetParams(**tech_fields["nmos"]),
                "pmos": MosfetParams(**tech_fields["pmos"]),
            }
        )
        cell = make_cell(spec["kind"], tech, CellSizing(**spec["sizing"]))
        bitline = BitlineModel(
            tech,
            rows=int(spec["bitline"]["rows"]),
            port_width=spec["bitline"]["port_width"],
        )
        kernel = spec.get("margin_kernel") or {}
        return ImportanceSampler(
            cell,
            bitline=bitline,
            read_cycle=float(spec["read_cycle"]),
            backend=kernel.get("backend"),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"is-shard spec is not reconstructible: {exc!r}"
        ) from None


def _run_is_shard(job: ShardJob) -> Dict[str, Any]:
    """Worker compute function: one importance-sampled voltage point.

    The per-point seed derivation replicates
    ``ImportanceSampler.estimate_sweep`` exactly, so a fleet writes the
    very bytes a local sweep would cache for the same point.
    """
    spec = job.spec
    sampler = sampler_from_spec(spec)
    vdd = float(spec["vdd"])
    result = sampler.estimate(
        vdd,
        failure_type=FailureType(spec["failure_type"]),
        n_samples=int(spec["n_samples"]),
        seed=derive_seed(int(spec["seed"]), int(round(vdd * 1e6))),
        max_shift_sigma=float(spec["max_shift_sigma"]),
    )
    return result.to_dict()


register_job_kind("is_shard", _run_is_shard, validate_spec=_validate_is_shard_spec)


def is_shard_jobs(
    sampler: ImportanceSampler,
    vdds: Sequence[float],
    failure_type: FailureType = FailureType.READ_ACCESS,
    n_samples: int = 20000,
    seed: SeedLike = None,
    max_shift_sigma: float = 12.0,
    run_id: Optional[str] = None,
) -> List[ShardJob]:
    """One ``is_shard`` job per voltage point of an IS sweep.

    The spec *is* the point's cache payload, so the store address
    matches a local ``estimate_sweep(..., cache=...)`` run bit for bit.
    ``run_id`` tags the job ids (see :func:`margin_tally_jobs`).
    """
    if not vdds:
        raise ConfigurationError("vdds must be non-empty")
    base_seed = resolve_seed(seed)
    run_id = run_id or uuid.uuid4().hex[:12]
    jobs: List[ShardJob] = []
    for i, vdd in enumerate(vdds):
        spec = sampler.point_payload(
            float(vdd), failure_type, n_samples, base_seed, max_shift_sigma
        )
        jobs.append(
            ShardJob(
                job_id=f"is-{run_id}-{i}",
                kind="is_shard",
                spec=spec,
                shard_index=i,
                shard=_point_shard(i),
                block_samples=1,
                namespace=IS_SHARD_NAMESPACE,
                payload=spec,
            )
        )
    return jobs


# ----------------------------------------------------------------------
# Shared model spec of the NN-facing kinds
# ----------------------------------------------------------------------
_MODEL_SPEC_FIELDS = (
    "profile", "seed", "n_train", "n_val", "n_test", "epochs", "n_bits",
)


def _validate_model_spec(spec: Any) -> None:
    _require_fields("model", spec, _MODEL_SPEC_FIELDS)
    profile = spec["profile"]
    if profile is not None and not isinstance(profile, str):
        raise ConfigurationError(
            f"model spec profile must be a string or None, got {profile!r}"
        )
    _strict_int("model", "seed", spec["seed"], 0)
    for name in ("n_train", "n_val", "n_test", "epochs"):
        _strict_int("model", name, spec[name], 1)
    _strict_int("model", "n_bits", spec["n_bits"], 2)


def benchmark_model_spec(
    profile: Optional[str] = "fast",
    seed: int = 0,
    n_train: int = 6000,
    n_val: int = 500,
    n_test: int = 2000,
    epochs: int = 15,
    n_bits: int = 8,
) -> Dict[str, Any]:
    """Wire spec of one deterministic benchmark-model training run.

    Exactly the arguments of
    :func:`~repro.core.framework.train_benchmark_ann` that determine
    the trained weights; every worker building this spec gets a
    bit-identical model (training is seeded).  A worker process builds
    it once (see :func:`model_from_spec`), and with warm weights that
    build loads the on-disk weight cache and generates only the test
    split.
    """
    spec = {
        "profile": profile,
        "seed": int(seed),
        "n_train": int(n_train),
        "n_val": int(n_val),
        "n_test": int(n_test),
        "epochs": int(epochs),
        "n_bits": int(n_bits),
    }
    _validate_model_spec(spec)
    return spec


#: The last model :func:`model_from_spec` built, as ``(key, model)``.
#: Guarded by ``_MODEL_LOCK``, which is held across a build so that
#: concurrent jobs of one spec (in-process worker threads) wait for one
#: build instead of racing to repeat it.
_MODEL_LOCK = threading.Lock()
_model_memo: Optional[Tuple[Any, Any]] = None


def model_from_spec(spec: Dict[str, Any]) -> Any:
    """The spec's benchmark model, built once per process.

    The first call trains (or loads from the weight cache) the model;
    later calls with an equal spec reuse it.  The memo holds one model,
    keyed by the spec with ``profile=None`` resolved through
    ``REPRO_PROFILE``, and a build that raises leaves it empty.  Every
    caller gets its own copy of the network, because evaluation writes
    faulty weights into it; the quantized image and the dataset are
    shared and must be treated as read-only.
    """
    global _model_memo
    _validate_model_spec(spec)
    from repro.core.framework import resolve_profile, train_benchmark_ann

    args = {name: int(spec[name]) for name in _MODEL_SPEC_FIELDS[1:]}
    key = (resolve_profile(spec["profile"], seed=args["seed"]), args)
    with _MODEL_LOCK:
        if _model_memo is None or _model_memo[0] != key:
            _model_memo = None
            model = train_benchmark_ann(profile=spec["profile"], **args)
            _model_memo = (key, model)
        pristine = _model_memo[1]
    return replace(pristine, network=copy.deepcopy(pristine.network))


# ----------------------------------------------------------------------
# The "fault_block" kind: batched fault-trial evaluation
# ----------------------------------------------------------------------
def _validate_fault_block_spec(spec: Dict[str, Any]) -> None:
    _require_fields("fault_block", spec, ("model", "specs"))
    _validate_model_spec(spec["model"])
    trial_specs = spec["specs"]
    if not isinstance(trial_specs, (list, tuple)) or not trial_specs:
        raise ConfigurationError(
            "fault_block spec must carry a non-empty list of trial specs"
        )
    for doc in trial_specs:
        parsed = FaultTrialSpec.from_dict(doc)
        if parsed.n_trials <= 0:
            raise ConfigurationError(
                f"fault_block trial spec n_trials must be positive, "
                f"got {parsed.n_trials}"
            )


def _run_fault_block(job: ShardJob) -> List[Dict[str, Any]]:
    """Worker compute function: one contiguous block of fault trials.

    Returns the block's :class:`~repro.fault.evaluate.FaultEvaluation`
    list in spec order — ``evaluate_many_under_faults`` guarantees each
    element is bit-identical to a standalone evaluation, so any batch
    split concatenates to the same list.
    """
    spec = job.spec
    model = model_from_spec(spec["model"])
    trial_specs = [FaultTrialSpec.from_dict(doc) for doc in spec["specs"]]
    evaluations = evaluate_many_under_faults(
        model.network,
        model.image,
        trial_specs,
        model.dataset.x_test,
        model.dataset.y_test,
    )
    return [evaluation.to_dict() for evaluation in evaluations]


register_job_kind(
    "fault_block", _run_fault_block, validate_spec=_validate_fault_block_spec
)


def fault_block_jobs(
    model_spec: Dict[str, Any],
    trial_specs: Sequence[FaultTrialSpec],
    blocks: Optional[int] = None,
    max_block_specs: Optional[int] = None,
) -> List[ShardJob]:
    """Split a fault-trial batch into ``fault_block`` jobs.

    The split reuses :meth:`~repro.runtime.sharding.ShardPlan.plan`
    over the spec list (one spec per block), so block boundaries are
    deterministic; blocks concatenate in shard order back to the
    one-by-one oracle.  Each block's spec doubles as its content
    address: identical blocks — even from different runs or different
    splits that happen to align — dedupe in the store.
    """
    if not trial_specs:
        raise ConfigurationError("trial_specs must be non-empty")
    _validate_model_spec(model_spec)
    plan = ShardPlan.plan(
        n_samples=len(trial_specs),
        block_samples=1,
        shards=blocks,
        max_shard_samples=max_block_specs,
    )
    run_id = uuid.uuid4().hex[:12]
    jobs: List[ShardJob] = []
    for shard in plan.shards():
        block = [trial_specs[index].to_dict() for index, _ in shard.blocks]
        spec = {"model": dict(model_spec), "specs": block, "rev": 1}
        jobs.append(
            ShardJob(
                job_id=f"fb-{run_id}-{shard.index}",
                kind="fault_block",
                spec=spec,
                shard_index=shard.index,
                shard=shard.descriptor(),
                block_samples=1,
                namespace=FAULT_BLOCK_NAMESPACE,
                payload=spec,
            )
        )
    return jobs


def concat_blocks(blocks: Sequence[List[Any]]) -> List[Any]:
    """Exact merge of ``fault_block`` results: ordered concatenation.

    Matches the dispatcher's merge contract (a sequence of partials in,
    one value out — the same shape as
    :meth:`~repro.sram.montecarlo.MarginTally.merge`), so pass it as
    ``dispatcher.dispatch(jobs, merge=concat_blocks)``.
    """
    out: List[Any] = []
    for block in blocks:
        out.extend(block)
    return out


# ----------------------------------------------------------------------
# The "nn_fault_eval" kind: NN fault-accuracy points
# ----------------------------------------------------------------------
_NN_FAULT_EVAL_FIELDS = ("model", "rates", "n_trials", "seed", "vdd", "label")


def _validate_nn_fault_eval_spec(spec: Dict[str, Any]) -> None:
    _require_fields("nn_fault_eval", spec, _NN_FAULT_EVAL_FIELDS)
    _validate_model_spec(spec["model"])
    rates = spec["rates"]
    if rates is not None:
        if not isinstance(rates, (list, tuple)) or not rates:
            raise ConfigurationError(
                "nn_fault_eval spec rates must be None or a non-empty list"
            )
        for doc in rates:
            BitErrorRates.from_dict(doc)
    _strict_int("nn_fault_eval", "n_trials", spec["n_trials"], 1)
    seed = spec["seed"]
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigurationError(
            f"nn_fault_eval spec seed must be an int or None, got {seed!r}"
        )
    _positive_number("nn_fault_eval", "vdd", spec["vdd"])
    if not isinstance(spec["label"], str):
        raise ConfigurationError(
            f"nn_fault_eval spec label must be a string, got {spec['label']!r}"
        )


def _run_nn_fault_eval(job: ShardJob) -> Dict[str, Any]:
    """Worker compute function: one NN accuracy point under faults."""
    spec = job.spec
    model = model_from_spec(spec["model"])
    rates = spec["rates"]
    injector = (
        None
        if rates is None
        else WeightFaultInjector([BitErrorRates.from_dict(doc) for doc in rates])
    )
    evaluation = evaluate_under_faults(
        model.network,
        model.image,
        injector,
        model.dataset.x_test,
        model.dataset.y_test,
        n_trials=int(spec["n_trials"]),
        seed=spec["seed"],
    )
    return {
        "vdd": float(spec["vdd"]),
        "label": str(spec["label"]),
        "evaluation": evaluation.to_dict(),
    }


register_job_kind(
    "nn_fault_eval", _run_nn_fault_eval, validate_spec=_validate_nn_fault_eval_spec
)


def nn_fault_eval_jobs(
    model_spec: Dict[str, Any],
    points: Sequence[Mapping[str, Any]],
    run_id: Optional[str] = None,
) -> List[ShardJob]:
    """One ``nn_fault_eval`` job per accuracy point.

    Each point is a mapping with ``vdd`` (required), ``injector``
    (:class:`~repro.fault.injector.WeightFaultInjector` or ``None`` for
    the clean baseline), ``n_trials`` (default 5), ``seed`` (int or
    ``None``) and ``label`` (default ``point-<i>``).  Injectors
    serialize as their per-layer rate vectors, so workers never run the
    circuit-level Monte Carlo — the dispatcher side extracts rates from
    its memory architectures once.  ``run_id`` tags the job ids (see
    :func:`margin_tally_jobs`).
    """
    if not points:
        raise ConfigurationError("points must be non-empty")
    _validate_model_spec(model_spec)
    run_id = run_id or uuid.uuid4().hex[:12]
    jobs: List[ShardJob] = []
    for i, point in enumerate(points):
        if "vdd" not in point:
            raise ConfigurationError(f"point {i} lacks a vdd")
        injector = point.get("injector")
        rates = (
            None
            if injector is None
            else [r.to_dict() for r in injector.layer_rates]
        )
        spec = {
            "model": dict(model_spec),
            "rates": rates,
            "n_trials": int(point.get("n_trials", 5)),
            "seed": point.get("seed"),
            "vdd": float(point["vdd"]),
            "label": str(point.get("label", f"point-{i}")),
            "rev": 1,
        }
        jobs.append(
            ShardJob(
                job_id=f"nf-{run_id}-{i}",
                kind="nn_fault_eval",
                spec=spec,
                shard_index=i,
                shard=_point_shard(i),
                block_samples=1,
                namespace=NN_FAULT_EVAL_NAMESPACE,
                payload=spec,
            )
        )
    return jobs
