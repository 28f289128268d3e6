"""Serializable shard jobs and the closed table of kinds that run them.

A :class:`ShardJob` is everything a remote worker needs to recompute
one shard of work from scratch: a *kind* naming the compute function, a
kind-specific *spec* (for ``margin_tally`` exactly the fields of
:meth:`~repro.sram.montecarlo.MonteCarloAnalyzer.cache_payload`, so the
spec doubles as the population's cache identity), the shard's
:meth:`~repro.runtime.sharding.Shard.descriptor`, and the content
address (``namespace`` + ``payload``) the result is stored under in the
shared :class:`~repro.runtime.cache.ResultCache`.

The address is built with the *same* rule the single-host paths use,
which is the load-bearing design decision of the subsystem: a
distributed fleet, a local sharded run and a resumed run after a crash
all read and write the very same store entries, so work is never
repeated across execution modes.  The same property makes **speculative
re-execution** safe: two workers racing on one job produce identical
bytes at one address, so whichever answer arrives first is *the*
answer.

Execution is one closed table keyed by ``kind`` (:data:`JOB_KINDS`
names them).  Three kinds — the whole circuit → memory system → NN
pipeline of the paper as distributable units:

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
``nn_fault_eval``
    One NN fault-accuracy point
    (:func:`~repro.fault.evaluate.evaluate_under_faults`) against the
    cached benchmark model.

The table pairs each kind's compute function with a declarative field
table for its spec, written in the same field rules that type the
8-field job envelope.  A malformed job — built locally, read off the
wire or replayed from a journal — fails with
:class:`~repro.errors.ConfigurationError` at construction, before any
fleet time is spent on it.  ``margin_tally`` is the exception: its spec
is checked when the worker rebuilds the analyzer
(:func:`analyzer_from_spec`).
"""

from __future__ import annotations

import math
import threading
import uuid
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.devices.technology import MosfetParams, Technology
from repro.errors import ConfigurationError
from repro.fault.evaluate import evaluate_under_faults
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.rng import SeedLike, derive_seed, resolve_seed
from repro.runtime.cache import CACHE_VERSION, ResultCache, content_key
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

#: Namespace of NN fault-accuracy points.
NN_FAULT_EVAL_NAMESPACE = "nnfault"


# ----------------------------------------------------------------------
# Field rules: the typed contract of envelope and spec fields
# ----------------------------------------------------------------------
#: A field rule is ``(expected, ok)``: ``ok(value)`` is true when the
#: value conforms, and ``expected`` completes the error message
#: ``"<where> <field> must be <expected>, got <value>"``.  A rule over
#: nested documents may instead raise its own, more specific error.
_Rule = Tuple[str, Callable[[Any], bool]]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_at_least(minimum: int) -> _Rule:
    return f"an int >= {minimum}", lambda v: _is_int(v) and v >= minimum


_POSITIVE: _Rule = ("a positive number", lambda v: (
    isinstance(v, (int, float)) and not isinstance(v, bool)
    and math.isfinite(v) and v > 0
))
_OPTIONAL_INT: _Rule = ("an int or None", lambda v: v is None or _is_int(v))
_STRING: _Rule = ("a string", lambda v: isinstance(v, str))
_NON_EMPTY_STRING: _Rule = (
    "a non-empty string", lambda v: isinstance(v, str) and bool(v)
)
_OPTIONAL_STRING: _Rule = (
    "a string or None", lambda v: v is None or isinstance(v, str)
)
_MAPPING: _Rule = ("a mapping", lambda v: isinstance(v, Mapping))
_FAILURE_TYPES = frozenset(member.value for member in FailureType)
_FAILURE_TYPE: _Rule = (
    f"one of {', '.join(sorted(_FAILURE_TYPES))}",
    lambda v: isinstance(v, str) and v in _FAILURE_TYPES,
)


def _check_fields(where: str, doc: Any, fields: Mapping[str, _Rule]) -> bool:
    """Check ``doc`` against a field table (extra fields pass).

    Raises :class:`~repro.errors.ConfigurationError` naming the first
    violation; returns ``True`` so a nested table is itself a rule.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError(f"{where} must be a mapping, got {type(doc)!r}")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise ConfigurationError(f"{where} missing fields: {', '.join(missing)}")
    for name, (expected, ok) in fields.items():
        if not ok(doc[name]):
            raise ConfigurationError(
                f"{where} {name} must be {expected}, got {doc[name]!r}"
            )
    return True


def _known_kind(value: Any) -> bool:
    if isinstance(value, str) and value in _KINDS:
        return True
    raise ConfigurationError(
        f"unknown job kind {value!r}; known: {', '.join(JOB_KINDS)}"
    )


#: The job envelope: the wire object's fields, in wire order.
_ENVELOPE_FIELDS: Dict[str, _Rule] = {
    "job_id": _NON_EMPTY_STRING,
    "kind": ("a job kind", _known_kind),
    "spec": _MAPPING,
    "shard_index": _int_at_least(0),
    "shard": _MAPPING,
    "block_samples": _int_at_least(1),
    "namespace": _STRING,
    "payload": _MAPPING,
}


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
        # Fail at construction (dispatcher side, or the worker's and the
        # journal's from_wire), not on a remote worker mid-run.
        _check_fields("ShardJob", vars(self), _ENVELOPE_FIELDS)
        self.to_shard()
        _check_fields(f"{self.kind} spec", self.spec,
                      _KINDS[self.kind].spec_fields)

    def to_shard(self) -> Shard:
        """The :class:`~repro.runtime.sharding.Shard` this job computes."""
        return Shard.from_descriptor(
            self.shard, block_samples=self.block_samples, index=self.shard_index
        )

    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """JSON-able wire form (the ``job`` field of ``assign``)."""
        return {name: getattr(self, name) for name in _ENVELOPE_FIELDS}

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "ShardJob":
        """Parse one wire object (validates through ``__post_init__``)."""
        missing = [name for name in _ENVELOPE_FIELDS if name not in payload]
        if missing:
            raise ConfigurationError(
                f"job object lacks fields: {', '.join(missing)}"
            )
        return cls(**{name: payload[name] for name in _ENVELOPE_FIELDS})


def job_address(job: ShardJob) -> Tuple[str, str]:
    """A job's store identity: ``(namespace, content key)``.

    Two jobs with equal addresses compute the same bytes — the property
    the whole subsystem leans on — so this is the key the dispatcher
    matches resubmitted jobs against replayed ones (job *ids* are
    per-run tags and differ across restarts).
    """
    return job.namespace, content_key(job.namespace, job.payload, CACHE_VERSION)


def execute_job(job: ShardJob, store: Optional[ResultCache]) -> Tuple[Any, bool]:
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
    value = _KINDS[job.kind].compute(job)
    if store is not None:
        store.put(job.namespace, job.payload, value)
    return value, False


def _point_job(kind: str, namespace: str, job_id: str, index: int,
               spec: Dict[str, Any]) -> ShardJob:
    """The job of point ``index``: its spec is its own store address,
    and the trivial one-block shard ``((index, 1),)`` keeps the 8-field
    wire format the same for the point-shaped kinds."""
    return ShardJob(
        job_id=job_id, kind=kind, spec=spec, shard_index=index,
        shard=Shard(index=index, blocks=((index, 1),)).descriptor(),
        block_samples=1, namespace=namespace, payload=spec,
    )


def _from_circuit_spec(
    label: str, spec: Mapping[str, Any],
    build: Callable[[Any, Optional[BitlineModel]], Any],
) -> Any:
    """``build(cell, bitline)`` from a spec's circuit fields.

    Rebuilds the technology, cell and (optional) bitline that
    ``cache_payload``/``point_payload`` serialize.  Margins have one
    canonical kernel, so no spec this library writes carries
    ``margin_kernel``; one that does asks for numerics this version
    does not have and is refused rather than computed as canonical.
    """
    if "margin_kernel" in spec:
        raise ConfigurationError(
            f"{label} spec names a margin kernel "
            f"({spec['margin_kernel']!r}); only the canonical margins "
            f"are computed"
        )
    try:
        tech_fields = spec["technology"]
        tech = Technology(**{
            **tech_fields,
            "nmos": MosfetParams(**tech_fields["nmos"]),
            "pmos": MosfetParams(**tech_fields["pmos"]),
        })
        cell = make_cell(spec["kind"], tech, CellSizing(**spec["sizing"]))
        bitline = spec["bitline"]
        if bitline is not None:
            bitline = BitlineModel(
                tech, rows=int(bitline["rows"]), port_width=bitline["port_width"]
            )
        return build(cell, bitline)
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"{label} spec is not reconstructible: {exc!r}"
        ) from None


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
    return _from_circuit_spec(
        "margin_tally",
        spec,
        lambda cell, bitline: MonteCarloAnalyzer(
            cell=cell,
            n_samples=int(spec["n_samples"]),
            bitline=bitline,
            seed=int(spec["seed"]),
            read_cycle=float(spec["read_cycle"]),
            block_samples=int(spec["block_samples"]),
        ),
    )


def _run_margin_tally(job: ShardJob) -> Dict[str, Any]:
    """Worker compute function: tally one shard, return its JSON form."""
    analyzer = analyzer_from_spec(job.spec)
    _check_fields("margin_tally spec", job.spec, {"vdd": _POSITIVE})
    return tally_shard(analyzer, float(job.spec["vdd"]), job.to_shard()).to_dict()


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
_IS_SHARD_FIELDS: Dict[str, _Rule] = {
    "technology": _MAPPING,
    "kind": _STRING,
    "sizing": _MAPPING,
    "bitline": _MAPPING,
    "read_cycle": _POSITIVE,
    "failure_type": _FAILURE_TYPE,
    "n_samples": _int_at_least(100),
    "seed": _int_at_least(0),
    "max_shift_sigma": _POSITIVE,
    "vdd": _POSITIVE,
}


def sampler_from_spec(spec: Dict[str, Any]) -> ImportanceSampler:
    """Rebuild an importance sampler from its ``point_payload`` fields.

    Inverse of
    :meth:`~repro.sram.importance_sampling.ImportanceSampler.point_payload`
    for everything that defines the estimator (the per-point fields —
    ``vdd``, ``n_samples``, ``seed``, ... — ride along untouched).
    """
    return _from_circuit_spec(
        "is_shard",
        spec,
        lambda cell, bitline: ImportanceSampler(
            cell, bitline=bitline, read_cycle=float(spec["read_cycle"])
        ),
    )


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
        n_samples=spec["n_samples"],
        seed=derive_seed(spec["seed"], int(round(vdd * 1e6))),
        max_shift_sigma=float(spec["max_shift_sigma"]),
    )
    return result.to_dict()


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
    return [
        _point_job(
            "is_shard", IS_SHARD_NAMESPACE, f"is-{run_id}-{i}", i,
            sampler.point_payload(
                float(vdd), failure_type, n_samples, base_seed, max_shift_sigma
            ),
        )
        for i, vdd in enumerate(vdds)
    ]


# ----------------------------------------------------------------------
# Shared model spec of the NN-facing kinds
# ----------------------------------------------------------------------
_MODEL_FIELDS: Dict[str, _Rule] = {
    "profile": _OPTIONAL_STRING,
    "seed": _int_at_least(0),
    "n_train": _int_at_least(1),
    "n_val": _int_at_least(1),
    "n_test": _int_at_least(1),
    "epochs": _int_at_least(1),
    "n_bits": _int_at_least(2),
}

_MODEL: _Rule = (
    "a model spec", lambda v: _check_fields("model spec", v, _MODEL_FIELDS)
)


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
    build loads the on-disk weights and test split.
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
    _check_fields("model spec", spec, _MODEL_FIELDS)
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
    caller gets the same model object: the job kinds that call this
    classify through ``evaluate_*_under_faults``, which never writes to
    the network, so the network, the quantized image and the dataset
    are shared and must be treated as read-only.
    """
    global _model_memo
    _check_fields("model spec", spec, _MODEL_FIELDS)
    from repro.core.framework import resolve_profile, train_benchmark_ann

    args = {name: spec[name] for name in _MODEL_FIELDS if name != "profile"}
    key = (resolve_profile(spec["profile"], seed=args["seed"]), args)
    with _MODEL_LOCK:
        if _model_memo is None or _model_memo[0] != key:
            _model_memo = None
            model = train_benchmark_ann(profile=spec["profile"], **args)
            _model_memo = (key, model)
        return _model_memo[1]


# ----------------------------------------------------------------------
# The "nn_fault_eval" kind: NN fault-accuracy points
# ----------------------------------------------------------------------
def _optional_rates(value: Any) -> bool:
    """``None`` or a non-empty list of ``BitErrorRates`` documents
    (``from_dict`` raises its own error on a bad one)."""
    if value is None:
        return True
    if not isinstance(value, (list, tuple)) or not value:
        return False
    for doc in value:
        BitErrorRates.from_dict(doc)
    return True


_NN_FAULT_EVAL_FIELDS: Dict[str, _Rule] = {
    "model": _MODEL,
    "rates": ("None or a non-empty list of bit-error rates", _optional_rates),
    "n_trials": _int_at_least(1),
    "seed": _OPTIONAL_INT,
    "vdd": _POSITIVE,
    "label": _STRING,
}


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
        n_trials=spec["n_trials"],
        seed=spec["seed"],
        reference=model.reference,
    )
    return {
        "vdd": float(spec["vdd"]),
        "label": spec["label"],
        "evaluation": evaluation.to_dict(),
    }


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
    _check_fields("model spec", model_spec, _MODEL_FIELDS)
    run_id = run_id or uuid.uuid4().hex[:12]
    jobs: List[ShardJob] = []
    for i, point in enumerate(points):
        if "vdd" not in point:
            raise ConfigurationError(f"point {i} lacks a vdd")
        injector = point.get("injector")
        spec = {
            "model": dict(model_spec),
            "rates": (
                None
                if injector is None
                else [r.to_dict() for r in injector.layer_rates]
            ),
            "n_trials": int(point.get("n_trials", 5)),
            "seed": point.get("seed"),
            "vdd": float(point["vdd"]),
            "label": str(point.get("label", f"point-{i}")),
            "rev": 1,
        }
        jobs.append(_point_job(
            "nn_fault_eval", NN_FAULT_EVAL_NAMESPACE, f"nf-{run_id}-{i}", i,
            spec,
        ))
    return jobs


# ----------------------------------------------------------------------
# The closed table of job kinds
# ----------------------------------------------------------------------
class _Kind(NamedTuple):
    compute: Callable[[ShardJob], Any]
    #: Checked at construction; margin_tally's spec is checked when
    #: the worker rebuilds its analyzer instead.
    spec_fields: Dict[str, _Rule]


_KINDS: Dict[str, _Kind] = {
    "margin_tally": _Kind(_run_margin_tally, {}),
    "is_shard": _Kind(_run_is_shard, _IS_SHARD_FIELDS),
    "nn_fault_eval": _Kind(_run_nn_fault_eval, _NN_FAULT_EVAL_FIELDS),
}

#: Every job kind, in pipeline order.
JOB_KINDS: Tuple[str, ...] = tuple(_KINDS)
