"""Cross-kind DAG dispatch: the paper pipeline as one distributed run.

The dispatcher executes flat job lists; the paper's pipeline is not
flat.  Margin shards determine failure rates, failure rates become the
rate tables, rate tables parameterize the fault injectors whose
``nn_fault_eval`` points close the loop — each stage's *job specs* are
built from the previous stage's *merged results*.  A :class:`DagRun`
captures that shape: named nodes with explicit dependencies, where a
node either dispatches jobs through the shared
:class:`~repro.distributed.dispatcher.ShardDispatcher` (a *job node*)
or runs a pure reduction on the coordinator (a *reduce node*).

Independent nodes dispatch concurrently under per-node client names:
their jobs share the dispatcher's FIFO queue, and the ``stats`` probe
shows each node's queue depth separately.  Byte-identity carries over
from the flat layer: every job spec doubles as its content address, so
a DAG run resumes from (and feeds) the same store entries as the
equivalent phase-by-phase run.

:func:`paper_pipeline_dag` instantiates the shape for the paper: one
``margin_tally`` node per (cell kind, voltage), each finalized to its
table point (rates plus power models), a ``tables`` reduction that
assembles the points with the table pieces of
:mod:`repro.sram.characterize` (the same ones
:meth:`~repro.mem.tables.CellTables.build` runs, shared 6T read budget
included), and an ``nn_fault_eval`` node whose injectors come from
:func:`~repro.fault.model.word_bit_error_rates` over the reduced
tables.
"""

from __future__ import annotations

import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.devices.technology import Technology, ptm22
from repro.errors import ConfigurationError
from repro.obs.tracing import get_tracer
from repro.rng import DEFAULT_SEED
from repro.sram.bitcell import make_cell
from repro.sram.characterize import (
    CharacterizationPoint,
    cell_analyzer,
    hybrid_read_cycle,
    point_from_rates,
    table_from_points,
)
from repro.sram.montecarlo import (
    MarginTally,
    MonteCarloAnalyzer,
    _rates_from_tally,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import word_bit_error_rates
from repro.mem.tables import CellTables

from repro.distributed.dispatcher import ShardDispatcher
from repro.distributed.jobs import (
    ShardJob,
    margin_tally_jobs,
    nn_fault_eval_jobs,
)

__all__ = ["DagNode", "DagRun", "job_node", "reduce_node", "paper_pipeline_dag"]

#: ``jobs_fn(upstream) -> jobs``: build a node's job list from the
#: results of its dependencies (keyed by dependency name).
JobsFn = Callable[[Mapping[str, Any]], Sequence[ShardJob]]

#: Coordinator threads one :meth:`DagRun.run` executes nodes on.
MAX_PARALLEL = 4


@dataclass(frozen=True)
class DagNode:
    """One named stage of a :class:`DagRun`.

    Exactly one of ``jobs_fn`` (job node: dispatch ``jobs_fn(upstream)``
    through the fleet, fold with ``decode``/``merge``, post-process with
    ``finalize``) or ``compute`` (reduce node: run
    ``compute(upstream)`` on the coordinator) must be set.  ``upstream``
    is always the dict of *declared* dependency results — undeclared
    coupling is unrepresentable by construction.
    """

    name: str
    deps: Tuple[str, ...] = ()
    jobs_fn: Optional[JobsFn] = None
    decode: Optional[Callable[[Any], Any]] = None
    merge: Optional[Callable[[Sequence[Any]], Any]] = None
    finalize: Optional[Callable[[Any, Mapping[str, Any]], Any]] = None
    compute: Optional[Callable[[Mapping[str, Any]], Any]] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"node name must be a non-empty string, got {self.name!r}")
        if (self.jobs_fn is None) == (self.compute is None):
            raise ConfigurationError(
                f"node {self.name!r} must set exactly one of jobs_fn (job "
                f"node) or compute (reduce node)"
            )
        if self.compute is not None and (
            self.decode is not None or self.merge is not None
            or self.finalize is not None
        ):
            raise ConfigurationError(
                f"reduce node {self.name!r} cannot set decode/merge/finalize"
            )
        if self.name in self.deps:
            raise ConfigurationError(f"node {self.name!r} depends on itself")


def job_node(
    name: str,
    jobs_fn: JobsFn,
    deps: Sequence[str] = (),
    decode: Optional[Callable[[Any], Any]] = None,
    merge: Optional[Callable[[Sequence[Any]], Any]] = None,
    finalize: Optional[Callable[[Any, Mapping[str, Any]], Any]] = None,
) -> DagNode:
    """A node that dispatches ``jobs_fn(upstream)`` through the fleet."""
    return DagNode(
        name=name, deps=tuple(deps), jobs_fn=jobs_fn, decode=decode,
        merge=merge, finalize=finalize,
    )


def reduce_node(
    name: str,
    compute: Callable[[Mapping[str, Any]], Any],
    deps: Sequence[str] = (),
) -> DagNode:
    """A node that runs ``compute(upstream)`` on the coordinator."""
    return DagNode(name=name, deps=tuple(deps), compute=compute)


@dataclass
class DagRun:
    """A validated DAG of :class:`DagNode` stages over one dispatcher.

    Validation happens at construction: names must be unique, every
    dependency must name a node, and the graph must be acyclic.
    :meth:`run` executes nodes as their dependencies complete — ready
    job nodes dispatch concurrently (on at most :data:`MAX_PARALLEL`
    coordinator threads), each under client name ``dag:<node>`` so the
    ``stats`` probe attributes queue depth per stage.  Node failures
    propagate: the first failing node's exception is raised and its
    dependents never start.
    """

    nodes: Sequence[DagNode]
    _order: List[DagNode] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("a DagRun needs at least one node")
        by_name: Dict[str, DagNode] = {}
        for node in self.nodes:
            if node.name in by_name:
                raise ConfigurationError(f"duplicate node name {node.name!r}")
            by_name[node.name] = node
        for node in self.nodes:
            for dep in node.deps:
                if dep not in by_name:
                    raise ConfigurationError(
                        f"node {node.name!r} depends on unknown node {dep!r}"
                    )
        # Kahn's algorithm: a topological order both proves acyclicity
        # and gives the submission order run() relies on (a node is
        # always submitted after every one of its dependencies).
        remaining = {n.name: set(n.deps) for n in self.nodes}
        order: List[DagNode] = []
        while remaining:
            ready = sorted(name for name, deps in remaining.items() if not deps)
            if not ready:
                cycle = ", ".join(sorted(remaining))
                raise ConfigurationError(f"dependency cycle among: {cycle}")
            for name in ready:
                del remaining[name]
                order.append(by_name[name])
            for deps in remaining.values():
                deps.difference_update(ready)
        self._order = order

    @property
    def names(self) -> List[str]:
        """Node names in a valid execution (topological) order."""
        return [node.name for node in self._order]

    def run(
        self,
        dispatcher: ShardDispatcher,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Execute the DAG; returns ``{node name: node result}``.

        ``dispatcher`` must be started.  ``timeout``
        bounds each job node's dispatch call, not the whole run.
        """
        futures: Dict[str, Future] = {}
        # Duck-typed stand-in dispatchers (tests, local oracles) may lack
        # the observability surface — fall back to the process default.
        tracer = getattr(dispatcher, "tracer", None)
        if tracer is None:
            tracer = get_tracer()
        dag_span = tracer.start_span(
            "dag.run", attrs={"nodes": len(self._order)}
        )

        def _execute(node: DagNode) -> Any:
            upstream = {dep: futures[dep].result() for dep in node.deps}
            with tracer.start_span(
                f"dag.node:{node.name}",
                parent=dag_span,
                attrs={"deps": list(node.deps)},
            ) as node_span:
                if node.compute is not None:
                    return node.compute(upstream)
                assert node.jobs_fn is not None
                jobs = list(node.jobs_fn(upstream))
                if not jobs:
                    raise ConfigurationError(
                        f"node {node.name!r} produced no jobs"
                    )
                extra: Dict[str, Any] = {}
                ctx = node_span.context()
                if ctx is not None:
                    # Only real spans thread through: keeps stand-in
                    # dispatchers without the kwarg working untraced.
                    extra["trace_parent"] = ctx
                merged = dispatcher.dispatch(
                    jobs, decode=node.decode, merge=node.merge,
                    timeout=timeout, client=f"dag:{node.name}", **extra,
                )
                if node.finalize is not None:
                    return node.finalize(merged, upstream)
                return merged

        # Submission in topological order makes the bounded pool
        # deadlock-free: FIFO pickup means a node only ever blocks on
        # dependencies that started strictly earlier, so the earliest
        # unfinished node is always actively running.
        try:
            with ThreadPoolExecutor(
                max_workers=min(MAX_PARALLEL, len(self._order)),
                thread_name_prefix="repro-dag",
            ) as pool:
                for node in self._order:
                    futures[node.name] = pool.submit(_execute, node)
                # Surface the first failure in dependency order (its
                # dependents fail with the same exception when they wait).
                for node in self._order:
                    futures[node.name].result()
        except BaseException:
            dag_span.end(status="error")
            raise
        dag_span.end()
        return {name: future.result() for name, future in futures.items()}


def _margin_node_tag(vdd: float) -> str:
    """A compact, filesystem/id-safe voltage tag (0.7 -> ``v0700``)."""
    return f"v{int(round(float(vdd) * 1000)):04d}"


def paper_pipeline_dag(
    model_spec: Dict[str, Any],
    vdds: Sequence[float],
    technology: Optional[Technology] = None,
    rows: int = 256,
    n_samples: int = 20000,
    seed: int = DEFAULT_SEED,
    block_samples: Optional[int] = None,
    shards: Optional[int] = None,
    max_shard_samples: Optional[int] = None,
    n_bits: int = 8,
    msb_in_8t: int = 3,
    n_trials: int = 5,
    eval_seed: Optional[int] = None,
    include_baseline: bool = True,
    run_id: Optional[str] = None,
) -> DagRun:
    """The full paper pipeline as one :class:`DagRun`.

    Nodes: ``margin-{6t,8t}-v<mV>`` (one ``margin_tally`` shard fan-out
    per cell kind and voltage, finalized to its
    :class:`~repro.sram.characterize.CharacterizationPoint`), ``tables``
    (reduce: the 6T/8T :class:`~repro.mem.tables.CellTables` under the
    shared 6T read budget, built from the analyzers and table pieces
    :meth:`~repro.mem.tables.CellTables.build` uses, so the margin
    shards share cache addresses with it),
    and ``nn-fault`` (one ``nn_fault_eval`` point per voltage, hybrid
    word layout ``msb_in_8t``/``n_bits``, plus a clean baseline when
    ``include_baseline``).

    The result dict's ``"nn-fault"`` entry is the list of accuracy-point
    documents in voltage order (baseline last); ``"tables"`` is the
    :class:`~repro.mem.tables.CellTables`.  Byte-identity: every number
    equals the phase-by-phase single-process computation, for any fleet
    size, retry schedule, or scale event.

    ``run_id`` tags job ids (``mt-<run_id><kind><i>-<shard>``); the
    default is random so concurrent runs on one dispatcher cannot
    clash.  Specs — and therefore store addresses — never depend on it.
    """
    if not vdds:
        raise ConfigurationError("vdds must be non-empty")
    vdd_list = [float(v) for v in vdds]
    if sorted(vdd_list) != vdd_list or len(set(vdd_list)) != len(vdd_list):
        raise ConfigurationError("vdds must be strictly ascending")
    tag = run_id or uuid.uuid4().hex[:8]

    tech = technology or ptm22()
    # Both cells run against the 6T read budget, as in CellTables.build,
    # so the margin shards here have the store addresses a local build
    # writes.
    budget = hybrid_read_cycle(tech, rows)
    analyzers = {
        kind: cell_analyzer(
            make_cell(kind, tech), tech, rows=rows, n_samples=n_samples,
            seed=seed, read_cycle=budget, block_samples=block_samples,
        )
        for kind in ("6t", "8t")
    }

    nodes: List[DagNode] = []
    margin_names: Dict[str, List[str]] = {kind: [] for kind in analyzers}
    for kind, analyzer in analyzers.items():
        for i, vdd in enumerate(vdd_list):
            name = f"margin-{kind}-{_margin_node_tag(vdd)}"
            margin_names[kind].append(name)

            def _margin_jobs(
                upstream: Mapping[str, Any],
                analyzer: MonteCarloAnalyzer = analyzer,
                vdd: float = vdd,
                node_tag: str = f"{tag}{kind}{i}",
            ) -> List[ShardJob]:
                plan = analyzer.shard_plan(
                    shards=shards, max_shard_samples=max_shard_samples
                )
                return margin_tally_jobs(analyzer, vdd, plan, run_id=node_tag)

            def _margin_point(
                tally: MarginTally, upstream: Mapping[str, Any],
                analyzer: MonteCarloAnalyzer = analyzer,
                vdd: float = vdd,
            ) -> CharacterizationPoint:
                # Rates and power here, on this node's thread, so the
                # tables reduce has only assembly left to do.
                rates = _rates_from_tally(vdd, tally)
                return point_from_rates(analyzer, rows, vdd, rates)

            nodes.append(job_node(
                name, _margin_jobs,
                decode=MarginTally.from_dict,
                merge=MarginTally.merge,
                finalize=_margin_point,
            ))

    def _build_tables(upstream: Mapping[str, Any]) -> CellTables:
        tables = {
            kind: table_from_points(
                analyzer, tech, rows,
                [upstream[name] for name in margin_names[kind]],
            )
            for kind, analyzer in analyzers.items()
        }
        return CellTables(table_6t=tables["6t"], table_8t=tables["8t"])

    nodes.append(reduce_node(
        "tables", _build_tables,
        deps=sorted(n for names in margin_names.values() for n in names),
    ))

    def _nn_fault_jobs(upstream: Mapping[str, Any]) -> List[ShardJob]:
        from repro.core.framework import resolve_profile

        tables: CellTables = upstream["tables"]
        # One rate vector per weight layer; the coordinator needs only
        # the layer count, never the model itself.
        n_layers = len(resolve_profile(model_spec["profile"]).layer_sizes) - 1
        points: List[Dict[str, Any]] = []
        for vdd in vdd_list:
            rates = word_bit_error_rates(
                vdd, tables.table_6t, tables.table_8t,
                n_bits=n_bits, msb_in_8t=msb_in_8t,
            )
            points.append({
                "vdd": vdd,
                "injector": WeightFaultInjector([rates] * n_layers),
                "n_trials": n_trials,
                "seed": eval_seed,
                "label": f"hybrid-{_margin_node_tag(vdd)}",
            })
        if include_baseline:
            points.append({
                "vdd": vdd_list[-1], "injector": None,
                "n_trials": n_trials, "seed": eval_seed,
                "label": "baseline",
            })
        return nn_fault_eval_jobs(model_spec, points, run_id=f"{tag}nn")

    nodes.append(job_node("nn-fault", _nn_fault_jobs, deps=("tables",)))
    return DagRun(nodes)
