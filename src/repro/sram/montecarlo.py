"""Monte-Carlo bitcell failure-rate estimation (paper Fig. 5).

The analyzer draws Pelgrom-scaled ΔVT samples for every transistor of a
cell, evaluates the static failure margins of
:mod:`repro.sram.failures`, and reports per-mechanism failure
probabilities.  Two estimators are combined:

* **empirical** — failing-sample fraction; unbiased but cannot resolve
  probabilities far below ``1 / n_samples``;
* **Gaussian tail** — fit mean/std of the margin distribution and
  evaluate ``P(margin < 0)`` with the normal CDF; resolves deep tails
  and matches the empirical estimate in the bulk.

The blended estimate uses the empirical value whenever enough failures
were observed (so heavy non-Gaussian tails are honoured) and falls back
to the Gaussian tail otherwise.  This mirrors standard SRAM yield
practice and lets a 20k-sample run produce the smooth failure-versus-VDD
curves of the paper's Fig. 5.

Sampling is *block-decomposed* (see :mod:`repro.runtime.sharding`): the
population is a sequence of fixed-size blocks, each drawing from its own
child seed, and every estimate is reduced from per-block
:class:`MarginTally` moments with exact merging.  A monolithic
:meth:`MonteCarloAnalyzer.analyze` call is therefore *defined* as the
single-shard execution of the same plan that
:meth:`MonteCarloAnalyzer.analyze_sharded` streams across workers —
which is what makes sharded runs bit-identical to monolithic ones for
any shard count, and lets paper-scale populations run with per-shard
bounded memory.

Every sweep — :meth:`~MonteCarloAnalyzer.analyze_sharded`,
:func:`failure_rates_vs_vdd`, :func:`repro.sram.characterize.characterize_cell`
— takes one path, :meth:`MonteCarloAnalyzer.analyze_sweep`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence,
    Tuple,
)

if TYPE_CHECKING:  # runtime import lives in analyze_sweep (avoids a cycle)
    from repro.distributed.dispatcher import ShardDispatcher

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, derive_seed, resolve_seed
from repro.runtime import (
    DEFAULT_BLOCK_SAMPLES,
    ResultCache,
    Shard,
    ShardedMonteCarlo,
    ShardPlan,
    SweepExecutor,
)
from repro.sram.bitcell import BitcellBase
from repro.sram.failures import (
    FailureMargins,
    FailureType,
    check_vdd,
    compute_failure_margins,
)
from repro.sram.read_path import BitlineModel, nominal_read_cycle

#: Observed-failure count above which the empirical estimate is trusted.
_MIN_EMPIRICAL_FAILS = 20


# ----------------------------------------------------------------------
# Tallies: the exactly-mergeable unit of Monte-Carlo evidence
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MechanismTally:
    """Per-block evidence for one failure mechanism.

    Every attribute is a tuple with one entry per block, in block order:
    integer counts (``fails`` / ``finite`` / ``inf_fails``) and the
    floating-point moment sums of the finite margins (``totals`` /
    ``totals_sq``) plus the block minima (``mins``, volts or log-units
    depending on the mechanism).  Keeping block granularity is what
    makes the merge exact: integers add exactly, and the final
    :func:`math.fsum` over block sums is correctly rounded regardless of
    how blocks were grouped into shards.
    """

    fails: Tuple[int, ...]
    finite: Tuple[int, ...]
    inf_fails: Tuple[int, ...]
    totals: Tuple[float, ...]
    totals_sq: Tuple[float, ...]
    mins: Tuple[float, ...]

    @property
    def fail_count(self) -> int:
        return sum(self.fails)

    @property
    def finite_count(self) -> int:
        return sum(self.finite)

    @property
    def inf_fail_count(self) -> int:
        return sum(self.inf_fails)

    def total(self) -> float:
        """Exact (fsum) grand total of finite margins across blocks."""
        return math.fsum(self.totals)

    def total_sq(self) -> float:
        """Exact (fsum) grand total of squared finite margins."""
        return math.fsum(self.totals_sq)

    def minimum(self) -> float:
        finite_mins = [m for m in self.mins if math.isfinite(m)]
        return min(finite_mins) if finite_mins else float("nan")


#: The per-block fields of a :class:`MechanismTally` and the type of one
#: block's entry (what the JSON decoder restores).
_MECH_FIELDS = {"fails": int, "finite": int, "inf_fails": int,
                "totals": float, "totals_sq": float, "mins": float}


@dataclass(frozen=True)
class MarginTally:
    """Block-resolved failure evidence of (part of) one MC population.

    A shard worker produces one tally for its run of blocks; tallies of
    disjoint block ranges merge with :meth:`merge` into the tally of the
    union.  The merge is *exact* — every statistic derived from a merged
    tally (failure counts, Gaussian-tail moments, margin minima) is
    bit-identical however the blocks were partitioned, which is the
    foundation of the sharded/monolithic equivalence guarantee.
    """

    block_samples: int
    block_index: Tuple[int, ...]
    block_n: Tuple[int, ...]
    union_fails: Tuple[int, ...]
    mechanisms: Dict[str, MechanismTally]

    @property
    def n_samples(self) -> int:
        return sum(self.block_n)

    @property
    def union_fail_count(self) -> int:
        return sum(self.union_fails)

    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, tallies: Sequence["MarginTally"]) -> "MarginTally":
        """Exact merge of tallies covering disjoint, ordered block ranges."""
        if not tallies:
            raise ValueError("cannot merge an empty tally sequence")
        ordered = sorted(tallies, key=lambda t: t.block_index[0])
        first = ordered[0]
        # Key order may differ between fresh and cache-decoded tallies
        # (the cache serializes with sorted keys); compare as sets and
        # merge in sorted order so the result is representation-neutral.
        mech_names = tuple(sorted(first.mechanisms))
        for t in ordered[1:]:
            if t.block_samples != first.block_samples:
                raise ValueError(
                    "cannot merge tallies with different block sizes: "
                    f"{t.block_samples} != {first.block_samples}"
                )
            if tuple(sorted(t.mechanisms)) != mech_names:
                raise ValueError("cannot merge tallies of different mechanisms")
        block_index = tuple(j for t in ordered for j in t.block_index)
        if any(a >= b for a, b in zip(block_index, block_index[1:])):
            raise ValueError(f"tallies overlap or are unordered: {block_index}")
        mechanisms = {
            name: MechanismTally(**{
                f: tuple(x for t in ordered for x in getattr(t.mechanisms[name], f))
                for f in _MECH_FIELDS
            })
            for name in mech_names
        }
        return cls(
            block_samples=first.block_samples,
            block_index=block_index,
            block_n=tuple(n for t in ordered for n in t.block_n),
            union_fails=tuple(u for t in ordered for u in t.union_fails),
            mechanisms=mechanisms,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the per-shard cache document)."""
        return {
            "block_samples": self.block_samples,
            "block_index": list(self.block_index),
            "block_n": list(self.block_n),
            "union_fails": list(self.union_fails),
            "mechanisms": {
                name: {f: list(getattr(m, f)) for f in _MECH_FIELDS}
                for name, m in self.mechanisms.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MarginTally":
        """Exact inverse of :meth:`to_dict` (floats round-trip bit-for-bit)."""
        return cls(
            block_samples=int(payload["block_samples"]),
            block_index=tuple(int(j) for j in payload["block_index"]),
            block_n=tuple(int(n) for n in payload["block_n"]),
            union_fails=tuple(int(u) for u in payload["union_fails"]),
            mechanisms={
                name: MechanismTally(**{
                    f: tuple(kind(x) for x in m[f])
                    for f, kind in _MECH_FIELDS.items()
                })
                for name, m in payload["mechanisms"].items()
            },
        )


def _tally_margins(margins: FailureMargins) -> Tuple[int, Dict[str, Dict[str, float]]]:
    """Reduce one block's margin arrays to its tally entries."""
    union = int(np.sum(margins.any_fail_mask()))
    mech: Dict[str, Dict[str, float]] = {}
    for ftype in FailureType:
        margin = margins.margin(ftype)
        if margin is None:
            continue
        finite_mask = np.isfinite(margin)
        finite = margin[finite_mask]
        mech[ftype.value] = {
            "fails": int(np.sum(margins.fail_mask(ftype))),
            "finite": int(finite.size),
            "inf_fails": int(np.sum(~finite_mask & ~(margin > 0))),
            "totals": float(np.sum(finite)),
            "totals_sq": float(np.sum(finite * finite)),
            "mins": float(np.min(finite)) if finite.size else float("inf"),
        }
    return union, mech


def _tail_probability(tally: MechanismTally, n_samples: int) -> float:
    """Gaussian-tail estimate of ``P(margin <= 0)`` from merged moments.

    Non-finite margins that are not passes (``-inf``/NaN) are counted as
    certain failures on top of the fitted tail, exactly as in a direct
    per-sample evaluation.
    """
    finite = tally.finite_count
    inf_fail = tally.inf_fail_count
    n = max(n_samples, 1)
    if finite < 2:
        return float(inf_fail) / n
    mu = tally.total() / finite
    var = (tally.total_sq() - finite * mu * mu) / (finite - 1)
    sigma = math.sqrt(max(var, 0.0))
    if sigma == 0.0:
        tail = 0.0 if mu > 0 else 1.0
    else:
        # Imported here: only a Monte-Carlo miss needs scipy.
        from scipy.special import ndtr

        tail = float(ndtr(-mu / sigma))
    return min(1.0, tail * finite / n + float(inf_fail) / n)


def _margin_stats(tally: MechanismTally) -> Dict[str, float]:
    """Mean/std/min summary of one mechanism from merged moments."""
    finite = tally.finite_count
    if finite == 0:
        return {"mean": float("nan"), "std": float("nan"), "min": float("nan")}
    mean = tally.total() / finite
    var = tally.total_sq() / finite - mean * mean
    return {
        "mean": mean,
        "std": math.sqrt(max(var, 0.0)),
        "min": tally.minimum(),
    }


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailureRates:
    """Failure-probability summary of one (cell, VDD) Monte-Carlo run.

    ``empirical`` / ``gaussian`` / ``estimate`` map each
    :class:`~repro.sram.failures.FailureType` value name to a
    probability (dimensionless, per cell per access); ``p_cell`` is the
    blended probability that a cell fails by *any* mechanism (the
    quantity fed to the system-level fault injector).  ``vdd`` is in
    volts.  Instances are deterministic functions of the analyzer
    configuration — the same cell, sample count, block size and seed
    reproduce the same rates bit-for-bit, serial or sharded, cached or
    cold.
    """

    vdd: float
    n_samples: int
    empirical: Dict[str, float]
    gaussian: Dict[str, float]
    estimate: Dict[str, float]
    p_cell: float
    margin_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def probability(self, failure_type: FailureType) -> float:
        """Blended probability for one mechanism."""
        return self.estimate[failure_type.value]

    @property
    def p_read_access(self) -> float:
        return self.estimate[FailureType.READ_ACCESS.value]

    @property
    def p_write(self) -> float:
        return self.estimate[FailureType.WRITE.value]

    @property
    def p_read_disturb(self) -> float:
        return self.estimate[FailureType.READ_DISTURB.value]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return asdict(self)


def _rates_from_tally(vdd: float, tally: MarginTally) -> FailureRates:
    """Derive the blended failure-rate summary from a merged tally."""
    n = tally.n_samples
    empirical: Dict[str, float] = {}
    gaussian: Dict[str, float] = {}
    estimate: Dict[str, float] = {}
    margin_stats: Dict[str, Dict[str, float]] = {}
    for ftype in FailureType:
        mech = tally.mechanisms.get(ftype.value)
        if mech is None:
            empirical[ftype.value] = 0.0
            gaussian[ftype.value] = 0.0
            estimate[ftype.value] = 0.0
            continue
        fails = mech.fail_count
        p_emp = fails / n
        p_gauss = _tail_probability(mech, n)
        empirical[ftype.value] = p_emp
        gaussian[ftype.value] = p_gauss
        estimate[ftype.value] = p_emp if fails >= _MIN_EMPIRICAL_FAILS else p_gauss
        margin_stats[ftype.value] = _margin_stats(mech)

    # Cell-level failure probability: union over mechanisms.  Use the
    # empirical union when resolvable, otherwise the (conservative)
    # sum of tail estimates capped at 1 - the mechanisms stress
    # disjoint device corners, so the sum is a tight union bound.
    union_fails = tally.union_fail_count
    if union_fails >= _MIN_EMPIRICAL_FAILS:
        p_cell = union_fails / n
    else:
        p_cell = min(1.0, sum(estimate.values()))

    return FailureRates(
        vdd=float(vdd),
        n_samples=n,
        empirical=empirical,
        gaussian=gaussian,
        estimate=estimate,
        p_cell=float(p_cell),
        margin_stats=margin_stats,
    )


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MonteCarloAnalyzer:
    """Reusable Monte-Carlo failure analyzer for one bitcell.

    Determinism contract: the output of every method is a pure function
    of ``(cell, n_samples, block_samples, seed, bitline, read_cycle)``
    and the requested voltage — never of worker count, shard count,
    sweep order or cache state.  Probabilities are dimensionless;
    voltages are volts; ``read_cycle`` is seconds.

    Parameters
    ----------
    cell:
        The bitcell to analyse.
    n_samples:
        ΔVT samples per voltage point (the paper's sub-array is 64k
        cells; the default 20k resolves the probabilities that matter to
        the system study, with the Gaussian tail covering rarer events).
    bitline:
        Bitline model; defaults to the 256-row paper sub-array.
    seed:
        Base seed; each (voltage point, sample block) derives an
        independent child stream, so results depend on neither sweep
        order nor shard layout.
    read_cycle:
        Read-time budget (seconds) shared by all voltage points.
        Defaults to the guard-banded nominal delay of a *6T-equivalent*
        design point: both cells are "designed for equal read access and
        write times" (paper Sec. IV), so a caller characterizing an 8T
        cell should pass the 6T budget explicitly; when omitted, the
        cell's own nominal budget is used.
    block_samples:
        Samples per seeded block — the granularity of shard boundaries
        and the peak working set of the streaming path.  Part of the
        statistical definition of the population (folded into cache
        keys): runs only reproduce each other bit-for-bit when it
        matches.
    """

    cell: BitcellBase
    n_samples: int = 20000
    bitline: Optional[BitlineModel] = None
    seed: SeedLike = None
    read_cycle: Optional[float] = None
    block_samples: int = DEFAULT_BLOCK_SAMPLES

    def __post_init__(self) -> None:
        if self.n_samples < 100:
            raise ConfigurationError(
                f"n_samples too small for failure estimation: {self.n_samples}"
            )
        if self.block_samples < 1:
            raise ConfigurationError(
                f"block_samples must be positive, got {self.block_samples}"
            )

    def _read_cycle(self) -> float:
        if self.read_cycle is not None:
            return self.read_cycle
        return nominal_read_cycle(self.cell, bitline=self.bitline)

    def _point_seed(self, vdd: float, seed: SeedLike = None) -> int:
        """The per-voltage base seed all of this point's blocks derive from."""
        return derive_seed(
            seed if seed is not None else self.seed, int(round(vdd * 1e6))
        )

    def shard_plan(
        self,
        shards: Optional[int] = None,
        max_shard_samples: Optional[int] = None,
    ) -> ShardPlan:
        """The block/shard decomposition of this analyzer's population."""
        return ShardPlan.plan(
            self.n_samples,
            block_samples=self.block_samples,
            shards=shards,
            max_shard_samples=max_shard_samples,
        )

    def sample_margins(self, vdd: float, seed: SeedLike = None) -> FailureMargins:
        """Materialize the full per-sample margin arrays at ``vdd``.

        Draws the same block-decomposed streams the tally path consumes
        and concatenates them, so empirical counts over the returned
        arrays agree exactly with :meth:`analyze`.  Intended for
        debugging and distribution plots; it holds all ``n_samples``
        margins in memory, unlike the streaming estimators.
        """
        (shard,) = self.shard_plan().shards()
        blocks = list(_block_margins(self, vdd, shard.blocks, seed=seed))
        disturb: Optional[np.ndarray] = None
        if blocks[0].read_disturb is not None:
            disturb = np.concatenate(
                [b.read_disturb for b in blocks if b.read_disturb is not None]
            )
        return FailureMargins(
            read_access=np.concatenate([b.read_access for b in blocks]),
            write=np.concatenate([b.write for b in blocks]),
            read_disturb=disturb,
        )

    def analyze(self, vdd: float, seed: SeedLike = None) -> FailureRates:
        """Estimate failure rates of the cell at the given supply voltage.

        Runs the full population through the block-tally path in-process
        (the single-shard execution of :meth:`analyze_sweep`'s plan),
        holding one ``block_samples`` batch in memory at a time.  It is
        the reference every sweep reproduces bit-for-bit.
        """
        vdd = check_vdd(vdd)
        analyzer = self if seed is None else replace(self, seed=resolve_seed(seed))
        plan = analyzer.shard_plan()
        (shard,) = plan.shards()
        tally = tally_shard(analyzer, vdd, shard)
        return _rates_from_tally(vdd, tally)

    # ------------------------------------------------------------------
    # Sweep support (parallel execution + result caching)
    # ------------------------------------------------------------------
    def resolved(self) -> "MonteCarloAnalyzer":
        """A copy with the read-cycle budget and base seed pinned down.

        Resolving both *before* a sweep fans out serves two purposes:
        workers skip the (bisection-solved) nominal-delay computation,
        and every point's derived seed depends only on the point — so a
        parallel sweep is bit-identical to a serial one.
        """
        return replace(
            self, read_cycle=self._read_cycle(), seed=resolve_seed(self.seed)
        )

    def cache_payload(self, vdd: float) -> Dict[str, Any]:
        """Everything that determines :meth:`analyze`'s result at ``vdd``.

        Must only be called on a :meth:`resolved` analyzer (integer seed,
        concrete read cycle); the payload feeds the content-addressed
        :class:`~repro.runtime.cache.ResultCache`.
        """
        bitline = None
        if self.bitline is not None:
            bitline = {
                "rows": self.bitline.rows,
                "port_width": self.bitline.port_width,
            }
        return {
            "technology": asdict(self.cell.technology),
            "kind": self.cell.kind,
            "sizing": asdict(self.cell.sizing),
            "bitline": bitline,
            "read_cycle": self.read_cycle,
            "n_samples": self.n_samples,
            "block_samples": self.block_samples,
            "seed": self.seed,
            "vdd": float(vdd),
            "rev": 2,  # rev 2: block-decomposed sample streams (sharding)
        }

    def analyze_sharded(
        self,
        vdd: float,
        shards: Optional[int] = None,
        max_shard_samples: Optional[int] = None,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        dispatcher: Optional["ShardDispatcher"] = None,
    ) -> FailureRates:
        """Estimate failure rates with the population split into shards.

        :meth:`analyze_sweep` over the single voltage ``vdd``; see there
        for ``shards``, ``max_shard_samples``, ``jobs``, ``cache`` and
        ``dispatcher``.  Guarantee: the result equals :meth:`analyze`
        bit-for-bit for every combination of them.
        """
        (rates,) = self.analyze_sweep(
            [vdd], jobs=jobs, cache=cache, shards=shards,
            max_shard_samples=max_shard_samples, dispatcher=dispatcher,
        )
        return rates

    def analyze_sweep(
        self,
        vdds: Sequence[float],
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        shards: Optional[int] = None,
        max_shard_samples: Optional[int] = None,
        dispatcher: Optional["ShardDispatcher"] = None,
        finish: Optional[Callable[[float, FailureRates], Any]] = None,
    ) -> List[Any]:
        """Failure rates at every voltage of ``vdds`` — the one sweep path.

        Each point's population is split by one :class:`ShardPlan`
        (``shards``, raised so no shard exceeds ``max_shard_samples``;
        one shard when neither is given).  The shards missing from
        ``cache`` (namespace ``mcshard``), of all points at once, go out
        in one :class:`~repro.runtime.SweepExecutor` map over ``jobs``
        workers, and each point's tallies merge exactly.  With
        ``dispatcher`` (a started
        :class:`~repro.distributed.ShardDispatcher`) each point's shards
        go to its fleet instead, which addresses the shared store under
        the same keys; ``jobs``/``cache`` are then unused.

        ``finish(vdd, rates)``, if given, replaces each point's
        :class:`FailureRates` in the result.  Points finish on the
        executor that computed their shards, which keeps the Gaussian
        tail's scipy import and any per-point model off a caller that
        farmed its Monte Carlo out.  The rates equal ``[self.analyze(v)
        for v in vdds]`` bit-for-bit for every shard layout, worker
        count, cache state and fleet.
        """
        vdds = [check_vdd(v) for v in vdds]
        resolved = self.resolved()
        plan = resolved.shard_plan(shards=shards, max_shard_samples=max_shard_samples)
        step = partial(_finish_point, finish)
        if dispatcher is not None:
            from repro.distributed.jobs import margin_tally_jobs

            return [
                step((vdd, dispatcher.dispatch(
                    margin_tally_jobs(resolved, vdd, plan),
                    decode=MarginTally.from_dict,
                    merge=MarginTally.merge,
                )))
                for vdd in vdds
            ]
        executor = SweepExecutor(jobs)
        engine: ShardedMonteCarlo[MarginTally] = ShardedMonteCarlo(
            plan, executor=executor, cache=cache
        )
        tallies = engine.run_many(
            [
                (partial(tally_shard, resolved, vdd), resolved.cache_payload(vdd))
                for vdd in vdds
            ],
            encode=MarginTally.to_dict,
            decode=MarginTally.from_dict,
            merge=MarginTally.merge,
        )
        points = list(zip(vdds, tallies))
        if engine.computed:
            return executor.map(step, points)
        return [step(point) for point in points]


def _block_margins(
    analyzer: MonteCarloAnalyzer,
    vdd: float,
    blocks: Sequence[Tuple[int, int]],
    seed: SeedLike = None,
) -> Iterator[FailureMargins]:
    """Margins of each ``(block index, size)`` block at ``vdd``, drawn
    from the block's own child seed, one block in memory at a time."""
    point_seed = analyzer._point_seed(vdd, seed=seed)
    read_cycle = analyzer._read_cycle()
    model = analyzer.cell.variation_model()
    for j, block_size in blocks:
        dvt = model.sample(block_size, seed=ShardPlan.block_seed(point_seed, j))
        yield compute_failure_margins(
            analyzer.cell, vdd, dvt,
            bitline=analyzer.bitline, read_cycle=read_cycle,
        )


def tally_shard(
    analyzer: MonteCarloAnalyzer, vdd: float, shard: Shard
) -> MarginTally:
    """Shard worker: tally the shard's blocks, one block in memory at a time.

    Must be called on a :meth:`MonteCarloAnalyzer.resolved` analyzer (or
    one with an integer seed and concrete read cycle) so the block seeds
    depend only on ``(analyzer.seed, vdd, block index)``.  Public
    because it is also the remote compute function of the distributed
    dispatcher's ``margin_tally`` job kind (:mod:`repro.distributed.jobs`).
    """
    block_index: List[int] = []
    block_n: List[int] = []
    union_fails: List[int] = []
    mech_blocks: Dict[str, List[Dict[str, float]]] = {}
    margins_of = _block_margins(analyzer, vdd, shard.blocks)
    for (j, block_size), margins in zip(shard.blocks, margins_of):
        union, mech = _tally_margins(margins)
        block_index.append(j)
        block_n.append(block_size)
        union_fails.append(union)
        for name, entry in mech.items():
            mech_blocks.setdefault(name, []).append(entry)
    return MarginTally(
        block_samples=analyzer.block_samples,
        block_index=tuple(block_index),
        block_n=tuple(block_n),
        union_fails=tuple(union_fails),
        mechanisms={
            name: MechanismTally(**{
                f: tuple(e[f] for e in entries) for f in _MECH_FIELDS
            })
            for name, entries in mech_blocks.items()
        },
    )


def _finish_point(
    finish: Optional[Callable[[float, FailureRates], Any]],
    point: Tuple[float, MarginTally],
) -> Any:
    """Sweep worker entry point: one point's rates from its merged tally."""
    vdd, tally = point
    rates = _rates_from_tally(vdd, tally)
    return rates if finish is None else finish(vdd, rates)


def failure_rates_vs_vdd(
    cell: BitcellBase,
    vdds: Sequence[float],
    n_samples: int = 20000,
    bitline: Optional[BitlineModel] = None,
    seed: SeedLike = None,
    read_cycle: Optional[float] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    shards: Optional[int] = None,
    max_shard_samples: Optional[int] = None,
) -> List[FailureRates]:
    """Sweep supply voltage and return a list of :class:`FailureRates`.

    This regenerates the data behind paper Fig. 5 (for the 6T cell) and
    the "8T failures are negligible in the voltage range of interest"
    observation (for the 8T cell).  ``jobs`` fans work across a worker
    pool (``None`` honours ``REPRO_JOBS``, default serial), ``cache``
    serves previously-computed shard tallies from the shared result
    store, and ``shards``/``max_shard_samples`` split each point's
    Monte-Carlo population (:meth:`MonteCarloAnalyzer.analyze_sweep`);
    none of them changes a single bit of the output.
    """
    analyzer = MonteCarloAnalyzer(
        cell=cell, n_samples=n_samples, bitline=bitline, seed=seed,
        read_cycle=read_cycle,
    )
    return analyzer.analyze_sweep(
        vdds, jobs=jobs, cache=cache,
        shards=shards, max_shard_samples=max_shard_samples,
    )
