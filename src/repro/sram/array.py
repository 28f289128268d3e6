"""Sub-array aggregation: the paper's 256x256 SRAM building block.

A :class:`SubArray` binds a bitcell to an array geometry and exposes the
array-level quantities the memory architecture needs: total leakage,
per-access energy/power, cycle time, area and the Monte-Carlo failure
rates of its cells at any operating voltage.

Failure analysis runs through the sharded Monte-Carlo path of
:mod:`repro.runtime.sharding`, so paper-scale populations (one sample
per cell of a 64k-cell sub-array and beyond) stream with bounded
per-shard memory — and produce exactly the same numbers as a monolithic
in-process run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # import would cycle at runtime (distributed -> sram)
    from repro.distributed.dispatcher import ShardDispatcher

from repro.errors import ConfigurationError
from repro.rng import SeedLike
from repro.runtime import DEFAULT_BLOCK_SAMPLES, ResultCache
from repro.sram.area import bitcell_area
from repro.sram.bitcell import BitcellBase
from repro.sram.montecarlo import FailureRates, MonteCarloAnalyzer
from repro.sram.power import CellPower, cell_power
from repro.sram.read_path import BitlineModel, nominal_read_cycle

#: Fractional area added by row/column periphery (decoders, sense amps,
#: write drivers) relative to the raw cell matrix.
PERIPHERY_AREA_FRACTION = 0.15


@dataclass(frozen=True)
class SubArray:
    """An ``rows x cols`` array of one bitcell type.

    The paper's failure and timing analysis is anchored to a 256x256
    sub-array; larger memories are built from multiple sub-arrays by
    :mod:`repro.mem`.

    Units: areas are m^2, powers W, energies J, times s, voltages V.
    Every quantity is a deterministic function of the constructor
    arguments — the execution knobs (``shards``, ``max_shard_samples``,
    ``jobs``, ``cache``) change how the Monte Carlo runs, never what it
    returns.
    """

    cell: BitcellBase
    rows: int = 256
    cols: int = 256
    mc_samples: int = 20000
    seed: SeedLike = None
    #: Shared read-cycle budget; ``None`` derives it from this cell.  The
    #: hybrid architecture passes the 6T budget so both cell types are
    #: judged against the same array clock ("equal read access times").
    read_cycle: Optional[float] = None
    #: Shard count for the failure Monte Carlo (``None`` = one shard).
    shards: Optional[int] = None
    #: Per-shard sample ceiling — bounds the working set of one shard,
    #: raising the shard count as needed.  Sharding granularity is
    #: ``block_samples``; populations that fit one block cannot split.
    max_shard_samples: Optional[int] = None
    #: Samples per seeded block (``None`` = the runtime default).  Part
    #: of the population's statistical definition, not an execution
    #: knob: arrays with different block sizes draw different (equally
    #: valid) ΔVT populations.
    block_samples: Optional[int] = None
    #: Worker processes for shard fan-out (``None`` honours
    #: ``REPRO_JOBS``, default serial).
    jobs: Optional[int] = None
    #: Shared result cache for per-shard tallies (``None`` = uncached).
    cache: Optional[ResultCache] = field(
        default=None, compare=False, repr=False
    )
    #: Started :class:`~repro.distributed.ShardDispatcher`; when set,
    #: the failure Monte Carlo is farmed to its remote workers instead
    #: of the local pool (``jobs``/``cache`` are then unused).  An
    #: execution knob like the others: the numbers cannot change.
    dispatcher: Optional["ShardDispatcher"] = field(
        default=None, compare=False, repr=False
    )
    _rates_memo: Dict[float, FailureRates] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigurationError(
                f"array geometry must be positive ({self.rows}x{self.cols})"
            )

    # ------------------------------------------------------------------
    # Geometry / area
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def bitline(self) -> BitlineModel:
        return BitlineModel(self.cell.technology, rows=self.rows).for_cell(self.cell)

    @property
    def area(self) -> float:
        """Array area including the periphery fraction (m^2)."""
        return self.n_cells * bitcell_area(self.cell) * (1.0 + PERIPHERY_AREA_FRACTION)

    # ------------------------------------------------------------------
    # Timing / power
    # ------------------------------------------------------------------
    def read_cycle_budget(self) -> float:
        """The read-time budget used for failure analysis (seconds)."""
        if self.read_cycle is not None:
            return self.read_cycle
        return nominal_read_cycle(self.cell, bitline=self.bitline)

    def cell_power_at(self, vdd: float) -> CellPower:
        """Per-cell power characterization at ``vdd``."""
        return cell_power(self.cell, vdd, rows=self.rows, cols=self.cols)

    def leakage_power(self, vdd: float) -> float:
        """Total static power of the array (watts)."""
        return self.n_cells * self.cell_power_at(vdd).leakage_power

    def row_read_energy(self, vdd: float) -> float:
        """Energy of reading one full row (joules)."""
        return self.cols * self.cell_power_at(vdd).read_energy

    def row_write_energy(self, vdd: float) -> float:
        """Energy of writing one full row (joules)."""
        return self.cols * self.cell_power_at(vdd).write_energy

    # ------------------------------------------------------------------
    # Failure analysis
    # ------------------------------------------------------------------
    def analyzer(self) -> MonteCarloAnalyzer:
        """The Monte-Carlo analyzer this array's failure rates come from."""
        return MonteCarloAnalyzer(
            cell=self.cell,
            n_samples=self.mc_samples,
            bitline=self.bitline,
            seed=self.seed,
            read_cycle=self.read_cycle_budget(),
            block_samples=(self.block_samples if self.block_samples is not None
                           else DEFAULT_BLOCK_SAMPLES),
        )

    def failure_rates(self, vdd: float) -> FailureRates:
        """Monte-Carlo failure rates of this array's cells at ``vdd``.

        Runs through the sharded path with this array's ``shards`` /
        ``max_shard_samples`` / ``jobs`` / ``cache`` configuration.
        Because sharding is bit-identical to a monolithic run, the
        per-voltage memo (keyed by the rounded voltage) stays valid for
        any execution configuration; repeated accounting reuses the
        expensive Monte Carlo.
        """
        key = round(float(vdd), 6)
        if key not in self._rates_memo:
            self._rates_memo[key] = self.analyzer().analyze_sharded(
                vdd,
                shards=self.shards,
                max_shard_samples=self.max_shard_samples,
                jobs=self.jobs,
                cache=self.cache,
                dispatcher=self.dispatcher,
            )
        return self._rates_memo[key]

    def expected_faulty_cells(self, vdd: float) -> float:
        """Expected number of failing cells in the array at ``vdd``."""
        return self.n_cells * self.failure_rates(vdd).p_cell
