"""Paired 6T/8T cell characterizations under a common timing budget.

The hybrid array clocks both cell types on the 6T-compatible cycle
("designed for equal read access and write times", paper Sec. IV), so
the 8T cell must be characterized against the *6T* read budget — that is
what :meth:`CellTables.build` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.devices.technology import Technology, ptm22
from repro.rng import DEFAULT_SEED
from repro.sram.characterize import (
    DEFAULT_VDD_GRID,
    CellCharacterization,
    characterize_cell,
    hybrid_read_cycle,
)


@dataclass(frozen=True)
class CellTables:
    """The 6T and 8T characterization tables used by all memory math."""

    table_6t: CellCharacterization
    table_8t: CellCharacterization

    @classmethod
    def build(
        cls,
        technology: Optional[Technology] = None,
        vdd_grid: Sequence[float] = DEFAULT_VDD_GRID,
        rows: int = 256,
        n_samples: int = 20000,
        seed: int = DEFAULT_SEED,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        jobs: Optional[int] = None,
        shards: Optional[int] = None,
        max_shard_samples: Optional[int] = None,
        block_samples: Optional[int] = None,
    ) -> "CellTables":
        """Characterize both cells (cached) with the shared 6T budget.

        ``jobs`` fans the Monte-Carlo work of each table across a
        worker pool, and ``shards``/``max_shard_samples`` stream each
        voltage point's population through the sharded Monte-Carlo path
        (bounded per-shard memory, per-shard cache entries); the tables
        are bit-identical for any worker or shard count.
        ``block_samples`` sets the sharding granularity and is part of
        the population definition (different block sizes are different,
        equally valid populations).
        """
        tech = technology or ptm22()
        common = dict(
            technology=tech, vdd_grid=vdd_grid, rows=rows,
            n_samples=n_samples, seed=seed,
            read_cycle=hybrid_read_cycle(tech, rows),
            use_cache=use_cache, cache_dir=cache_dir, jobs=jobs,
            shards=shards, max_shard_samples=max_shard_samples,
            block_samples=block_samples,
        )
        return cls(
            table_6t=characterize_cell(cell_kind="6t", **common),
            table_8t=characterize_cell(cell_kind="8t", **common),
        )

    def cycle_time(self, vdd: float) -> float:
        """Shared array cycle at ``vdd`` (the 6T voltage-scaled cycle)."""
        return self.table_6t.point_at(vdd).cycle_time
