"""Shared sweep runtime: parallel execution and result caching.

Every headline artifact of the paper (Fig. 5 failure-vs-VDD curves, the
Fig. 8 hybrid study, the Fig. 9 sensitivity ranking) is an
embarrassingly-parallel sweep over independent points.  This subpackage
provides the infrastructure those sweeps share:

* :class:`~repro.runtime.executor.SweepExecutor` — fans sweep points
  across a ``spawn``-based process pool while guaranteeing results are
  bit-identical to a serial run regardless of worker count or
  completion order (every point carries its own derived seed).  One
  pool serves every map of a process; :func:`shutdown_pool` stops it.
* :class:`~repro.runtime.cache.ResultCache` — a content-addressed JSON
  store (key = SHA-256 of everything that affects the numbers, plus a
  schema version) with atomic writes, so concurrent sweeps can share a
  cache directory and a version bump invalidates stale results.  It is
  the one store every sweep, CLI command and worker fleet shares.
* :class:`~repro.runtime.sharding.ShardPlan` /
  :class:`~repro.runtime.sharding.ShardedMonteCarlo` — deterministic
  block-granular sharding of one Monte-Carlo population across the
  executor, with per-shard cache entries and an exact (grouping
  independent) tally merge, so paper-scale populations stream with
  bounded memory and re-sharding never changes a bit of the result.

The SRAM characterization, the circuit-to-system studies, the CLI
(``--jobs`` / ``--no-cache`` / ``--shards`` on every subcommand) and the
benchmark harness are all built on these primitives.  The contracts
(determinism, cache-key versioning, atomicity) are documented in
``docs/runtime.md``.
"""

from repro.runtime.cache import (
    CACHE_VERSION,
    CacheStats,
    CompactionResult,
    ResultCache,
    TierStats,
    content_key,
    default_cache_dir,
)
from repro.runtime.executor import (
    SweepExecutor,
    in_pool,
    resolve_jobs,
    shutdown_pool,
)
from repro.runtime.sharding import (
    DEFAULT_BLOCK_SAMPLES,
    Shard,
    ShardedMonteCarlo,
    ShardPlan,
)

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "CompactionResult",
    "DEFAULT_BLOCK_SAMPLES",
    "ResultCache",
    "Shard",
    "ShardPlan",
    "ShardedMonteCarlo",
    "SweepExecutor",
    "TierStats",
    "content_key",
    "default_cache_dir",
    "in_pool",
    "resolve_jobs",
    "shutdown_pool",
]
