"""Order-preserving parallel map over independent sweep points.

The executor's contract is *bit-identical determinism*: given a function
whose output depends only on its argument (all the library's sweep
workers derive their RNG stream from the point itself, never from
shared state), ``SweepExecutor.map`` returns exactly the same list for
any worker count, including the serial fast path.  Parallelism can
therefore be turned on and off freely — CI runs ``--jobs 1``, a laptop
``--jobs 4`` — without perturbing a single published number.

Workers use the ``spawn`` start method: it is the only method available
on every supported platform, and it guarantees children never inherit a
forked copy of the parent's (possibly already-consumed) RNG state or
open file handles to the result cache.

Pool lifetime.  A spawned child costs an interpreter start plus the
``repro``/numpy/scipy imports, so a process keeps at most one pool and
reuses it across maps.  The pool is created by the first parallel map
and keyed on its worker count and the ``REPRO_*`` environment: children
copy the environment once, at start-up, so a map under a different key
(say a new ``REPRO_CACHE_DIR``) shuts the old pool down and starts a
fresh one.  A map that finds the pool broken (a child died) discards it,
so the next map starts a new one.  The pool is shut down at interpreter
exit, or earlier by :func:`shutdown_pool` — a long-running process that
is done with sweeps calls it to keep no idle children.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when a caller passes ``jobs=None``.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` request to a concrete worker count.

    ``None`` falls back to the ``REPRO_JOBS`` environment variable and
    then to 1 (serial — the safe default for tests and small sweeps);
    ``0`` or any negative value means "all available cores".  A
    ``REPRO_JOBS`` that is not an integer raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> List[R]:
    """Worker entry point: apply ``fn`` to one chunk of sweep points."""
    return [fn(item) for item in chunk]


def _partition(items: Sequence[T], n_chunks: int) -> List[List[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, near-equal
    chunks (order preserved, no empty chunks)."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: List[List[T]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(list(items[start:start + size]))
        start += size
    return chunks


# The process-wide pool and the key it was created under.  The lock
# covers creation, replacement and submission, so a replacement can
# never shut a pool down between another thread's lookup and its
# submits (shutdown waits for the futures already submitted).
_pool_lock = threading.RLock()
_pool: Optional[ProcessPoolExecutor] = None
_pool_key: Optional[Tuple[object, ...]] = None


def _submit_all(workers: int, fn: Callable, chunks: List[List[T]]
                ) -> Tuple[ProcessPoolExecutor, List[Future]]:
    """Submit ``fn(chunk)`` for every chunk to the shared pool."""
    global _pool, _pool_key
    key = (workers, *sorted(
        (name, value) for name, value in os.environ.items()
        if name.startswith("REPRO_")
    ))
    with _pool_lock:
        if _pool is not None and _pool_key != key:
            _pool.shutdown(wait=True)
            _pool = None
        if _pool is None:
            _pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
            _pool_key = key
        pool = _pool
        try:
            return pool, [pool.submit(fn, chunk) for chunk in chunks]
        except BrokenProcessPool:
            _discard(pool)
            raise


def _discard(pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool so the next map starts a new one."""
    global _pool
    with _pool_lock:
        if _pool is pool:
            _pool = None
    pool.shutdown(wait=True)


def shutdown_pool() -> None:
    """Shut the shared worker pool down, waiting for its children.

    The next parallel map starts a new pool.  Registered to run at
    interpreter exit.
    """
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True)


atexit.register(shutdown_pool)


class SweepExecutor:
    """Fan independent sweep points across the shared ``spawn`` pool.

    Parameters
    ----------
    jobs:
        Worker count; see :func:`resolve_jobs` for ``None``/``0``
        semantics.  ``jobs=1`` runs serially in-process (no pool, no
        pickling) and is the reference behaviour every parallel run must
        reproduce bit-for-bit.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs)

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving input order.

        ``fn`` must be picklable (a module-level function or a
        :func:`functools.partial` of one) and must derive any randomness
        from its argument alone; under those conditions the result is
        independent of worker count and completion order.
        """
        points = list(items)
        if self.jobs == 1 or len(points) <= 1:
            return [fn(item) for item in points]
        return self._fan_out(partial(_run_chunk, fn), points)

    def map_chunked(
        self, fn: Callable[[List[T]], List[R]], items: Iterable[T]
    ) -> List[R]:
        """Like :meth:`map`, but ``fn`` receives a whole chunk at once.

        Batch workers amortize per-task setup (pickling the bitcell,
        resolving the read-cycle budget, RNG construction) across every
        point of the chunk — the flattened output still matches
        ``fn(items)`` run serially, element for element.
        """
        points = list(items)
        if not points:
            return []
        if self.jobs == 1 or len(points) == 1:
            return fn(points)
        return self._fan_out(fn, points)

    def _fan_out(self, fn: Callable[[List[T]], List[R]],
                 points: List[T]) -> List[R]:
        """Run ``fn`` on contiguous chunks of ``points`` in the pool and
        concatenate the chunk results in submission order."""
        chunks = _partition(points, self.jobs)
        pool, futures = _submit_all(self.jobs, fn, chunks)
        # Collect in submission order: completion order is irrelevant
        # to the output, which is what makes the run reproducible.
        results: List[R] = []
        for future, chunk in zip(futures, chunks):
            try:
                chunk_result = future.result()
            except BrokenProcessPool:
                _discard(pool)
                raise
            if len(chunk_result) != len(chunk):
                raise RuntimeError(
                    "chunk worker returned "
                    f"{len(chunk_result)} results for {len(chunk)} points"
                )
            results.extend(chunk_result)
        return results

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepExecutor(jobs={self.jobs})"
