"""Content-addressed result cache shared by every sweep in the library.

The cache stores one JSON document per *result*, addressed by the
SHA-256 digest of everything that could change the numbers: the
namespace (what kind of result), the caller-supplied payload (cell
fingerprint, voltage, sample count, seed, …) and a schema version.
Bumping :data:`CACHE_VERSION` — or the per-call ``version`` — therefore
invalidates every stale entry without touching the filesystem: old
files simply stop being addressed and can be reaped with
``repro-sram cache clear``.

Writes are atomic (temp file + :func:`os.replace` in the same
directory), so concurrent sweep workers and even concurrent *processes*
can share one cache directory: a reader sees either the complete old
document or the complete new one, never a torn write.  Corrupt or
foreign files are treated as misses rather than errors.

One :class:`ResultCache` directory serves single-host sweeps and worker
fleets alike: the dispatcher and every worker open the same directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional

#: Global cache-schema version.  Bump when the meaning of cached values
#: changes (new fields, changed physics) to invalidate every entry at
#: once; per-namespace revisions belong in the caller's payload.
CACHE_VERSION = 1


def default_cache_dir() -> str:
    """Cache directory (override with the ``REPRO_CACHE_DIR`` env var)."""
    return os.environ.get("REPRO_CACHE_DIR", os.path.join(os.getcwd(), ".repro_cache"))


def _canonical(obj: Any) -> Any:
    """JSON fallback for payload canonicalization.

    Accepts the few non-JSON types that appear in cache payloads (numpy
    scalars/arrays, tuples via json's list coercion) and rejects
    anything whose repr is not stable across runs.
    """
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):  # numpy scalar
        return obj.item()
    if hasattr(obj, "tolist"):  # numpy array
        return obj.tolist()
    raise TypeError(
        f"cache payload contains an unhashable value of type {type(obj).__name__}: "
        f"{obj!r}"
    )


def content_key(namespace: str, payload: Dict[str, Any], version: int) -> str:
    """SHA-256 content address of ``(namespace, version, payload)``.

    Module-level so code that holds no :class:`ResultCache` (the
    dispatcher's journal matching jobs by
    :func:`~repro.distributed.jobs.job_address`) computes the very
    address the store files an entry under.
    """
    blob = json.dumps(
        {"namespace": namespace, "version": int(version), "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
        default=_canonical,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def value_bytes(value: Any) -> int:
    """Canonical-JSON size of a cached value (the store's byte accounting).

    Deliberately the size of the *value*, not of the on-disk document
    (which adds the payload, timestamps and indentation), so the byte
    counters do not depend on how an entry is filed.
    """
    return len(
        json.dumps(
            value, sort_keys=True, separators=(",", ":"), default=_canonical
        ).encode()
    )


@dataclass
class TierStats:
    """Store counters: hits/misses, bytes, latency, failures.

    ``errors`` counts failed writes (full disk, unwritable directory) —
    *not* misses, which are a normal outcome.  ``expirations`` counts
    TTL-expired reads (zero without a ``ttl``).  Latency is accumulated
    seconds, so ``get_seconds / (hits + misses)`` is the mean read
    latency.

    Plain attributes, read by the ``stats`` probes through
    :meth:`ResultCache.stats_payload`; :func:`repro.obs.bind_store_metrics`
    publishes them as ``repro_cache_*`` series at scrape time.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    errors: int = 0
    expirations: int = 0
    get_seconds: float = 0.0
    put_seconds: float = 0.0

    def record_get(self, value: Optional[Any], seconds: float) -> None:
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self.bytes_read += value_bytes(value)
        self.get_seconds += seconds

    def record_put(self, value: Any, seconds: float) -> None:
        self.puts += 1
        self.bytes_written += value_bytes(value)
        self.put_seconds += seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (latency rounded to microseconds)."""
        out: Dict[str, Any] = asdict(self)
        out["get_seconds"] = round(out["get_seconds"], 6)
        out["put_seconds"] = round(out["put_seconds"], 6)
        return out


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one :meth:`ResultCache.compact` pass."""

    removed: int
    reclaimed_bytes: int
    remaining: int
    remaining_bytes: int

    def summary(self) -> str:
        return (
            f"removed {self.removed} entries ({self.reclaimed_bytes / 1e6:.2f} MB); "
            f"{self.remaining} entries ({self.remaining_bytes / 1e6:.2f} MB) remain"
        )


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a cache directory plus this process's hit counters."""

    cache_dir: str
    entries: int
    total_bytes: int
    by_namespace: Dict[str, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def summary(self) -> str:
        lines = [
            f"cache dir : {self.cache_dir}",
            f"entries   : {self.entries}",
            f"size      : {self.total_bytes / 1e6:.2f} MB",
            f"session   : {self.hits} hits / {self.misses} misses",
        ]
        for ns in sorted(self.by_namespace):
            lines.append(f"  {ns:<12s} {self.by_namespace[ns]} entries")
        return "\n".join(lines)


class ResultCache:
    """Content-addressed JSON store with atomic writes over one directory.

    Correctness contract: a payload must contain *everything* that
    determines the value stored under it (model parameters, sample and
    block counts, seeds, per-namespace ``rev`` markers), so a hit is
    indistinguishable from a recompute and enabling/disabling the cache
    never changes a number.  Values must be JSON-serializable; floats
    round-trip bit-for-bit.  ``get`` returns ``None`` on any kind of
    miss and a failed ``put`` only counts an error: a store that cannot
    be written degrades caching, not correctness.  The full contract
    (key completeness, versioning levers, atomicity) is documented in
    ``docs/runtime.md``.

    The directory is a plain one, sharable over NFS or rsync'd between
    hosts.  ``self.tier`` (:class:`TierStats`) counts hits, misses,
    expirations, write errors, bytes and latency.

    Parameters
    ----------
    cache_dir:
        Directory for cache files; defaults to :func:`default_cache_dir`.
    enabled:
        When False every ``get`` misses and every ``put`` is a no-op —
        the hook behind the CLI's ``--no-cache``.
    version:
        Schema version folded into every key; see :data:`CACHE_VERSION`.
    ttl:
        Optional freshness bound in seconds: an entry that has lived
        its full TTL (file age ``>= ttl``) reads as a miss and counts
        an expiration; ``ttl=0`` treats every entry as already expired.
        File age is **wall-clock** time (``time.time() - mtime``), so a
        backward clock step makes files look younger than they are;
        ages are clamped to be non-negative, so a future mtime reads as
        age 0 and expires ``ttl`` seconds after the clock catches up.
        Expired files stay on disk for :meth:`compact` to reap, so a
        TTL-reading process never races a TTL-less one on deletion.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        enabled: bool = True,
        version: int = CACHE_VERSION,
        ttl: Optional[float] = None,
    ):
        if ttl is not None and not ttl >= 0:  # nan would never expire
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        self.cache_dir = cache_dir or default_cache_dir()
        self.enabled = enabled
        self.version = int(version)
        self.ttl = None if ttl is None else float(ttl)
        self.tier = TierStats()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def key(self, namespace: str, payload: Dict[str, Any]) -> str:
        """SHA-256 content address of ``(namespace, version, payload)``."""
        return content_key(namespace, payload, self.version)

    def path(self, namespace: str, payload: Dict[str, Any]) -> str:
        """Filesystem path of the entry addressed by ``payload``."""
        return os.path.join(
            self.cache_dir, f"{namespace}-{self.key(namespace, payload)}.json"
        )

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, namespace: str, payload: Dict[str, Any]) -> Optional[Any]:
        """Cached value for ``payload``, or None on any kind of miss
        (absent, expired, corrupt or foreign document, disabled cache)."""
        start = time.perf_counter()
        value = self._read(namespace, payload) if self.enabled else None
        self.tier.record_get(value, time.perf_counter() - start)
        return value

    def _read(self, namespace: str, payload: Dict[str, Any]) -> Optional[Any]:
        path = self.path(namespace, payload)
        try:
            if self.ttl is not None and (
                max(0.0, time.time() - os.path.getmtime(path)) >= self.ttl
            ):
                self.tier.expirations += 1
                return None
            with open(path) as fh:
                return json.load(fh)["value"]
        # ValueError covers JSONDecodeError and UnicodeDecodeError;
        # TypeError/KeyError cover well-formed JSON that is not a
        # put()-shaped document.  All are misses, not errors.
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def put(self, namespace: str, payload: Dict[str, Any], value: Any) -> None:
        """Atomically store ``value`` under the address of ``payload``.

        Concurrent writers of the same key are safe: each writes a
        private temp file and the final :func:`os.replace` is atomic, so
        readers always observe a complete document (last writer wins —
        and every writer of one key produces identical bytes anyway,
        since the key captures everything that determines the value).
        A write that fails (full disk, unwritable or revoked directory)
        counts a ``tier.errors`` and leaves no temp file behind; it
        never raises — the value was computed, only its caching is lost.
        """
        if not self.enabled:
            return
        start = time.perf_counter()
        document = {
            "namespace": namespace,
            "cache_version": self.version,
            "payload": payload,
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "value": value,
        }
        text = json.dumps(document, sort_keys=True, default=_canonical, indent=1)
        tmp_path: Optional[str] = None
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.cache_dir, prefix=f".{namespace}-", suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp_path, self.path(namespace, payload))
            tmp_path = None
        except OSError:
            self.tier.errors += 1
        finally:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
        self.tier.record_put(value, time.perf_counter() - start)

    def get_or_compute(
        self,
        namespace: str,
        payload: Dict[str, Any],
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached value, computing and storing it on a miss."""
        value = self.get(namespace, payload)
        if value is None:
            value = compute()
            self.put(namespace, payload, value)
        return value

    def describe(self) -> str:
        """Location of the store (for logs and the ``stats`` probes)."""
        return f"directory:{self.cache_dir}"

    def stats_payload(self) -> Dict[str, Any]:
        """JSON-able counters for the ``stats`` protocol probes."""
        return {"store": self.describe(), **self.tier.to_dict()}

    # ------------------------------------------------------------------
    # Maintenance (the ``repro-sram cache`` subcommand)
    # ------------------------------------------------------------------
    def _entries(self) -> list:
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return []
        return [
            name for name in names
            if not name.startswith(".")
            and os.path.isfile(os.path.join(self.cache_dir, name))
        ]

    @staticmethod
    def _namespace_of(filename: str) -> str:
        stem = filename.rsplit(".", 1)[0]
        for sep in ("-", "_"):  # "_" covers legacy cell_*/ann_* entries
            if sep in stem:
                return stem.split(sep, 1)[0]
        return stem

    def stats(self) -> CacheStats:
        """Count entries and bytes (legacy ``cell_``/``ann_`` files included)."""
        by_namespace: Dict[str, int] = {}
        total_bytes = 0
        entries = self._entries()
        for name in entries:
            by_namespace[self._namespace_of(name)] = (
                by_namespace.get(self._namespace_of(name), 0) + 1
            )
            try:
                total_bytes += os.path.getsize(os.path.join(self.cache_dir, name))
            except OSError:
                pass
        return CacheStats(
            cache_dir=self.cache_dir,
            entries=len(entries),
            total_bytes=total_bytes,
            by_namespace=by_namespace,
            hits=self.tier.hits,
            misses=self.tier.misses,
        )

    def compact(
        self,
        namespace: Optional[str] = None,
        max_age: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> CompactionResult:
        """Reap stale entries: TTL expiry first, then a byte budget.

        Two independent policies, applied in order within the selected
        ``namespace`` (or all namespaces):

        1. ``max_age`` — delete every entry whose file age is
           ``>= max_age`` seconds (the same "lived its full TTL" rule
           :meth:`get` applies to ``ttl``, so compaction deletes exactly
           the entries reads already refuse).
        2. ``max_bytes`` — delete **oldest first** until the surviving
           entries total at most ``max_bytes``.

        A namespace with no entries is a no-op.  Deletion races
        (another process compacting or clearing concurrently) are
        tolerated: a file that vanished underneath us simply does not
        count as removed here.
        """
        now = time.time()
        entries: list = []
        for name in self._entries():
            if namespace is not None and self._namespace_of(name) != namespace:
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        removed = 0
        reclaimed = 0
        survivors: list = []
        for mtime, size, path in entries:
            # Same non-negative clamp as get(): compaction must delete
            # exactly the entries reads refuse, clock steps included.
            if max_age is not None and max(0.0, now - mtime) >= max_age:
                try:
                    os.unlink(path)
                    removed += 1
                    reclaimed += size
                except OSError:
                    pass
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            kept: list = []
            for mtime, size, path in survivors:
                if total > max_bytes:
                    try:
                        os.unlink(path)
                        removed += 1
                        reclaimed += size
                    except OSError:
                        kept.append((mtime, size, path))
                        continue
                    total -= size
                else:
                    kept.append((mtime, size, path))
            survivors = kept
        return CompactionResult(
            removed=removed,
            reclaimed_bytes=reclaimed,
            remaining=len(survivors),
            remaining_bytes=sum(size for _, size, _ in survivors),
        )

    def clear(self, namespace: Optional[str] = None) -> int:
        """Delete cached entries (all of them, or one namespace). Returns
        the number of files removed."""
        removed = 0
        for name in self._entries():
            if namespace is not None and self._namespace_of(name) != namespace:
                continue
            try:
                os.unlink(os.path.join(self.cache_dir, name))
                removed += 1
            except OSError:
                pass
        return removed
