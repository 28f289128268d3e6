"""Durable run journal: the dispatcher's crash-recovery write-ahead log.

A :class:`RunJournal` is an append-only JSON-lines file
(``journal.jsonl`` inside the journal directory) that makes the
dispatcher's accepted work *durable*: each accepted job's full wire
spec is recorded **before** it is enqueued for assignment, and each
completion is recorded by **content address** after the merge accepts
its result.  A dispatcher restarted on the same journal
(``repro-sram dispatch --journal-dir``) replays the log, skips every
job whose journaled completion is still present in the store, and
re-enqueues only the unfinished remainder — so a SIGKILL'd control
plane resumes where it died with zero recomputation of completed work
(``docs/recovery.md`` walks through the whole story).

Record vocabulary (one JSON object per line, ``rec`` discriminated):

``{"rec": "open", "version": 1, "pid": ...}``
    Session header, appended once per dispatcher lifetime.  Replay
    ignores it; it exists so an operator reading the log can see where
    each incarnation started.
``{"rec": "job", "job": {...}}``
    One accepted job: the full 8-field
    :meth:`~repro.distributed.jobs.ShardJob.to_wire` object, written
    before the job is queued.  Records from older builds also carry
    the submitting client's scheduling fields; replay ignores them.
``{"rec": "done", "job_id": str, "namespace": str, "key": str}``
    One merge-accepted completion.  ``key`` is the result's content
    address (:func:`~repro.runtime.cache.content_key`), which is how a
    replay cross-checks the store: a done record whose address is gone
    (evicted, expired via ``--ttl``) demotes the job back to pending.

Durability contract: every append is flushed to the OS before the
dispatcher acts on the record, so a SIGKILL of the *process* never
loses an acknowledged line (an ``fsync=True`` journal additionally
survives power loss, at a per-record fsync cost).  Replay is tolerant
by construction — a torn final line from a mid-write crash, duplicate
completion records from overlapping sessions, and job records whose
kind this build cannot rebuild are all skipped, counted, and never
abort recovery.  Journal *writes* fail open for the same reason the
cache tiers do: losing durability must degrade recovery, not kill the
run in flight (failures count on :attr:`RunJournal.errors`).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO

from repro.errors import ConfigurationError
from repro.distributed.jobs import ShardJob, job_address

__all__ = [
    "JOURNAL_FILENAME",
    "JOURNAL_VERSION",
    "JournalReplay",
    "RunJournal",
    "job_address",
]

#: Journal schema revision (the ``version`` field of ``open`` records).
JOURNAL_VERSION = 1

#: File name of the log inside the journal directory.
JOURNAL_FILENAME = "journal.jsonl"


@dataclass
class JournalReplay:
    """Everything one :meth:`RunJournal.replay` pass recovered.

    ``pending`` are journaled jobs without a completion record;
    ``done`` are journaled jobs *with* one (the dispatcher still
    cross-checks their store addresses before skipping them).
    ``torn`` counts unparseable lines (normally 0 or 1 — the final
    line a crash tore mid-write), ``unknown`` lists job records this
    build could not rebuild (foreign job kind, malformed spec) and
    ``orphan_done`` counts completions without a matching job record.
    """

    pending: List[ShardJob] = field(default_factory=list)
    done: List[ShardJob] = field(default_factory=list)
    records: int = 0
    torn: int = 0
    unknown: List[Dict[str, Any]] = field(default_factory=list)
    orphan_done: int = 0


class RunJournal:
    """Append-only JSON-lines write-ahead log of dispatcher work.

    Parameters
    ----------
    journal_dir:
        Directory holding ``journal.jsonl`` (created if missing).  One
        directory = one logical dispatcher identity; restarts point at
        the same directory to resume.
    fsync:
        Also ``os.fsync`` after every append.  Off by default: the
        plain flush already survives SIGKILL of the dispatcher process
        (the failure mode recovery targets); fsync extends that to
        host power loss at a heavy per-record cost.

    Thread-safe: appends come from the dispatcher's event-loop thread
    while :meth:`replay` runs on an executor thread at startup.
    """

    def __init__(self, journal_dir: str, fsync: bool = False):
        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.journal_dir / JOURNAL_FILENAME
        self.fsync = bool(fsync)
        #: Failed appends (fail-open: a full disk degrades durability,
        #: it must not kill the run whose results are still streaming).
        self.errors = 0
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None

    # ------------------------------------------------------------------
    # Appending (write-ahead side)
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            with self._lock:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(line + "\n")
                # Flush to the OS: a SIGKILL'd process loses nothing
                # past this point (page cache survives the process).
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
        except (OSError, ValueError):
            self.errors += 1

    def open_session(self) -> None:
        """Append the session header for this dispatcher incarnation."""
        self._append(
            {"rec": "open", "version": JOURNAL_VERSION, "pid": os.getpid()}
        )

    def record_job(self, job: ShardJob) -> None:
        """Journal one accepted job — called *before* it is enqueued."""
        self._append({"rec": "job", "job": job.to_wire()})

    def record_done(self, job: ShardJob) -> None:
        """Journal one completion by content address (after merge-accept)."""
        namespace, key = job_address(job)
        self._append(
            {
                "rec": "done",
                "job_id": job.job_id,
                "namespace": namespace,
                "key": key,
            }
        )

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:  # pragma: no cover - teardown best effort
                    pass
                self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Replay (recovery side)
    # ------------------------------------------------------------------
    def replay(self) -> JournalReplay:
        """Read the whole log back into a :class:`JournalReplay`.

        Tolerant by design: unparseable lines (the torn final record of
        a crashed writer) are counted and skipped, duplicate ``done``
        records collapse idempotently, duplicate ``job`` records keep
        the first occurrence, job records this build cannot rebuild (a
        foreign kind, a mistyped envelope or spec) land in ``unknown``
        instead of aborting, and unknown ``rec`` discriminators (future
        schema additions) are ignored.
        """
        replay = JournalReplay()
        jobs: Dict[str, ShardJob] = {}
        done_ids: set = set()
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return replay
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            replay.records += 1
            try:
                record = json.loads(line)
            except ValueError:
                replay.torn += 1
                continue
            if not isinstance(record, dict):
                replay.torn += 1
                continue
            rec = record.get("rec")
            if rec == "job":
                self._replay_job(record, jobs, replay)
            elif rec == "done":
                job_id = record.get("job_id")
                if isinstance(job_id, str) and job_id in jobs:
                    done_ids.add(job_id)
                else:
                    replay.orphan_done += 1
            # "open" and future record kinds: bookkeeping only.
        for job_id, job in jobs.items():
            (replay.done if job_id in done_ids else replay.pending).append(job)
        return replay

    @staticmethod
    def _replay_job(
        record: Dict[str, Any],
        jobs: Dict[str, ShardJob],
        replay: JournalReplay,
    ) -> None:
        wire = record.get("job")
        try:
            job = ShardJob.from_wire(dict(wire) if isinstance(wire, dict) else {})
        except ConfigurationError as exc:
            # A kind this build does not know (or an envelope or spec it
            # cannot validate) is a *skipped* record, not a failed recovery:
            # the jobs a newer/foreign dispatcher journaled are not
            # ours to recompute.
            job_id = wire.get("job_id") if isinstance(wire, dict) else None
            replay.unknown.append(
                {"job_id": str(job_id) if job_id else "?", "error": str(exc)}
            )
            return
        # A duplicate job record keeps the first occurrence.
        jobs.setdefault(job.job_id, job)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunJournal({str(self.path)!r})"
