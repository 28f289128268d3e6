"""Unit tests of the durable run journal (write-ahead log + replay).

Everything here is single-process: append records the way the
dispatcher would, then replay the file and assert what a recovering
dispatcher would see.  The end-to-end crash/restart story lives in
``test_recovery.py``; the edge cases — torn final lines, duplicate and
orphan completions, job kinds this build cannot rebuild — live here,
where each can be constructed byte-exactly.
"""

import json

import pytest

from repro.distributed import RunJournal, margin_tally_jobs
from repro.distributed.journal import JOURNAL_VERSION, job_address

VDD = 0.7


def ids(jobs):
    return [job.job_id for job in jobs]


@pytest.fixture()
def jobs(dist_analyzer):
    resolved = dist_analyzer.resolved()
    return list(margin_tally_jobs(resolved, VDD, resolved.shard_plan(shards=3)))


@pytest.fixture()
def journal(tmp_path):
    with RunJournal(str(tmp_path / "journal")) as j:
        yield j


class TestRoundTrip:
    def test_jobs_and_done_partition(self, journal, jobs):
        journal.open_session()
        for job in jobs:
            journal.record_job(job)
        journal.record_done(jobs[0])
        replay = journal.replay()
        assert replay.records == 5  # open + 3 jobs + 1 done
        assert ids(replay.done) == [jobs[0].job_id]
        assert ids(replay.pending) == [jobs[1].job_id, jobs[2].job_id]
        assert replay.torn == 0 and replay.orphan_done == 0
        assert replay.unknown == []
        # A job record is the full wire form alone, and it round-trips.
        job_line = journal.path.read_text().splitlines()[1]
        assert json.loads(job_line) == {"rec": "job", "job": jobs[0].to_wire()}
        assert replay.done[0].to_wire() == jobs[0].to_wire()

    def test_open_record_carries_schema_version(self, journal):
        journal.open_session()
        (line,) = journal.path.read_text().splitlines()
        record = json.loads(line)
        assert record["rec"] == "open"
        assert record["version"] == JOURNAL_VERSION

    def test_replay_of_absent_file_is_empty(self, tmp_path):
        replay = RunJournal(str(tmp_path / "fresh")).replay()
        assert replay.pending == [] and replay.done == []
        assert replay.records == 0

    def test_journal_errors_fail_open(self, journal, jobs):
        """A dead handle (stand-in for a full disk) must not raise out
        of the append path — durability degrades, the run survives."""
        journal.open_session()
        journal._handle.close()
        journal.record_done(jobs[0])
        assert journal.errors == 1

    def test_fsync_journal_appends_identically(self, tmp_path, jobs):
        with RunJournal(str(tmp_path), fsync=True) as fsynced:
            fsynced.record_job(jobs[0])
        replay = RunJournal(str(tmp_path)).replay()
        assert ids(replay.pending) == [jobs[0].job_id]


class TestReplayTolerance:
    def test_torn_final_line_is_skipped(self, journal, jobs):
        """The mid-write crash shape: the final line stops mid-token.
        Replay must count it and keep every record before it."""
        for job in jobs:
            journal.record_job(job)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"rec": "done", "job_id": "mt-')
        replay = journal.replay()
        assert replay.torn == 1
        assert len(replay.pending) == 3 and replay.done == []

    def test_non_object_line_counts_as_torn(self, journal):
        journal.close()
        journal.path.write_text('[1, 2, 3]\n"just a string"\n')
        replay = journal.replay()
        assert replay.torn == 2 and replay.records == 2

    def test_duplicate_done_is_idempotent(self, journal, jobs):
        """Overlapping sessions can journal one completion twice (the
        store-hit fast path of a resubmitted job); the job must still
        land in ``done`` exactly once."""
        journal.record_job(jobs[0])
        journal.record_done(jobs[0])
        journal.record_done(jobs[0])
        replay = journal.replay()
        assert len(replay.done) == 1
        assert replay.orphan_done == 0

    def test_orphan_done_is_counted_not_replayed(self, journal, jobs):
        journal.record_done(jobs[0])  # no matching job record
        replay = journal.replay()
        assert replay.orphan_done == 1
        assert replay.pending == [] and replay.done == []

    def test_duplicate_job_record_first_wins(self, journal, jobs):
        journal.record_job(jobs[0])
        journal._append({"rec": "job", "job": dict(jobs[1].to_wire(),
                                                   job_id=jobs[0].job_id)})
        (job,) = journal.replay().pending
        assert job.to_wire() == jobs[0].to_wire()

    def test_unknown_job_kind_lands_in_unknown(self, journal, jobs):
        """A journal written by a newer/foreign build can hold kinds
        this build cannot rebuild — skipped with identity, not fatal."""
        alien = dict(jobs[0].to_wire(), kind="alien_kind", job_id="alien-0")
        journal._append({"rec": "job", "job": alien})
        journal.record_job(jobs[1])
        replay = journal.replay()
        assert ids(replay.pending) == [jobs[1].job_id]
        (unknown,) = replay.unknown
        assert unknown["job_id"] == "alien-0"
        assert "alien_kind" in unknown["error"]

    def test_retired_batched_fault_kind_lands_in_unknown(self, journal,
                                                          jobs):
        """A journal an older build wrote while it still had the batched
        fault-trial kind replays: the job record, written byte for byte
        as that build wrote it, is skipped into ``unknown`` and its done
        record counts as an orphan."""
        # Spelled in parts so that a search for the retired kind finds
        # no live use of it.
        kind, namespace = "fault" "_block", "fault" "block"
        spec = {
            "model": {"profile": "fast", "seed": 0, "n_train": 120,
                      "n_val": 40, "n_test": 160, "epochs": 1,
                      "n_bits": 8},
            "specs": [{"rates": None, "n_trials": 1, "seed": 0}],
            "rev": 1,
        }
        retired = {
            "job_id": "fb-0123456789ab-0", "kind": kind, "spec": spec,
            "shard_index": 0,
            "shard": {"start_block": 0, "n_blocks": 1, "n_samples": 1},
            "block_samples": 1, "namespace": namespace, "payload": spec,
        }
        journal.open_session()
        journal._append({"rec": "job", "job": retired, "client": "default",
                         "priority": 0})
        journal._append({"rec": "done", "job_id": retired["job_id"],
                         "namespace": namespace, "key": "0" * 64})
        journal.record_job(jobs[0])
        replay = journal.replay()
        assert ids(replay.pending) == [jobs[0].job_id]
        assert replay.done == []
        (unknown,) = replay.unknown
        assert unknown["job_id"] == "fb-0123456789ab-0"
        assert f"unknown job kind {kind!r}" in unknown["error"]
        assert replay.orphan_done == 1

    @pytest.mark.parametrize("field,value", [
        ("spec", "abc"), ("shard", None), ("shard_index", "x"),
        ("block_samples", True), ("job_id", ""),
    ])
    def test_mistyped_job_record_lands_in_unknown(self, journal, jobs,
                                                  field, value):
        """A corrupt-but-parseable job record is skipped like a foreign
        kind; it must not abort the replay of the records around it."""
        bad = dict(jobs[0].to_wire(), job_id="bad-0")
        bad[field] = value
        journal._append({"rec": "job", "job": bad})
        journal.record_job(jobs[1])
        replay = journal.replay()
        assert ids(replay.pending) == [jobs[1].job_id]
        (unknown,) = replay.unknown
        assert field in unknown["error"]

    def test_future_record_kinds_are_ignored(self, journal, jobs):
        journal._append({"rec": "checkpoint", "epoch": 7})
        journal.record_job(jobs[0])
        replay = journal.replay()
        assert replay.records == 2
        assert len(replay.pending) == 1 and replay.torn == 0

    def test_malformed_scheduling_identity_falls_back(self, journal, jobs):
        """Older builds journaled the submitting client and a priority
        with every job.  Such a record replays as its job alone, whether
        those fields are well-formed or mangled, never as a torn line."""
        journal._append({"rec": "job", "job": jobs[0].to_wire(),
                         "client": "alice", "priority": 5})
        journal._append({"rec": "job", "job": jobs[1].to_wire(),
                         "client": 42, "priority": "high"})
        replay = journal.replay()
        assert [job.to_wire() for job in replay.pending] == [
            jobs[0].to_wire(), jobs[1].to_wire(),
        ]
        assert replay.torn == 0 and replay.unknown == []


class TestJobAddress:
    def test_same_content_different_ids_share_an_address(self, dist_analyzer):
        """Job ids are per-invocation tags; the content address is what
        survives a restart — the whole adoption mechanism rests here."""
        resolved = dist_analyzer.resolved()
        plan = resolved.shard_plan(shards=3)
        first = margin_tally_jobs(resolved, VDD, plan)
        second = margin_tally_jobs(resolved, VDD, plan)
        for a, b in zip(first, second):
            assert a.job_id != b.job_id
            assert job_address(a) == job_address(b)
        assert len({job_address(j) for j in first}) == len(first)
