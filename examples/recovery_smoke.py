"""Crash-recovery smoke: SIGKILL the *dispatcher* mid-run, resume on its journal.

This is the end-to-end acceptance script of the durable-dispatch
subsystem (CI runs it in the ``fleet-smoke`` job):

1. compute the monolithic single-process oracle for one voltage point,
2. spawn two genuine CLI workers with ``--reconnect`` pointed at a port
   nothing is listening on yet,
3. start dispatcher incarnation #1 (a subprocess of this same script,
   ``--driver`` mode) with ``--journal-dir``, driving an 8-shard sweep,
4. ``SIGKILL`` the dispatcher the moment the journal records at least
   one completion — the control-plane crash, with shards in flight,
5. start incarnation #2 on the **same** journal and store; the workers
   rejoin it through their reconnect loop (never respawned),
6. assert the resumed sweep merges **byte-identically** to the oracle,
   that every journaled completion was skipped (zero recomputation),
   and that only the unfinished remainder was replayed.

Run it directly::

    PYTHONPATH=src python examples/recovery_smoke.py

``SMOKE_SAMPLES`` scales the population; ``RECOVERY_ARTIFACT_DIR``
copies the journal there afterwards (the CI job uploads it).
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time

SAMPLES = int(os.environ.get("SMOKE_SAMPLES", "12000"))
SHARDS = 8
VDD = 0.70


def canon(document) -> str:
    return json.dumps(document, sort_keys=True)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_driver(port, store_dir, journal_dir, out_path):
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--driver",
         "--port", str(port), "--store-dir", store_dir,
         "--journal-dir", journal_dir, "--out", out_path],
        env=os.environ.copy(),
    )


def count_done_records(journal_path) -> int:
    """Completions currently durable in the journal (flushed per
    append, so reading the live file is exact)."""
    try:
        with open(journal_path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if '"rec":"done"' in line)
    except FileNotFoundError:
        return 0


def run_driver(args) -> int:
    """One dispatcher incarnation: serve the journal-backed dispatcher
    on the agreed port, drive the sweep, write the evidence as JSON."""
    from repro.devices import ptm22
    from repro.distributed import RunJournal, ShardDispatcher
    from repro.runtime import ResultCache
    from repro.sram import make_cell
    from repro.sram.montecarlo import MonteCarloAnalyzer

    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=SAMPLES,
        block_samples=max(1, SAMPLES // SHARDS),
    )
    with ShardDispatcher(
        store=ResultCache(args.store_dir),
        journal=RunJournal(args.journal_dir),
        heartbeat_interval=0.2,
    ) as dispatcher:
        dispatcher.start("127.0.0.1", args.port)
        print(f"driver {os.getpid()}: dispatching on port {args.port}")
        dispatcher.await_workers(2, timeout=120)
        rates = analyzer.analyze_sharded(
            VDD, shards=SHARDS, dispatcher=dispatcher
        )
        evidence = {
            "rates": rates.to_dict(),
            "stats": dispatcher.stats.to_dict(),
            "flight": [e["kind"] for e in dispatcher.flight.snapshot()],
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(evidence, handle)
    print(f"driver {os.getpid()}: sweep complete, evidence at {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--driver", action="store_true",
                        help="internal: run one dispatcher incarnation")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--store-dir", default=None)
    parser.add_argument("--journal-dir", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.driver:
        return run_driver(args)

    from repro.devices import ptm22
    from repro.distributed import worker_command
    from repro.sram import make_cell
    from repro.sram.montecarlo import MonteCarloAnalyzer

    print(f"monolithic oracle: {SAMPLES} samples at {VDD} V ...")
    oracle = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=SAMPLES,
        block_samples=max(1, SAMPLES // SHARDS),
    ).analyze(VDD)

    work_dir = tempfile.mkdtemp(prefix="repro-recovery-smoke-")
    store_dir = os.path.join(work_dir, "store")
    journal_dir = os.path.join(work_dir, "journal")
    journal_path = os.path.join(journal_dir, "journal.jsonl")
    out_path = os.path.join(work_dir, "evidence.json")
    port = free_port()

    workers = [
        subprocess.Popen(
            worker_command("127.0.0.1", port, cache_dir=store_dir, name=name,
                           reconnect=True) + ["--reconnect-backoff", "0.2"]
        )
        for name in ("w1", "w2")
    ]
    first = spawn_driver(port, store_dir, journal_dir, out_path)
    second = None
    try:
        # SIGKILL incarnation #1 once at least one completion is
        # durable but (normally) before the sweep finishes.
        deadline = time.monotonic() + 300
        while count_done_records(journal_path) < 1:
            assert time.monotonic() < deadline, (
                "journal never recorded a completion"
            )
            assert first.poll() is None, (
                f"driver exited early (rc {first.returncode}) — "
                f"it was supposed to be killed mid-run"
            )
            time.sleep(0.005)
        first.kill()
        first.wait(timeout=30)
        done_at_kill = count_done_records(journal_path)
        print(f"dispatcher SIGKILLed with {done_at_kill}/{SHARDS} "
              f"completion(s) journaled")
        assert done_at_kill < SHARDS, (
            "sweep finished before the kill; raise SMOKE_SAMPLES"
        )
        for worker in workers:
            assert worker.poll() is None, (
                "a worker died with the dispatcher instead of entering "
                "its reconnect loop"
            )

        # Incarnation #2: same journal, same store, same port.  The
        # workers were never touched — they rejoin via --reconnect.
        second = spawn_driver(port, store_dir, journal_dir, out_path)
        rc = second.wait(timeout=600)
        assert rc == 0, f"restarted dispatcher failed (rc {rc})"
        with open(out_path, "r", encoding="utf-8") as handle:
            evidence = json.load(handle)

        stats = evidence["stats"]
        identical = canon(evidence["rates"]) == canon(oracle.to_dict())
        assert identical, "resumed merge differs from the monolithic oracle"
        assert stats["journal_skipped"] == done_at_kill, (
            f"journaled completions recomputed: skipped "
            f"{stats['journal_skipped']}, expected {done_at_kill}"
        )
        assert stats["journal_replayed"] == SHARDS - done_at_kill, (
            f"replayed {stats['journal_replayed']}, "
            f"expected {SHARDS - done_at_kill}"
        )
        assert stats["computed"] <= SHARDS - done_at_kill, (
            "journaled-complete work was recomputed"
        )
        assert stats["active_workers"] == 2, (
            "workers did not rejoin the restarted dispatcher"
        )
        assert "journal_open" in evidence["flight"]
        assert "journal_replay" in evidence["flight"]
        # The restarted dispatcher's close() sends the fleet a clean
        # shutdown, so by now each worker has either exited 0 (served
        # both incarnations through one --reconnect lifetime) or is
        # still draining.  A nonzero exit would mean a worker *failed*
        # (exhausted re-dials) rather than rode out the restart.
        for worker in workers:
            assert worker.poll() in (None, 0), (
                f"a worker failed (rc {worker.returncode}) instead of "
                f"riding out the restart"
            )
        print(f"recovery smoke OK: byte-identical resume, "
              f"{stats['journal_skipped']} skipped / "
              f"{stats['journal_replayed']} replayed, "
              f"{stats['computed']} computed after restart")
        return 0
    finally:
        artifact_dir = os.environ.get("RECOVERY_ARTIFACT_DIR")
        if artifact_dir and os.path.exists(journal_path):
            os.makedirs(artifact_dir, exist_ok=True)
            shutil.copy(journal_path, os.path.join(artifact_dir,
                                                   "journal.jsonl"))
        for proc in [first, second, *workers]:
            if proc is not None and proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=30)
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
