"""The three workloads of the paper-loop benchmark.

Each workload is a closed loop — one CLI command, or one DAG, at a
time, driven by the single benchmark process with at most two worker
processes — over its own temporary cache directory.  The seed maps only
to inputs the program accepts: the hybrid/allocate voltage, taken from
the paper's scaled range, and the DAG's ``eval_seed``.

``setup()`` returns the set-up seconds; ``run_pass(traced)`` runs one
pass and returns a :class:`Pass`.  Output oracles are applied to every
pass; a pass whose output disagrees counts its operations as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import procs

#: Hybrid/allocate voltages the seed chooses from (paper Sec. VI range).
SCALED_VDDS = ("0.65", "0.70")

#: Monte-Carlo population of the paper workloads: one default 32768
#: sample block per voltage point, which keeps a cold pass near 15 s on
#: a 2-core box (the 131072-sample paper scale would not fit the run).
PAPER_FLAGS = ["--samples", "32768", "--trials", "3", "--jobs", "2"]

#: Fleet DAG: 8-point default grid, 4 shards of 8192 samples per point.
DAG_SAMPLES = 32768
DAG_BLOCK_SAMPLES = 8192
DAG_SHARDS = 4
DAG_TRIALS = 3
FLEET_WORKERS = 2

#: Set-up repetitions where set-up is cheap enough to repeat.
SETUP_REPEATS = 3

#: One BLAS thread per process: with ``--jobs 2`` children or two fleet
#: workers on a 2-core box, default BLAS threading oversubscribes the
#: cores and made identical commands vary by +-20 %.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    window: tuple
    problems: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


def digest(blob: Any) -> str:
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()
    ).hexdigest()[:16]


class Bench:
    """Paths and process environments shared by the workloads."""

    def __init__(self, root: str, work: str, trace_hook_dir: str):
        self.root = root
        self.work = work
        self.trace_hook_dir = trace_hook_dir
        self._n = 0

    def fresh_dir(self, tag: str) -> str:
        self._n += 1
        path = os.path.join(self.work, f"{tag}-{self._n}")
        os.makedirs(path)
        return path

    def env(self, cache_dir: str, trace_dir: Optional[str] = None) -> Dict[str, str]:
        """Child environment: the program's own knobs cleared, BLAS pinned
        to one thread per process, and an isolated cache directory."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("REPRO_", "PERFBENCH_"))}
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = (f"{self.trace_hook_dir}{os.pathsep}{src}"
                             if trace_dir else src)
        env.update(BLAS_ENV)
        env["REPRO_CACHE_DIR"] = cache_dir
        if trace_dir:
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        return env


class CliLoop:
    """``paper-cold`` and ``paper-warm``: CLI commands as fresh processes."""

    def __init__(self, bench: Bench, seed: int, warm: bool):
        self.bench = bench
        self.warm = warm
        self.vdd = SCALED_VDDS[seed % len(SCALED_VDDS)]
        self.cold_command = ["hybrid", "--vdd", self.vdd, *PAPER_FLAGS]
        if warm:
            self.commands = [
                ["scaling", *PAPER_FLAGS],
                ["hybrid", "--vdd", "0.65", *PAPER_FLAGS],
                ["hybrid", "--vdd", "0.70", *PAPER_FLAGS],
                ["allocate", "--vdd", self.vdd, *PAPER_FLAGS],
            ]
        else:
            self.commands = [self.cold_command]
        #: Expected stdout per command: the first pass's, or the cold
        #: set-up run's for the same command.
        self.expected: Dict[str, bytes] = {}
        self.cache_dir: Optional[str] = None
        self.logs = bench.fresh_dir("logs")

    def setup(self) -> float:
        if self.warm:
            # The cache fill is the cold run of one of the loop's own
            # commands: training and Monte Carlo for both cells.
            self.cache_dir = self.bench.fresh_dir("cache")
            result = procs.run_cli(self.cold_command,
                                   self.bench.env(self.cache_dir),
                                   self.bench.root, self.logs)
            if result.returncode != 0:
                raise RuntimeError(f"cache fill failed: rc {result.returncode}"
                                   f", stderr ends {result.stderr_tail!r}")
            self.expected[" ".join(self.cold_command)] = result.stdout
            return result.wall_s
        # Cold loop: nothing to fill.  Start the CLI a few times so the
        # first timed pass does not pay for byte-compiling the sources.
        scratch = self.bench.fresh_dir("cache")
        walls = []
        for _ in range(SETUP_REPEATS):
            result = procs.run_cli(["--version"], self.bench.env(scratch),
                                   self.bench.root, self.logs)
            if result.returncode != 0:
                raise RuntimeError(f"CLI start failed: rc {result.returncode}")
            walls.append(result.wall_s)
        return statistics.median(walls)

    def _listing(self) -> Dict[str, int]:
        return {name: os.path.getsize(os.path.join(self.cache_dir, name))
                for name in os.listdir(self.cache_dir)}

    def run_pass(self, trace_dir: Optional[str] = None) -> Pass:
        cache_dir = self.cache_dir if self.warm else self.bench.fresh_dir("cache")
        before = self._listing() if self.warm else None
        env = self.bench.env(cache_dir, trace_dir)
        start = time.perf_counter()
        results = [procs.run_cli(cmd, env, self.bench.root, self.logs)
                   for cmd in self.commands]
        end = time.perf_counter()
        problems = []
        failed = 0
        for result in results:
            key = " ".join(result.args)
            expected = self.expected.setdefault(key, result.stdout)
            if result.returncode != 0 or result.stdout != expected:
                failed += 1
                problems.append(
                    f"{key}: rc {result.returncode}, stdout "
                    f"{'matches' if result.stdout == expected else 'differs'}"
                    f"; stderr ends {result.stderr_tail!r}"
                )
        if self.warm and self._listing() != before:
            problems.append("warm pass wrote to the cache (work was recomputed)")
        if not self.warm:
            shutil.rmtree(cache_dir)
        return Pass(
            wall_s=end - start,
            cpu_s=sum(r.cpu_s for r in results),
            peak_rss_mb=max(r.peak_rss_mb for r in results),
            attempted=len(results), failed=failed, window=(start, end),
            problems=problems,
            details={"commands": [
                {"args": r.args, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                 "peak_rss_mb": r.peak_rss_mb, "rc": r.returncode,
                 "stdout_sha256": hashlib.sha256(r.stdout).hexdigest()[:16]}
                for r in results
            ]},
        )

    def close(self) -> None:
        pass


class FleetDag:
    """``fleet-dag``: ``paper_pipeline_dag`` through an in-process
    dispatcher and two ``repro-sram worker`` subprocesses."""

    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        self.seed = seed
        self.weights_dir = bench.fresh_dir("ann")
        self.store_dir = bench.fresh_dir("store")
        self.logs = bench.fresh_dir("logs")
        # The coordinator builds the model too (to size the injectors):
        # point its weight cache at the warm one.
        os.environ["REPRO_CACHE_DIR"] = self.weights_dir
        self.fleet = None  # (dispatcher, workers)
        self.expected: Dict[str, str] = {}
        self.reference_payload: Optional[str] = None
        #: Dispatcher counter deltas of the latest pass.
        self.stats: Dict[str, Any] = {}

    def _start_fleet(self, trace_dir: Optional[str] = None):
        from repro.distributed import DirectoryStore, ShardDispatcher

        dispatcher = ShardDispatcher(store=DirectoryStore(self.store_dir))
        workers: List[Any] = []
        try:
            host, port = dispatcher.start("127.0.0.1", 0)
            workers = procs.spawn_workers(
                FLEET_WORKERS, host, port, self.store_dir,
                self.bench.env(self.weights_dir, trace_dir), self.bench.root,
                os.path.join(self.logs, "workers.log"),
            )
            dispatcher.await_workers(FLEET_WORKERS, timeout=60)
        except BaseException:
            procs.stop_workers(workers)
            dispatcher.close()
            raise
        return dispatcher, workers

    def _stop_fleet(self) -> None:
        if self.fleet is not None:
            dispatcher, workers = self.fleet
            self.fleet = None
            try:
                procs.stop_workers(workers)
            finally:
                dispatcher.close()

    def setup(self) -> float:
        # Warm ANN weights (not part of set-up: the workload's premise),
        # computed while this process builds the local tables oracle.
        trainer = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.distributed.jobs import benchmark_model_spec, "
             "model_from_spec; model_from_spec(benchmark_model_spec())"],
            env=self.bench.env(self.weights_dir), cwd=self.bench.root,
        )
        try:
            from repro.mem import CellTables

            local = CellTables.build(n_samples=DAG_SAMPLES,
                                     block_samples=DAG_BLOCK_SAMPLES,
                                     use_cache=False)
        except BaseException:
            trainer.kill()
            trainer.wait()
            raise
        self.reference_payload = digest(
            [local.table_6t.to_payload(), local.table_8t.to_payload()]
        )
        if trainer.wait() != 0:
            raise RuntimeError("warming the ANN weights failed")
        walls = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.fleet = self._start_fleet()
            walls.append(time.perf_counter() - start)
            if i < SETUP_REPEATS - 1:
                self._stop_fleet()
        return statistics.median(walls)

    def run_pass(self, trace_dir: Optional[str] = None) -> Pass:
        from repro.distributed.dag import paper_pipeline_dag
        from repro.distributed.jobs import benchmark_model_spec
        from repro.sram import DEFAULT_VDD_GRID

        if trace_dir is not None:
            # Traced workers need the trace hook from their first import.
            self._stop_fleet()
            self.fleet = self._start_fleet(trace_dir)
        dispatcher, workers = self.fleet
        # A fresh store each pass, so every job is computed.
        shutil.rmtree(self.store_dir)
        os.makedirs(self.store_dir)
        me = os.getpid()
        pids = [me] + [w.pid for w in workers]
        for pid in pids:
            procs.reset_peak_rss(pid)
        cpu0 = sum(procs.proc_cpu_s(pid) for pid in pids)
        stats0 = dispatcher.stats.to_dict()
        puts0 = dispatcher.store.tier.puts
        start = time.perf_counter()
        results = paper_pipeline_dag(
            benchmark_model_spec(), vdds=DEFAULT_VDD_GRID,
            n_samples=DAG_SAMPLES, block_samples=DAG_BLOCK_SAMPLES,
            shards=DAG_SHARDS, n_trials=DAG_TRIALS, eval_seed=self.seed,
        ).run(dispatcher)
        end = time.perf_counter()
        cpu = sum(procs.proc_cpu_s(pid) for pid in pids) - cpu0
        rss_by_pid = {pid: procs.peak_rss_mb(pid) for pid in pids}
        rss = max(rss_by_pid.values())
        stats1 = dispatcher.stats.to_dict()
        delta = {k: stats1[k] - stats0[k] for k in stats0 if k != "per_worker"}
        self.stats = delta
        # The dispatcher persists computed results in the background, and
        # a worker that lost a speculation race still finishes its copy
        # and stores it.  Both must settle before the next pass wipes the
        # store, or a late write turns into a store hit there.
        problems = []
        deadline = time.monotonic() + 30
        while (dispatcher.store.tier.puts - puts0 < delta["computed"]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        if not procs.wait_idle([w.pid for w in workers]):
            problems.append("workers still busy 30 s after the DAG")
        for counter in ("store_hits", "worker_cache_hits"):
            if delta[counter]:
                problems.append(f"dispatcher {counter} = {delta[counter]}")

        tables = results["tables"]
        outputs = {
            "tables": digest([tables.table_6t.to_payload(),
                              tables.table_8t.to_payload()]),
            "nn-fault": digest(results["nn-fault"]),
        }
        wrong = [f"{key} digest differs from the first pass"
                 for key, value in outputs.items()
                 if self.expected.setdefault(key, value) != value]
        if outputs["tables"] != self.reference_payload:
            wrong.append("tables differ from a local CellTables.build")
        jobs = int(delta["jobs"])
        return Pass(
            wall_s=end - start, cpu_s=cpu, peak_rss_mb=rss,
            attempted=jobs,
            failed=jobs if wrong else int(delta["failures"]),
            window=(start, end), problems=problems + wrong,
            details={"outputs": outputs, "dispatcher": delta,
                     "peak_rss_mb_by_pid": rss_by_pid},
        )

    def close(self) -> None:
        self._stop_fleet()
