"""Tests of the command-line interface (fast paths only)."""

import os
import subprocess
import sys
import threading
import time
from functools import partial

import pytest

import repro.cli
from repro.cli import _build_sim, build_parser, main
from repro.core import benchmark_weights_path, train_benchmark_ann
from repro.errors import ConfigurationError
from repro.runtime import SweepExecutor


class TestDispatchCommand:
    def test_ttl_zero_treats_entries_as_misses(self, tmp_path, monkeypatch):
        """``dispatch --ttl 0``: an entry the dispatcher's store already
        holds reads as an expired miss, so the job is computed again."""
        import repro.distributed
        from tests.distributed.conftest import WorkerThread

        dispatchers, workers = [], []

        class WithWorker(repro.distributed.ShardDispatcher):
            def start(self, host="127.0.0.1", port=0):
                host, port = super().start(host, port)
                dispatchers.append(self)
                workers.append(WorkerThread(host, port))
                return host, port

        monkeypatch.setattr(repro.distributed, "ShardDispatcher", WithWorker)
        store_dir = tmp_path / "store"
        argv = ["dispatch", "--listen", "127.0.0.1:0",
                "--cache-dir", str(store_dir), "--samples", "1200",
                "--block-samples", "256", "--vdd", "0.7", "--shards", "1"]
        assert main(argv) == 0
        assert len(os.listdir(store_dir)) == 1  # the entry
        assert main(argv + ["--ttl", "0"]) == 0
        for worker in workers:
            worker.join()
        first, second = dispatchers
        assert first.stats.computed == 1
        assert (second.stats.store_hits, second.stats.computed) == (0, 1)
        assert second.store.ttl == 0.0
        assert (second.store.tier.hits, second.store.tier.misses) == (0, 1)
        assert second.store.tier.expirations == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in ("characterize", "scaling", "hybrid", "sensitivity",
                    "allocate"):
            args = parser.parse_args([cmd] if cmd != "allocate"
                                     else [cmd, "--max-drop", "2"])
            assert args.command == cmd
        assert parser.parse_args(["cache", "stats"]).command == "cache"

    def test_jobs_and_no_cache_on_every_sweep_subcommand(self):
        parser = build_parser()
        for cmd in ("characterize", "scaling", "hybrid", "sensitivity",
                    "allocate"):
            args = parser.parse_args([cmd, "--jobs", "4", "--no-cache"])
            assert args.jobs == 4
            assert args.no_cache is True
            defaults = parser.parse_args([cmd])
            assert defaults.jobs is None
            assert defaults.no_cache is False

    def test_shards_flags_on_every_sweep_subcommand(self):
        parser = build_parser()
        for cmd in ("characterize", "scaling", "hybrid", "sensitivity",
                    "allocate"):
            args = parser.parse_args(
                [cmd, "--shards", "4", "--max-shard-samples", "512",
                 "--block-samples", "256"]
            )
            assert args.shards == 4
            assert args.max_shard_samples == 512
            assert args.block_samples == 256
            defaults = parser.parse_args([cmd])
            assert defaults.shards is None
            assert defaults.max_shard_samples is None
            assert defaults.block_samples is None

    def test_unknown_technology_fails_cleanly(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown technology"):
            main(["characterize", "--tech", "ptm3000", "--samples", "2000"])

    def test_worker_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["worker", "--connect", "10.0.0.5:8417",
             "--cache-dir", "/mnt/store", "--name", "rack3-a",
             "--max-jobs", "100"]
        )
        assert args.command == "worker"
        assert args.connect == "10.0.0.5:8417"
        assert args.cache_dir == "/mnt/store"
        assert args.name == "rack3-a" and args.max_jobs == 100
        with pytest.raises(SystemExit):  # --connect is required
            parser.parse_args(["worker"])

    def test_worker_reconnect_defaults_are_the_workers(self):
        from repro.distributed.worker import (
            DEFAULT_RECONNECT_ATTEMPTS,
            DEFAULT_RECONNECT_BACKOFF,
        )

        args = build_parser().parse_args(["worker", "--connect", "h:1"])
        assert args.reconnect_backoff == DEFAULT_RECONNECT_BACKOFF
        assert args.reconnect_max == DEFAULT_RECONNECT_ATTEMPTS

    def test_cli_start_loads_no_distributed_module(self):
        """Importing the CLI and parsing any command, the worker's
        included, leave the distributed package unloaded."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import sys\n"
            "import repro.cli as cli\n"
            "cli.build_parser().parse_args(['worker', '--connect', 'h:1'])\n"
            "cli.build_parser().parse_args(['hybrid', '--vdd', '0.7'])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.distributed')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_dispatch_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["dispatch", "--listen", "0.0.0.0:9001",
             "--cache-dir", "/mnt/store", "--max-retries", "5",
             "--min-workers", "2", "--cell", "8t", "--samples", "4000",
             "--vdd", "0.65", "--vdd", "0.7", "--shards", "8",
             "--max-shard-samples", "1024", "--block-samples", "512"]
        )
        assert args.command == "dispatch"
        assert args.listen == "0.0.0.0:9001"
        assert args.max_retries == 5 and args.min_workers == 2
        assert args.vdd == [0.65, 0.7]
        assert args.shards == 8 and args.block_samples == 512
        defaults = parser.parse_args(["dispatch"])
        assert defaults.listen == "127.0.0.1:8417"
        assert defaults.max_retries == 3 and defaults.min_workers == 1
        assert defaults.vdd is None and defaults.stats is False

    @pytest.mark.parametrize("flag", ["--samples", "--trials", "--shards",
                                      "--max-shard-samples",
                                      "--block-samples", "--max-jobs"])
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_sizes_must_be_positive(self, flag, value, capsys):
        command = (["worker", "--connect", "h:1"]
                   if flag == "--max-jobs" else ["hybrid"])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + [flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a positive integer" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", [["worker", "--connect", "h:1"],
                                         ["dispatch"]])
    @pytest.mark.parametrize("value", ["-1", "nan", "soon"])
    def test_ttl_must_be_non_negative_seconds(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--ttl", value])
        assert exc.value.code == 2
        assert "argument --ttl: expected a non-negative number of seconds" in (
            capsys.readouterr().err
        )
        # 0 stays legal: every entry reads as already expired.
        assert build_parser().parse_args(command + ["--ttl", "0"]).ttl == 0.0

    def test_top_iterations_must_not_be_negative(self, capsys):
        top = ["top", "--port", "1", "--iterations"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(top + ["-1"])
        assert exc.value.code == 2
        assert "argument --iterations: expected a non-negative integer" in (
            capsys.readouterr().err
        )
        # 0 stays legal: it polls until Ctrl-C.
        assert build_parser().parse_args(top + ["0"]).iterations == 0

    def test_top_negative_interval_fails_before_polling(self, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="interval"):
            main(["top", "--port", "1", "--interval", "-1",
                  "--iterations", "2", "--no-clear"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--shards", "--max-shard-samples"])
    def test_bad_shard_size_fails_on_a_warm_cache(self, flag, tmp_cache,
                                                  capsys):
        # A cached table would be served without consulting the shard
        # plan, so the flag itself must refuse the value.
        base = ["characterize", "--samples", "2000"]
        assert main(base) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(base + [flag, "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["characterize"], ["hybrid"], ["worker", "--connect", "h:1"], ["dispatch"],
    ])
    def test_no_margin_kernel_flag(self, argv):
        """Margins have one kernel; no command takes a flag to pick one."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--backend", "fused"])
        assert exc.value.code == 2

    def test_endpoint_parsing(self):
        from repro.cli import _parse_endpoint
        from repro.errors import ConfigurationError

        assert _parse_endpoint("10.0.0.5:8417", "--connect") == ("10.0.0.5", 8417)
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            _parse_endpoint("8417", "--connect")
        with pytest.raises(ConfigurationError, match="port"):
            _parse_endpoint("host:abc", "--connect")


class TestCharacterizeCommand:
    def test_characterize_prints_table(self, capsys, tmp_cache):
        exit_code = main(["characterize", "--cell", "6t", "--samples", "2000"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "P(read acc)" in out
        assert "0.95" in out
        assert "um^2" in out

    def test_characterize_8t(self, capsys, tmp_cache):
        exit_code = main(["characterize", "--cell", "8t", "--samples", "2000"])
        assert exit_code == 0
        assert "8T cell" in capsys.readouterr().out

    def test_characterize_no_cache_leaves_store_empty(self, capsys, tmp_cache):
        exit_code = main(["characterize", "--cell", "6t", "--samples", "2000",
                          "--no-cache"])
        assert exit_code == 0
        assert not tmp_cache.exists() or not any(tmp_cache.iterdir())

    def test_characterize_sharded_round_trip(self, capsys, tmp_cache):
        """--shards changes execution, caching granularity — and no output.

        The population is pinned with --block-samples (that knob *defines*
        the sample streams); only the execution knobs vary between runs.
        """
        base = ["characterize", "--cell", "6t", "--samples", "2000",
                "--block-samples", "512"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        from repro.runtime import ResultCache

        ResultCache().clear()  # force the sharded run to recompute
        assert main(base + ["--shards", "3", "--max-shard-samples", "1024"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == plain
        # Shard tallies landed in their own namespace alongside the table:
        # 2000 samples / 512-sample blocks -> 4 blocks -> 3 ragged shards.
        stats = ResultCache().stats()
        assert stats.by_namespace.get("mcshard", 0) == 3 * 8  # shards x grid


class TestCacheCommand:
    def test_stats_on_empty_cache(self, capsys, tmp_cache):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out

    def test_stats_after_characterize(self, capsys, tmp_cache):
        main(["characterize", "--cell", "6t", "--samples", "2000"])
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cellpoint" in out

    def test_clear_namespace_then_all(self, capsys, tmp_cache):
        main(["characterize", "--cell", "6t", "--samples", "2000"])
        capsys.readouterr()
        assert main(["cache", "clear", "--namespace", "cell"]) == 0
        assert "removed 1 cache entries" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert main(["cache", "stats"]) == 0
        assert "entries   : 0" in capsys.readouterr().out


class TestBuildSimOverlap:
    """The cell tables are built while the ANN trains."""

    ARGS = ["hybrid", "--samples", "64", "--trials", "1"]

    @pytest.fixture(autouse=True)
    def _fake_simulator(self, monkeypatch):
        monkeypatch.setattr(
            repro.cli, "CircuitToSystemSimulator",
            lambda model, tables, n_trials, jobs: (model, tables),
        )

    def test_tables_build_while_training(self, monkeypatch):
        meet = threading.Barrier(2, timeout=5)

        def train(**kwargs):
            meet.wait()
            return "model"

        def build(**kwargs):
            meet.wait()
            return "tables"

        monkeypatch.setattr(repro.cli, "train_benchmark_ann", train)
        monkeypatch.setattr(repro.cli.CellTables, "build", build)
        args = build_parser().parse_args(self.ARGS)
        assert _build_sim(args) == ("model", "tables")

    def test_training_error_waits_for_tables(self, monkeypatch):
        training = threading.Event()
        tables_done = threading.Event()

        def train(**kwargs):
            training.set()
            raise RuntimeError("training failed")

        def build(**kwargs):
            training.wait(5)
            time.sleep(0.2)
            tables_done.set()
            return "tables"

        monkeypatch.setattr(repro.cli, "train_benchmark_ann", train)
        monkeypatch.setattr(repro.cli.CellTables, "build", build)
        args = build_parser().parse_args(self.ARGS)
        with pytest.raises(RuntimeError, match="training failed"):
            _build_sim(args)
        assert tables_done.is_set()

    def test_tables_error_propagates(self, monkeypatch):
        def build(**kwargs):
            raise ConfigurationError("bad shard plan")

        monkeypatch.setattr(repro.cli, "train_benchmark_ann",
                            lambda **kwargs: "model")
        monkeypatch.setattr(repro.cli.CellTables, "build", build)
        args = build_parser().parse_args(self.ARGS)
        with pytest.raises(ConfigurationError, match="bad shard plan"):
            _build_sim(args)


    @pytest.mark.parametrize("flags, weights_on_disk, expected", [
        (["--jobs", "2"], False, (1, False)),
        (["--jobs", "3"], False, (2, False)),
        (["--jobs", "2"], True, (2, True)),
        (["--jobs", "1"], False, (1, True)),
        (["--jobs", "2", "--no-cache"], True, (1, False)),
    ], ids=["training-jobs2", "training-jobs3", "weights-present",
            "serial", "no-cache-trains"])
    def test_tables_workers(self, tmp_path, monkeypatch, flags,
                            weights_on_disk, expected):
        """``(jobs, in_process)`` of the tables build's executors: while
        the ANN trains they get ``jobs - 1`` pool children and never the
        trainer's process; with the weights on disk they keep all
        ``jobs``; ``--jobs 1`` stays serial in-process."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        if weights_on_disk:
            open(benchmark_weights_path(), "wb").close()
        seen = []

        def build(**kwargs):
            seen.append((kwargs["jobs"], SweepExecutor(kwargs["jobs"]).in_process))
            return "tables"

        monkeypatch.setattr(repro.cli, "train_benchmark_ann",
                            lambda **kwargs: "model")
        monkeypatch.setattr(repro.cli.CellTables, "build", build)
        _build_sim(build_parser().parse_args(self.ARGS + flags))
        assert seen == [expected]
        assert SweepExecutor(1).in_process


class TestHybridCommand:
    def test_cold_output_is_independent_of_jobs(self, tmp_path, monkeypatch,
                                                 capsys):
        """Cold tables, training and study print the same bytes at any
        --jobs, and so do the warm ``scaling`` and ``allocate`` that
        follow on the filled cache (their fault trials run on --jobs
        threads).  A small training set keeps the two cold runs quick."""
        monkeypatch.setattr(
            repro.cli, "train_benchmark_ann",
            partial(train_benchmark_ann, n_train=600, n_val=100,
                    n_test=300, epochs=2),
        )
        commands = (
            ["hybrid", "--vdd", "0.7", "--trials", "1"],
            ["scaling", "--trials", "2"],
            ["allocate", "--vdd", "0.7", "--max-drop", "5", "--trials", "2"],
        )
        outputs = []
        for jobs in ("1", "2"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / jobs))
            for command in commands:
                assert main([*command, "--samples", "2000",
                             "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "(4,4)" in outputs[0]
