"""Command-line interface: ``repro-sram <command>``.

Thin front-end over the library for quick exploration without writing a
script.  Every experiment of the paper has a richer, asserted version
under ``benchmarks/``; the CLI favours fast defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.core import (
    CircuitToSystemSimulator,
    allocate_msbs,
    benchmark_weights_path,
    format_table,
    hybrid_configuration_study,
    layer_sensitivity_profile,
    train_benchmark_ann,
    voltage_scaling_study,
)
from repro.devices.technology import get_technology
from repro.mem import CellTables
from repro.runtime import (
    DEFAULT_BLOCK_SAMPLES,
    CacheStore,
    ResultCache,
    in_pool,
    resolve_jobs,
)
from repro.sram import characterize_cell
from repro.sram.area import format_area
from repro.units import format_si
from repro.version import __version__


def _int_at_least(minimum: int, what: str):
    """An argparse type accepting integers of at least ``minimum``."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = minimum - 1
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {value!r}"
            )
        return number

    return parse


#: argparse type for sizes and counts: an integer of at least 1.
_positive_int = _int_at_least(1, "a positive integer")
#: argparse type for bounds where 0 switches a feature off.
_non_negative_int = _int_at_least(0, "a non-negative integer")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tech", default="ptm22", help="technology name")
    parser.add_argument("--samples", type=_positive_int, default=8000,
                        help="Monte-Carlo samples per voltage point")
    parser.add_argument("--trials", type=_positive_int, default=3,
                        help="fault-injection trials per evaluation")
    parser.add_argument("--profile", default=None,
                        help="ANN profile: fast (default) or paper")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the Monte-Carlo and "
                             "sensitivity sweeps, and threads for the "
                             "accuracy studies' fault trials (0 = all cores; "
                             "default: REPRO_JOBS env var, else serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache (recompute and "
                             "do not store)")
    parser.add_argument("--shards", type=_positive_int, default=None, metavar="N",
                        help="split each Monte-Carlo population into N "
                             "deterministic shards (bit-identical to a "
                             "monolithic run; shards are cached individually)")
    parser.add_argument("--max-shard-samples", type=_positive_int, default=None, metavar="M",
                        help="cap any shard at M Monte-Carlo samples, raising "
                             "the shard count as needed (bounds per-shard "
                             "memory for paper-scale populations; granularity "
                             "is --block-samples)")
    parser.add_argument("--block-samples", type=_positive_int, default=None, metavar="B",
                        help="Monte-Carlo samples per seeded block — the "
                             "sharding granularity. Unlike --jobs/--shards "
                             "this DEFINES the sampled population (default "
                             "32768, chosen so standard sample counts keep "
                             "their historical streams); populations no "
                             "larger than one block cannot be split")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="margin-kernel backend for the Monte-Carlo "
                             "margin evaluation (reference | fused; "
                             "default: REPRO_BACKEND env var, else fused). "
                             "Backends are bit-identical - this only "
                             "changes speed, never a number")


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    """Tiered-cache flags shared by worker / dispatch.

    Any of them upgrades the command's cache to the standard tiered
    composition (memory LRU → directory → remote object store; see
    ``docs/caching.md``); with none given, commands keep their
    historical single-tier stores.
    """
    parser.add_argument("--store-url", default=None, metavar="URL",
                        help="remote object-store endpoint "
                             "(http(s)://host:port/prefix) used as the "
                             "shared third cache tier — reads fall through "
                             "to it, writes reach it via fail-open "
                             "write-behind")
    parser.add_argument("--lru-entries", type=_non_negative_int, default=None,
                        metavar="N",
                        help="in-process hot-tier bound in entries "
                             "(0 disables the memory tier; default 1024 "
                             "once tiering is active)")
    parser.add_argument("--lru-bytes", type=_positive_int, default=None,
                        metavar="B",
                        help="in-process hot-tier bound in value bytes "
                             "(default 64 MiB)")
    parser.add_argument("--ttl", type=float, default=None, metavar="S",
                        help="treat local cache entries older than S "
                             "seconds as misses (expired files are reaped "
                             "by 'repro-sram cache compact')")


def _tiering_requested(args) -> bool:
    return bool(getattr(args, "store_url", None)) or any(
        getattr(args, name, None) is not None
        for name in ("lru_entries", "lru_bytes", "ttl")
    )


def _build_store(args, cache_dir=None):
    """The ``--store-url``/``--lru-*``/``--ttl`` tiered composition."""
    from repro.runtime.tiering import (
        DEFAULT_LRU_BYTES,
        DEFAULT_LRU_ENTRIES,
        make_tiered_store,
    )

    return make_tiered_store(
        cache_dir=cache_dir,
        store_url=args.store_url,
        lru_entries=(DEFAULT_LRU_ENTRIES if args.lru_entries is None
                     else args.lru_entries),
        lru_bytes=(DEFAULT_LRU_BYTES if args.lru_bytes is None
                   else args.lru_bytes),
        ttl=args.ttl,
    )


def _build_sim(args) -> CircuitToSystemSimulator:
    """Train the ANN and build the 6T/8T failure tables concurrently.

    The two inputs are independent until fault injection, so the tables
    build runs on a background thread while this one trains.  When the
    build will train (the weight file is missing, or ``--no-cache``) and
    ``--jobs`` is at least 2, the tables' Monte Carlo runs on ``jobs -
    1`` pool processes and never in this interpreter, which keeps a core
    for the trainer.  Otherwise the tables get all ``jobs`` (serially
    in-process at 1).  Leaving the ``with`` block waits for that
    thread, so a training error propagates only once no tables work is
    left running.
    """
    jobs = resolve_jobs(args.jobs)
    trains = args.no_cache or not os.path.exists(
        benchmark_weights_path(profile=args.profile))
    beside_trainer = trains and jobs >= 2
    with ThreadPoolExecutor(max_workers=1) as background:
        tables = background.submit(
            _build_tables, args,
            jobs=jobs - 1 if beside_trainer else jobs,
            in_children=beside_trainer,
        )
        model = train_benchmark_ann(profile=args.profile,
                                    use_cache=not args.no_cache)
    return CircuitToSystemSimulator(model, tables=tables.result(),
                                    n_trials=args.trials, jobs=args.jobs)


def _build_tables(args, jobs: int, in_children: bool) -> CellTables:
    """``CellTables.build`` for the command's flags on ``jobs`` workers,
    inside :func:`~repro.runtime.in_pool` when ``in_children``."""
    with in_pool() if in_children else contextlib.nullcontext():
        return CellTables.build(
            technology=get_technology(args.tech), n_samples=args.samples,
            use_cache=not args.no_cache, jobs=jobs,
            shards=args.shards, max_shard_samples=args.max_shard_samples,
            block_samples=args.block_samples,
            backend=getattr(args, "backend", None),
        )


def cmd_characterize(args) -> int:
    table = characterize_cell(
        cell_kind=args.cell,
        technology=get_technology(args.tech),
        n_samples=args.samples,
        use_cache=not args.no_cache,
        jobs=args.jobs,
        shards=args.shards,
        max_shard_samples=args.max_shard_samples,
        block_samples=args.block_samples,
        backend=args.backend,
    )
    rows = [
        [p.vdd, f"{p.p_read_access:.3e}", f"{p.p_write:.3e}",
         f"{p.p_read_disturb:.3e}", format_si(p.read_power, "W"),
         format_si(p.write_power, "W"), format_si(p.leakage_power, "W")]
        for p in table.points
    ]
    print(f"{args.cell.upper()} cell, {table.technology}, "
          f"{table.n_samples} MC samples, area {format_area(table.area)}")
    print(format_table(
        ["VDD", "P(read acc)", "P(write)", "P(disturb)",
         "read pwr", "write pwr", "leak pwr"],
        rows,
    ))
    return 0


def cmd_scaling(args) -> int:
    sim = _build_sim(args)
    results = voltage_scaling_study(sim)
    rows = [
        [r.vdd, r.accuracy_pct, r.accuracy_drop_pct,
         r.access_power_saving_pct, r.leakage_saving_pct]
        for r in results
    ]
    print("All-6T synaptic memory under voltage scaling (paper Fig. 7):")
    print(format_table(
        ["VDD", "accuracy %", "drop %", "access-power saving %",
         "leakage saving %"], rows, float_fmt="{:.2f}",
    ))
    return 0


def cmd_hybrid(args) -> int:
    sim = _build_sim(args)
    results = hybrid_configuration_study(sim, vdds=(args.vdd,))
    rows = [
        [r.label, r.accuracy_pct, r.access_power_reduction_pct,
         r.leakage_reduction_pct, r.area_overhead_pct]
        for r in results
    ]
    print(f"Hybrid 8T-6T configurations at {args.vdd} V vs 6T @ 0.75 V "
          "(paper Fig. 8):")
    print(format_table(
        ["config", "accuracy %", "access-power red. %",
         "leakage red. %", "area overhead %"], rows, float_fmt="{:.2f}",
    ))
    return 0


def cmd_sensitivity(args) -> int:
    model = train_benchmark_ann(profile=args.profile,
                                use_cache=not args.no_cache)
    profile = layer_sensitivity_profile(model, n_trials=args.trials,
                                        jobs=args.jobs)
    print(profile.summary())
    print(f"aggregate ranking (most->least sensitive): {profile.ranking}")
    print(f"per-synapse ranking:                        "
          f"{profile.per_synapse_ranking}")
    return 0


def cmd_allocate(args) -> int:
    sim = _build_sim(args)
    result = allocate_msbs(
        sim, vdd=args.vdd, max_accuracy_drop=args.max_drop / 100.0,
        start_msb=args.start_msb, n_trials=args.trials,
    )
    print("Sensitivity-driven MSB allocation (paper Config 2):")
    print(result.summary())
    return 0


def _parse_endpoint(value: str, flag: str) -> tuple:
    """``HOST:PORT`` → ``(host, port)`` with a CLI-grade error."""
    from repro.errors import ConfigurationError

    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"{flag} expects HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"{flag} port must be an integer, got {port!r}"
        ) from None


def cmd_worker(args) -> int:
    from repro.distributed import run_worker

    host, port = _parse_endpoint(args.connect, "--connect")
    return run_worker(
        host, port,
        cache_dir=args.cache_dir,
        name=args.name,
        max_jobs=args.max_jobs,
        store_url=args.store_url,
        lru_entries=args.lru_entries,
        lru_bytes=args.lru_bytes,
        ttl=args.ttl,
        metrics_port=args.metrics_port,
        reconnect=args.reconnect,
        reconnect_backoff=args.reconnect_backoff,
        reconnect_max_attempts=args.reconnect_max,
    )


def _run_dag(args, dispatcher) -> None:
    """The ``dispatch --dag`` body: the paper pipeline as one DAG."""
    from repro.distributed.dag import paper_pipeline_dag
    from repro.distributed.jobs import benchmark_model_spec
    from repro.rng import DEFAULT_SEED
    from repro.sram import DEFAULT_VDD_GRID

    vdds = tuple(args.vdd) if args.vdd else DEFAULT_VDD_GRID
    dag = paper_pipeline_dag(
        benchmark_model_spec(),
        vdds=vdds,
        technology=get_technology(args.tech),
        n_samples=args.samples,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        block_samples=args.block_samples,
        shards=args.shards,
        max_shard_samples=args.max_shard_samples,
        backend=args.backend,
        n_trials=args.trials,
        eval_seed=args.seed,
    )
    print(f"DAG: {len(dag.names)} nodes ({', '.join(dag.names)})")
    results = dag.run(dispatcher)
    rows = []
    for doc in results["nn-fault"]:
        ev = doc["evaluation"]
        accs = ev["trial_accuracies"]
        rows.append([
            doc["label"], doc["vdd"],
            f"{sum(accs) / len(accs):.4f}",
            f"{ev['baseline_accuracy']:.4f}",
            f"{ev['expected_flips']:.1f}",
        ])
    print(format_table(
        ["point", "VDD", "mean acc", "baseline", "E[flips]"], rows,
    ))


def cmd_dispatch(args) -> int:
    from repro.distributed import ShardDispatcher
    from repro.distributed.client import format_stats, request_stats
    from repro.sram import DEFAULT_VDD_GRID, make_cell
    from repro.sram.importance_sampling import ImportanceSampler
    from repro.sram.montecarlo import MonteCarloAnalyzer

    if args.stats:
        host, port = _parse_endpoint(args.connect, "--connect")
        print(format_stats(request_stats(host, port)))
        return 0

    listen_host, listen_port = _parse_endpoint(args.listen, "--listen")
    cell = make_cell(args.cell, get_technology(args.tech))
    vdds = tuple(args.vdd) if args.vdd else DEFAULT_VDD_GRID
    store: CacheStore
    if _tiering_requested(args):
        store = _build_store(args, cache_dir=args.cache_dir)
    else:
        store = ResultCache(args.cache_dir)
    journal = None
    if args.journal_dir is not None:
        from repro.distributed import RunJournal

        journal = RunJournal(args.journal_dir)
    metrics_server = None
    with ShardDispatcher(
        store=store,
        max_retries=args.max_retries,
        speculation_threshold=args.speculation_threshold,
        journal=journal,
    ) as dispatcher:
        if args.metrics_port is not None:
            from repro.obs import MetricsServer, bind_store_metrics

            bind_store_metrics(
                dispatcher.metrics, store, component="dispatch"
            )
            metrics_server = MetricsServer(
                dispatcher.metrics, port=args.metrics_port
            ).start()
            print(f"metrics on {metrics_server.url}")
        host, port = dispatcher.start(listen_host, listen_port)
        print(f"dispatching on {host}:{port} "
              f"(store {dispatcher.store.describe()}); "
              f"waiting for {args.min_workers} worker(s)")
        if journal is not None:
            print(f"journaling accepted jobs to {journal.path}")
        try:
            dispatcher.await_workers(args.min_workers)
            if args.dag:
                _run_dag(args, dispatcher)
            elif args.workload == "is":
                sampler = ImportanceSampler(cell, backend=args.backend)
                results = sampler.estimate_sweep(
                    vdds, n_samples=args.samples, seed=args.seed,
                    dispatcher=dispatcher,
                )
                rows = [
                    [r.vdd, f"{r.probability:.3e}",
                     f"{100 * r.relative_error:.1f}%", r.n_samples]
                    for r in results
                ]
                print(f"{args.cell.upper()} cell, {args.tech}, importance "
                      f"sampling, {args.samples} samples per point:")
                print(format_table(
                    ["VDD", "P(read acc)", "rel. err.", "samples"], rows,
                ))
            else:
                analyzer = MonteCarloAnalyzer(
                    cell=cell,
                    n_samples=args.samples,
                    block_samples=(args.block_samples
                                   if args.block_samples is not None
                                   else DEFAULT_BLOCK_SAMPLES),
                    backend=args.backend,
                )
                # Default the shard count to the fleet size: one shard per
                # worker is the natural grain when none was requested.
                shards = args.shards if args.shards is not None else max(
                    1, dispatcher.stats.active_workers
                )
                rows = []
                for vdd in vdds:
                    rates = analyzer.analyze_sharded(
                        vdd, shards=shards,
                        max_shard_samples=args.max_shard_samples,
                        dispatcher=dispatcher,
                    )
                    rows.append([vdd, f"{rates.p_read_access:.3e}",
                                 f"{rates.p_write:.3e}",
                                 f"{rates.p_read_disturb:.3e}",
                                 f"{rates.p_cell:.3e}"])
                print(f"{args.cell.upper()} cell, {args.tech}, {args.samples} "
                      f"MC samples, {shards} shard(s) per point:")
                print(format_table(
                    ["VDD", "P(read acc)", "P(write)", "P(disturb)",
                     "P(cell)"],
                    rows,
                ))
            print(dispatcher.stats.summary())
        except Exception:
            # A crashing run takes its evidence with it unless the
            # flight recorder lands on disk first.
            import os

            dump_path = os.path.abspath(f"repro-flight-{os.getpid()}.json")
            try:
                count = dispatcher.flight.dump(dump_path)
                print(f"dispatcher crashed; flight recorder "
                      f"({count} event(s)) dumped to {dump_path}",
                      file=sys.stderr)
            except OSError:
                pass
            raise
        finally:
            if metrics_server is not None:
                metrics_server.stop()
    if journal is not None:
        journal.close()
    close = getattr(store, "close", None)
    if close is not None:
        close()  # drain write-behind so the remote tier sees every result
    return 0


def cmd_cache(args) -> int:
    if args.action == "stats" and args.store_url:
        # Remote-store mode: ask the object store for its own counters
        # (object/byte totals, get/put traffic) instead of walking the
        # local directory.
        from repro.distributed.objectstore import ObjectStore
        from repro.distributed.client import format_stats

        print(f"object store : {args.store_url}")
        print(format_stats(ObjectStore(args.store_url).remote_stats()))
        return 0
    cache = ResultCache()
    if args.action == "stats":
        print(cache.stats().summary())
    elif args.action == "compact":
        result = cache.compact(
            namespace=args.namespace,
            max_age=args.max_age,
            max_bytes=args.max_bytes,
        )
        scope = f"namespace {args.namespace!r}" if args.namespace else "all namespaces"
        print(f"compacted {cache.cache_dir} ({scope}): {result.summary()}")
    else:  # clear
        removed = cache.clear(namespace=args.namespace)
        scope = f"namespace {args.namespace!r}" if args.namespace else "all namespaces"
        print(f"removed {removed} cache entries ({scope}) from {cache.cache_dir}")
    return 0


def cmd_objectstore(args) -> int:
    from repro.distributed.objectstore import serve_object_store

    host, port = _parse_endpoint(args.listen, "--listen")
    return serve_object_store(host, port)


def cmd_top(args) -> int:
    from repro.obs.top import run_top

    return run_top(
        args.host, args.port,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def _add_metrics_option(p) -> None:
    p.add_argument("--metrics-port", type=int, default=None, metavar="P",
                   help="expose Prometheus text metrics on "
                        "http://127.0.0.1:P/metrics (0 = ephemeral; the "
                        "bound URL is printed at startup)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sram",
        description="Significance-driven hybrid 8T-6T SRAM reproduction "
                    "(Srinivasan et al., DATE 2016)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="bitcell failure/power vs VDD")
    p.add_argument("--cell", choices=["6t", "8t"], default="6t")
    _add_common(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("scaling", help="accuracy/power vs VDD for all-6T storage")
    _add_common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("hybrid", help="Config-1 hybrid configuration study")
    p.add_argument("--vdd", type=float, default=0.65)
    _add_common(p)
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("sensitivity", help="per-layer synaptic sensitivity")
    _add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("allocate", help="search a Config-2 MSB allocation")
    p.add_argument("--vdd", type=float, default=0.65)
    p.add_argument("--max-drop", type=float, default=1.0,
                   help="accuracy budget in percent")
    p.add_argument("--start-msb", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser(
        "worker",
        help="distributed shard worker: connect to a dispatcher, execute "
             "shard jobs next to a shared cache store",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="dispatcher endpoint to register with")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="shared cache-store directory (default: "
                        "REPRO_CACHE_DIR, else ./.repro_cache); point every "
                        "worker and the dispatcher at the same store")
    p.add_argument("--name", default=None,
                   help="worker name in dispatcher stats (default host-pid)")
    p.add_argument("--max-jobs", type=_positive_int, default=None, metavar="K",
                   help="exit cleanly after K jobs (drain hook for rolling "
                        "restarts; default: serve until the dispatcher stops)")
    p.add_argument("--backend", default=None, metavar="NAME",
                   help="margin-kernel backend this worker evaluates shard "
                        "jobs with (reference | fused; default: "
                        "REPRO_BACKEND, else fused; bit-identical either "
                        "way, so mixed fleets stay exact)")
    p.add_argument("--reconnect", action="store_true",
                   help="survive dispatcher restarts: when the connection "
                        "drops, re-dial with jittered exponential backoff "
                        "and re-register instead of exiting")
    # The defaults are repro.distributed.worker's DEFAULT_RECONNECT_*,
    # written out so that parsing a command loads no distributed module.
    p.add_argument("--reconnect-backoff", type=float, default=0.5, metavar="S",
                   help="base reconnect delay in seconds (doubles per "
                        "failed attempt, jittered; default 0.5)")
    p.add_argument("--reconnect-max", type=int, default=10, metavar="N",
                   help="consecutive failed re-dials before giving up "
                        "(resets after each successful registration; "
                        "default 10)")
    _add_store_options(p)
    _add_metrics_option(p)
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "dispatch",
        help="distributed Monte-Carlo dispatcher: farm one cell's "
             "failure-rate sweep to connected workers and merge exactly",
    )
    p.add_argument("--listen", default="127.0.0.1:8417", metavar="HOST:PORT",
                   help="endpoint to accept workers on (default "
                        "127.0.0.1:8417; port 0 = ephemeral)")
    p.add_argument("--connect", default="127.0.0.1:8417", metavar="HOST:PORT",
                   help="with --stats: the running dispatcher to probe")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="shared cache-store directory (see worker --cache-dir)")
    p.add_argument("--max-retries", type=int, default=3, metavar="R",
                   help="reassignments per shard before the run fails "
                        "(default 3)")
    p.add_argument("--min-workers", type=int, default=1, metavar="N",
                   help="wait for N registered workers before dispatching "
                        "(default 1)")
    p.add_argument("--workload", choices=["margin", "is"], default="margin",
                   help="job kind to dispatch: 'margin' (Monte-Carlo "
                        "failure margins, sharded) or 'is' (one "
                        "importance-sampled job per voltage point); "
                        "default margin")
    p.add_argument("--dag", action="store_true",
                   help="run the full paper pipeline as one cross-kind "
                        "DAG instead of --workload: margin shards (both "
                        "cells, every --vdd) -> rate tables -> NN fault "
                        "points, all through this dispatcher")
    p.add_argument("--trials", type=_positive_int, default=5, metavar="T",
                   help="with --dag: fault-injection trials per NN "
                        "accuracy point (default 5)")
    p.add_argument("--speculation-threshold", type=float, default=None,
                   metavar="S",
                   help="re-dispatch a job still running after S seconds "
                        "to a second worker — first result wins (default: "
                        "adaptive, from the completed-job latency quantile)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed for --workload is (per-point seeds "
                        "derive from it; default: entropy)")
    p.add_argument("--cell", choices=["6t", "8t"], default="6t")
    p.add_argument("--tech", default="ptm22", help="technology name")
    p.add_argument("--samples", type=_positive_int, default=8000,
                   help="Monte-Carlo samples per voltage point")
    p.add_argument("--vdd", type=float, action="append", default=None,
                   metavar="V", help="voltage point (repeatable; default: "
                                     "the standard characterization grid)")
    p.add_argument("--shards", type=_positive_int, default=None, metavar="N",
                   help="shards per voltage point (default: one per "
                        "connected worker)")
    p.add_argument("--max-shard-samples", type=_positive_int, default=None, metavar="M",
                   help="cap any shard at M samples, raising the shard "
                        "count as needed")
    p.add_argument("--block-samples", type=_positive_int, default=None, metavar="B",
                   help="samples per seeded block (population-defining; "
                        "default 32768)")
    p.add_argument("--backend", default=None, metavar="NAME",
                   help="margin-kernel backend (reference | fused); "
                        "canonical backends share cache entries, so this "
                        "never invalidates the fleet's shared store")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="durable run journal: append every accepted job and "
                        "completion to DIR/journal.jsonl, and on startup "
                        "replay an existing journal — finished jobs are "
                        "skipped, unfinished ones re-enter the queue, and "
                        "the restarted sweep merges byte-identically")
    p.add_argument("--stats", action="store_true",
                   help="probe a RUNNING dispatcher at --connect for its "
                        "counters and exit (starts nothing)")
    _add_store_options(p)
    _add_metrics_option(p)
    p.set_defaults(func=cmd_dispatch)

    p = sub.add_parser(
        "cache",
        help="inspect, compact or clear the shared result cache",
    )
    p.add_argument("action", choices=["stats", "compact", "clear"])
    p.add_argument("--namespace", default=None,
                   help="restrict 'compact'/'clear' to one namespace "
                        "(e.g. mc, mcshard, cell, cellpoint, is, ann)")
    p.add_argument("--max-age", type=float, default=None, metavar="S",
                   help="with 'compact': delete entries at least S seconds "
                        "old (the TTL-expiry rule: age >= S)")
    p.add_argument("--max-bytes", type=int, default=None, metavar="B",
                   help="with 'compact': delete oldest entries first until "
                        "at most B bytes remain")
    p.add_argument("--store-url", default=None, metavar="URL",
                   help="with 'stats': probe a remote object store's own "
                        "counters instead of the local directory")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "objectstore",
        help="run the in-process object store (the fake S3-style backend "
             "tests and CI drills point --store-url at)",
    )
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="endpoint to serve objects on (default 127.0.0.1:0 "
                        "= ephemeral; the bound URL is printed on startup)")
    p.set_defaults(func=cmd_objectstore)

    p = sub.add_parser(
        "top",
        help="live fleet dashboard: poll a dispatcher's stats probe "
             "and redraw a terminal summary",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="stats-probe host (default 127.0.0.1)")
    p.add_argument("--port", type=int, required=True,
                   help="stats-probe port (a running dispatch endpoint)")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="seconds between redraws (default 1)")
    p.add_argument("--iterations", type=_non_negative_int, default=0, metavar="N",
                   help="stop after N redraws (default 0 = until Ctrl-C)")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of clearing the screen "
                        "(log-friendly)")
    p.set_defaults(func=cmd_top)

    return parser


def main(argv=None) -> int:
    from repro.obs.tracing import maybe_enable_tracing_from_env

    maybe_enable_tracing_from_env()
    args = build_parser().parse_args(argv)
    backend = getattr(args, "backend", None)
    if backend is not None:
        # Process-wide default (validates the name up front); the
        # builders additionally pin it on their analyzers so spawned
        # sweep workers inherit the choice.
        from repro.kernels import set_backend

        set_backend(backend)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
