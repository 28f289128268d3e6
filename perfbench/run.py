"""Paper-loop benchmark: cold, warm and fleet-DAG runs of the paper pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics.  The last line of stdout is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it carries the provenance.  Full per-pass details, and the traced
pass as a Chrome/Perfetto trace, land in ``.perfbench/results/``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from typing import Any, Dict, List

import layers
import procs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
HOOK_DIR = os.path.join(HERE, "tracehook")

WORKLOADS = ("paper-cold", "paper-warm", "fleet-dag")

#: Warm-path guards checked on the traced pass: a workload whose warm
#: premise does not hold is reported invalid rather than timed.
GUARDS = {
    "paper-warm": {"trainer.calls": 0, "kernels.margin.calls": 0,
                   "cache.hit_ratio": 1.0},
    "fleet-dag": {"trainer.calls": 0, "dist.store_hits": 0},
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")
IMPORT_PROBES = 3


def measure(workload, seconds: float) -> List[workloads.Pass]:
    """Untraced passes, at least one, until the next would overrun
    ``seconds``.

    Run-to-run spread on the 2-core reference box is dominated by drifts
    of machine speed over minutes, which more passes per run do not
    average out; short runs keep a set of runs inside one drift period
    and the driver's whole schedule inside its time budget.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def import_seconds(bench: workloads.Bench) -> float:
    env = bench.env(bench.fresh_dir("cache"))
    values = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=bench.root, capture_output=True, check=True)
        values.append(float(out.stdout))
    return statistics.median(values)


def traced_pass(name: str, workload, bench: workloads.Bench,
                untraced: List[workloads.Pass], results_stem: str):
    """One traced pass; returns ``(pass, per-layer metrics, problems)``."""
    trace_dir = bench.fresh_dir("trace")
    installation = None
    if name == "fleet-dag":
        # The dispatcher and DAG coordinator run in this process.
        sys.path.insert(0, HOOK_DIR)
        import benchtrace

        installation = benchtrace.install(trace_dir, role="bench")
    try:
        traced = workload.run_pass(trace_dir)
    finally:
        if installation is not None:
            installation.remove()
    processes, spans = layers.load(trace_dir)
    fleet = name == "fleet-dag"
    metrics = layers.per_layer(
        processes, spans, traced.window,
        n_workers=workloads.FLEET_WORKERS if fleet else 0,
    )
    if fleet:
        stats = workload.stats
        metrics["dist.jobs"] = stats["jobs"]
        metrics["dist.retries"] = stats["retries"]
        metrics["dist.speculations"] = stats["speculations"]
        metrics["dist.store_hits"] = stats["store_hits"]
        if stats["assignments"]:
            metrics["dist.speculative_waste_ratio"] = (
                stats["speculations"] / stats["assignments"]
            )
    metrics["trace.overhead_s"] = traced.wall_s - statistics.median(
        p.wall_s for p in untraced
    )
    metrics["cli.import_s"] = import_seconds(bench)

    problems = [f"traced pass: {p}" for p in traced.problems]
    for metric, expected in GUARDS.get(name, {}).items():
        if metrics[metric] != expected:
            problems.append(f"warm-path guard: {metric} = {metrics[metric]}, "
                            f"expected {expected}")
    trace_path = f"{results_stem}.trace.json"
    with open(trace_path, "w") as fh:
        origin = min([traced.window[0]] + [s["start"] for s in spans])
        json.dump(layers.chrome_trace(spans, processes, origin), fh)
    check = subprocess.run(
        [sys.executable, os.path.join(bench.root, "benchmarks",
                                      "check_artifacts.py"),
         "--chrome-trace", trace_path],
        capture_output=True, text=True,
    )
    if check.returncode != 0:
        problems.append(f"chrome trace rejected: {check.stdout.strip()}")
    return traced, metrics, problems


def _git(root: str, *args: str):
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: str) -> str:
    """SHA-256 over ``src/`` — identifies the code when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(root: str, name: str, n_passes: int) -> Dict[str, Any]:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = _git(root, "status", "--porcelain")

    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_rev": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": int(workloads.BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "workload": name,
        "passes": n_passes,
    }


def run(args, root: str, work: str, results_stem: str) -> Dict[str, Any]:
    bench = workloads.Bench(root, work, HOOK_DIR)
    if args.workload == "fleet-dag":
        workload = workloads.FleetDag(bench, args.seed)
    else:
        workload = workloads.CliLoop(bench, args.seed,
                                     warm=args.workload == "paper-warm")
    problems: List[str] = []
    try:
        setup_s = workload.setup()
        if args.trace:
            # One untraced pass: the baseline of trace.overhead_s.
            passes = [workload.run_pass()]
            traced, layer_metrics, traced_problems = traced_pass(
                args.workload, workload, bench, passes, results_stem
            )
            problems += traced_problems
            all_passes = passes + [traced]
        else:
            passes = measure(workload, args.seconds)
            all_passes = passes
    finally:
        workload.close()
    killed = procs.reap_strays(work)
    if killed:
        problems.append(f"stray processes killed at exit: {killed}")
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {problem}" for problem in p.problems]

    if args.trace:
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        def med(attr: str) -> float:
            return statistics.median(getattr(p, attr) for p in passes)

        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    return {
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "provenance": provenance(root, args.workload, len(passes)),
        "problems": problems,
        "setup_s": setup_s,
        "passes": [
            {"wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "peak_rss_mb": p.peak_rss_mb, "attempted": p.attempted,
             "failed": p.failed, **p.details}
            for p in all_passes
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes the DAG's eval_seed)")

    # SIGTERM unwinds like an exception, so workers and commands in
    # flight are stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from the repository root (src/repro is "
              "missing here)", file=sys.stderr)
        return 2
    # The program's own knobs must not leak in, and this process runs
    # the fleet's dispatcher and coordinator: pin BLAS before numpy loads.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(workloads.BLAS_ENV)
    sys.path.insert(0, os.path.join(root, "src"))

    out_dir = os.path.join(root, ".perfbench")
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    results_stem = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    try:
        report = run(args, root, work, results_stem)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        procs.reap_strays(work)
        shutil.rmtree(work, ignore_errors=True)
    with open(f"{results_stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    for problem in report["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": report["provenance"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
