"""Span recorder for the benchmark's traced pass.

The recorder wraps the public entry points of each layer of the program
(see ``TARGETS``) and appends one JSON line per finished call to
``spans-<pid>.jsonl`` in the trace directory: name, pid, thread, start,
end, the id of the enclosing span in the same thread, and a few
per-call counts.  A line is flushed as soon as its call returns,
because fleet workers are stopped with SIGTERM and never run exit
handlers.  Timestamps come from ``time.perf_counter`` (the system-wide
monotonic clock on Linux), so spans of different processes share one
time base.

``from x import f`` binds ``f`` in the importer, so wrapping ``x.f``
alone would miss callers that imported it earlier.  :func:`install`
therefore replaces every binding of the original function in every
loaded ``repro`` module (and the ``__main__`` module), and keeps the
original ``__module__``/``__qualname__`` so the wrappers still pickle
by reference into spawned executor children.

Nothing here changes a result: every wrapper returns what the wrapped
call returned, and the recorder only writes into the trace directory.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Environment variable naming the trace directory; tracing is off
#: when it is unset.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Modules imported before patching.  Importing them is what every
#: ``repro-sram`` process does first anyway; the import is recorded as
#: the ``cli.import`` span.
PRELOAD = (
    "repro.core",
    "repro.distributed",
    "repro.mem",
    "repro.runtime",
    "repro.sram",
)


def _dataset_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"images": int(len(result.x_train) + len(result.x_val)
                          + len(result.x_test))}


def _trials_attrs(args, kwargs, result) -> Dict[str, Any]:
    results = result if isinstance(result, list) else [result]
    return {"trials": sum(len(r.trial_accuracies) for r in results)}


def _margin_attrs(args, kwargs, result) -> Dict[str, Any]:
    dvt = kwargs["dvt"] if "dvt" in kwargs else args[2]
    return {"samples": int(len(dvt))}


def _get_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _put_attrs(args, kwargs, result) -> Dict[str, Any]:
    cache, namespace, payload = args[:3]
    try:
        return {"bytes": os.path.getsize(cache.path(namespace, payload))}
    except OSError:  # a disabled cache writes nothing
        return {"bytes": 0}


def _job_attrs(args, kwargs, result) -> Dict[str, Any]:
    job = kwargs["job"] if "job" in kwargs else args[0]
    return {"kind": job.kind, "cached": bool(result[1])}


def _dispatch_attrs(args, kwargs, result) -> Dict[str, Any]:
    jobs = kwargs["jobs"] if "jobs" in kwargs else args[1]
    return {"client": str(kwargs.get("client", "default")), "jobs": len(jobs)}


#: (module, attribute path, span name, per-call attribute function).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.framework", "train_benchmark_ann", "core.model_build", None),
    ("repro.core.significance", "voltage_scaling_study", "core.study", None),
    ("repro.core.significance", "hybrid_configuration_study", "core.study", None),
    ("repro.core.optimizer", "allocate_msbs", "core.study", None),
    ("repro.nn.datasets.loader", "load_synthetic_digits", "nn.datasets",
     _dataset_attrs),
    ("repro.nn.trainer", "SGDTrainer.train", "nn.trainer", None),
    ("repro.nn.network", "FeedforwardANN.predict", "nn.forward", None),
    ("repro.fault.evaluate", "evaluate_under_faults", "fault.evaluate",
     _trials_attrs),
    ("repro.fault.evaluate", "evaluate_many_under_faults", "fault.evaluate",
     _trials_attrs),
    ("repro.sram.failures", "compute_failure_margins", "kernels.margin",
     _margin_attrs),
    ("repro.sram.characterize", "characterize_cell", "sram.characterize", None),
    ("repro.sram.montecarlo", "tally_shard", "sram.tally", None),
    ("repro.sram.montecarlo", "_rates_from_tally", "sram.point", None),
    ("repro.mem.tables", "CellTables.build", "mem.tables_build", None),
    ("repro.runtime.executor", "SweepExecutor.map", "executor.map", None),
    ("repro.runtime.executor", "SweepExecutor.map_chunked", "executor.map", None),
    ("repro.runtime.cache", "ResultCache.get", "cache.get", _get_attrs),
    ("repro.runtime.cache", "ResultCache.put", "cache.put", _put_attrs),
    ("repro.distributed.jobs", "execute_job", "dist.job", _job_attrs),
    ("repro.distributed.dispatcher", "ShardDispatcher.dispatch",
     "dist.dispatch", _dispatch_attrs),
    ("repro.distributed.dag", "DagRun.run", "dist.dag", None),
)


def _cmdline() -> List[str]:
    try:
        with open("/proc/self/cmdline", "rb") as fh:
            raw = fh.read()
    except OSError:
        return list(sys.argv)
    return [part.decode(errors="replace") for part in raw.split(b"\0") if part]


def _role(argv: List[str]) -> str:
    if "--multiprocessing-fork" in argv:
        return "executor_child"
    if "repro.cli" in argv and "worker" in argv:
        return "worker"
    if "repro.cli" in argv:
        return "cli"
    return "other"


class Recorder:
    """Appends finished spans of this process to one JSON-lines file."""

    def __init__(self, trace_dir: str, role: Optional[str] = None):
        self.pid = os.getpid()
        os.makedirs(trace_dir, exist_ok=True)
        self._fh = open(os.path.join(trace_dir, f"spans-{self.pid}.jsonl"),
                        "a", buffering=1)
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        argv = _cmdline()
        self._write({"meta": True, "pid": self.pid, "ppid": os.getppid(),
                     "role": role or _role(argv), "argv": argv,
                     "t0": time.perf_counter()})

    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._fh.write(line)

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               parent: Optional[str], span_id: str,
               attrs: Optional[Dict[str, Any]] = None) -> None:
        record = {"name": name, "pid": self.pid,
                  "tid": threading.get_ident(), "id": span_id,
                  "parent": parent, "start": start, "end": end}
        if attrs:
            record["attrs"] = attrs
        self._write(record)

    def call(self, name: str, fn: Callable, attrs_fn: Optional[Callable],
             args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        span_id = f"{self.pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            self.record(name, start, end, parent, span_id, {"error": True})
            raise
        end = time.perf_counter()
        stack.pop()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
        self.record(name, start, end, parent, span_id, attrs)
        return result

    def close(self) -> None:
        with self._lock:
            self._fh.close()


def _wrap(recorder: Recorder, name: str, fn: Callable,
          attrs_fn: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, attrs_fn, args, kwargs)

    return wrapper


def _rebind(original: Any, replacement: Any) -> List[Tuple[Any, str]]:
    """Point every module-level binding of ``original`` at ``replacement``."""
    rebound = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
            or mod_name in ("__main__", "__mp_main__")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound.append((module, attr))
    return rebound


class Installation:
    """The patches applied by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch(self, module_name: str, path: str, name: str,
              attrs_fn: Optional[Callable]) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(self.recorder, name, raw.__func__,
                                            attrs_fn))
            else:
                wrapped = _wrap(self.recorder, name, raw, attrs_fn)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
            return
        original = getattr(module, path)
        wrapper = _wrap(self.recorder, name, original, attrs_fn)
        for owner, attr in _rebind(original, wrapper):
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.recorder.close()


def install(trace_dir: str, role: Optional[str] = None) -> Installation:
    """Import the program's packages (as the ``cli.import`` span) and wrap
    every entry point in ``TARGETS``."""
    recorder = Recorder(trace_dir, role=role)
    start = time.perf_counter()
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    recorder.record("cli.import", start, time.perf_counter(), None,
                    f"{recorder.pid}:import")
    installation = Installation(recorder)
    for module_name, path, name, attrs_fn in TARGETS:
        installation.patch(module_name, path, name, attrs_fn)
    return installation


def install_from_env() -> Optional[Installation]:
    """Entry point of ``sitecustomize``: trace only when asked to."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return None
    return install(trace_dir)
