"""Child processes of the benchmark: CLI commands, fleet workers, cleanup.

Resource accounting per process:

* a CLI command is reaped with ``os.wait4``, whose rusage covers the
  command and every descendant it reaped (its ``spawn`` executor
  children) — the per-command form of ``RUSAGE_CHILDREN``;
* a fleet worker lives across passes, so its CPU comes from
  ``/proc/<pid>/stat`` deltas and its peak RSS from ``VmHWM``, which is
  reset through ``/proc/<pid>/clear_refs`` before each pass.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List

#: A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 150.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class CommandResult:
    args: List[str]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr_tail: str


def run_cli(args: List[str], env: Dict[str, str], cwd: str,
            log_dir: str) -> CommandResult:
    """Run ``python -m repro.cli ARGS`` to completion and account for it."""
    out_path = os.path.join(log_dir, "stdout")
    err_path = os.path.join(log_dir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro.cli", *args],
                                stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr_tail = fh.read()[-400:].decode(errors="replace")
    return CommandResult(
        args=list(args), wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode, stdout=stdout, stderr_tail=stderr_tail,
    )


def proc_cpu_s(pid: int) -> float:
    """User + system seconds of ``pid`` and its reaped children."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime..cstime are 14..17.
    return sum(int(v) for v in fields[11:15]) / _CLK_TCK


def wait_idle(pids: List[int], quiet_s: float = 0.3,
              timeout_s: float = 30.0) -> bool:
    """Wait until none of ``pids`` has used CPU for ``quiet_s`` seconds.

    A worker that lost a speculation race keeps computing (and then
    writes its result to the store) after the DAG has returned."""
    deadline = time.monotonic() + timeout_s
    last = [proc_cpu_s(pid) for pid in pids]
    quiet_since = time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.05)
        now = [proc_cpu_s(pid) for pid in pids]
        if now != last:
            last, quiet_since = now, time.monotonic()
        elif time.monotonic() - quiet_since >= quiet_s:
            return True
    return False


def reset_peak_rss(pid: int) -> None:
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def spawn_workers(n: int, host: str, port: int, store_dir: str,
                  env: Dict[str, str], cwd: str,
                  log_path: str) -> List[subprocess.Popen]:
    """Start ``n`` ``repro-sram worker`` processes against one dispatcher."""
    procs = []
    with open(log_path, "ab") as log:
        for _ in range(n):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--connect", f"{host}:{port}", "--cache-dir", store_dir],
                stdout=log, stderr=log, env=env, cwd=cwd,
            ))
    return procs


def stop_workers(procs: List[subprocess.Popen]) -> None:
    """Terminate and reap every worker (kill any that ignore SIGTERM)."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _process_table() -> Dict[int, tuple]:
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        table[int(name)] = (ppid, cmdline)
    return table


def strays(marker: str) -> List[int]:
    """Live processes started by this run: our descendants, plus any
    process (re-parented or not) whose command line names ``marker``."""
    me = os.getpid()
    table = _process_table()
    found = []
    for pid, (ppid, cmdline) in table.items():
        if pid == me:
            continue
        ancestor, hops = ppid, 0
        while ancestor not in (0, 1, me) and ancestor in table and hops < 64:
            ancestor, hops = table[ancestor][0], hops + 1
        if ancestor == me or marker in cmdline:
            found.append(pid)
    return found


def reap_strays(marker: str, grace_s: float = 3.0) -> List[int]:
    """Wait up to ``grace_s`` for this run's processes to end, then kill
    the rest.  Returns the pids that had to be killed."""
    deadline = time.monotonic() + grace_s
    left = strays(marker)
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = strays(marker)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in left:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # not our child: init reaps it
    return left

