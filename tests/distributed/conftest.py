"""Fixtures and scripted peers for the distributed-dispatcher suite.

The suite runs everything over real localhost TCP: dispatchers on their
daemon-thread event loop, genuine :class:`~repro.distributed.Worker`
instances on side threads, and *scripted* fake workers (raw JSON-lines
clients) wherever a test needs a peer that misbehaves deterministically
— goes silent mid-shard, drops the connection, fails every job.
"""

import asyncio
import json
import threading

import pytest

from repro.distributed import ShardDispatcher, Worker
from repro.runtime import ResultCache
from repro.sram.montecarlo import MonteCarloAnalyzer

#: Small, fast population: 1200 samples in 256-sample blocks = 5 blocks,
#: so a 3-shard plan exercises uneven (2/2/1-block) shards.
N_SAMPLES = 1200
BLOCK_SAMPLES = 256

#: Tight liveness so dead-worker tests resolve in well under a second.
HEARTBEAT_INTERVAL = 0.1


@pytest.fixture()
def dist_analyzer(cell6):
    return MonteCarloAnalyzer(
        cell=cell6, n_samples=N_SAMPLES, block_samples=BLOCK_SAMPLES
    )


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "store")


def make_dispatcher(store_dir=None, **kwargs):
    kwargs.setdefault("heartbeat_interval", HEARTBEAT_INTERVAL)
    store = None if store_dir is None else ResultCache(store_dir)
    return ShardDispatcher(store=store, **kwargs)


class WorkerThread:
    """A real Worker serving on a daemon thread until the dispatcher stops."""

    def __init__(self, host, port, store_dir=None, name=None, max_jobs=None):
        self.worker = Worker(
            host, port,
            store=None if store_dir is None else ResultCache(store_dir),
            name=name, max_jobs=max_jobs,
        )
        self.result = None
        self.error = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        try:
            self.result = asyncio.run(self.worker.run())
        except Exception as exc:  # surfaced via .join() in the test
            self.error = exc

    def join(self, timeout=10):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "worker thread did not exit"
        if self.error is not None:
            raise self.error
        return self.result


class FakeWorker:
    """Scripted JSON-lines peer misbehaving on cue.

    ``behavior``:

    * ``"silent"`` — register, accept one assignment, then stop
      responding (no heartbeats, connection held open until the
      dispatcher drops it): the killed-mid-shard scenario as the
      dispatcher observes it.
    * ``"disconnect"`` — accept one assignment, then drop the
      connection abruptly.
    * ``"error"`` — fail every assignment with a job error, forever.
    * ``"error-mismatch"`` — fail the *first* assignment with an error
      whose ``job_id`` is the ``"?"`` placeholder a worker reports when
      it cannot even parse its assignment, then go quiet (never ready
      again): the dispatcher must requeue the held job off the error
      itself, not strand it.
    * ``"junk"`` — answer the first assignment with a value no decoder
      accepts, then go quiet.
    * ``"drain"`` — announce a clean ``shutdown`` still holding the
      first assignment (a ``--max-jobs`` drain racing it); ``acked``
      records the dispatcher's acknowledgement.
    """

    def __init__(self, host, port, behavior, name="fake"):
        self.host, self.port = host, port
        self.behavior = behavior
        self.name = name
        self.assigned = []
        self.acked = False
        self._done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        try:
            asyncio.run(self._script())
        finally:
            self._done.set()

    async def _script(self):
        reader, writer = await asyncio.open_connection(self.host, self.port)

        async def send(payload):
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()

        async def recv():
            raw = await reader.readline()
            return json.loads(raw) if raw else None

        try:
            await send({"type": "register", "name": self.name,
                        "pid": 0, "protocol": 1})
            welcome = await recv()
            assert welcome and welcome["type"] == "welcome", welcome
            while True:
                await send({"type": "ready"})
                message = await recv()
                if message is None or message["type"] != "assign":
                    return
                self.assigned.append(message["job"]["job_id"])
                if self.behavior == "disconnect":
                    return
                if self.behavior == "drain":
                    await send({"type": "shutdown"})
                    while (reply := await recv()) is not None:
                        self.acked |= reply["type"] == "shutdown"
                    return
                if self.behavior == "error":
                    await send({"type": "error", "job_id": message["job"]["job_id"],
                                "error": "scripted failure"})
                    continue
                if self.behavior == "error-mismatch":
                    await send({"type": "error", "job_id": "?",
                                "error": "scripted parse failure"})
                elif self.behavior == "junk":
                    await send({"type": "result", "job_id": message["job"]["job_id"],
                                "value": {"junk": 1}, "cached": False})
                # Never ready again (nor, when silent, a heartbeat): only
                # the failure path can reschedule the job.  Hold the
                # connection until the dispatcher drops it.
                while await recv() is not None:
                    pass
                return
        finally:
            writer.close()

    def join(self, timeout=10):
        assert self._done.wait(timeout), "fake worker script did not finish"


def canon(rates) -> str:
    """Byte-identity form of a FailureRates (the acceptance oracle)."""
    return json.dumps(rates.to_dict(), sort_keys=True)
