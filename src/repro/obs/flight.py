"""Bounded ring-buffer flight recorder for structured fleet events.

The recorder keeps the last ``capacity`` events (worker join/death,
retry, speculation start/win, drain requeue, journal replay) so that a crash or a stats probe can answer "what just
happened" without scanning logs.  Events are plain dicts with a
monotonic sequence number and a wall-clock timestamp; the buffer is
thread-safe and cheap enough to leave on in production.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
]


class FlightRecorder:
    """Fixed-capacity ring buffer of structured events."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seq = 0
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)

    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "ts": time.time(), "kind": kind, **fields}
            self._events.append(event)
        return event

    def snapshot(self) -> List[Dict[str, Any]]:
        """Events oldest-first, as JSON-ready dicts."""
        with self._lock:
            return [dict(event) for event in self._events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including ones rotated out)."""
        return self._seq

    def dump(self, path: str) -> int:
        """Write the buffer as a JSON document; returns event count."""
        events = self.snapshot()
        doc = {"capacity": self.capacity, "recorded": self._seq, "events": events}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        return len(events)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        state["_events"] = list(self._events)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._events = deque(state["_events"], maxlen=self.capacity)
        self._lock = threading.Lock()


_default_lock = threading.Lock()
_default_recorder: Optional[FlightRecorder] = None


def get_flight_recorder() -> FlightRecorder:
    """Process-default recorder (used when no instance is injected)."""
    global _default_recorder
    with _default_lock:
        if _default_recorder is None:
            _default_recorder = FlightRecorder()
        return _default_recorder


def set_flight_recorder(recorder: Optional[FlightRecorder]) -> None:
    """Replace the process-default recorder (tests; ``None`` resets)."""
    global _default_recorder
    with _default_lock:
        _default_recorder = recorder
