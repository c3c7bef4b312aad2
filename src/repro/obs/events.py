"""Structured event log: one JSON object per routing-pipeline event.

Where the registry (:mod:`repro.obs.registry`) aggregates, the event log
records: each call to :func:`emit` appends one timestamped dict to an
in-memory buffer, and :func:`flush` writes the buffer as JSON lines. The
emitters shipped with the pipeline are per-*operation*, not per-inner-loop
— one ``net_routed`` event per :meth:`PatLabor.route`, one ``dw_solve``
per exact frontier, one ``batch_done`` per :func:`route_batch` — so an
enabled log costs a dict build per net, and a disabled one costs a single
flag check (the same contract the registry honours).

Event schema (all kinds)::

    {"ts": <unix seconds>, "pid": <os pid>, "kind": "<event kind>", ...}

Kind-specific fields are documented per emitter in
``docs/observability.md``; the load-bearing one is ``net_routed``::

    {"kind": "net_routed", "net": "n17", "degree": 15,
     "tier": "local_search", "front_size": 9,
     "wall_s": 0.4183, "peak_rss_kb": 54112}

Worker processes buffer their own events and ship them back to the parent
when their pool retires (:func:`repro.core.batch.route_batch` merges
them via :meth:`EventLog.extend`), so a multi-process run still flushes
to one chronologically ordered file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Union

try:  # POSIX only; on other platforms peak RSS reads as 0.
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]


def peak_rss_kb() -> float:
    """This process's peak resident set size in KiB (0.0 if unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return 0.0
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class EventLog:
    """Thread-safe buffered event sink; disabled (no-op) until enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._buffer: List[Dict[str, object]] = []

    # ------------------------------------------------------------ lifecycle

    def enable(self) -> None:
        """Start buffering events (process-local)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop buffering; already-collected events are kept until drained."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every buffered event."""
        with self._lock:
            self._buffer.clear()

    # ------------------------------------------------------------ recording

    def emit(self, kind: str, **fields: object) -> None:
        """Append one event (no-op while disabled).

        ``ts`` (unix seconds) and ``pid`` are stamped automatically;
        ``fields`` must be JSON-serialisable.
        """
        if not self.enabled:
            return
        event: Dict[str, object] = {"ts": time.time(), "pid": os.getpid(), "kind": kind}
        event.update(fields)
        with self._lock:
            self._buffer.append(event)

    def extend(self, events: List[Dict[str, object]]) -> None:
        """Fold another process's drained events into this buffer."""
        if not events:
            return
        with self._lock:
            self._buffer.extend(events)

    # ------------------------------------------------------------ consuming

    def events(self) -> List[Dict[str, object]]:
        """A snapshot copy of the buffered events (chronological order)."""
        with self._lock:
            return sorted(self._buffer, key=lambda e: e.get("ts", 0.0))

    def drain(self) -> List[Dict[str, object]]:
        """Return the buffered events and clear the buffer."""
        with self._lock:
            out = sorted(self._buffer, key=lambda e: e.get("ts", 0.0))
            self._buffer.clear()
        return out

    def flush(self, path: Union[str, Path]) -> Path:
        """Append the buffer to ``path`` as JSON lines and clear it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        events = self.drain()
        with open(path, "a", encoding="utf-8") as fp:
            for event in events:
                fp.write(json.dumps(event, sort_keys=True) + "\n")
        return path


#: The process-global event log every instrumented module emits into.
_EVENTS = EventLog()


def get_event_log() -> EventLog:
    """The process-global :class:`EventLog` singleton."""
    return _EVENTS


def events_enable() -> None:
    """Turn structured event logging on (process-global)."""
    _EVENTS.enable()


def events_disable() -> None:
    """Turn structured event logging off; buffered events are kept."""
    _EVENTS.disable()


def events_enabled() -> bool:
    """Whether the global event log is currently recording."""
    return _EVENTS.enabled


def emit_event(kind: str, **fields: object) -> None:
    """Emit one structured event into the global log (no-op while disabled)."""
    _EVENTS.emit(kind, **fields)


def drain_events() -> List[Dict[str, object]]:
    """Return and clear the global log's buffered events."""
    return _EVENTS.drain()


def flush_events(path: Union[str, Path]) -> Path:
    """Append the global log's buffer to ``path`` as JSONL and clear it."""
    return _EVENTS.flush(path)


def read_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read every event from a JSONL file written by :func:`flush_events`."""
    out: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
