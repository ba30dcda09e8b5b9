"""The :class:`StreamingRecorder`: trace indefinitely in O(1) memory.

The base :class:`~repro.obs.recorder.Recorder` keeps every event in
memory until someone exports it -- the right shape for a one-shot CLI
build, the wrong shape for a server that traces for days.  This subclass
flips the storage model:

* every closed span/counter is **appended to a JSONL sink immediately**
  (line-buffered text IO: each event line hits the OS in one write, so
  a concurrent reader or a crash sees only whole lines plus at most one
  torn final line -- exactly the case :func:`~repro.obs.recorder.read_jsonl`
  already tolerates);
* memory holds only a **ring buffer** of the most recent ``max_events``
  events for in-process queries (``spans()``, ``counters()``, ``/stats``
  style introspection), so resident size is bounded by the ring, not by
  traffic;
* when the sink grows past ``max_bytes`` it **rotates**: the current
  file is renamed to ``<name>.1`` (replacing the previous generation)
  and a fresh file -- with its own ``meta`` line -- continues in place.
  ``read_jsonl`` accepts the repeated ``meta`` produced by concatenating
  generations back together.

Single-writer by design: one recorder owns its sink file.  The event
*order* in the file is the lock-serialised close order, identical to the
base recorder's in-memory order.

Because every recording path funnels through ``_store``, live solver
telemetry -- the ``bnb.progress`` snapshot counters a
:class:`~repro.obs.progress.ProgressTracker` emits mid-solve -- streams
to the sink the moment each heartbeat fires, not when the solve ends:
``tail -f`` on the sink of a serving process shows the incumbent/gap
trajectory of the job currently running.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Callable, Optional, Union

from repro.obs.recorder import Event, Recorder, meta_record

__all__ = ["StreamingRecorder"]

#: Default ring-buffer size (events kept in memory for queries).
DEFAULT_MAX_EVENTS = 4096


class StreamingRecorder(Recorder):
    """A :class:`Recorder` that flushes events to a JSONL file as they
    close, keeping only a bounded ring buffer in memory.

    Parameters
    ----------
    path:
        Sink file; created (truncated) on construction.
    clock:
        Injectable clock, as on the base recorder.
    max_events:
        Ring-buffer bound for in-memory queries.  ``events`` /
        ``spans()`` / ``counters()`` see at most this many of the most
        recent events; the file always has everything (modulo rotation).
    max_bytes:
        Rotate the sink when the next line would push it past this size
        (``None`` disables rotation).  A single line larger than the
        bound is still written whole -- events are never split.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        clock: Callable[[], float] = time.perf_counter,
        max_events: int = DEFAULT_MAX_EVENTS,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        if max_bytes is not None and max_bytes < 1024:
            raise ValueError(
                f"max_bytes must be >= 1024 (one rotation per event is "
                f"pathological), got {max_bytes}"
            )
        super().__init__(clock)
        # Replace the unbounded list with a bounded ring; the base
        # class's append/list(...) usage works on a deque unchanged.
        self._events = deque(maxlen=max_events)  # type: ignore[assignment]
        self.path = Path(path)
        self.max_events = max_events
        self.max_bytes = max_bytes
        self.rotations = 0
        self.events_streamed = 0
        self._sink = open(self.path, "w", encoding="utf-8", buffering=1)
        self._sink_bytes = 0
        self._sink_closed = False
        self._write_meta_locked()

    # ------------------------------------------------------------------
    # sink plumbing (all called under self._lock)
    # ------------------------------------------------------------------
    def _write_meta_locked(self) -> None:
        line = json.dumps(meta_record(), sort_keys=True)
        self._sink.write(line + "\n")
        self._sink_bytes += len(line) + 1

    def _rotate_locked(self) -> None:
        self._sink.close()
        rotated = self.path.with_name(self.path.name + ".1")
        self.path.replace(rotated)
        self._sink = open(self.path, "w", encoding="utf-8", buffering=1)
        self._sink_bytes = 0
        self.rotations += 1
        self._write_meta_locked()

    def _store(self, event: Event) -> None:
        line = json.dumps(event.to_json(), sort_keys=True)
        with self._lock:
            self._events.append(event)
            self.events_streamed += 1
            if self._sink_closed:
                return
            needed = len(line) + 1
            if (
                self.max_bytes is not None
                and self._sink_bytes + needed > self.max_bytes
                and self._sink_bytes > 0
            ):
                self._rotate_locked()
            self._sink.write(line + "\n")
            self._sink_bytes += needed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._sink_closed

    def flush(self) -> None:
        """Push buffered bytes to the OS (line buffering already does
        this per event; this is for belt-and-braces shutdown paths)."""
        with self._lock:
            if not self._sink_closed:
                self._sink.flush()

    def close(self) -> None:
        """Flush and close the sink.  Idempotent; events recorded after
        close still land in the ring buffer but not the file."""
        with self._lock:
            if self._sink_closed:
                return
            self._sink.flush()
            self._sink.close()
            self._sink_closed = True

    def __enter__(self) -> "StreamingRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def write_jsonl(self, destination) -> None:
        """Export the *ring buffer* (most recent events) atomically.

        The streamed sink file is the full record; this export exists so
        the base-class API keeps working for ad-hoc snapshots.
        """
        super().write_jsonl(destination)
