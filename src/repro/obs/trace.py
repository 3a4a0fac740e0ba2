"""Nestable-span tracing with a bounded flight recorder.

The paper's headline analysis is a compute-time breakdown — where do the
microseconds go between signal and decision — and this module gives the
reproduction the same lens on *itself*. A :class:`Tracer` records **spans**
(named wall-clock intervals, arbitrarily nested) and **instant events** on a
monotonic clock, into

* a bounded in-memory **flight recorder** (:meth:`Tracer.records`) the
  session surfaces via ``session.trace()``, and
* accumulating **per-phase totals** (:meth:`Tracer.phase_totals`): for every
  span name, how many times it ran, its total wall time, and its *self* time
  (wall time minus the time spent inside child spans). Self times
  decompose the root spans' wall clock exactly, so a phase table that
  "sums to the round time" is true by construction, not by luck.

Design constraints, in order:

1. **Near-zero overhead when disabled.** Every hook is one ``if``:
   :meth:`Tracer.span` on a disabled tracer returns a shared no-op context
   manager without allocating, and :meth:`Tracer.instant` returns
   immediately. The engine and backends are instrumented unconditionally and
   rely on this.
2. **Bit-identity.** Tracing observes; it never changes what the kernels
   compute. (The test suite asserts traced and untraced runs decide
   identically on every registered backend.)
3. **Single writer.** Like the sessions that own them, tracers are
   written by one thread: spans close in LIFO order (the ``with`` statement
   guarantees it), and reading the recorder is safe at round boundaries.
   Code that fans work out to threads (the ``numpy`` backend's lane
   stripes) times the threads itself and attaches the figures to a span
   opened on the calling thread with the span's ``annotate`` method.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "NULL_TRACER",
    "PhaseStat",
    "SpanRecord",
    "Tracer",
]

_clock = time.perf_counter

@dataclass(frozen=True)
class SpanRecord:
    """One closed span (or instant event) in the flight recorder.

    ``start_s`` is a raw monotonic-clock reading — meaningful only relative
    to other records of the same run. ``self_s`` is the duration minus the
    time spent in child spans; ``depth`` the nesting depth on ``track`` when
    the span opened. Instant events carry zero duration and
    ``kind="instant"``.
    """

    name: str
    start_s: float
    duration_s: float
    self_s: float
    track: str
    depth: int
    args: Optional[Mapping[str, Any]] = None
    kind: str = "span"

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class PhaseStat:
    """Aggregate of every span sharing one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "total_s": self.total_s, "self_s": self.self_s}


class _NullSpan:
    """The shared no-op context manager a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **args: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; created only when the tracer is enabled."""

    __slots__ = ("_tracer", "_name", "_args")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._tracer._open(self._name)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._close(self._args)
        return False

    def annotate(self, **args: Any) -> None:
        """Add arguments known only once the span's work is done."""
        self._args = {**(self._args or {}), **args}


class Tracer:
    """Spans + instants on a monotonic clock, with per-phase accounting.

    ``capacity`` bounds the flight recorder (oldest records evicted first);
    the per-phase totals keep accumulating after the recorder wraps, so a
    long-running session's :meth:`phase_totals` always cover its whole
    history. ``track`` names this tracer's timeline in exported traces.
    """

    __slots__ = (
        "enabled",
        "track",
        "capacity",
        "_records",
        "_stack",
        "_phases",
        "_epoch_s",
    )

    def __init__(
        self, enabled: bool = True, capacity: int = 65536, track: str = "main"
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = bool(enabled)
        self.track = str(track)
        self.capacity = int(capacity)
        self._records: deque = deque(maxlen=self.capacity)
        # Open-span frames: [name, start_s, child_s].
        self._stack: List[list] = []
        # name -> [count, total_s, self_s]; mutable for cheap accumulation.
        self._phases: Dict[str, list] = {}
        self._epoch_s = _clock()

    # ------------------------------------------------------------ recording
    def span(self, name: str, **args: Any):
        """Context manager timing one named phase (nestable).

        The disabled path is one attribute check and returns a shared no-op
        object — the cost of instrumenting a hot path with an unused tracer.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, args or None)

    def instant(self, name: str, **args: Any) -> None:
        """Record one zero-duration event at the current nesting depth."""
        if not self.enabled:
            return
        now = _clock()
        self._records.append(
            SpanRecord(
                name=name,
                start_s=now,
                duration_s=0.0,
                self_s=0.0,
                track=self.track,
                depth=len(self._stack),
                args=args or None,
                kind="instant",
            )
        )

    def _open(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def _close(self, args: Optional[Dict[str, Any]]) -> None:
        end = _clock()
        name, start, child_s = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        self._records.append(
            SpanRecord(
                name=name,
                start_s=start,
                duration_s=duration,
                self_s=self_s,
                track=self.track,
                depth=len(self._stack),
                args=args,
            )
        )
        self._account(name, duration, self_s)

    def _account(self, name: str, duration_s: float, self_s: float) -> None:
        stat = self._phases.get(name)
        if stat is None:
            stat = self._phases[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration_s
        stat[2] += self_s

    # -------------------------------------------------------------- reading
    def records(self) -> List[SpanRecord]:
        """A snapshot of the flight recorder (oldest first)."""
        return list(self._records)

    def phase_totals(self) -> Dict[str, PhaseStat]:
        """Accumulated per-phase stats over the tracer's whole history.

        The accumulating view survives recorder wrap-around; self times
        decompose the root spans' wall clock exactly.
        """
        return {
            name: PhaseStat(count=stat[0], total_s=stat[1], self_s=stat[2])
            for name, stat in self._phases.items()
        }

    def total_s(self, name: str) -> float:
        """Total wall seconds accumulated under one span name (0.0 if unseen)."""
        stat = self._phases.get(name)
        return stat[1] if stat is not None else 0.0

    def count(self, name: str) -> int:
        """How many spans closed under one name."""
        stat = self._phases.get(name)
        return stat[0] if stat is not None else 0

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop the flight recorder and phase totals (open spans survive)."""
        self._records.clear()
        self._phases.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, track={self.track!r}, records={len(self._records)})"


#: The shared disabled tracer: instrument unconditionally against this and
#: every hook costs one attribute check. (Its recorder stays empty even if
#: someone flips ``enabled`` on a copy — use a fresh Tracer() for that.)
NULL_TRACER = Tracer(enabled=False, capacity=1, track="null")
