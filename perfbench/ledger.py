"""Benchmark-side span ledger: self time per layer from wrapped public calls.

The program under test is never edited for measurement. Instead the
benchmark wraps the bound methods it wants to attribute time to (on the
objects a session created, so nothing outside one run is touched), and the
ledger accumulates, per span name, the call count, total time and *self*
time: total minus the time spent in wrapped calls nested inside it. Self
times of one nesting tree therefore sum to the root span's wall time, and
the residual against an independently taken wall clock is the part of the
loop no wrapper covers.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Sequence

_clock = time.perf_counter


class Ledger:
    """Nested self-time accounting for wrapped callables (single thread)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        # Child time accumulated by each open frame, innermost last.
        self._open: List[float] = []

    def _close(self, name: str, duration: float) -> None:
        child = self._open.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self._open:
            self._open[-1] += duration

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as one ``name`` span."""

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            self._open.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, _clock() - start)

        return wrapped

    def instrument(self, obj: Any, attribute: str, name: str) -> None:
        """Replace ``obj.attribute`` by its wrapped bound method."""
        setattr(obj, attribute, self.wrap(name, getattr(obj, attribute)))


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the convention the service's /metrics uses)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident memory (VmHWM) of a process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
