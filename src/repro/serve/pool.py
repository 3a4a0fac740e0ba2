"""Admission control over a shared, bounded pool of execution slots.

Every tenant session owns its own classifier/engine/backend objects (lane
state is per-session), but *when* those backends may advance a wavefront is
a service-level concern — exactly the µ-cuDNN lesson of treating resource
knobs as runtime-managed rather than caller-managed. :class:`BackendPool`
bounds two things:

* **concurrency** — at most ``max_concurrency`` rounds execute at once,
  each on a thread of the pool's executor (the sDTW advance is synchronous
  CPU work; the asyncio event loop never blocks on it);
* **queueing** — at most ``max_queue`` rounds wait for a slot. Beyond
  that, :meth:`acquire` raises :class:`PoolSaturatedError` carrying a
  ``retry_after_s`` hint (derived from the recent round-latency EWMA and
  the queue depth), which the HTTP layer turns into ``429`` +
  ``Retry-After`` — load sheds at admission instead of collapsing.

Waiters are granted **fairly**: one FIFO queue per tenant, slots handed out
round-robin across tenants, so a hot flowcell hammering the service cannot
starve a tenant that submits occasionally.

:meth:`close` supports graceful draining: new admissions fail immediately
while queued and in-flight rounds run to completion, after which the
executor shuts down — the layer above then closes each session, releasing
its backend.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, Optional

__all__ = ["BackendPool", "PoolClosedError", "PoolSaturatedError"]


class PoolSaturatedError(RuntimeError):
    """The pool's wait queue is full; retry after ``retry_after_s`` seconds."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class PoolClosedError(RuntimeError):
    """The pool is draining or closed; no new work is admitted."""


class BackendPool:
    """Bounded executor slots with per-tenant round-robin admission.

    All methods must run on one asyncio event loop (the serving loop);
    the submitted callables execute on the pool's worker threads.
    """

    def __init__(
        self,
        max_concurrency: int = 2,
        max_queue: int = 32,
        *,
        initial_latency_s: float = 0.05,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError(f"max_concurrency must be positive, got {max_concurrency}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_concurrency = int(max_concurrency)
        self.max_queue = int(max_queue)
        self._active = 0
        self._queued = 0
        self._queues: "OrderedDict[str, Deque[asyncio.Future]]" = OrderedDict()
        self._rr: Deque[str] = deque()
        self._closed = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._latency_ewma_s = float(initial_latency_s)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrency, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------ inspection
    @property
    def active(self) -> int:
        """Rounds executing right now."""
        return self._active

    @property
    def queue_depth(self) -> int:
        """Rounds waiting for a slot."""
        return self._queued

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def latency_ewma_s(self) -> float:
        """Exponentially weighted average of recent round execution times."""
        return self._latency_ewma_s

    def retry_after_hint(self) -> float:
        """How long a rejected client should back off before retrying."""
        backlog_rounds = (self._queued + self._active) / self.max_concurrency
        return round(min(5.0, max(0.05, self._latency_ewma_s * (backlog_rounds + 1.0))), 3)

    # ------------------------------------------------------------- admission
    async def acquire(self, tenant: str) -> None:
        """Wait for an execution slot on behalf of ``tenant``.

        Returns once a slot is held (pair with :meth:`release`). Raises
        :class:`PoolSaturatedError` when the wait queue is full and
        :class:`PoolClosedError` once the pool is draining.
        """
        if self._closed:
            raise PoolClosedError("backend pool is draining; no new rounds admitted")
        # Barging is forbidden even when a slot is free: queued tenants go first.
        if self._active < self.max_concurrency and self._queued == 0:
            self._active += 1
            self._idle.clear()
            return
        if self._queued >= self.max_queue:
            retry_after = self.retry_after_hint()
            raise PoolSaturatedError(
                f"backend pool saturated ({self._active} active, "
                f"{self._queued} queued, max_queue={self.max_queue}); "
                f"retry in {retry_after}s",
                retry_after_s=retry_after,
            )
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rr.append(tenant)
        queue.append(waiter)
        self._queued += 1
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.cancelled():
                self._discard_waiter(tenant, waiter)
            else:
                # The slot was granted between grant and cancellation: give
                # it back so it is not leaked.
                self.release()
            raise

    def release(self, duration_s: Optional[float] = None) -> None:
        """Free a slot, folding ``duration_s`` into the latency EWMA, and
        hand it to the next queued tenant in round-robin order."""
        if duration_s is not None:
            self._latency_ewma_s = 0.8 * self._latency_ewma_s + 0.2 * float(duration_s)
        while self._rr:
            tenant = self._rr.popleft()
            queue = self._queues.get(tenant)
            if not queue:
                self._queues.pop(tenant, None)
                continue
            waiter = queue.popleft()
            if queue:
                self._rr.append(tenant)  # back of the rotation: fairness
            else:
                self._queues.pop(tenant, None)
            self._queued -= 1
            if not waiter.done():
                waiter.set_result(None)  # the slot transfers; _active unchanged
                return
        self._active -= 1
        if self._active == 0 and self._queued == 0:
            self._idle.set()

    def _discard_waiter(self, tenant: str, waiter: asyncio.Future) -> None:
        queue = self._queues.get(tenant)
        if queue is not None and waiter in queue:
            queue.remove(waiter)
            self._queued -= 1
            if not queue:
                self._queues.pop(tenant, None)
        if self._active == 0 and self._queued == 0:
            self._idle.set()

    # ------------------------------------------------------------- execution
    async def run(self, tenant: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Admit, then execute ``fn(*args)`` on a pool worker thread."""
        await self.acquire(tenant)
        start = time.perf_counter()
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, fn, *args
            )
        finally:
            self.release(time.perf_counter() - start)

    # -------------------------------------------------------------- lifecycle
    async def close(self, drain: bool = True) -> None:
        """Stop admitting work; optionally wait for the backlog to finish."""
        if self._closed:
            return
        self._closed = True
        if drain:
            await self._idle.wait()
        else:
            for queue in self._queues.values():
                for waiter in queue:
                    if not waiter.done():
                        waiter.set_exception(
                            PoolClosedError("backend pool closed before this round ran")
                        )
            self._queues.clear()
            self._rr.clear()
            self._queued = 0
        self._executor.shutdown(wait=drain)

    def snapshot(self) -> Dict[str, Any]:
        """Pool occupancy for ``/health`` and ``/metrics``."""
        return {
            "max_concurrency": self.max_concurrency,
            "max_queue": self.max_queue,
            "active": self._active,
            "queue_depth": self._queued,
            "latency_ewma_s": self._latency_ewma_s,
            "closed": self._closed,
        }
