"""Multi-tenant async classification service over a shared backend pool.

``repro.serve`` turns the one-process, one-session runtime into a service:
many concurrent tenants — each a named, validated
:class:`~repro.runtime.RunConfig` — stream polling rounds over HTTP into
their own :class:`~repro.runtime.ReadUntilSession`, while a shared, bounded
:class:`BackendPool` decides *when* each session's execution backend may
advance (admission control, per-tenant round-robin fairness, ``429`` +
``Retry-After`` backpressure at saturation). ``/health`` and a
Prometheus-style ``/metrics`` expose per-round latency percentiles, lane
occupancy, per-target accept counts and pool queue depth; shutdown drains
gracefully, releasing every backend.

The transport is dependency-free (stdlib asyncio HTTP); FastAPI mounts the
same handlers when installed (:func:`create_fastapi_app`). Decisions served
over the wire are bit-identical to local :func:`~repro.runtime.open_session`
runs — the property ``benchmarks/bench_serve.py`` asserts under concurrent
load.

Quickstart::

    # server (or: repro serve --port 8093)
    from repro.serve import serve_forever
    serve_forever(port=8093)

    # client
    from repro.serve.client import ServeClient
    client = ServeClient("127.0.0.1", 8093)
    sid = client.create_session({"genome": genome, "threshold": 125000.0,
                                 "label": "flowcell-A"})
    actions, meta = client.submit_round(sid, chunks)
"""

from repro.obs import MetricsRegistry
from repro.serve.app import (
    BackgroundServer,
    Response,
    ServeApp,
    ServeServer,
    create_fastapi_app,
    serve_forever,
    start_server,
)
from repro.serve.client import AsyncServeClient, ServeClient, ServeClientError
from repro.serve.manager import SessionManager, UnknownSessionError
from repro.serve.pool import BackendPool, PoolClosedError, PoolSaturatedError

__all__ = [
    "AsyncServeClient",
    "BackendPool",
    "BackgroundServer",
    "MetricsRegistry",
    "PoolClosedError",
    "PoolSaturatedError",
    "Response",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "ServeServer",
    "SessionManager",
    "UnknownSessionError",
    "create_fastapi_app",
    "serve_forever",
    "start_server",
]
