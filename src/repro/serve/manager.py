"""Tenant session lifecycle for the classification service.

Each tenant is a named :class:`~repro.runtime.RunConfig`. The
:class:`SessionManager` owns the create / submit-round / summary / close
lifecycle keyed by session id:

* **create** validates the tenant's config through
  :meth:`RunConfig.from_dict` — service clients get exactly the same
  field-naming error messages as local users — optionally overlaying it on
  the server's default config template;
* **submit-round** deserializes the tenant's chunk payload, serializes
  rounds per session with an :class:`asyncio.Lock` (sessions are
  single-writer; the lock queues HTTP clients politely where the session
  itself would raise), executes through the shared
  :class:`~repro.serve.pool.BackendPool`, and folds the outcome into the
  metrics registry;
* **close** captures the final summary before the session releases its
  execution backend (summaries are unavailable after close).

Wire format: chunks arrive as ``{"read_id", "signal", "chunk_start_sample",
"channel", "read_number", "is_last"}`` mappings; actions return every
:class:`~repro.pipeline.api.Action` field. Signal samples and costs travel
as JSON numbers — Python's float repr round-trips exactly, so service
decisions are bit-identical to local ``open_session`` runs.
"""

from __future__ import annotations

import asyncio
import re
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.obs import MetricsRegistry
from repro.pipeline.api import Action
from repro.runtime import ReadUntilSession, RunConfig, open_session
from repro.serve.pool import BackendPool
from repro.sequencer.read_until_api import SignalChunk

__all__ = [
    "SessionManager",
    "UnknownSessionError",
    "action_to_payload",
    "action_from_payload",
    "chunk_from_payload",
    "chunk_to_payload",
]

_ID_SANITIZER = re.compile(r"[^A-Za-z0-9_.-]+")


class UnknownSessionError(KeyError):
    """No session with the given id (never created, or already closed)."""

    def __init__(self, session_id: str) -> None:
        super().__init__(session_id)
        self.session_id = session_id

    def __str__(self) -> str:
        return (
            f"unknown session {self.session_id!r}; it was never created or "
            "has been closed"
        )


# ------------------------------------------------------------- wire format
def chunk_from_payload(payload: Mapping[str, Any]) -> SignalChunk:
    """One wire-format chunk mapping -> :class:`SignalChunk`."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"chunk: expected a mapping, got {type(payload).__name__}")
    missing = [key for key in ("read_id", "signal") if key not in payload]
    if missing:
        raise ValueError(f"chunk: missing required key(s) {', '.join(missing)}")
    signal = np.asarray(payload["signal"], dtype=np.float64)
    if signal.ndim != 1 or signal.size == 0:
        raise ValueError(
            f"chunk: signal must be a non-empty 1-D number list, got shape "
            f"{signal.shape}"
        )
    return SignalChunk(
        channel=int(payload.get("channel", 0)),
        read_id=str(payload["read_id"]),
        read_number=int(payload.get("read_number", 0)),
        chunk_start_sample=int(payload.get("chunk_start_sample", 0)),
        signal_pa=signal,
        is_last=bool(payload.get("is_last", False)),
    )


def chunk_to_payload(chunk: SignalChunk) -> Dict[str, Any]:
    """:class:`SignalChunk` -> the wire-format mapping (client side)."""
    return {
        "channel": int(chunk.channel),
        "read_id": chunk.read_id,
        "read_number": int(chunk.read_number),
        "chunk_start_sample": int(chunk.chunk_start_sample),
        "signal": [float(v) for v in np.asarray(chunk.signal_pa, dtype=np.float64)],
        "is_last": bool(chunk.is_last),
    }


def action_to_payload(action: Action) -> Dict[str, Any]:
    return {
        "kind": action.kind,
        "cost": float(action.cost),
        "samples_used": int(action.samples_used),
        "stage": int(action.stage),
        "threshold": float(action.threshold),
        "end_position": int(action.end_position),
        "target": action.target,
        "target_costs": [float(c) for c in action.target_costs],
    }


def action_from_payload(payload: Mapping[str, Any]) -> Action:
    return Action(
        kind=payload["kind"],
        cost=float(payload.get("cost", 0.0)),
        samples_used=int(payload.get("samples_used", 0)),
        stage=int(payload.get("stage", 0)),
        threshold=float(payload.get("threshold", 0.0)),
        end_position=int(payload.get("end_position", 0)),
        target=payload.get("target"),
        target_costs=tuple(float(c) for c in payload.get("target_costs", ())),
    )


class _ManagedSession:
    """One tenant's session plus its service-side bookkeeping."""

    def __init__(
        self,
        session_id: str,
        config: RunConfig,
        session: ReadUntilSession,
        tuned: Optional[Any] = None,
    ):
        self.session_id = session_id
        self.config = config
        self.session = session
        # The TunedDecision behind backend="auto" (None for pinned configs).
        self.tuned = tuned
        self.lock = asyncio.Lock()
        self.created_at = time.time()
        self.rounds = 0
        # Cumulative per-phase self time already folded into the metrics
        # registry; _record_round observes the delta each round.
        self.phase_seen: Dict[str, float] = {}
        # Cumulative engine cell counters already folded into the registry;
        # _record_round increments the counters by each round's delta.
        self.cells_seen: Dict[str, int] = {}


class SessionManager:
    """Create / submit-round / summary / close, keyed by session id."""

    def __init__(
        self,
        pool: BackendPool,
        metrics: Optional[MetricsRegistry] = None,
        default_config: Optional[Mapping[str, Any]] = None,
        max_sessions: int = 256,
    ) -> None:
        if max_sessions <= 0:
            raise ValueError(f"max_sessions must be positive, got {max_sessions}")
        self.pool = pool
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.default_config = dict(default_config) if default_config else None
        self.max_sessions = int(max_sessions)
        self._sessions: Dict[str, _ManagedSession] = {}
        self._counter = 0
        # backend="auto" is resolved once per workload-shape key and the
        # decision replayed for every subsequent tenant session of that
        # template — probes run at most once per server process per shape.
        self._tuned_templates: Dict[str, Any] = {}
        self.metrics.describe(
            "repro_serve_round_latency_seconds",
            "Server-side latency of one classification round",
        )
        self.metrics.describe(
            "repro_serve_rounds_total", "Classification rounds completed per session"
        )
        self.metrics.describe(
            "repro_serve_round_phase_seconds",
            "Per-phase self time spent inside one classification round",
        )
        self.metrics.describe(
            "repro_serve_cells_advanced_total",
            "sDTW wavefront cells actually computed per session",
        )
        self.metrics.describe(
            "repro_serve_cells_pruned_total",
            "sDTW wavefront cells skipped by column pruning per session",
        )
        self.metrics.describe(
            "repro_serve_cells_lb_skipped_total",
            "sDTW wavefront cells skipped by the lower-bound lane gate per session",
        )
        self.metrics.describe(
            "repro_serve_tuned_backend",
            "Info gauge: what backend='auto' resolved to (backend and cache-hit "
            "status travel as labels; the value is always 1)",
        )

    # ---------------------------------------------------------------- create
    def resolve_config(self, config: Optional[Mapping[str, Any]]) -> RunConfig:
        """Overlay a tenant's config on the server template and validate it.

        Raises :class:`ValueError` with the standard ``RunConfig`` messages
        (every error names the offending field) on anything invalid.
        """
        merged: Dict[str, Any] = dict(self.default_config or {})
        if config is not None:
            if not isinstance(config, Mapping):
                raise ValueError(
                    f"config: expected a mapping of RunConfig fields, got "
                    f"{type(config).__name__}"
                )
            merged.update(config)
        if not merged:
            raise ValueError(
                "config: the request names no RunConfig fields and the server "
                "has no default config template"
            )
        return RunConfig.from_dict(merged)

    def _resolve_auto(self, run_config: RunConfig):
        """Resolve ``backend="auto"`` once per workload-shape template.

        The first tenant session of a shape pays the probes (or a tuning
        cache hit); every later one replays the memoized decision — marked
        ``cache_hit=True``, since no probes ran for it. Multi-tenant
        servers therefore tune each template exactly once per process.
        """
        import dataclasses

        from repro.tune import WorkloadShape, cache_key, tune_config

        key = cache_key(WorkloadShape.from_config(run_config))
        decision = self._tuned_templates.get(key)
        if decision is None:
            decision = tune_config(run_config).decision
            self._tuned_templates[key] = dataclasses.replace(decision, cache_hit=True)
        return decision.apply(run_config), decision

    def create(self, config: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Open a session for one tenant config; returns its descriptor."""
        run_config = self.resolve_config(config)
        if len(self._sessions) >= self.max_sessions:
            raise PoolSaturatedSessions(
                f"session limit reached ({self.max_sessions}); close a session first"
            )
        tuned = None
        if run_config.backend == "auto":
            run_config, tuned = self._resolve_auto(run_config)
        self._counter += 1
        slug = _ID_SANITIZER.sub("-", run_config.label or "session").strip("-") or "session"
        session_id = f"{slug}-{self._counter:04d}"
        # Served sessions always run with the in-memory flight recorder on:
        # the per-phase round series in /metrics comes straight from it, and
        # the recorder is bounded so long-lived tenants cannot grow memory.
        if not run_config.tracing_enabled:
            run_config = run_config.with_(trace=True)
        self._sessions[session_id] = _ManagedSession(
            session_id, run_config, open_session(run_config), tuned=tuned
        )
        self.metrics.set_gauge("repro_serve_sessions_open", len(self._sessions))
        if tuned is not None:
            self.metrics.set_gauge(
                "repro_serve_tuned_backend",
                1,
                session=session_id,
                backend=tuned.backend,
                cache_hit="true" if tuned.cache_hit else "false",
            )
        return self.describe(session_id)

    def describe(self, session_id: str) -> Dict[str, Any]:
        managed = self._get(session_id)
        descriptor = {
            "session_id": managed.session_id,
            "label": managed.config.label,
            "backend": managed.config.backend,
            "n_channels": managed.config.n_channels,
            "rounds": managed.rounds,
            "started": managed.session.started,
        }
        if managed.tuned is not None:
            descriptor["tuned"] = managed.tuned.as_dict()
        return descriptor

    # ---------------------------------------------------------------- rounds
    async def submit_round(
        self, session_id: str, chunks: Sequence[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """Classify one polling round for ``session_id`` through the pool."""
        managed = self._get(session_id)
        if not isinstance(chunks, Sequence) or isinstance(chunks, (str, bytes)):
            raise ValueError("chunks: expected a list of chunk mappings")
        parsed = [chunk_from_payload(chunk) for chunk in chunks]
        async with managed.lock:  # single-writer: rounds are ordered per tenant
            start = time.perf_counter()
            actions: List[Action] = await self.pool.run(
                session_id, managed.session.submit, parsed
            )
            latency_s = time.perf_counter() - start
        managed.rounds += 1
        self._record_round(managed, parsed, actions, latency_s)
        return {
            "session_id": session_id,
            "round": managed.rounds,
            "latency_s": latency_s,
            "actions": [action_to_payload(action) for action in actions],
        }

    def _record_round(
        self,
        managed: _ManagedSession,
        chunks: Sequence[SignalChunk],
        actions: Sequence[Action],
        latency_s: float,
    ) -> None:
        metrics, sid = self.metrics, managed.session_id
        metrics.inc("repro_serve_rounds_total", session=sid)
        metrics.inc("repro_serve_chunks_total", len(chunks), session=sid)
        metrics.inc(
            "repro_serve_samples_total",
            float(sum(chunk.chunk_length for chunk in chunks)),
            session=sid,
        )
        metrics.observe("repro_serve_round_latency_seconds", latency_s, session=sid)
        tracer = managed.session.tracer
        if tracer.enabled:
            for phase, stat in tracer.phase_totals().items():
                delta = stat.self_s - managed.phase_seen.get(phase, 0.0)
                managed.phase_seen[phase] = stat.self_s
                if delta > 0.0:
                    metrics.observe(
                        "repro_serve_round_phase_seconds", delta, session=sid, phase=phase
                    )
        for action in actions:
            if not action.is_terminal:
                continue
            metrics.inc("repro_serve_decisions_total", session=sid, kind=action.kind)
            if action.kind == "accept":
                metrics.inc(
                    "repro_serve_target_accepts_total",
                    session=sid,
                    target=action.target or "target",
                )
        engine = managed.session.engine
        if engine is not None:
            for metric, attribute in (
                ("repro_serve_cells_advanced_total", "cells_advanced"),
                ("repro_serve_cells_pruned_total", "cells_pruned"),
                ("repro_serve_cells_lb_skipped_total", "cells_lb_skipped"),
            ):
                total = int(getattr(engine, attribute, 0))
                delta = total - managed.cells_seen.get(attribute, 0)
                managed.cells_seen[attribute] = total
                if delta > 0:
                    metrics.inc(metric, delta, session=sid)
            metrics.set_gauge(
                "repro_serve_lane_occupancy", engine.mean_occupancy, session=sid, stat="mean"
            )
            metrics.set_gauge(
                "repro_serve_lane_occupancy", engine.peak_occupancy, session=sid, stat="peak"
            )
        metrics.set_gauge("repro_serve_pool_queue_depth", self.pool.queue_depth)
        metrics.set_gauge("repro_serve_pool_active", self.pool.active)

    # --------------------------------------------------------------- summary
    def summary(self, session_id: str) -> Dict[str, Any]:
        return self._get(session_id).session.summary()

    def list_sessions(self) -> List[Dict[str, Any]]:
        return [self.describe(session_id) for session_id in sorted(self._sessions)]

    # ----------------------------------------------------------------- close
    async def close_session(self, session_id: str) -> Dict[str, Any]:
        """Close one session; returns its final summary."""
        managed = self._get(session_id)
        async with managed.lock:
            final = (
                managed.session.summary() if not managed.session.closed else {"closed": True}
            )
            await asyncio.get_running_loop().run_in_executor(
                None, managed.session.close
            )
        self._sessions.pop(session_id, None)
        self.metrics.set_gauge("repro_serve_sessions_open", len(self._sessions))
        final["closed"] = True
        return final

    async def drain(self) -> None:
        """Close every session (the graceful-shutdown path)."""
        for session_id in list(self._sessions):
            try:
                await self.close_session(session_id)
            except UnknownSessionError:  # closed concurrently
                pass

    # --------------------------------------------------------------- helpers
    def _get(self, session_id: str) -> _ManagedSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise UnknownSessionError(session_id) from None

    def __len__(self) -> int:
        return len(self._sessions)


class PoolSaturatedSessions(RuntimeError):
    """Session-count admission limit reached (HTTP 429 without Retry-After)."""
