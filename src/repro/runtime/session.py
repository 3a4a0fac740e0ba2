"""The Read Until session: one lifecycle object over one configured run.

:func:`open_session` turns a :class:`~repro.runtime.config.RunConfig` into a
:class:`ReadUntilSession` — the single runtime object pipelines, benchmarks
and the CLI drive. The session owns what used to be managed ad hoc at every
call site:

* **lazy backend creation** — nothing is spawned at ``open_session``; the
  classifier, engine and execution backend (with its lane-stripe thread
  pool, if any) come up on the first chunk submitted;
* **engine lifecycle** — the session is a context manager, ``close()`` is
  idempotent, a failure inside a round closes the session (no leaked thread
  pools when a run dies mid-stream), and any use after ``close()`` raises;
* **one streaming interface** — ``submit(round_chunks) -> decisions`` feeds
  one polling round through the batched wavefront; ``summary()`` reports the
  session's decision tallies and engine occupancy.

The session also speaks the
:class:`~repro.pipeline.api.ReadUntilClassifier` protocol (``begin_read`` /
``on_chunk`` / ``on_chunk_batch`` / ``end_read``), so
:class:`~repro.pipeline.read_until.ReadUntilPipeline` accepts it directly —
the pipeline, a benchmark loop calling :meth:`submit`, and the CLI are all
the same code path underneath. Decisions are bit-identical to driving the
pre-session entry points with the same configuration, whichever execution
backend the config names.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.runtime.config import RunConfig

if TYPE_CHECKING:  # imported lazily at runtime to keep open_session cheap
    from repro.batch.classifier import BatchSquiggleClassifier
    from repro.pipeline.api import Action
    from repro.pipeline.read_until import PipelineRunResult
    from repro.sequencer.read_until_api import SignalChunk
    from repro.sequencer.reads import Read

__all__ = ["ReadUntilSession", "SessionClosedError", "open_session"]


class SessionClosedError(RuntimeError):
    """Raised by every interaction with a closed :class:`ReadUntilSession`.

    The after-close contract is uniform across all registered execution
    backends: ``submit``, ``summary``, ``calibrate`` and ``classifier`` on a
    closed session raise this (a :class:`RuntimeError` subclass, so existing
    ``except RuntimeError`` callers keep working). Open a fresh session with
    :func:`open_session` instead of resurrecting a closed one.
    """


def _require_finite_signals(round_chunks: Sequence["SignalChunk"]) -> None:
    """Refuse a round with a non-finite sample: it would get an ordinary decision."""
    for index, chunk in enumerate(round_chunks):
        finite = np.isfinite(chunk.signal_pa)
        if not finite.all():
            position = int(np.argmin(finite))
            value = np.asarray(chunk.signal_pa)[position]
            raise ValueError(
                f"chunk[{index}].signal: sample {position} is {value}; "
                "signal samples must be finite"
            )


def open_session(config: RunConfig) -> "ReadUntilSession":
    """Open a :class:`ReadUntilSession` for one declarative run configuration.

    Cheap by design: the reference panel, classifier and execution backend
    are all created lazily when the first chunks arrive, so opening a
    session to validate a config (or to calibrate) costs nothing.
    """
    return ReadUntilSession(config)


class ReadUntilSession:
    """Streaming Read Until runtime for one :class:`RunConfig`.

    Use as a context manager (the backend's thread pool is released on
    exit, including exceptional exit), or call
    :meth:`close` explicitly. A session whose round raises is closed on the
    spot — abandoning it cannot leak backend resources — and every
    interaction after ``close()`` raises :class:`SessionClosedError`.

    Sessions are **single-writer**: lane state advances in submission order,
    so one round must finish before the next begins. Submitting from a
    second thread while a round is in flight raises :class:`RuntimeError`
    immediately (it can never corrupt lane state), while :meth:`close` from
    another thread waits for the in-flight round — what a draining service
    wants. Callers that need concurrency open one session per tenant (see
    :mod:`repro.serve`).
    """

    supports_chunk_batching = True

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self._classifier: Optional["BatchSquiggleClassifier"] = None
        self._panel = None
        # backend="auto" resolution state: the concrete post-tuning config
        # and the decision that produced it (None until the backend spawns).
        self._resolved_config: Optional[RunConfig] = None
        self._tuned = None
        self._threshold = config.threshold
        self._closed = False
        self._n_rounds = 0
        self._decisions: Dict[str, int] = {"accept": 0, "eject": 0}
        self._per_target_accepts: Dict[str, int] = {}
        # Observability: an enabled tracer only when the config asks for it,
        # so untraced sessions pay one `if` per hook. Round wall-clock is
        # accumulated unconditionally (two clock reads per round) because
        # summary() reports it in both modes.
        self._tracer = Tracer(track="session") if config.tracing_enabled else NULL_TRACER
        self._round_wall_s = 0.0
        # Reentrant so the close-on-error path inside a round can take it
        # again from the same thread; a *different* thread mid-round fails
        # the non-blocking acquire and raises instead of corrupting lanes.
        self._io_lock = threading.RLock()

    def _acquire_writer(self, verb: str) -> None:
        if not self._io_lock.acquire(blocking=False):
            raise RuntimeError(
                f"concurrent {verb} on one ReadUntilSession: sessions are "
                "single-writer (rounds advance lane state in order); "
                "serialize submissions or open one session per tenant"
            )

    # -------------------------------------------------------------- protocol
    @property
    def name(self) -> str:
        return f"session:{self.config.backend}"

    @property
    def decision_latency_s(self) -> float:
        from repro.pipeline.api import DEFAULT_HARDWARE_LATENCY_S

        return DEFAULT_HARDWARE_LATENCY_S

    @property
    def min_decision_samples(self) -> int:
        return self.config.prefix_samples

    @property
    def max_decision_samples(self) -> int:
        return self.config.prefix_samples

    @property
    def started(self) -> bool:
        """Whether the first submission has spawned the execution backend."""
        return self._classifier is not None

    @property
    def backend_name(self) -> str:
        """The backend this session runs (or will run) on.

        ``"auto"`` until the first submission resolves it through the tuner;
        the concrete tuned backend afterwards.
        """
        if self._resolved_config is not None:
            return self._resolved_config.backend
        return self.config.backend

    @property
    def tuned(self):
        """The :class:`~repro.tune.TunedDecision` behind ``backend="auto"``.

        ``None`` for pinned-backend configs and before the lazy first
        submission spawns the backend.
        """
        return self._tuned

    @property
    def threshold(self) -> Optional[float]:
        return self._threshold

    @property
    def classifier(self) -> "BatchSquiggleClassifier":
        """The underlying batched classifier (spawning it if needed)."""
        return self._ensure_classifier()

    @property
    def engine(self):
        """The lane-manager engine once started (``None`` before the first
        submission) — what the pipeline's streaming summary reads occupancy
        from."""
        return self._classifier.engine if self._classifier is not None else None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def label(self) -> Optional[str]:
        return self.config.label

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                "session is closed; open_session(config) creates a fresh one"
            )

    def _resolve_panel(self):
        if self._panel is None:
            self._panel = self.config.resolve_panel()
        return self._panel

    def _resolve_config(self) -> RunConfig:
        """The concrete config the backend spawns from.

        Pinned configs pass through untouched. ``backend="auto"`` resolves
        here — lazily, at first spawn, with the panel already built so the
        workload shape is exact — via :func:`repro.tune.resolve_auto`:
        probes on a cold cache (traced as ``tune.probe`` spans on this
        session's tracer), a cache lookup on repeat runs. The decision is
        memoized for the session's lifetime and reported under
        ``summary()["tuned"]``.
        """
        if self._resolved_config is None:
            if self.config.backend == "auto":
                from repro.tune import resolve_auto

                self._resolved_config, self._tuned = resolve_auto(
                    self.config, panel=self._resolve_panel(), tracer=self._tracer
                )
            else:
                self._resolved_config = self.config
        return self._resolved_config

    def _ensure_classifier(self) -> "BatchSquiggleClassifier":
        self._check_open()
        if self._classifier is None:
            from repro.batch.classifier import BatchSquiggleClassifier

            resolved = self._resolve_config()
            self._classifier = BatchSquiggleClassifier(
                self._resolve_panel(),
                config=resolved.hardware,
                threshold=self._threshold,
                prefix_samples=resolved.prefix_samples,
                name=self.name,
                run_config=resolved,
                tracer=self._tracer,
            )
        return self._classifier

    # -------------------------------------------------------- streaming verbs
    def begin_read(self, read_id: str) -> None:
        self._ensure_classifier().begin_read(read_id)

    def end_read(self, read_id: str) -> None:
        if self._classifier is not None and not self._closed:
            self._classifier.end_read(read_id)

    def on_chunk(self, chunk: "SignalChunk") -> "Action":
        return self.on_chunk_batch([chunk])[0]

    def on_chunk_batch(self, chunks: Sequence["SignalChunk"]) -> List["Action"]:
        """Classify one polling round (the pipeline's fast path).

        A chunk holding a NaN or infinite sample fails the whole round with
        a ``ValueError`` naming it (``chunk[i].signal``) before any lane
        state changes, so the session stays usable. Any other failure inside
        the round — a kernel error, an overflow — closes the session before
        propagating, so an abandoned run never leaks the backend's thread
        pool.
        """
        _require_finite_signals(chunks)
        self._acquire_writer("round submission")
        try:
            classifier = self._ensure_classifier()
            try:
                round_start_s = time.perf_counter()
                with self._tracer.span(
                    "session.round", round=self._n_rounds, n_chunks=len(chunks)
                ):
                    actions = classifier.on_chunk_batch(chunks)
                self._round_wall_s += time.perf_counter() - round_start_s
            except Exception:
                self.close()
                raise
        finally:
            self._io_lock.release()
        self._n_rounds += 1
        for chunk, action in zip(chunks, actions):
            if not action.is_terminal:
                continue
            self._decisions[action.kind] = self._decisions.get(action.kind, 0) + 1
            if action.kind == "accept" and action.target is not None:
                self._per_target_accepts[action.target] = (
                    self._per_target_accepts.get(action.target, 0) + 1
                )
        return actions

    def submit(self, round_chunks: Sequence["SignalChunk"]) -> List["Action"]:
        """Feed one polling round of chunks; returns one action per chunk.

        The direct-drive verb for benchmarks and custom loops: unseen read
        ids get a lane on their first chunk, and the whole round advances
        through one batched wavefront exactly as the pipeline's fast path
        (:meth:`on_chunk_batch`, whose non-finite-sample check applies).
        """
        self._check_open()
        self._acquire_writer("submit")
        try:
            return self.on_chunk_batch(round_chunks)
        finally:
            self._io_lock.release()

    # ------------------------------------------------------------ calibration
    def calibrate(
        self,
        target_signals: Sequence[np.ndarray],
        nontarget_signals: Sequence[np.ndarray],
        objective: str = "f1",
        target_recall: float = 0.95,
        chunk_samples: Optional[int] = None,
    ) -> float:
        """Choose the ejection threshold from labelled reads and store it.

        Runs in-process on a throwaway numpy-backend classifier (calibration
        is a one-shot sweep; costs are bit-identical on every backend), so
        calibrating never spawns the configured execution backend early.
        """
        self._check_open()
        from repro.batch.classifier import BatchSquiggleClassifier

        chunk = chunk_samples if chunk_samples is not None else self.config.chunk_samples
        with BatchSquiggleClassifier(
            self._resolve_panel(),
            config=self.config.hardware,
            prefix_samples=self.config.prefix_samples,
            run_config=self.config.with_(backend="numpy", workers=None, tile_columns=None, backend_options={}),
        ) as helper:
            self._threshold = helper.calibrate(
                target_signals,
                nontarget_signals,
                objective=objective,
                target_recall=target_recall,
                chunk_samples=chunk,
            )
        if self._classifier is not None:
            self._classifier.threshold = self._threshold
        return self._threshold

    # -------------------------------------------------------------- reporting
    @property
    def tracer(self) -> Tracer:
        """The session's tracer (the shared disabled one unless the config traces)."""
        return self._tracer

    def trace(self) -> List[SpanRecord]:
        """Flight-recorder snapshot: every recorded span/instant, oldest first.

        Empty unless the config enables tracing (``trace=True`` or a
        ``trace_path``). A striped numpy backend's threads record no spans
        of their own; their timings ride on ``backend.wavefront``.
        """
        return self._tracer.records()

    def summary(self) -> Dict[str, Any]:
        """Decision tallies, wall-clock and engine occupancy for everything submitted.

        Always includes ``round_wall_s`` (total wall seconds spent inside
        round submissions); once the engine has spawned, ``n_polls`` and
        ``busy_rounds`` account idle vs busy polling rounds. With tracing
        enabled, ``phase_totals`` breaks the wall time down per span name
        (count / total / self seconds, from the tracer's accumulating view).

        Raises :class:`SessionClosedError` on a closed session — capture the
        summary before :meth:`close` (the serving layer does exactly that
        when a tenant deletes a session).
        """
        self._check_open()
        summary: Dict[str, Any] = {
            "backend": self.backend_name,
            "prefix_samples": self.config.prefix_samples,
            "n_channels": self.config.n_channels,
            "threshold": self._threshold,
            "rounds": self._n_rounds,
            "accepts": self._decisions.get("accept", 0),
            "ejects": self._decisions.get("eject", 0),
            "closed": self._closed,
            "round_wall_s": self._round_wall_s,
        }
        if self.config.label is not None:
            summary["label"] = self.config.label
        if self._tuned is not None:
            summary["tuned"] = self._tuned.as_dict()
        if self._per_target_accepts:
            summary["per_target_accepts"] = dict(self._per_target_accepts)
        if self._classifier is not None:
            engine = self._classifier.engine
            summary["targets"] = list(engine.target_names)
            summary["batch_occupancy"] = list(engine.occupancy_trace)
            summary["peak_batch_lanes"] = engine.peak_occupancy
            summary["mean_batch_lanes"] = engine.mean_occupancy
            summary["n_polls"] = engine.n_polls
            summary["busy_rounds"] = len(engine.rounds)
            summary["cells_advanced"] = engine.cells_advanced
            summary["cells_pruned"] = engine.cells_pruned
            summary["lanes_lb_skipped"] = int(getattr(engine, "lanes_lb_skipped", 0))
            summary["cells_lb_skipped"] = int(getattr(engine, "cells_lb_skipped", 0))
        if self._tracer.enabled:
            summary["phase_totals"] = {
                name: stat.as_dict()
                for name, stat in sorted(self._tracer.phase_totals().items())
            }
        return summary

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the classifier and its execution backend. Idempotent.

        From another thread, blocks until an in-flight round finishes — a
        draining service never tears a backend down under a live wavefront.
        """
        with self._io_lock:
            if self._closed:
                return
            self._closed = True
            try:
                if self.config.trace_path is not None and len(self._tracer):
                    from repro.obs.export import write_chrome_trace

                    metadata = {
                        "backend": self.backend_name,
                        "rounds": self._n_rounds,
                    }
                    if self.config.label is not None:
                        metadata["label"] = self.config.label
                    write_chrome_trace(self._tracer, self.config.trace_path, metadata=metadata)
            finally:
                # An unwritable trace path must never leak the backend's
                # thread pool; the export error propagates after teardown.
                if self._classifier is not None:
                    self._classifier.close()

    def __enter__(self) -> "ReadUntilSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ convenience
    def run(
        self,
        reads: Sequence["Read"],
        target_genome: Optional[str] = None,
        target_bases_goal: Optional[int] = None,
        assemble: bool = False,
        assembler: Any = None,
    ) -> "PipelineRunResult":
        """Stream ``reads`` through a full Read Until simulation.

        Builds a :class:`~repro.pipeline.read_until.ReadUntilPipeline` from
        this session's config (channel count, chunk geometry, batch mode)
        with the session itself as the classifier, so the pipeline and
        :meth:`submit` exercise the identical code path. ``target_genome``
        defaults to the config's ``genome`` and is only required when
        ``assemble`` is on.
        """
        self._check_open()
        from repro.pipeline.read_until import ReadUntilPipeline

        genome = target_genome if target_genome is not None else self.config.genome
        if assemble and genome is None:
            raise ValueError("assemble=True needs a target_genome to assemble against")
        pipeline = ReadUntilPipeline(
            self,
            genome,
            prefix_samples=self.config.prefix_samples,
            chunk_samples=self.config.chunk_samples,
            n_channels=self.config.n_channels,
            batch=self.config.batch if self.config.batch is not None else True,
            assemble=assemble,
            assembler=assembler,
        )
        return pipeline.run(reads, target_bases_goal=target_bases_goal)
