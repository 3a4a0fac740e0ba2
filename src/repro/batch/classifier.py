"""Streaming Read Until classifier backed by the batched wavefront engine.

:class:`BatchSquiggleClassifier` speaks the
:class:`~repro.pipeline.api.ReadUntilClassifier` protocol and additionally
advertises ``on_chunk_batch`` — the fast path
:class:`~repro.pipeline.read_until.ReadUntilPipeline` uses to classify every
undecided channel's chunk of a polling round with **one** vectorized sDTW
wavefront instead of a per-read Python loop.

Each chunk is normalized on its own (the hardware normalizer operates per
chunk, paper Section 5.3), quantized when the kernel config asks for it, and
appended to the read's resumable lane in the :class:`BatchSDTWEngine`; the
decision fires once the configured prefix has streamed in (or the read ends
first). The scalar ``on_chunk`` path is a batch of one, so batched and
per-read runs make bit-identical decisions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.normalization import NormalizationConfig, SignalNormalizer
from repro.core.panel import TargetPanel
from repro.core.reference import ReferenceSquiggle
from repro.core.thresholds import choose_threshold
from repro.obs.trace import NULL_TRACER, Tracer
from repro.pipeline.api import ACCEPT, DEFAULT_HARDWARE_LATENCY_S, EJECT, Action
from repro.sequencer.read_until_api import SignalChunk

if TYPE_CHECKING:  # duck-typed at runtime; avoids a hard runtime dependency
    from repro.runtime.config import RunConfig

__all__ = ["BatchSquiggleClassifier"]

class BatchSquiggleClassifier:
    """Single-stage sDTW classifier that advances all channels in lockstep.

    ``reference`` may be one :class:`ReferenceSquiggle` or a multi-target
    :class:`TargetPanel`: with a panel, every chunk round scores all targets
    in the same wavefront and terminal actions carry the per-target argmin
    (``Action.target`` / ``Action.target_costs``). ``run_config`` — a
    :class:`repro.runtime.RunConfig` — selects the execution backend the
    engine advances lanes on (``"numpy"`` when omitted, with ``workers``
    lane-stripe threads when set — see :mod:`repro.batch.backends`);
    decisions are bit-identical whichever backend runs. Call :meth:`close`
    (or use the classifier as a context manager) to release the backend's
    threads — or, better, let
    a :class:`repro.runtime.ReadUntilSession` own the lifecycle.
    """

    supports_chunk_batching = True

    def __init__(
        self,
        reference: Union[ReferenceSquiggle, TargetPanel],
        config: Optional[SDTWConfig] = None,
        normalization: Optional[NormalizationConfig] = None,
        threshold: Optional[float] = None,
        prefix_samples: Optional[int] = None,
        name: Optional[str] = None,
        decision_latency_s: Optional[float] = None,
        run_config: Optional["RunConfig"] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        backend, backend_options = "numpy", None
        if run_config is not None:
            # The config is the declarative description of the run: any field
            # not explicitly overridden by a kwarg comes from it.
            backend = run_config.backend
            backend_options = run_config.resolved_backend_options()
            if config is None:
                config = run_config.hardware
            if threshold is None:
                threshold = run_config.threshold
            if prefix_samples is None:
                prefix_samples = run_config.prefix_samples
        prefix_samples = 2000 if prefix_samples is None else prefix_samples
        if prefix_samples <= 0:
            raise ValueError(f"prefix_samples must be positive, got {prefix_samples}")
        self.panel = TargetPanel.coerce(reference)
        self.reference = self.panel.primary
        self.config = config if config is not None else SDTWConfig.hardware()
        self.normalization = (
            normalization if normalization is not None else self.panel.normalization
        )
        self.normalizer = SignalNormalizer(self.normalization)
        self.threshold = threshold
        self.prefix_samples = int(prefix_samples)
        self.run_config = run_config
        self.tracer = tracer
        # Pruning: the classifier knows the two facts the engine's kill
        # bounds need — the decision bound is the eject threshold, and no
        # lane ever consumes more than the decision prefix (on_chunk_batch
        # trims chunks to it). The bound itself is stamped per round so late
        # calibration is picked up.
        prune = bool(run_config.prune) if run_config is not None else False
        prune_margin = float(run_config.prune_margin) if run_config is not None else 0.0
        lb_cascade = bool(run_config.lb_cascade) if run_config is not None else False
        lb_level = int(run_config.lb_level) if run_config is not None else 2
        self.engine = BatchSDTWEngine(
            self.panel,
            self.config,
            backend=backend,
            backend_options=backend_options,
            tracer=tracer,
            prune=prune,
            prune_margin=prune_margin,
            prune_lifetime_samples=self.prefix_samples if prune else None,
            lb_cascade=lb_cascade,
            lb_level=lb_level,
        )
        self.name = name if name is not None else f"batch:SquiggleFilter[{self.engine.backend_name}]"
        self.decision_latency_s = (
            float(decision_latency_s)
            if decision_latency_s is not None
            else DEFAULT_HARDWARE_LATENCY_S
        )

    # ------------------------------------------------------------- protocol
    @property
    def backend_name(self) -> str:
        """Which execution backend the engine advances lanes on."""
        return self.engine.backend_name

    def close(self) -> None:
        """Release the execution backend (its lane-stripe threads, if any)."""
        self.engine.close()

    def __enter__(self) -> "BatchSquiggleClassifier":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def min_decision_samples(self) -> int:
        return self.prefix_samples

    @property
    def max_decision_samples(self) -> int:
        return self.prefix_samples

    def begin_read(self, read_id: str) -> None:
        if read_id not in self.engine:
            self.engine.admit(read_id)

    def end_read(self, read_id: str) -> None:
        self.engine.retire(read_id)

    def on_chunk(self, chunk: SignalChunk) -> Action:
        """Scalar fallback: a batch round of one channel."""
        return self.on_chunk_batch([chunk])[0]

    def on_chunk_batch(self, chunks: Sequence[SignalChunk]) -> List[Action]:
        """Classify one polling round: a single wavefront across all chunks."""
        if self.threshold is None:
            raise ValueError(
                "no threshold configured; call calibrate() or pass threshold explicitly"
            )
        # The eject threshold is the decision bound the pruning layer
        # protects; stamped every round because calibrate() may run after
        # construction (the engine's kill-bound envelope keeps per-lane
        # bounds monotone even if it moves).
        self.engine.prune_bound = float(self.threshold)
        with self.tracer.span("round.prepare", n_chunks=len(chunks)):
            items = []
            for chunk in chunks:
                if chunk.read_id not in self.engine:
                    self.engine.admit(chunk.read_id)
                consumed = self.engine.samples_processed(chunk.read_id)
                remaining = self.prefix_samples - consumed
                if remaining > 0 and chunk.chunk_length > 0:
                    items.append(
                        (chunk.read_id, self._prepare(chunk.signal_pa[:remaining]))
                    )
        snapshots = self.engine.step(items)

        with self.tracer.span("round.decide"):
            actions: List[Action] = []
            for chunk in chunks:
                if chunk.samples_seen < self.prefix_samples and not chunk.is_last:
                    actions.append(Action.wait())
                    continue
                snapshot = snapshots.get(chunk.read_id)
                if snapshot is None:
                    snapshot = self.engine.snapshot(chunk.read_id)
                accept = snapshot.cost <= self.threshold
                self.end_read(chunk.read_id)
                actions.append(
                    Action(
                        kind=ACCEPT if accept else EJECT,
                        cost=float(snapshot.cost),
                        samples_used=int(snapshot.samples_processed),
                        stage=0,
                        threshold=float(self.threshold),
                        end_position=int(snapshot.end_position),
                        target=snapshot.target,
                        target_costs=snapshot.target_costs,
                    )
                )
            return actions

    # ---------------------------------------------------------- calibration
    def _prepare(self, raw_chunk: np.ndarray) -> np.ndarray:
        normalized = self.normalizer.normalize(np.asarray(raw_chunk, dtype=np.float64))
        if self.config.quantize:
            return self.normalizer.quantize(normalized)
        return normalized

    def costs(
        self,
        raw_signals: Sequence[np.ndarray],
        prefix_samples: Optional[int] = None,
        chunk_samples: Optional[int] = None,
    ) -> List[float]:
        """Chunk-streamed alignment costs for many reads, batched per round.

        Mirrors what the streaming path computes: each read's prefix is cut
        into ``chunk_samples`` pieces, each piece normalized on its own, and
        every round advances all reads with one wavefront. With
        ``chunk_samples >= prefix_samples`` (the pipeline default geometry)
        this equals :meth:`SquiggleFilter.cost` on the same prefix.
        """
        prefix = prefix_samples if prefix_samples is not None else self.prefix_samples
        chunk = chunk_samples if chunk_samples is not None else prefix
        if chunk <= 0:
            raise ValueError("chunk_samples must be positive")
        signals = [np.asarray(signal, dtype=np.float64)[:prefix] for signal in raw_signals]
        if any(signal.size == 0 for signal in signals):
            raise ValueError("cannot classify an empty signal")
        # Calibration always runs in-process: backends are bit-identical per
        # lane, and a one-shot sweep should not spin up a second thread pool.
        with BatchSDTWEngine(self.panel, self.config, backend="numpy") as engine:
            costs: Dict[int, float] = {}
            offset = 0
            while len(costs) < len(signals):
                items = []
                for index, signal in enumerate(signals):
                    if offset < signal.size:
                        items.append((index, self._prepare(signal[offset : offset + chunk])))
                snapshots = engine.step(items)
                offset += chunk
                for index, signal in enumerate(signals):
                    if index not in costs and offset >= signal.size:
                        costs[index] = snapshots[index].cost
        return [costs[index] for index in range(len(signals))]

    def calibrate(
        self,
        target_signals: Sequence[np.ndarray],
        nontarget_signals: Sequence[np.ndarray],
        objective: str = "f1",
        target_recall: float = 0.95,
        prefix_samples: Optional[int] = None,
        chunk_samples: Optional[int] = None,
    ) -> float:
        """Choose and store a threshold from labelled calibration reads."""
        self.threshold = choose_threshold(
            self.costs(target_signals, prefix_samples, chunk_samples),
            self.costs(nontarget_signals, prefix_samples, chunk_samples),
            objective=objective,
            target_recall=target_recall,
        )
        return self.threshold
