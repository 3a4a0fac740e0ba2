"""Calibration probes: replay a shaped synthetic workload through one candidate.

The tuner never benchmarks the user's real signal — at tuning time none has
arrived yet. Instead it derives the *workload shape* the session is about to
run (reference columns, panel blocks, channel count, chunk length, kernel
data path) from the :class:`~repro.runtime.RunConfig`, synthesizes a small
deterministic workload of that shape (capped so the whole probe sweep stays
inside ``tune_budget_s``), and replays it through each candidate
``(backend, workers, tile_columns, prune, lb_cascade)`` point via a
throwaway in-process :class:`~repro.batch.engine.BatchSDTWEngine` — the same
"spend a bounded slice of compute up front to pick the operating point"
idiom as :meth:`repro.runtime.ReadUntilSession.calibrate`.

The probe workload mirrors the benchmark suite's mixed construction: a
minority of channels stream reads sampled from the synthetic reference plus
small noise (on-target), the rest stream random signal (off-target), and an
unpruned pre-pass places a kill threshold in the gap between the two cost
distributions — so the ``prune``/``lb_cascade`` candidates are measured in
the regime where they can actually pay. Probe timing comes from the obs
tracer's phase totals (the same accounting every benchmark entry reports),
and the score is the *nominal* cell rate — full-problem DP cells per second,
the end-to-end figure under which pruned cells retire for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SDTWConfig

__all__ = [
    "ProbeResult",
    "ProbeWorkload",
    "WorkloadShape",
    "run_probe",
    "synthesize_workload",
]

# Probe-side caps: the synthetic workload matches the requested shape up to
# these bounds, which keep a full candidate sweep in the hundreds of
# milliseconds on one core. Relative backend ordering is what the probe
# measures, and it is stable under proportional shrinking of the axes.
PROBE_MAX_CHANNELS = 32
PROBE_MAX_COLUMNS = 16384
PROBE_MAX_CHUNK = 200
PROBE_MAX_BLOCKS = 4
PROBE_MIN_COLUMNS = 256
PROBE_ROUNDS = 2
PROBE_SEED = 20211025
_KMER_OVERHANG = 5  # a genome of L bases yields L-5 expected-signal positions (6-mers)


@dataclass(frozen=True)
class WorkloadShape:
    """The tuning-relevant axes of a classification run.

    Derived once per resolution from the config (and the resolved panel when
    the caller already built one); both the cache key and the synthetic
    probe workload are functions of this shape alone.
    """

    reference_columns: int
    n_blocks: int = 1
    n_channels: int = 1
    chunk_samples: int = 400
    hardware: SDTWConfig = field(default_factory=SDTWConfig.hardware)

    @property
    def dtype_path(self) -> str:
        """Which kernel data path this shape runs: ``int32`` or ``float64``.

        Mirrors the backends' resident-state dtype predicate (quantized,
        absolute distance, whole-number bonus — the int32 fast path); the
        two paths have different arithmetic throughput and footprint, so
        tuning decisions do not transfer between them.
        """
        hw = self.hardware
        if hw.quantize and hw.distance == "absolute" and float(hw.match_bonus).is_integer():
            return "int32"
        return "float64"

    @classmethod
    def from_config(cls, config: Any, panel: Optional[Any] = None) -> "WorkloadShape":
        """The shape a :class:`~repro.runtime.RunConfig` is about to run.

        When the caller already resolved the panel (session spawn does), the
        column/block counts are exact. Otherwise they are *estimated* from
        the genome lengths — ``(L - 5)`` squiggle positions per strand —
        without building any reference: the cache key buckets sizes to
        powers of two, so the estimate and the built reference land on the
        same key, and estimating keeps ``repro tune`` / ``config-dump
        --resolve`` cheap.
        """
        chunk = int(config.chunk_samples or config.prefix_samples)
        strands = 2 if config.include_reverse_complement else 1
        if panel is None and config.reference is not None:
            from repro.core.panel import TargetPanel  # deferred: import cycle via filter

            panel = TargetPanel.coerce(config.reference)
        if panel is not None:
            columns = int(panel.n_positions)
            blocks = int(len(panel.names))
        elif config.targets is not None:
            lengths = [len(genome) for genome in config.targets.values()]
            columns = sum(max(1, length - _KMER_OVERHANG) * strands for length in lengths)
            blocks = len(lengths)
        elif config.genome is not None:
            columns = max(1, len(config.genome) - _KMER_OVERHANG) * strands
            blocks = 1
        else:
            # No target named yet (config-dump on a template): assume the
            # paper's qPCR-assay scale so tuning still returns something.
            columns = max(1, 2400 - _KMER_OVERHANG) * strands
            blocks = 1
        return cls(
            reference_columns=columns,
            n_blocks=blocks,
            n_channels=int(config.n_channels),
            chunk_samples=chunk,
            hardware=config.hardware,
        )


@dataclass(frozen=True)
class ProbeWorkload:
    """One synthesized workload, shared by every candidate probe.

    ``panel`` is a real :class:`~repro.core.panel.TargetPanel` built from
    seeded random genomes (so multi-block shapes exercise the true
    concatenated-column/block-offset path), ``rounds`` the per-round
    per-channel query chunks, and ``threshold``/``lifetime_samples`` the
    kill bound the pruned candidates run under — placed by an unpruned
    pre-pass, exactly how the streaming classifier derives its bounds.
    """

    panel: Any
    rounds: Tuple[Tuple[np.ndarray, ...], ...]
    threshold: float
    lifetime_samples: int
    dp_cells: int
    n_channels: int
    hardware: SDTWConfig

    @property
    def reference_columns(self) -> int:
        return int(self.panel.n_positions)


def _probe_axes(shape: WorkloadShape) -> Tuple[int, int, int, int]:
    """(columns, blocks, channels, chunk) after the probe-side caps."""
    columns = min(max(int(shape.reference_columns), PROBE_MIN_COLUMNS), PROBE_MAX_COLUMNS)
    blocks = min(max(int(shape.n_blocks), 1), PROBE_MAX_BLOCKS)
    channels = min(max(int(shape.n_channels), 1), PROBE_MAX_CHANNELS)
    chunk = min(max(int(shape.chunk_samples), 16), PROBE_MAX_CHUNK)
    return columns, blocks, channels, chunk


def _probe_panel(columns: int, blocks: int, seed: int) -> Any:
    """A panel of ``blocks`` seeded random genomes totalling ~``columns``."""
    from repro.core.panel import TargetPanel  # deferred: import cycle via filter
    from repro.genomes.sequences import random_genome

    per_block = max(1, columns // blocks)
    # Both strands are always included: probe squiggles only need the right
    # total column count, and 2R columns per L-base genome is the default
    # deployment geometry (paper Section 4.1).
    length = max(_KMER_OVERHANG + 1, per_block // 2 + _KMER_OVERHANG)
    return TargetPanel.from_genomes(
        {
            f"probe{index}": random_genome(length, seed=seed + index)
            for index in range(blocks)
        }
    )


def _probe_rounds(
    rng: np.random.Generator,
    reference: np.ndarray,
    n_channels: int,
    n_rounds: int,
    chunk_samples: int,
    quantize: bool,
) -> Tuple[List[List[np.ndarray]], np.ndarray]:
    """Mixed on/off-target chunk rounds (the benchmark suite's construction).

    The first quarter of the channels (at least one) stream reads sampled
    from the reference plus small noise, the rest stream random signal; the
    cost gap between the two populations is what the pruned candidates'
    kill bound sits in.
    """
    total = n_rounds * chunk_samples
    on_target = np.zeros(n_channels, dtype=bool)
    on_target[: max(1, n_channels // 4)] = True
    prefixes: List[np.ndarray] = []
    for channel in range(n_channels):
        if on_target[channel]:
            start = int(rng.integers(0, max(1, reference.size - total)))
            base = np.tile(reference, total // reference.size + 2)[start : start + total]
            if quantize:
                noise = rng.integers(-2, 3, size=total)
                prefix = np.clip(base + noise, -127, 127).astype(np.int64)
            else:
                scale = 0.02 * (float(reference.max() - reference.min()) or 1.0)
                prefix = (base + rng.normal(0.0, scale, size=total)).astype(np.float64)
        elif quantize:
            prefix = rng.integers(-127, 128, size=total, dtype=np.int64)
        else:
            prefix = rng.uniform(
                float(reference.min()), float(reference.max()), size=total
            ).astype(np.float64)
        prefixes.append(prefix)
    rounds = [
        [prefix[index * chunk_samples : (index + 1) * chunk_samples] for prefix in prefixes]
        for index in range(n_rounds)
    ]
    return rounds, on_target


def synthesize_workload(
    shape: WorkloadShape,
    n_rounds: int = PROBE_ROUNDS,
    seed: int = PROBE_SEED,
) -> ProbeWorkload:
    """Build the deterministic probe workload for ``shape``.

    Runs one unpruned numpy pre-pass over the synthesized chunks to place
    the pruning threshold between the on- and off-target cost populations
    (midpoint of the gap; falls back to the cost median if a degenerate
    shape makes the populations overlap) and to size the per-lane sample
    lifetime — the two inputs the pruning layer needs.
    """
    from repro.batch.engine import BatchSDTWEngine  # deferred: keeps tune importable early

    columns, blocks, channels, chunk = _probe_axes(shape)
    panel = _probe_panel(columns, blocks, seed)
    hardware = shape.hardware
    reference_values = panel.values(quantized=hardware.quantize)
    rng = np.random.default_rng(seed)
    rounds, on_target = _probe_rounds(
        rng, reference_values, channels, n_rounds, chunk, hardware.quantize
    )

    engine = BatchSDTWEngine(panel, hardware)
    try:
        for round_chunks in rounds:
            snapshots = engine.step(list(enumerate(round_chunks)))
    finally:
        engine.close()
    costs = np.array([snapshots[ch].cost for ch in range(channels)], dtype=np.float64)
    on, off = costs[on_target], costs[~on_target]
    if off.size and on.size and on.max() < off.min():
        threshold = float(on.max() + (off.min() - on.max()) * 0.5)
    else:
        threshold = float(np.median(costs))
    lifetime = n_rounds * chunk
    dp_cells = sum(c.size for chunks in rounds for c in chunks) * int(panel.n_positions)
    return ProbeWorkload(
        panel=panel,
        rounds=tuple(tuple(chunks) for chunks in rounds),
        threshold=threshold,
        lifetime_samples=int(lifetime),
        dp_cells=int(dp_cells),
        n_channels=channels,
        hardware=hardware,
    )


@dataclass(frozen=True)
class ProbeResult:
    """One candidate's measured probe: the point, the rate, or the failure."""

    backend: str
    workers: Optional[int] = None
    tile_columns: Optional[int] = None
    prune: bool = False
    lb_cascade: bool = False
    seconds: float = 0.0
    cell_rate: float = 0.0
    effective_cell_rate: float = 0.0
    cells_advanced: int = 0
    cells_pruned: int = 0
    error: Optional[str] = None

    @property
    def label(self) -> str:
        parts = [self.backend]
        if self.workers is not None:
            parts.append(f"workers={self.workers}")
        if self.tile_columns is not None:
            parts.append(f"tile={self.tile_columns}")
        if self.prune:
            parts.append("lb" if self.lb_cascade else "pruned")
        if len(parts) == 1:
            return self.backend
        return f"{self.backend}[{','.join(parts[1:])}]"

    def as_row(self) -> Dict[str, Any]:
        """One probe-table row (the CLI and the example walkthrough print these)."""
        return {
            "candidate": self.label,
            "seconds": round(self.seconds, 6),
            "cells_per_s": int(self.cell_rate),
            "effective_cells_per_s": int(self.effective_cell_rate),
            "error": self.error or "",
        }


def run_probe(
    workload: ProbeWorkload,
    backend: str,
    workers: Optional[int] = None,
    tile_columns: Optional[int] = None,
    prune: bool = False,
    lb_cascade: bool = False,
) -> ProbeResult:
    """Replay the workload through one candidate point and measure it.

    Engine construction (the thread pool for striped candidates) stays
    outside the timed region — pools are persistent in deployment, paid
    once per run, not once per round. Timing comes from the obs tracer's
    phase totals (self times decompose the traced wall clock exactly), the
    same accounting the benchmark reports use. A candidate
    that raises — a backend whose import probe passed but whose runtime
    dependency is broken — returns an error result instead of propagating:
    tuning degrades, it never takes the session down.
    """
    from repro.batch.engine import BatchSDTWEngine  # deferred: keeps tune importable early
    from repro.obs.trace import Tracer

    options: Dict[str, Any] = {}
    if workers is not None:
        options["workers"] = int(workers)
    if tile_columns is not None:
        options["tile_columns"] = int(tile_columns)
    tracer = Tracer(track="tune")
    point = dict(
        backend=backend,
        workers=workers,
        tile_columns=tile_columns,
        prune=prune,
        lb_cascade=lb_cascade,
    )
    try:
        engine = BatchSDTWEngine(
            workload.panel,
            workload.hardware,
            backend=backend,
            backend_options=options or None,
            tracer=tracer,
            prune=prune,
            prune_margin=0.0,
            prune_lifetime_samples=workload.lifetime_samples if prune else None,
            lb_cascade=lb_cascade,
        )
    except Exception as exc:
        return ProbeResult(**point, error=f"{type(exc).__name__}: {exc}")
    try:
        if prune:
            engine.prune_bound = float(workload.threshold)
        start = time.perf_counter()
        for round_chunks in workload.rounds:
            engine.step(list(enumerate(round_chunks)))
        elapsed = time.perf_counter() - start
        phase_s = sum(stat.self_s for stat in tracer.phase_totals().values())
        seconds = max(phase_s or elapsed, 1e-9)
        advanced = int(engine.cells_advanced)
        pruned = int(engine.cells_pruned)
    except Exception as exc:
        return ProbeResult(**point, error=f"{type(exc).__name__}: {exc}")
    finally:
        engine.close()
    return ProbeResult(
        **point,
        seconds=seconds,
        cell_rate=workload.dp_cells / seconds,
        effective_cell_rate=advanced / seconds,
        cells_advanced=advanced,
        cells_pruned=pruned,
    )
