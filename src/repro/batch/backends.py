"""Pluggable execution backends for the batched sDTW engine.

:class:`~repro.batch.engine.BatchSDTWEngine` is a *lane manager*: it decides
which read occupies which lane, when lanes are recycled, and what the
per-round occupancy trace looks like. *Where and how* the lane-stacked
:class:`~repro.core.sdtw.BatchSDTWState` actually advances is this module's
job. An :class:`ExecutionBackend` owns the resident DP state and exposes
three data-movement verbs plus lane bookkeeping:

* ``advance(lanes, queries)`` — the per-round hot path: feed each listed lane
  its new (kernel-scale) query samples and return the post-advance cost and
  end position per lane;
* ``gather(lanes)`` / ``scatter(lanes, state)`` — stack lane state out of /
  into the backend (snapshots, tests, interop); cold paths;
* ``allocate`` / ``reset`` — capacity growth and lane recycling.

Backends are **panel-aware**: the reference they hold may be a
:class:`~repro.core.panel.TargetPanel`'s concatenated column space, whose
per-target offsets arrive as ``block_starts``. ``advance`` returns
``(costs, ends)`` of shape ``(n_lanes, n_blocks)`` — one per-target
cost/local-end pair per lane, bit-identical to independent single-reference
runs (a plain single reference is one block, so the arrays are just
``(n_lanes, 1)``).

Two implementations are registered, mirroring how UNCALLED exposes its DTW
variants behind a string-keyed ``METHODS`` mapping:

* :class:`NumpyBackend` (``"numpy"``) — one :class:`BatchSDTWState` in this
  process, advanced by :func:`~repro.core.sdtw.sdtw_resume_batch`.
  ``tile_columns`` optionally advances the columns in cache-sized blocks
  (same results; fewer full-row memory sweeps on genome-scale references).
  ``workers`` stripes each round's lanes over a thread pool: the numpy
  ufuncs inside the wavefront release the GIL, so contiguous lane stripes
  advance in parallel on one shared state, with no copies between
  processes. Scales with the *channel* count.
* :class:`~repro.batch.native.NativeBackend` (``"native"``) — the int32 fast
  path compiled to a Numba ``njit`` scalar loop (or the ahead-of-time Cython
  build of the same loop), where pruning's early abandoning is a real
  ``break`` instead of a masked vector op. The name is always registered;
  construction without a compiled kernel raises with an install hint.

All backends run the same kernel on the same per-lane state, so per-lane,
per-target costs, rows and therefore Read Until decisions are bit-identical —
backend selection (and the thread count) is purely an execution concern.

Every ``advance`` additionally accepts per-lane ``prune_bounds`` (kill
thresholds for the kernel's pruning layer — see
:func:`~repro.core.sdtw.sdtw_resume_batch`) and accumulates the
advanced/pruned cell counts in :attr:`ExecutionBackend.stats`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import SDTWConfig
from repro.obs.trace import NULL_TRACER, Tracer
from repro.core.sdtw import (
    AdvanceStats,
    BatchSDTWState,
    normalize_block_starts,
    reduce_block_minima,
    sdtw_resume_batch,
)

__all__ = [
    "ExecutionBackend",
    "NumpyBackend",
    "available_backends",
    "create_backend",
    "register_backend",
]


class ExecutionBackend(Protocol):
    """Where the lane-stacked sDTW state lives and how it advances.

    Implementations own one logical ``(capacity, reference_length)``
    :class:`BatchSDTWState` (however it is physically stored) and must keep
    per-lane results bit-identical to per-read :func:`sdtw_resume` calls —
    the lane manager and every layer above it treat backends as
    interchangeable.
    """

    backend_name: str

    # Cumulative advanced/pruned cell counts across every ``advance`` call;
    # the engine reads (and a fresh instance resets) these for telemetry.
    stats: AdvanceStats

    @property
    def capacity(self) -> int:
        """Lanes currently allocated."""
        ...

    @property
    def reference_length(self) -> int: ...

    @property
    def n_blocks(self) -> int:
        """Targets in the panel this backend's reference concatenates (>= 1)."""
        ...

    def allocate(self, min_capacity: int) -> None:
        """Grow storage to at least ``min_capacity`` lanes (never shrinks).

        Existing lane state is preserved; new lanes come up zeroed. The
        backend may round the capacity up — callers re-read
        :attr:`capacity` afterwards.
        """
        ...

    def reset(self, lanes: np.ndarray) -> None:
        """Return the given lanes to the fresh (no samples consumed) state."""
        ...

    def advance(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance each listed lane with its new query samples (the hot path).

        Returns ``(costs, end_positions)`` of shape ``(len(lanes),
        n_blocks)``: the post-advance cost and block-local end position per
        lane **per panel target**, bit-identical to independent
        single-reference runs. The backend updates its resident
        rows/runs/samples in place. ``prune_bounds`` (one kill threshold per
        listed lane, ``inf`` = never prune) engages the kernel's pruning
        layer; the engine only passes it to backends when pruning is
        enabled, so implementations ignoring the kwarg stay compatible with
        unpruned runs.
        """
        ...

    def gather(self, lanes: np.ndarray) -> BatchSDTWState:
        """Stack the given lanes' state into a fresh :class:`BatchSDTWState`."""
        ...

    def scatter(self, lanes: np.ndarray, state: BatchSDTWState) -> None:
        """Write stacked lane state back into the backend's resident storage."""
        ...

    def close(self) -> None:
        """Release threads/storage. Idempotent; the backend is unusable after."""
        ...


# ------------------------------------------------------------------- registry
BackendFactory = Callable[..., ExecutionBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Register an execution-backend factory under a string key (decorator).

    Factories are called as ``factory(reference, config, capacity,
    block_starts=..., **options)`` and must return an object satisfying
    :class:`ExecutionBackend`.
    """

    def wrap(factory: BackendFactory) -> BackendFactory:
        key = name.lower()
        if key in _BACKENDS:
            raise ValueError(f"execution backend {name!r} is already registered")
        _BACKENDS[key] = factory
        return factory

    return wrap


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def create_backend(
    name: str,
    reference: np.ndarray,
    config: SDTWConfig,
    capacity: int,
    **options: Any,
) -> ExecutionBackend:
    """Instantiate a registered execution backend by name.

    An unknown name raises :class:`ValueError` listing
    :func:`available_backends`, so callers (CLI ``--backend`` choices, spec
    validation) can surface the registry verbatim.
    """
    try:
        factory = _BACKENDS[name.lower()]
    except KeyError:
        known = ", ".join(available_backends()) or "(none)"
        raise ValueError(
            f"unknown execution backend {name!r}; available backends: {known}"
        ) from None
    return factory(reference, config, capacity, **options)


# --------------------------------------------------------------- numpy backend
@register_backend("numpy")
class NumpyBackend:
    """In-process execution: one resident :class:`BatchSDTWState`.

    ``advance`` gathers the listed lanes into a contiguous stacked state,
    runs one :func:`sdtw_resume_batch` wavefront, and scatters the advanced
    rows back. ``block_starts`` makes the reference a multi-target panel
    column space; ``tile_columns`` advances the columns in cache-sized
    blocks (identical results — see the kernel's tiling notes).

    ``workers`` > 1 stripes every round of two or more lanes into
    ``min(workers, n_lanes)`` contiguous lane stripes, each advanced on its
    own pool thread (gather, wavefront, scatter and reduce over its own
    lanes, tiling on its own when ``tile_columns`` is set). Lanes are
    independent, so the result is bit-identical to the serial advance.
    Spans open on the calling thread only: one ``backend.wavefront`` span
    covers the striped work and carries ``stripes`` plus the slowest and
    fastest stripe wall times (``stripe_max_s``/``stripe_min_s``), whose
    difference is the idle tail. ``workers=None`` (or 1) is the serial
    advance and never creates a thread pool.
    """

    backend_name = "numpy"
    # Observability hook the engine overwrites; the shared disabled tracer
    # makes every span below a single `if` (same on every built-in backend).
    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        reference: np.ndarray,
        config: Optional[SDTWConfig] = None,
        capacity: int = 8,
        block_starts: Optional[np.ndarray] = None,
        tile_columns: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.config = config if config is not None else SDTWConfig()
        self.reference_values = np.asarray(
            reference, dtype=np.int64 if self.config.quantize else np.float64
        )
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if tile_columns is not None and tile_columns <= 0:
            raise ValueError("tile_columns must be positive")
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        self.block_starts = normalize_block_starts(block_starts, self.reference_values.size)
        self.tile_columns = None if tile_columns is None else int(tile_columns)
        self.workers = None if workers is None else int(workers)
        self.stats = AdvanceStats()
        self._state = BatchSDTWState.initial(
            capacity, self.reference_values.size, self.config
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        if self.workers is not None and self.workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="sdtw-stripe"
            )

    @property
    def capacity(self) -> int:
        return self._state.n_lanes

    @property
    def reference_length(self) -> int:
        return self._state.reference_length

    @property
    def n_blocks(self) -> int:
        return int(self.block_starts.size)

    def allocate(self, min_capacity: int) -> None:
        old = self._state
        if min_capacity <= old.n_lanes:
            return
        state = BatchSDTWState.initial(min_capacity, old.reference_length, self.config)
        state.rows[: old.n_lanes] = old.rows
        state.runs[: old.n_lanes] = old.runs
        state.samples_processed[: old.n_lanes] = old.samples_processed
        self._state = state

    def reset(self, lanes: np.ndarray) -> None:
        self._state.rows[lanes] = 0
        self._state.runs[lanes] = 1
        self._state.samples_processed[lanes] = 0

    def advance(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._executor is not None and np.size(lanes) >= 2:
            return self._advance_striped(lanes, queries, prune_bounds)
        tracer = self.tracer
        with tracer.span("backend.advance", backend="numpy", n_lanes=int(np.size(lanes))):
            with tracer.span("backend.gather"):
                gathered = BatchSDTWState(
                    rows=self._state.rows[lanes],
                    runs=self._state.runs[lanes],
                    samples_processed=self._state.samples_processed[lanes],
                )
            # track_runs=False: the engine never reads raw dwell counters, and the
            # capped counters the fast path keeps are lossless for resumption.
            with tracer.span("backend.wavefront"):
                advanced = sdtw_resume_batch(
                    queries,
                    self.reference_values,
                    self.config,
                    state=gathered,
                    track_runs=False,
                    block_starts=self.block_starts,
                    tile_columns=self.tile_columns,
                    prune_bounds=prune_bounds,
                    stats=self.stats,
                )
            with tracer.span("backend.scatter"):
                self._state.rows[lanes] = advanced.rows
                self._state.runs[lanes] = advanced.runs
                self._state.samples_processed[lanes] = advanced.samples_processed
            with tracer.span("backend.reduce"):
                return reduce_block_minima(advanced.rows, self.block_starts)

    def _advance_striped(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        lanes = np.asarray(lanes, dtype=np.intp)
        bounds = None if prune_bounds is None else np.asarray(prune_bounds)
        n_stripes = min(self.workers, lanes.size)
        edges = [lanes.size * stripe // n_stripes for stripe in range(n_stripes + 1)]
        tracer = self.tracer
        with tracer.span("backend.advance", backend="numpy", n_lanes=int(lanes.size)):
            with tracer.span("backend.wavefront", stripes=n_stripes) as span:
                futures = [
                    self._executor.submit(
                        self._advance_stripe,
                        lanes[lo:hi],
                        queries[lo:hi],
                        None if bounds is None else bounds[lo:hi],
                    )
                    for lo, hi in zip(edges[:-1], edges[1:])
                ]
                # Join every stripe, reading each outcome, before surfacing an
                # error: no thread may still write lane state once the caller
                # sees the failure.
                errors = [future.exception() for future in futures]
                if any(errors):
                    raise next(error for error in errors if error is not None)
                costs, ends, stats, walls = zip(*(future.result() for future in futures))
                span.annotate(stripe_max_s=max(walls), stripe_min_s=min(walls))
            for stripe_stats in stats:
                self.stats.merge(stripe_stats)
            return np.concatenate(costs), np.concatenate(ends)

    def _advance_stripe(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, AdvanceStats, float]:
        """One stripe's gather, wavefront, scatter and reduce, on a pool thread.

        Stripes hold disjoint lanes, so their row writes never overlap. The
        tracer is single-writer: this thread only times itself.
        """
        start_s = time.perf_counter()
        stats = AdvanceStats()
        advanced = sdtw_resume_batch(
            queries,
            self.reference_values,
            self.config,
            state=BatchSDTWState(
                rows=self._state.rows[lanes],
                runs=self._state.runs[lanes],
                samples_processed=self._state.samples_processed[lanes],
            ),
            track_runs=False,
            block_starts=self.block_starts,
            tile_columns=self.tile_columns,
            prune_bounds=prune_bounds,
            stats=stats,
        )
        self.scatter(lanes, advanced)
        costs, ends = reduce_block_minima(advanced.rows, self.block_starts)
        return costs, ends, stats, time.perf_counter() - start_s

    def gather(self, lanes: np.ndarray) -> BatchSDTWState:
        return BatchSDTWState(
            rows=self._state.rows[lanes].copy(),
            runs=self._state.runs[lanes].copy(),
            samples_processed=self._state.samples_processed[lanes].copy(),
        )

    def scatter(self, lanes: np.ndarray, state: BatchSDTWState) -> None:
        self._state.rows[lanes] = state.rows
        self._state.runs[lanes] = state.runs
        self._state.samples_processed[lanes] = state.samples_processed

    def close(self) -> None:
        # The shut-down pool stays attached: a later striped round raises.
        if self._executor is not None:
            self._executor.shutdown(wait=True)


# Registers the "native" backend; imported last because the module subclasses
# NumpyBackend. A plain module import tolerates either import order.
import repro.batch.native  # noqa: E402,F401
