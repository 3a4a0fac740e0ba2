"""Batched sDTW execution: one vectorized wavefront across all channels.

The paper's accelerator keeps up with every flowcell channel because many
alignments advance in lockstep; this package is the software analogue. Where
the scalar hot path runs one :func:`~repro.core.sdtw.sdtw_resume` per read
per chunk inside a Python loop, the batch subsystem stacks the resumable
no-deletion recurrence into 2-D state (``channels × reference``) and advances
every active alignment with one set of NumPy matrix operations per chunk
round. The subsystem is split into three layers:

* :mod:`repro.batch.backends` — the pluggable **execution backends** behind a
  string-keyed registry (:func:`~repro.batch.backends.available_backends`):
  :class:`NumpyBackend` advances the lane-stacked state in-process (with
  optional cache-sized column tiling, and optional lane stripes advanced on
  a thread pool — ``workers``), and
  :class:`~repro.batch.native.NativeBackend` runs the int32 path
  as a compiled scalar loop when Numba or the Cython build is present. All
  backends are panel-aware: a multi-target
  :class:`~repro.core.panel.TargetPanel` advances in the same wavefront and
  reduces per target;
* :class:`BatchSDTWEngine` — the backend-agnostic **lane manager**: admission
  and retirement over recycled lanes, capacity growth, ragged per-round chunk
  lengths, and the per-round occupancy trace the ASIC multi-tile dispatch
  model replays
  (:meth:`~repro.hardware.scheduler.TileScheduler.simulate_batch_trace`);
* :class:`BatchSquiggleClassifier` — the streaming Read Until classifier
  built on the engine, advertising the ``on_chunk_batch`` fast path
  :class:`~repro.pipeline.read_until.ReadUntilPipeline` drives whole polling
  rounds through (registered as ``"batch_squigglefilter"``).

Per-lane costs are bit-identical to the per-read scalar kernels — and across
backends and thread counts — so batching and striping are purely
execution-engine changes.
"""

from repro.batch.backends import (
    ExecutionBackend,
    NumpyBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.batch.engine import BatchRound, BatchSDTWEngine, LaneSnapshot

__all__ = [
    "BatchRound",
    "BatchSDTWEngine",
    "BatchSquiggleClassifier",
    "ExecutionBackend",
    "LaneSnapshot",
    "NumpyBackend",
    "available_backends",
    "create_backend",
    "register_backend",
]


def __getattr__(name: str):
    # BatchSquiggleClassifier pulls in repro.pipeline.api (which itself imports
    # repro.core.filter -> repro.batch.engine), so it is loaded on demand to
    # keep the package importable from the core layer.
    if name == "BatchSquiggleClassifier":
        from repro.batch.classifier import BatchSquiggleClassifier

        return BatchSquiggleClassifier
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
