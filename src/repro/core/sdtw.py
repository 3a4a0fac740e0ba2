"""Subsequence dynamic time warping kernels (paper Sections 4.3 and 4.7).

Subsequence DTW (sDTW) aligns the whole query (a read prefix) against *any*
contiguous region of the reference squiggle: the first query sample may start
at any reference position for free, and the answer is the minimum value of
the last DP row.

Three kernels are provided, all computing identical costs for their
configuration:

* :func:`sdtw_cost_matrix` — a direct, loop-based implementation returning
  the full DP matrix (and optionally the alignment path). Used for tests and
  for visualizing small alignments; quadratic memory.
* :func:`sdtw_last_row` / :func:`sdtw_cost` — row-vectorized NumPy kernels
  holding only two rows. The vanilla recurrence's in-row dependency
  (``S[i, j-1]``) is resolved exactly with a prefix-minimum transformation,
  so both the vanilla and the hardware ("no reference deletions") recurrences
  are O(N) NumPy operations per query sample.

The hardware accelerator model in :mod:`repro.hardware` reuses the integer
kernel so the systolic array is bit-compatible with the software filter.

The resumable recurrence also comes in a **batched** form:
:func:`sdtw_resume_batch` stacks many lanes into a ``(lanes, reference)``
state (:class:`BatchSDTWState`) and advances all of them with one set of
NumPy matrix operations per wavefront step — the kernel every execution
backend of :class:`repro.batch.BatchSDTWEngine` runs (once per round for the
``numpy`` backend, or once per lane stripe on its own thread when the backend
has ``workers``; see :mod:`repro.batch.backends`). Per-lane results are
bit-identical to per-read :func:`sdtw_resume` calls, which is what makes the
backends interchangeable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SDTWConfig

__all__ = [
    "AdvanceStats",
    "BatchSDTWState",
    "SDTWResult",
    "SDTWState",
    "lb_envelopes",
    "lb_keogh_bounds",
    "lb_kim_bound",
    "normalize_block_starts",
    "reduce_block_minima",
    "sdtw_cost",
    "sdtw_cost_matrix",
    "sdtw_last_row",
    "sdtw_resume",
    "sdtw_resume_batch",
]


class AdvanceStats:
    """Mutable cell-work accounting a batched advance fills in.

    ``cells_advanced`` counts DP cells the wavefront actually swept (query
    samples x columns of every executed slice) and ``cells_pruned`` the cells
    the pruning layer skipped — frozen columns outside the active intervals
    plus whole rounds of early-abandoned lanes. Their sum is the nominal
    brute-force work ``sum(chunk lengths) x reference columns``. Execution
    backends accumulate one instance across rounds; a striped advance fills
    one instance per stripe and merges them after the join.
    """

    __slots__ = ("cells_advanced", "cells_pruned")

    def __init__(self, cells_advanced: int = 0, cells_pruned: int = 0) -> None:
        self.cells_advanced = int(cells_advanced)
        self.cells_pruned = int(cells_pruned)

    @property
    def cells_nominal(self) -> int:
        """Brute-force cell count the advance would have swept unpruned."""
        return self.cells_advanced + self.cells_pruned

    def add(self, advanced: int, pruned: int) -> None:
        self.cells_advanced += int(advanced)
        self.cells_pruned += int(pruned)

    def merge(self, other: "AdvanceStats") -> None:
        self.add(other.cells_advanced, other.cells_pruned)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AdvanceStats(cells_advanced={self.cells_advanced}, "
            f"cells_pruned={self.cells_pruned})"
        )


def _as_kernel_arrays(
    query: np.ndarray,
    reference: np.ndarray,
    config: SDTWConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cast inputs to the dtype the configured kernel accumulates in."""
    dtype = np.int64 if config.quantize else np.float64
    query_values = np.asarray(query, dtype=dtype)
    reference_values = np.asarray(reference, dtype=dtype)
    if query_values.ndim != 1 or reference_values.ndim != 1:
        raise ValueError("query and reference must be 1-D arrays")
    if query_values.size == 0 or reference_values.size == 0:
        raise ValueError("query and reference must be non-empty")
    return query_values, reference_values


def _local_distance(value, reference: np.ndarray, config: SDTWConfig) -> np.ndarray:
    diff = value - reference
    if config.distance == "squared":
        return diff * diff
    return np.abs(diff)


class SDTWResult:
    """Outcome of one sDTW alignment: the optimal cost and where it ends."""

    __slots__ = ("cost", "end_position", "per_sample_cost", "query_length", "reference_length")

    def __init__(
        self,
        cost: float,
        end_position: int,
        query_length: int,
        reference_length: int,
    ) -> None:
        self.cost = float(cost)
        self.end_position = int(end_position)
        self.query_length = int(query_length)
        self.reference_length = int(reference_length)
        self.per_sample_cost = self.cost / self.query_length if self.query_length else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SDTWResult(cost={self.cost:.2f}, end_position={self.end_position}, "
            f"per_sample_cost={self.per_sample_cost:.3f})"
        )


def sdtw_last_row(
    query: np.ndarray,
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
) -> np.ndarray:
    """Return the final DP row ``S[N-1, :]`` of the configured sDTW recurrence.

    The minimum of this row is the subsequence alignment cost; its argmin is
    the reference position where the best alignment ends.
    """
    cfg = config if config is not None else SDTWConfig()
    query_values, reference_values = _as_kernel_arrays(query, reference, cfg)
    if cfg.allow_reference_deletions:
        return _last_row_with_deletions(query_values, reference_values, cfg)
    if cfg.uses_bonus:
        return _last_row_no_deletions_bonus(query_values, reference_values, cfg)
    return _last_row_no_deletions(query_values, reference_values, cfg)


def _state_dtype(config: SDTWConfig):
    """Dtype a resumable state row is stored in (int64 on the quantized path)."""
    return np.int64 if config.quantize else np.float64


def _accumulator_dtype(config: SDTWConfig):
    """Dtype the resumable recurrence accumulates in.

    The match bonus mixes the integer costs with a (possibly fractional)
    reward, so the bonus recurrence accumulates in float64 and rounds back to
    integers at the end of each call; without a bonus the quantized recurrence
    is exact integer arithmetic end-to-end.
    """
    return np.int64 if (config.quantize and not config.uses_bonus) else np.float64


def _big_for(dtype):
    """A shifted-in boundary cost that is never selected by the minimum."""
    return np.int64(2**40) if dtype is np.int64 else np.inf


def normalize_block_starts(block_starts, reference_length: int) -> np.ndarray:
    """Validate per-target column offsets over a concatenated reference.

    ``block_starts`` lists the column index where each target's reference
    begins inside the concatenated column space (a
    :class:`repro.core.panel.TargetPanel` layout). The result always starts
    at 0 and is strictly increasing; ``None`` means one block spanning every
    column.
    """
    if reference_length <= 0:
        raise ValueError("reference_length must be positive")
    if block_starts is None:
        return np.zeros(1, dtype=np.int64)
    starts = np.asarray(block_starts, dtype=np.int64).ravel()
    if starts.size == 0 or starts[0] != 0:
        raise ValueError("block_starts must begin with column 0")
    if np.any(np.diff(starts) <= 0):
        raise ValueError("block_starts must be strictly increasing")
    if int(starts[-1]) >= reference_length:
        raise ValueError(
            f"block start {int(starts[-1])} is beyond the {reference_length}-column reference"
        )
    return starts


def tile_halo_start(block_starts: np.ndarray, tile_start: int, halo_width: int) -> int:
    """Leftmost column a tile's halo must reach back to for an exact advance.

    Information moves at most one column rightward per query step, so
    ``halo_width`` (the longest chunk this round) columns suffice — and a
    block boundary severs the dependency entirely, so the halo never has to
    cross the nearest block start at or before the tile. This is the single
    definition of the tiling invariant the tiled kernel uses.
    """
    nearest_block = int(
        block_starts[np.searchsorted(block_starts, tile_start, side="right") - 1]
    )
    return max(tile_start - halo_width, nearest_block)


def tile_block_starts(
    block_starts: np.ndarray, halo_start: int, tile_end: int
) -> np.ndarray:
    """Block starts of the halo-extended tile ``[halo_start, tile_end)``.

    Offsets are shifted into extended-tile coordinates; column 0 is always a
    start (the kernel injects the boundary sentinel there regardless — when
    ``halo_start`` is mid-block, the corruption that sentinel introduces dies
    inside the discarded halo region).
    """
    inside = block_starts[
        (block_starts >= halo_start) & (block_starts < tile_end)
    ] - halo_start
    return inside if inside.size and inside[0] == 0 else np.append(0, inside)


def reduce_block_minima(
    rows: np.ndarray, block_starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block (per-target) cost and end-position reduction of DP rows.

    ``rows`` is a ``(n_lanes, reference_length)`` stack of last DP rows over a
    concatenated column space and ``block_starts`` the per-target offsets.
    Returns ``(costs, ends)`` of shape ``(n_lanes, n_blocks)`` where
    ``costs[l, b]`` is the row minimum inside block ``b`` and ``ends[l, b]``
    its argmin *local to the block* — exactly the cost/end an independent
    single-reference run over that target would report.
    """
    rows = np.asarray(rows)
    n_lanes, n_columns = rows.shape
    starts = normalize_block_starts(block_starts, int(n_columns))
    bounds = [int(start) for start in starts] + [int(n_columns)]
    costs = np.empty((n_lanes, starts.size), dtype=rows.dtype)
    ends = np.empty((n_lanes, starts.size), dtype=np.intp)
    lane_index = np.arange(n_lanes)
    for block in range(starts.size):
        segment = rows[:, bounds[block] : bounds[block + 1]]
        block_ends = np.argmin(segment, 1)
        ends[:, block] = block_ends
        costs[:, block] = segment[lane_index, block_ends]
    return costs, ends


# --------------------------------------------------------------------------
# Lower-bound cascade (UCRSuite LB_Kim / LB_Keogh adapted to streaming sDTW)
#
# Every alignment path of the no-deletion recurrence consumes every query
# sample exactly once, each step adding a non-negative local distance against
# *some* reference column. A lower bound on each sample's cheapest possible
# local distance therefore sums to a lower bound on the cost any path must add
# while consuming the chunk — regardless of where in the reference the path
# sits. Block boundaries sever the diagonal, so a path that ends inside block
# ``b`` also started inside block ``b`` and the per-block bounds compose with
# the engine's cached per-target row minima. The match bonus is budgeted by
# the caller's kill bound (``threshold + margin + bonus*(remaining+cap)``),
# which already credits every diagonal the lane could still harvest, so these
# bounds only need to never exceed the true *un-credited* local cost.


def _lb_gaps(values: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Distance from each value to the interval ``[low, high]`` (broadcast)."""
    return np.maximum(0.0, np.maximum(values - highs, lows - values))


def lb_envelopes(
    reference_values: np.ndarray, block_starts=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block ``(mins, maxs)`` value envelopes of a concatenated reference.

    The reference side of the lower-bound cascade: block ``b``'s envelope is
    the min/max of its column values, so a query sample ``v`` can never incur
    less than ``max(0, v - max_b, min_b - v)`` of local distance inside the
    block. Built once per reference (panels cache the result per quantization,
    see :meth:`repro.core.panel.TargetPanel.lb_envelopes`).
    """
    values = np.asarray(reference_values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("reference must be a non-empty 1-D array")
    starts = normalize_block_starts(block_starts, values.size)
    bounds = [int(start) for start in starts] + [values.size]
    mins = np.fromiter(
        (values[bounds[b] : bounds[b + 1]].min() for b in range(starts.size)),
        dtype=np.float64,
        count=starts.size,
    )
    maxs = np.fromiter(
        (values[bounds[b] : bounds[b + 1]].max() for b in range(starts.size)),
        dtype=np.float64,
        count=starts.size,
    )
    return mins, maxs


def lb_kim_bound(
    chunk: np.ndarray, reference_low: float, reference_high: float, config: SDTWConfig
) -> float:
    """O(1) LB_Kim-style bound: cost the chunk's first and last samples must add.

    Uses only the reference's global value extrema — the first and last chunk
    samples each contribute at least their distance to the nearest value in
    ``[reference_low, reference_high]`` (squared for the squared-distance
    kernel), and every other sample contributes at least zero.
    """
    chunk = np.asarray(chunk)
    if chunk.size == 0:
        return 0.0
    ends = np.array(
        [chunk[0], chunk[-1]] if chunk.size > 1 else [chunk[0]], dtype=np.float64
    )
    gaps = _lb_gaps(ends, float(reference_low), float(reference_high))
    if config.distance == "squared":
        gaps = gaps * gaps
    return float(gaps.sum())


def lb_keogh_bounds(
    chunk: np.ndarray, block_lows: np.ndarray, block_highs: np.ndarray, config: SDTWConfig
) -> np.ndarray:
    """O(chunk x blocks) LB_Keogh-style bound: per-block envelope cost sums.

    ``result[b]`` lower-bounds the cost any path confined to block ``b`` must
    add while consuming the whole chunk: each sample contributes at least its
    distance to the block's ``[min, max]`` value envelope. Tighter than
    :func:`lb_kim_bound` (every sample counts, per-block extrema), at the
    price of touching the full chunk.
    """
    lows = np.asarray(block_lows, dtype=np.float64)
    highs = np.asarray(block_highs, dtype=np.float64)
    chunk = np.asarray(chunk, dtype=np.float64)
    if chunk.size == 0:
        return np.zeros(lows.size, dtype=np.float64)
    gaps = _lb_gaps(chunk[:, None], lows[None, :], highs[None, :])
    if config.distance == "squared":
        gaps = gaps * gaps
    return gaps.sum(axis=0)


class SDTWState:
    """Resumable kernel state after processing a query prefix.

    The hardware's multi-stage filtering (paper Section 5.1, "Variable Query
    Length") stores the last PE's costs to DRAM so that alignment can continue
    when a longer prefix is requested. ``row`` is the last DP row and ``run``
    the per-column dwell counters the match bonus needs. Quantized-kernel rows
    are integer costs and stay ``int64`` end-to-end; float kernels store
    ``float64`` rows.
    """

    __slots__ = ("row", "run", "samples_processed")

    def __init__(self, row: np.ndarray, run: Optional[np.ndarray], samples_processed: int) -> None:
        row = np.asarray(row)
        self.row = row.astype(np.int64 if np.issubdtype(row.dtype, np.integer) else np.float64)
        self.run = None if run is None else np.asarray(run, dtype=np.int64)
        self.samples_processed = int(samples_processed)

    @property
    def cost(self) -> float:
        return float(self.row.min())

    @property
    def end_position(self) -> int:
        return int(np.argmin(self.row))


class BatchSDTWState:
    """Stacked resumable state: one lane per concurrent alignment.

    ``rows`` is the ``(n_lanes, reference_length)`` matrix of last DP rows,
    ``runs`` the matching dwell counters and ``samples_processed`` the
    per-lane query progress. A lane with ``samples_processed == 0`` has not
    consumed any signal yet; its row content is meaningless until the first
    call of :func:`sdtw_resume_batch` that feeds it samples.
    """

    __slots__ = ("rows", "runs", "samples_processed")

    def __init__(
        self,
        rows: np.ndarray,
        runs: np.ndarray,
        samples_processed: np.ndarray,
    ) -> None:
        rows = np.asarray(rows)
        self.rows = rows.astype(np.int64 if np.issubdtype(rows.dtype, np.integer) else np.float64)
        self.runs = np.asarray(runs, dtype=np.int64)
        self.samples_processed = np.asarray(samples_processed, dtype=np.int64)
        if self.rows.ndim != 2:
            raise ValueError("rows must be a (n_lanes, reference_length) matrix")
        if self.runs.shape != self.rows.shape:
            raise ValueError("runs must have the same shape as rows")
        if self.samples_processed.shape != (self.rows.shape[0],):
            raise ValueError("samples_processed must have one entry per lane")

    @classmethod
    def initial(
        cls,
        n_lanes: int,
        reference_length: int,
        config: Optional[SDTWConfig] = None,
    ) -> "BatchSDTWState":
        """A state of ``n_lanes`` lanes none of which has consumed samples."""
        cfg = config if config is not None else SDTWConfig()
        if n_lanes < 0:
            raise ValueError("n_lanes must be non-negative")
        if reference_length <= 0:
            raise ValueError("reference_length must be positive")
        return cls(
            rows=np.zeros((n_lanes, reference_length), dtype=_state_dtype(cfg)),
            runs=np.ones((n_lanes, reference_length), dtype=np.int64),
            samples_processed=np.zeros(n_lanes, dtype=np.int64),
        )

    @property
    def n_lanes(self) -> int:
        return int(self.rows.shape[0])

    @property
    def reference_length(self) -> int:
        return int(self.rows.shape[1])

    @property
    def costs(self) -> np.ndarray:
        """Per-lane optimal subsequence cost so far (the row minimum)."""
        return self.rows.min(axis=1)

    @property
    def end_positions(self) -> np.ndarray:
        """Per-lane reference position where the best alignment ends."""
        return np.argmin(self.rows, axis=1)

    def lane(self, index: int) -> SDTWState:
        """The scalar :class:`SDTWState` view of one lane."""
        return SDTWState(
            row=self.rows[index],
            run=self.runs[index],
            samples_processed=int(self.samples_processed[index]),
        )


def sdtw_resume(
    query: np.ndarray,
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
    state: Optional[SDTWState] = None,
) -> SDTWState:
    """Process (more of) a query through the no-reference-deletion recurrence.

    Called without ``state`` this is equivalent to :func:`sdtw_last_row` but
    additionally returns a resumable :class:`SDTWState`; called with a state
    it continues the alignment as if the new samples had been part of the
    original query. Only the hardware recurrences (no reference deletions)
    are resumable, mirroring the accelerator.
    """
    cfg = config if config is not None else SDTWConfig()
    if cfg.allow_reference_deletions:
        raise ValueError("sdtw_resume requires allow_reference_deletions=False")
    query_values, reference_values = _as_kernel_arrays(query, reference, cfg)
    if query_values.size == 0:
        raise ValueError("query must be non-empty")

    bonus = float(cfg.match_bonus)
    cap = cfg.match_bonus_cap
    accumulator = _accumulator_dtype(cfg)
    big = _big_for(accumulator)

    if state is None:
        previous = _local_distance(query_values[0], reference_values, cfg).astype(accumulator)
        run = np.ones(reference_values.size, dtype=np.int64)
        start_index = 1
        processed = 1
    else:
        if state.row.size != reference_values.size:
            raise ValueError(
                f"state row length {state.row.size} does not match reference length {reference_values.size}"
            )
        previous = state.row.astype(accumulator)
        run = (
            state.run.copy()
            if state.run is not None
            else np.ones(reference_values.size, dtype=np.int64)
        )
        start_index = 0
        processed = state.samples_processed

    cost_shift = np.empty_like(previous)
    run_shift = np.empty_like(run)
    for i in range(start_index, query_values.size):
        local = _local_distance(query_values[i], reference_values, cfg).astype(accumulator)
        cost_shift[0] = big
        cost_shift[1:] = previous[:-1]
        run_shift[0] = 0
        run_shift[1:] = run[:-1]
        diagonal = cost_shift - bonus * np.minimum(run_shift, cap) if bonus else cost_shift
        take_diagonal = diagonal < previous
        previous = local + np.where(take_diagonal, diagonal, previous)
        run = np.where(take_diagonal, 1, run + 1)
        processed += 1

    if cfg.quantize and cfg.uses_bonus:
        row = np.rint(previous).astype(np.int64)
    else:
        row = previous
    return SDTWState(row=row, run=run, samples_processed=processed)


def sdtw_resume_batch(
    queries: Sequence[np.ndarray],
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
    state: Optional[BatchSDTWState] = None,
    track_runs: bool = True,
    block_starts: Optional[np.ndarray] = None,
    tile_columns: Optional[int] = None,
    prune_bounds: Optional[np.ndarray] = None,
    stats: Optional[AdvanceStats] = None,
) -> BatchSDTWState:
    """Advance many resumable alignments with one vectorized wavefront.

    ``queries`` holds one (possibly ragged-length) array of new query samples
    per lane; lanes contributing no samples this round pass an empty array and
    their state flows through untouched. Each lane computes exactly the
    no-reference-deletion recurrence of :func:`sdtw_resume`, so per-lane rows,
    runs and costs are **bit-identical** to calling ``sdtw_resume`` once per
    lane — the batch kernel only restructures the Python-loop work into
    ``(lanes, reference)`` matrix operations, one set per wavefront step.

    A lane whose ``state.samples_processed`` is zero is initialized from its
    first sample, as a fresh ``sdtw_resume`` call would be. Returns a new
    :class:`BatchSDTWState`; the input state is not mutated.

    With ``track_runs=False`` the kernel skips maintaining the raw dwell
    counters and the returned state's ``runs`` hold the *capped* counters
    ``min(run, match_bonus_cap)`` instead (or pass through unchanged when no
    bonus is configured). The recurrence only ever consumes the capped value,
    so rows, costs and resumption stay bit-identical — this is the execution
    engine's hot-path mode, shaving the counter updates from every wavefront
    step.

    Execution notes: lanes are processed in descending order of remaining
    samples so the active set of every wavefront step is a contiguous row
    *prefix* of the stacked state (views, never masked copies), and the
    all-integer configurations (quantized, absolute distance, whole-number
    bonus — the hardware data path) run on an ``int32`` fast path that
    carries the saturating ``bonus * min(run, cap)`` table directly. All
    intermediate values are exact small integers on both paths, so the
    outputs remain bit-identical to the scalar kernel.

    ``block_starts`` declares a multi-target **panel** layout: the reference
    is N independent target references concatenated along the column axis,
    each beginning at one of the listed offsets. The recurrence's only
    cross-column dependency is the diagonal shift, so injecting the boundary
    sentinel at every block start makes each block's columns bit-identical to
    an independent single-reference run over that target — one wavefront
    advances the whole panel. Reduce per target afterwards with
    :func:`reduce_block_minima`.

    ``tile_columns`` advances the columns in blocks of (at most) that width
    instead of sweeping the whole row every wavefront step. Because
    information moves at most one column rightward per query step, each tile
    extended with a left *halo* of ``max(chunk length)`` columns of the
    pre-advance state computes its own columns exactly; the halo region is
    recomputed and discarded. Outputs are bit-identical to the untiled
    advance — tiling is purely an execution-locality knob (keep a hot tile in
    cache across all steps of a chunk).

    ``prune_bounds`` (one kill threshold per lane, ``inf`` = never prune the
    lane) turns on the pruning layer: columns whose stored cost exceeds the
    lane's bound are *frozen* at their exact pre-round value and only the
    per-block ``[lo, hi)`` spans of still-viable columns are advanced; a lane
    with no viable column anywhere skips the round outright (early
    abandoning). The bound must already include the maximum remaining
    ``match_bonus`` credit a path could still earn (see
    :class:`repro.batch.BatchSDTWEngine`, which derives it from the eject
    threshold and the lane's current panel winner) — then every output cost
    at or below the *decision* bound is bit-identical to the brute-force
    advance, and pruned costs above it only ever over-estimate, so
    accept/eject decisions and reported winners below the bound never change.
    ``stats`` accumulates the advanced/pruned cell counts of the call.
    """
    cfg = config if config is not None else SDTWConfig()
    if cfg.allow_reference_deletions:
        raise ValueError("sdtw_resume_batch requires allow_reference_deletions=False")

    input_dtype = np.int64 if cfg.quantize else np.float64
    reference_values = np.asarray(reference, dtype=input_dtype)
    if reference_values.ndim != 1 or reference_values.shape[0] == 0:
        raise ValueError("reference must be a non-empty 1-D array")

    lanes = [np.asarray(q, dtype=input_dtype) for q in queries]
    if any(lane.ndim != 1 for lane in lanes):
        raise ValueError("every lane query must be a 1-D array")
    n_lanes = len(lanes)

    if state is None:
        state = BatchSDTWState.initial(n_lanes, int(reference_values.shape[0]), cfg)
    if state.n_lanes != n_lanes:
        raise ValueError(f"state has {state.n_lanes} lanes but {n_lanes} queries were given")
    if state.reference_length != int(reference_values.shape[0]):
        raise ValueError(
            f"state reference length {state.reference_length} does not match "
            f"reference length {int(reference_values.shape[0])}"
        )

    rows, runs, processed = _resume_batch_arrays(
        lanes,
        reference_values,
        cfg,
        state.rows,
        state.runs,
        state.samples_processed,
        track_runs=track_runs,
        block_starts=block_starts,
        tile_columns=tile_columns,
        prune_bounds=prune_bounds,
        stats=stats,
    )
    return BatchSDTWState(rows=rows, runs=runs, samples_processed=processed)


def _resume_batch_arrays(
    lanes: Sequence[np.ndarray],
    reference_values: np.ndarray,
    config: SDTWConfig,
    rows: np.ndarray,
    runs: np.ndarray,
    samples_processed: np.ndarray,
    track_runs: bool = True,
    block_starts: Optional[np.ndarray] = None,
    tile_columns: Optional[int] = None,
    prune_bounds: Optional[np.ndarray] = None,
    stats: Optional[AdvanceStats] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batched wavefront on raw arrays, below :func:`sdtw_resume_batch`.

    ``lanes``, ``reference_values``, ``rows``, ``runs`` and
    ``samples_processed`` are already on the kernel scale (shaped as in
    :class:`BatchSDTWState`); the inputs are never mutated and three new
    arrays ``(rows, runs, samples_processed)`` come back. The tiled and
    pruned advances recurse into this function on column slices.
    """
    cfg = config
    n_lanes = len(lanes)
    reference_length = int(reference_values.shape[0])
    starts = normalize_block_starts(block_starts, reference_length)

    bonus = float(cfg.match_bonus)
    cap = cfg.match_bonus_cap
    lengths = [int(lane.shape[0]) for lane in lanes]
    processed = samples_processed + np.asarray(lengths, dtype=np.int64)
    if n_lanes == 0 or max(lengths, default=0) == 0:
        return rows.copy(), runs.copy(), processed

    if prune_bounds is not None:
        bounds = np.asarray(prune_bounds, dtype=np.float64).ravel()
        if bounds.shape[0] != n_lanes:
            raise ValueError(
                f"prune_bounds has {bounds.shape[0]} entries "
                f"but {n_lanes} lanes were given"
            )
        if not np.all(np.isinf(bounds)):
            return _resume_batch_pruned(
                lanes, reference_values, cfg, rows, runs, samples_processed,
                track_runs, starts, tile_columns, processed, bounds, stats,
            )
    if stats is not None:
        stats.add(sum(lengths) * reference_length, 0)

    if tile_columns is not None and 0 < int(tile_columns) < reference_length:
        return _resume_batch_tiled(
            lanes, reference_values, cfg, rows, runs, samples_processed,
            track_runs, starts, int(tile_columns), processed, max(lengths),
        )

    # A fresh lane consumes its first sample as the initial DP row and joins
    # the wavefront afterwards, so its effective step count is one shorter.
    fresh = [lengths[i] > 0 and int(samples_processed[i]) == 0 for i in range(n_lanes)]
    effective = [lengths[i] - (1 if fresh[i] else 0) for i in range(n_lanes)]
    # Descending remaining steps, ties in input order (a stable sort), so
    # every wavefront step's active lanes are a contiguous row prefix.
    order = sorted(range(n_lanes), key=lambda index: -effective[index])
    inverse = [0] * n_lanes
    for position, lane_index in enumerate(order):
        inverse[lane_index] = position
    neg_sorted = [-effective[i] for i in order]
    max_steps = effective[order[0]]

    input_dtype = np.int64 if cfg.quantize else np.float64
    padded = np.zeros((n_lanes, max(max_steps, 1)), dtype=input_dtype)
    first_values = np.zeros(n_lanes, dtype=input_dtype)
    for position, lane_index in enumerate(order):
        lane = lanes[lane_index]
        size = lengths[lane_index]
        if size == 0:
            continue
        if fresh[lane_index]:
            first_values[position] = lane[0]
            padded[position, : size - 1] = lane[1:]
        else:
            padded[position, :size] = lane
    fresh_sorted = np.asarray([fresh[i] for i in order], dtype=np.bool_)
    order_index = np.asarray(order, dtype=np.intp)
    inverse_index = np.asarray(inverse, dtype=np.intp)

    use_int_path = (
        cfg.quantize
        and cfg.distance == "absolute"
        and float(bonus).is_integer()
        and cap * bonus < 2**28
    )
    if use_int_path:
        # The int32 path needs every intermediate cost to stay far from the
        # sentinel; bound it by what this call can add to what the state holds.
        value_bound = max(
            int(np.max(np.abs(padded))),
            int(np.max(np.abs(first_values))),
            int(np.max(np.abs(reference_values))),
        )
        rows_bound = int(np.max(np.abs(rows)))
        growth = (2 * value_bound + int(bonus) + 1) * max(lengths)
        use_int_path = rows_bound + growth < 2**28

    # Non-zero panel block boundaries as an index array (None for the
    # single-block case so the kernels skip the sentinel writes).
    inner_index = (
        np.asarray([int(start) for start in starts[1:]], dtype=np.intp)
        if starts.size > 1
        else None
    )
    if use_int_path:
        out_rows, out_runs = _advance_batch_int32(
            padded,
            first_values,
            fresh_sorted,
            neg_sorted,
            max_steps,
            rows[order_index],
            runs[order_index],
            reference_values,
            int(bonus),
            cap,
            track_runs,
            inner_index,
        )
        out_rows = out_rows.astype(np.int64)[inverse_index]
        out_runs = out_runs.astype(np.int64)[inverse_index]
    else:
        out_rows, out_runs = _advance_batch_generic(
            padded,
            first_values,
            fresh_sorted,
            neg_sorted,
            max_steps,
            rows[order_index],
            runs[order_index],
            reference_values,
            cfg,
            inner_index,
        )
        if cfg.quantize and cfg.uses_bonus:
            out_rows = np.rint(out_rows).astype(np.int64)
        out_rows = out_rows[inverse_index]
        out_runs = out_runs[inverse_index]
    return out_rows, out_runs, processed


def _resume_batch_tiled(
    lanes: List[np.ndarray],
    reference_values: np.ndarray,
    cfg: SDTWConfig,
    rows: np.ndarray,
    runs: np.ndarray,
    samples_processed: np.ndarray,
    track_runs: bool,
    starts: np.ndarray,
    tile_columns: int,
    processed: np.ndarray,
    halo_width: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-tiled advance: identical outputs, one cache-sized tile at a time.

    Each tile re-runs the wavefront over ``[tile_start - halo, tile_end)``
    using the *pre-advance* state; only the tile's own columns are kept. A
    halo of ``max(chunk length)`` columns is sufficient because the
    recurrence moves information at most one column rightward per query
    step, and a tile starting exactly at a block boundary needs no halo at
    all (the boundary sentinel cuts the dependency). Each halo-extended tile
    is a bounded working set advanced end to end before the next one.
    """
    n_columns = int(reference_values.shape[0])
    out_rows = np.empty_like(rows)
    out_runs = np.empty_like(runs)
    edges = list(range(0, n_columns, tile_columns)) + [n_columns]
    for tile_start, tile_end in zip(edges[:-1], edges[1:]):
        halo_start = tile_halo_start(starts, tile_start, halo_width)
        sub_starts = tile_block_starts(starts, halo_start, tile_end)
        advanced_rows, advanced_runs, _ = _resume_batch_arrays(
            lanes,
            reference_values[halo_start:tile_end],
            cfg,
            rows[:, halo_start:tile_end],
            runs[:, halo_start:tile_end],
            samples_processed,
            track_runs=track_runs,
            block_starts=sub_starts,
        )
        keep = tile_start - halo_start
        out_rows[:, tile_start:tile_end] = advanced_rows[:, keep:]
        out_runs[:, tile_start:tile_end] = advanced_runs[:, keep:]
    return out_rows, out_runs, processed


def _resume_batch_pruned(
    lanes: List[np.ndarray],
    reference_values: np.ndarray,
    cfg: SDTWConfig,
    rows: np.ndarray,
    runs: np.ndarray,
    samples_processed: np.ndarray,
    track_runs: bool,
    starts: np.ndarray,
    tile_columns: Optional[int],
    processed: np.ndarray,
    bounds: np.ndarray,
    stats: Optional[AdvanceStats],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prune-bounded advance: exact below the bound, frozen above it.

    Per lane, a column whose stored cost exceeds the lane's kill bound is
    *dead*: no alignment continuing through it can end at or below the
    decision bound the caller derived the kill bound from (the kill bound
    already includes the maximum remaining ``match_bonus`` credit). Dead
    columns keep their exact stored value — freezing, not sentinel-poisoning,
    which keeps the int32 fast path eligible and lets a column whose bound
    later relaxes resume from bit-exact state. A lane with no live column
    skips the round entirely (early abandoning); the survivors advance only
    the per-block ``[lo, last_live + 1 + steps)`` spans of the union live
    mask — information moves one column rightward per query step and never
    crosses a block boundary, so everything outside the spans would stay dead
    all round. The severed diagonal at each span's left edge only ever
    *raises* values that were already provably above the bound, so every
    output cost at or below the decision bound is bit-identical to the
    brute-force advance.
    """
    n_lanes = len(lanes)
    reference_length = int(reference_values.shape[0])
    lengths = [int(lane.shape[0]) for lane in lanes]
    nominal = sum(lengths) * reference_length

    surviving: List[int] = []
    union = np.zeros(reference_length, dtype=bool)
    for index in range(n_lanes):
        if lengths[index] == 0:
            continue
        if int(samples_processed[index]) == 0:
            # A fresh lane's first sample initializes every column, so it
            # joins the wavefront unpruned this round.
            surviving.append(index)
            union[:] = True
            continue
        alive = rows[index] <= bounds[index]
        if alive.any():
            surviving.append(index)
            union |= alive

    out_rows = rows.copy()
    out_runs = runs.copy()
    if not surviving:
        if stats is not None:
            stats.add(0, nominal)
        return out_rows, out_runs, processed

    max_steps = max(lengths[index] for index in surviving)
    block_bounds = [int(start) for start in starts] + [reference_length]
    spans: List[Tuple[int, int]] = []
    for block in range(len(block_bounds) - 1):
        start, end = block_bounds[block], block_bounds[block + 1]
        alive_columns = np.flatnonzero(union[start:end])
        if alive_columns.size == 0:
            continue
        lo = start + int(alive_columns[0])
        hi = min(start + int(alive_columns[-1]) + 1 + max_steps, end)
        if spans and spans[-1][1] == lo:
            spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((lo, hi))

    surviving_index = np.asarray(surviving, dtype=np.intp)
    sub_lanes = [lanes[index] for index in surviving]
    sub_samples = samples_processed[surviving_index]
    advanced_width = 0
    for lo, hi in spans:
        sub_starts = tile_block_starts(starts, lo, hi)
        advanced_rows, advanced_runs, _ = _resume_batch_arrays(
            sub_lanes,
            reference_values[lo:hi],
            cfg,
            rows[surviving_index][:, lo:hi],
            runs[surviving_index][:, lo:hi],
            sub_samples,
            track_runs=track_runs,
            block_starts=sub_starts,
            tile_columns=tile_columns,
        )
        out_rows[:, lo:hi][surviving_index] = advanced_rows
        out_runs[:, lo:hi][surviving_index] = advanced_runs
        advanced_width += hi - lo
    if stats is not None:
        advanced = sum(lengths[index] for index in surviving) * advanced_width
        stats.add(advanced, nominal - advanced)
    return out_rows, out_runs, processed


def _advance_batch_int32(
    padded: np.ndarray,
    first_values: np.ndarray,
    fresh: np.ndarray,
    neg_sorted: List[int],
    max_steps: int,
    rows_in: np.ndarray,
    runs_in: np.ndarray,
    reference_values: np.ndarray,
    bonus: int,
    cap: int,
    track_runs: bool,
    inner_index: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer wavefront over lane-sorted state (the hardware data path).

    All quantities are exact small integers, so ``int32`` arithmetic matches
    the float64 scalar kernel bit for bit while halving memory traffic. The
    dwell counters enter the recurrence only through ``bonus * min(run,
    cap)``, which is carried directly as a saturating per-column table —
    turning the scalar kernel's shift/minimum/multiply/where cascade into
    in-place ``minimum``/``add`` passes over contiguous prefixes.
    ``inner_index`` holds the non-zero panel block boundaries; they receive
    the same sentinel as column 0, severing the diagonal between targets.
    Scalars stay plain Python ints, which NumPy combines with ``int32``
    arrays without widening them.
    """
    n_lanes, reference_length = rows_in.shape
    big = 2**29
    cap_bonus = bonus * cap

    rows = rows_in.astype(np.int32)
    runs = runs_in.astype(np.int32)
    query = padded.astype(np.int32)
    reference32 = reference_values.astype(np.int32)
    if bool(np.any(fresh)):
        firsts = first_values.astype(np.int32)
        rows[fresh] = np.abs(firsts[fresh][:, None] - reference32[None, :])
        runs[fresh] = 1
    bonus_of = None
    if bonus:
        bonus_of = bonus * np.minimum(runs, cap)

    local = np.empty((n_lanes, reference_length), dtype=np.int32)
    diagonal = np.empty((n_lanes, reference_length), dtype=np.int32)
    take = np.empty((n_lanes, reference_length), dtype=np.bool_)
    for step in range(max_steps):
        k = bisect_left(neg_sorted, -step)
        if k == 0:
            break
        row_view = rows[:k]
        local_view = local[:k]
        diagonal_view = diagonal[:k]
        take_view = take[:k]
        np.subtract(query[:k, step][:, None], reference32[None, :], out=local_view)
        np.abs(local_view, out=local_view)
        if bonus:
            np.subtract(row_view[:, :-1], bonus_of[:k, :-1], out=diagonal_view[:, 1:])
        else:
            diagonal_view[:, 1:] = row_view[:, :-1]
        diagonal_view[:, 0] = big
        if inner_index is not None:
            diagonal_view[:, inner_index] = big
        if track_runs or bonus:
            np.less(diagonal_view, row_view, out=take_view)
        np.minimum(row_view, diagonal_view, out=row_view)
        row_view += local_view
        if track_runs:
            runs[:k] += 1
            np.copyto(runs[:k], 1, where=take_view)
        if bonus:
            bonus_view = bonus_of[:k]
            bonus_view += bonus
            np.minimum(bonus_view, cap_bonus, out=bonus_view)
            np.copyto(bonus_view, bonus, where=take_view)
    if not track_runs and bonus:
        # Recover the capped counters the bonus table carries; resumption
        # only ever consumes min(run, cap), so this is lossless.
        runs = bonus_of // bonus
    return rows, runs


def _advance_batch_generic(
    padded: np.ndarray,
    first_values: np.ndarray,
    fresh: np.ndarray,
    neg_sorted: List[int],
    max_steps: int,
    rows_in: np.ndarray,
    runs_in: np.ndarray,
    reference_values: np.ndarray,
    cfg: SDTWConfig,
    inner_index: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference wavefront over lane-sorted state, any resumable config.

    Mirrors :func:`sdtw_resume` operation for operation (same accumulator
    dtype, same ``where`` selections), stacked over the active lane prefix.
    ``inner_index`` (non-zero panel block boundaries) gets the same boundary
    treatment as column 0.
    """
    n_lanes, reference_length = rows_in.shape
    bonus = float(cfg.match_bonus)
    cap = cfg.match_bonus_cap
    integer_accumulator = cfg.quantize and not cfg.uses_bonus
    accumulator = np.int64 if integer_accumulator else np.float64
    big = 2**40 if integer_accumulator else np.inf

    rows = rows_in.astype(accumulator)
    runs = runs_in.copy()
    if bool(np.any(fresh)):
        rows[fresh] = _local_distance(
            first_values[fresh][:, None], reference_values[None, :], cfg
        ).astype(accumulator)
        runs[fresh] = 1

    cost_shift = np.empty((n_lanes, reference_length), dtype=accumulator)
    run_shift = np.empty((n_lanes, reference_length), dtype=np.int64)
    for step in range(max_steps):
        k = bisect_left(neg_sorted, -step)
        if k == 0:
            break
        previous = rows[:k]
        local = _local_distance(
            padded[:k, step][:, None], reference_values[None, :], cfg
        ).astype(accumulator)
        cost_shift[:k, 0] = big
        cost_shift[:k, 1:] = previous[:, :-1]
        if inner_index is not None:
            cost_shift[:k, inner_index] = big
        if bonus:
            run_shift[:k, 0] = 0
            run_shift[:k, 1:] = runs[:k, :-1]
            if inner_index is not None:
                run_shift[:k, inner_index] = 0
            diagonal = cost_shift[:k] - bonus * np.minimum(run_shift[:k], cap)
        else:
            diagonal = cost_shift[:k]
        take_diagonal = diagonal < previous
        rows[:k] = local + np.where(take_diagonal, diagonal, previous)
        runs[:k] = np.where(take_diagonal, 1, runs[:k] + 1)
    return rows, runs


def sdtw_cost(
    query: np.ndarray,
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
) -> SDTWResult:
    """Optimal subsequence alignment cost of ``query`` against ``reference``."""
    cfg = config if config is not None else SDTWConfig()
    last_row = sdtw_last_row(query, reference, cfg)
    end_position = int(np.argmin(last_row))
    return SDTWResult(
        cost=float(last_row[end_position]),
        end_position=end_position,
        query_length=int(np.asarray(query).size),
        reference_length=int(np.asarray(reference).size),
    )


def _last_row_no_deletions(
    query: np.ndarray,
    reference: np.ndarray,
    config: SDTWConfig,
) -> np.ndarray:
    """Hardware recurrence: ``S[i,j] = d + min(S[i-1,j-1], S[i-1,j])``."""
    big = _infinity_for(query, config)
    previous = _local_distance(query[0], reference, config).astype(previous_dtype(config))
    shifted = np.empty_like(previous)
    for i in range(1, query.size):
        local = _local_distance(query[i], reference, config)
        shifted[0] = big
        shifted[1:] = previous[:-1]
        previous = local + np.minimum(shifted, previous)
    return previous


def _last_row_no_deletions_bonus(
    query: np.ndarray,
    reference: np.ndarray,
    config: SDTWConfig,
) -> np.ndarray:
    """Hardware recurrence with the translocation-rate match bonus.

    Alongside the cost row we carry ``run[j]``: the number of query samples
    the best path ending at ``(i, j)`` has aligned to reference position
    ``j``. Taking the diagonal move to a new reference base earns a bonus of
    ``match_bonus * min(run_on_previous_base, match_bonus_cap)``.
    """
    big = np.inf
    bonus = float(config.match_bonus)
    cap = config.match_bonus_cap

    # The bonus subtraction mixes the integer costs with a (possibly
    # fractional) reward, so this kernel accumulates in float64 and rounds at
    # the end when the quantized data path is selected. With an integer bonus
    # the intermediate values stay exactly integral.
    previous = _local_distance(query[0], reference, config).astype(np.float64)
    run = np.ones(reference.size, dtype=np.int64)

    cost_shift = np.empty_like(previous)
    run_shift = np.empty_like(run)
    for i in range(1, query.size):
        local = _local_distance(query[i], reference, config).astype(np.float64)

        cost_shift[0] = big
        cost_shift[1:] = previous[:-1]
        run_shift[0] = 0
        run_shift[1:] = run[:-1]

        diagonal = cost_shift - bonus * np.minimum(run_shift, cap)
        vertical = previous

        take_diagonal = diagonal < vertical
        best = np.where(take_diagonal, diagonal, vertical)
        previous = local + best
        run = np.where(take_diagonal, 1, run + 1)
    if config.quantize:
        return np.rint(previous)
    return previous


def _last_row_with_deletions(
    query: np.ndarray,
    reference: np.ndarray,
    config: SDTWConfig,
) -> np.ndarray:
    """Vanilla recurrence: ``S[i,j] = d + min(S[i-1,j-1], S[i-1,j], S[i,j-1])``.

    The in-row dependency ``S[i, j-1]`` is eliminated exactly: with
    ``m[j] = min(S[i-1, j-1], S[i-1, j])`` the recurrence unrolls to
    ``S[i, j] = D[j] + min_{l <= j} (m[l] - D[l-1])`` where ``D`` is the
    prefix sum of the local distances along the row, so one cumulative
    minimum per row reproduces the loop result.
    """
    previous = _local_distance(query[0], reference, config).astype(np.float64)
    reference_float = reference.astype(np.float64)
    query_float = query.astype(np.float64)
    big = np.inf
    for i in range(1, query_float.size):
        local = _local_distance(query_float[i], reference_float, config)
        shifted = np.empty_like(previous)
        shifted[0] = big
        shifted[1:] = previous[:-1]
        m = np.minimum(shifted, previous)
        prefix = np.cumsum(local)
        offset = np.empty_like(prefix)
        offset[0] = 0.0
        offset[1:] = prefix[:-1]
        previous = prefix + np.minimum.accumulate(m - offset)
    if config.quantize:
        return np.rint(previous)
    return previous


def previous_dtype(config: SDTWConfig):
    """Accumulator dtype for the configured kernel."""
    return np.int64 if config.quantize else np.float64


def _infinity_for(query: np.ndarray, config: SDTWConfig):
    if config.quantize:
        # Large enough to never be selected, small enough to avoid overflow
        # after a full query of additions.
        return np.int64(2**40)
    return np.inf


def sdtw_cost_matrix(
    query: np.ndarray,
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
    return_path: bool = False,
) -> Tuple[np.ndarray, Optional[List[Tuple[int, int]]]]:
    """Direct (loop-based) sDTW returning the full DP matrix.

    Intended for small inputs: tests use it to validate the vectorized
    kernels, and examples use it to visualize alignment paths. When
    ``return_path`` is True the optimal subsequence alignment path is traced
    back from the best cell of the last row.
    """
    cfg = config if config is not None else SDTWConfig()
    query_values, reference_values = _as_kernel_arrays(query, reference, cfg)
    n, m = query_values.size, reference_values.size
    matrix = np.zeros((n, m), dtype=np.float64)
    run = np.ones((n, m), dtype=np.int64)
    matrix[0, :] = _local_distance(query_values[0], reference_values, cfg)

    use_bonus = cfg.uses_bonus
    for i in range(1, n):
        for j in range(m):
            local = float(_local_distance(query_values[i], reference_values[j : j + 1], cfg)[0])
            # Candidate order matters only for ties; vertical is listed first so
            # tie-breaking matches the vectorized kernels (which prefer the
            # vertical move when the bonus-adjusted diagonal is not strictly
            # smaller).
            candidates = [(matrix[i - 1, j], "vertical")]
            if j > 0:
                diagonal = matrix[i - 1, j - 1]
                if use_bonus:
                    diagonal = diagonal - cfg.match_bonus * min(run[i - 1, j - 1], cfg.match_bonus_cap)
                candidates.append((diagonal, "diagonal"))
            if cfg.allow_reference_deletions and j > 0:
                candidates.append((matrix[i, j - 1], "horizontal"))
            best_value, best_move = min(candidates, key=lambda item: item[0])
            matrix[i, j] = local + best_value
            if use_bonus:
                run[i, j] = 1 if best_move == "diagonal" else run[i - 1, j] + 1

    path: Optional[List[Tuple[int, int]]] = None
    if return_path:
        path = _traceback(matrix, query_values, reference_values, cfg, run)
    return matrix, path


def _traceback(
    matrix: np.ndarray,
    query: np.ndarray,
    reference: np.ndarray,
    config: SDTWConfig,
    run: np.ndarray,
) -> List[Tuple[int, int]]:
    n, m = matrix.shape
    i = n - 1
    j = int(np.argmin(matrix[-1]))
    path = [(i, j)]
    while i > 0:
        local = float(_local_distance(query[i], reference[j : j + 1], config)[0])
        remaining = matrix[i, j] - local
        candidates = []
        if j > 0:
            diagonal = matrix[i - 1, j - 1]
            if config.uses_bonus:
                diagonal = diagonal - config.match_bonus * min(run[i - 1, j - 1], config.match_bonus_cap)
            candidates.append((abs(diagonal - remaining), i - 1, j - 1))
        candidates.append((abs(matrix[i - 1, j] - remaining), i - 1, j))
        if config.allow_reference_deletions and j > 0:
            candidates.append((abs(matrix[i, j - 1] - remaining), i, j - 1))
        _, i, j = min(candidates, key=lambda item: item[0])
        path.append((i, j))
    path.reverse()
    return path
