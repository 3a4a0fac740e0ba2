"""The batched sDTW execution engine: lane management over a pluggable backend.

:class:`BatchSDTWEngine` is the *lane manager* behind one reference squiggle:
reads are *admitted* to a free lane when their first chunk arrives, every
polling round advances all lanes that received signal with one wavefront, and
decided reads are *retired* so their lane is recycled. Lane storage grows by
doubling, so the engine serves any number of concurrent channels.

Where the lane-stacked DP state physically lives — and how the wavefront
executes — is delegated to an :class:`~repro.batch.backends.ExecutionBackend`:
``"numpy"`` (default) keeps one in-process :class:`BatchSDTWState` and runs
:func:`~repro.core.sdtw.sdtw_resume_batch` directly, optionally striping each
round's lanes over a thread pool (``workers``) so a full flowcell uses every
core. Backends are bit-identical per lane, so
admission, retirement, decisions and the occupancy trace never depend on the
backend choice.

The engine also records a :class:`BatchRound` per busy ``step`` call — how
many lanes advanced and how many query samples they consumed, stamped with
the poll index so idle polls (rounds where no lane received signal) leave a
gap instead of a zero-lane entry that would deflate occupancy statistics.
That occupancy trace is exactly the request stream the accelerator's
multi-tile dispatch model wants:
:meth:`repro.hardware.scheduler.TileScheduler.simulate_batch_trace` replays
the dense trace and
:meth:`~repro.hardware.scheduler.TileScheduler.simulate_engine_rounds` the
sparse round records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.backends import ExecutionBackend, create_backend
from repro.core.config import SDTWConfig
from repro.core.panel import TargetPanel
from repro.core.reference import ReferenceSquiggle
from repro.core.sdtw import SDTWState, lb_envelopes, lb_keogh_bounds, lb_kim_bound
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["BatchRound", "BatchSDTWEngine", "LaneSnapshot"]


@dataclass(frozen=True)
class BatchRound:
    """Occupancy record of one busy engine step.

    ``index`` is the poll the round happened on (idle polls are counted but
    not recorded, so indices may have gaps), ``n_lanes`` how many lanes the
    wavefront advanced and ``n_samples`` how many query samples they consumed.
    """

    index: int
    n_lanes: int
    n_samples: int


@dataclass(frozen=True)
class LaneSnapshot:
    """One lane's alignment progress after a step.

    ``cost``/``end_position`` describe the best-matching panel target
    (``target`` names it; ties go to the first target in panel order, the
    same tie-breaking ``np.argmin`` applies within a row). ``target_costs``
    and ``target_ends`` carry the full per-target breakdown, ordered like the
    panel — for a single-reference engine they are 1-tuples and ``cost`` is
    exactly the pre-panel behaviour.
    """

    key: Hashable
    cost: float
    end_position: int
    samples_processed: int
    target: Optional[str] = None
    target_costs: Tuple[float, ...] = ()
    target_ends: Tuple[int, ...] = ()

    @property
    def per_sample_cost(self) -> float:
        return self.cost / max(self.samples_processed, 1)


class BatchSDTWEngine:
    """Advance many concurrent sDTW alignments in lockstep.

    Parameters
    ----------
    reference:
        What to align against: a :class:`~repro.core.panel.TargetPanel`
        (N named targets advanced in one wavefront, per-target costs
        reduced every round), a :class:`~repro.core.reference.ReferenceSquiggle`
        (coerced to a 1-entry panel), or raw reference values on the
        kernel's scale — quantized integers for a quantized config,
        normalized floats otherwise
        (``ReferenceSquiggle.values(quantized=config.quantize)``).
    config:
        Kernel configuration; must use the resumable no-reference-deletion
        recurrence (the hardware recurrences).
    initial_capacity:
        Lanes preallocated up front; storage doubles on demand.
    backend:
        Execution backend: a registered name (``"numpy"``, ``"native"``; see
        :func:`repro.batch.backends.available_backends`) or a prebuilt
        :class:`~repro.batch.backends.ExecutionBackend` instance. The engine
        owns backends it creates (``close`` shuts them down) but only borrows
        prebuilt ones.
    backend_options:
        Extra keyword arguments for the backend factory (e.g.
        ``{"workers": 4}`` stripes the numpy backend's lanes over 4 threads).
    tracer:
        Observability hook (:class:`repro.obs.Tracer`). Defaults to the
        shared disabled tracer, making every span a single ``if``; an
        enabled tracer records ``engine.step``/``engine.admit``/
        ``engine.grow`` spans and is handed to the backend so advance
        phases (scatter, wavefront, reduce, gather) land on the same
        timeline.
        Tracing never changes what the engine computes.
    prune:
        Enable the kernel's pruning layer (early abandoning +
        active-column intervals). Off by default — the brute-force
        advance is preserved bit for bit. Pruning engages once
        :attr:`prune_bound` is set (the decision bound, e.g. the eject
        threshold): costs at or below ``prune_bound + prune_margin``
        stay bit-identical to brute force, so decisions against the
        bound never change; costs above it are approximate.
    prune_margin:
        Extra slack added to :attr:`prune_bound` before deriving kill
        bounds. ``0.0`` prunes most aggressively while keeping decisions
        exact; a positive margin additionally keeps every reported cost
        within ``margin`` of the bound bit-exact (useful when callers
        inspect near-threshold costs, at the price of fewer pruned
        cells).
    prune_lifetime_samples:
        Upper bound on the total query samples any lane will ever
        consume (e.g. the classifier's decision prefix). The match bonus
        lets future samples *lower* a cost, so with a bonus configured
        the kill bounds must budget the maximum remaining credit —
        required when ``prune`` is on and the config uses a bonus.
        Feeding a lane beyond this bound voids the exactness guarantee.
    lb_cascade:
        Enable the lower-bound lane gate (requires ``prune``). Before
        dispatching a round, each lane's cheapest admissible cost is
        lower-bounded by a cascade of cheap bounds (LB_Kim-style
        first/last-sample bound against the reference value extrema,
        then an LB_Keogh-style per-block envelope bound); a lane whose
        bound provably exceeds its kill bound skips the wavefront
        advance entirely that round and is marked stale-dead — it never
        reaches the kernel again. Bounds are conservative, so the
        same exactness contract as ``prune`` holds: decisions and every
        cost at or below ``prune_bound + prune_margin`` stay
        bit-identical to brute force.
    lb_level:
        Deepest cascade rung to evaluate: ``1`` stops at the O(1)
        LB_Kim-style bound, ``2`` (default) additionally runs the
        O(chunk) per-block envelope bound on lanes the first rung could
        not kill.
    """

    def __init__(
        self,
        reference: np.ndarray,
        config: Optional[SDTWConfig] = None,
        initial_capacity: int = 8,
        backend: Union[str, ExecutionBackend] = "numpy",
        backend_options: Optional[Mapping[str, Any]] = None,
        tracer: Tracer = NULL_TRACER,
        prune: bool = False,
        prune_margin: float = 0.0,
        prune_lifetime_samples: Optional[int] = None,
        lb_cascade: bool = False,
        lb_level: int = 2,
    ) -> None:
        self.tracer = tracer
        self.config = config if config is not None else SDTWConfig()
        if self.config.allow_reference_deletions:
            raise ValueError(
                "BatchSDTWEngine requires allow_reference_deletions=False "
                "(only the hardware recurrences are resumable)"
            )
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        if prune_margin < 0:
            raise ValueError("prune_margin must be non-negative")
        if prune_lifetime_samples is not None and prune_lifetime_samples <= 0:
            raise ValueError("prune_lifetime_samples must be positive")
        if prune and self.config.uses_bonus and prune_lifetime_samples is None:
            raise ValueError(
                "prune requires prune_lifetime_samples when the config uses a "
                "match bonus: the kill bounds must budget the maximum bonus "
                "credit the remaining samples could still earn"
            )
        if lb_level not in (1, 2):
            raise ValueError(
                f"lb_level must be 1 (LB_Kim) or 2 (LB_Kim + LB_Keogh), got {lb_level}"
            )
        if lb_cascade and not prune:
            raise ValueError(
                "lb_cascade requires prune=True: the lane gate compares lower "
                "bounds against the pruning layer's kill bounds"
            )
        self.prune = bool(prune)
        self.prune_margin = float(prune_margin)
        self.lb_cascade = bool(lb_cascade)
        self.lb_level = int(lb_level)
        # Lane-rounds and nominal DP cells the gate skipped before dispatch.
        self.lanes_lb_skipped = 0
        self.cells_lb_skipped = 0
        self.prune_lifetime_samples = (
            None if prune_lifetime_samples is None else int(prune_lifetime_samples)
        )
        # The decision bound pruning protects (costs at or below it stay
        # exact). None = prune even if enabled is deferred until a caller —
        # typically the classifier, once its threshold is calibrated — sets
        # it; may be updated between rounds (the per-lane kill-bound envelope
        # keeps dead cells dead regardless).
        self.prune_bound: Optional[float] = None
        dtype = np.int64 if self.config.quantize else np.float64
        if isinstance(reference, ReferenceSquiggle):
            reference = TargetPanel.single(reference)
        if isinstance(reference, TargetPanel):
            self.panel: Optional[TargetPanel] = reference
            self.reference_values = np.asarray(
                reference.values(quantized=self.config.quantize), dtype=dtype
            )
            self.target_names: Tuple[str, ...] = reference.names
            self._block_starts = reference.offsets
        else:
            self.panel = None
            self.reference_values = np.asarray(reference, dtype=dtype)
            self.target_names = ("target",)
            self._block_starts = None
        if self.reference_values.ndim != 1 or self.reference_values.size == 0:
            raise ValueError("reference must be a non-empty 1-D array")
        n_targets = len(self.target_names)
        if self.lb_cascade:
            if self.panel is not None:
                self._lb_lows, self._lb_highs = self.panel.lb_envelopes(
                    self.config.quantize
                )
            else:
                self._lb_lows, self._lb_highs = lb_envelopes(
                    self.reference_values, self._block_starts
                )
            self._lb_low = float(self._lb_lows.min())
            self._lb_high = float(self._lb_highs.max())
        if isinstance(backend, str):
            options = dict(backend_options or {})
            if self._block_starts is not None:
                options.setdefault("block_starts", self._block_starts)
            self._backend = create_backend(
                backend,
                self.reference_values,
                self.config,
                initial_capacity,
                **options,
            )
            self._owns_backend = True
        else:
            if backend_options:
                raise ValueError("backend_options only apply when backend is a name")
            if backend.reference_length != self.reference_values.size:
                raise ValueError(
                    f"backend holds a {backend.reference_length}-sample reference "
                    f"but the engine was given {self.reference_values.size} samples"
                )
            if getattr(backend, "n_blocks", 1) != n_targets:
                raise ValueError(
                    f"backend reduces {getattr(backend, 'n_blocks', 1)} panel blocks "
                    f"but the engine serves {n_targets} targets"
                )
            self._backend = backend
            self._owns_backend = False
        # Every built-in backend exposes a `tracer` attribute; user-registered
        # backends without one simply run untraced at the advance level.
        if hasattr(self._backend, "tracer"):
            self._backend.tracer = tracer
        capacity = self._backend.capacity
        self._lane_of: Dict[Hashable, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        # Decision-relevant scalars cached lane-manager-side so snapshots and
        # progress queries never round-trip to the backend: `advance` returns
        # them every round and `reset` re-zeroes them. One column per panel
        # target; the best-target view is reduced on demand.
        self._costs = np.zeros((capacity, n_targets), dtype=np.float64)
        self._ends = np.zeros((capacity, n_targets), dtype=np.intp)
        self._samples = np.zeros(capacity, dtype=np.int64)
        # Per-lane kill-bound envelope: the minimum bound ever sent for the
        # lane. Cells are frozen by comparing against the bound of *their*
        # round, so later rounds must never relax it (a relaxed bound could
        # resurrect a frozen cell whose value missed sample additions).
        self._kill_envelope = np.full(capacity, np.inf, dtype=np.float64)
        self.rounds: List[BatchRound] = []
        self._n_polls = 0

    # -------------------------------------------------------------- lane admin
    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.backend_name

    @property
    def capacity(self) -> int:
        return self._backend.capacity

    @property
    def n_targets(self) -> int:
        """Panel targets this engine classifies against (1 for a plain reference)."""
        return len(self.target_names)

    @property
    def n_active(self) -> int:
        return len(self._lane_of)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lane_of

    def active_keys(self) -> Tuple[Hashable, ...]:
        return tuple(self._lane_of)

    def _grow(self) -> None:
        old_capacity = self._backend.capacity
        with self.tracer.span("engine.grow", old_capacity=old_capacity):
            self._backend.allocate(old_capacity * 2)
        capacity = self._backend.capacity
        self._free.extend(range(capacity - 1, old_capacity - 1, -1))
        grown = np.zeros((capacity, self.n_targets), dtype=np.float64)
        grown[:old_capacity] = self._costs
        self._costs = grown
        grown_ends = np.zeros((capacity, self.n_targets), dtype=np.intp)
        grown_ends[:old_capacity] = self._ends
        self._ends = grown_ends
        grown_samples = np.zeros(capacity, dtype=np.int64)
        grown_samples[:old_capacity] = self._samples
        self._samples = grown_samples
        grown_envelope = np.full(capacity, np.inf, dtype=np.float64)
        grown_envelope[:old_capacity] = self._kill_envelope
        self._kill_envelope = grown_envelope

    def admit(self, key: Hashable) -> int:
        """Assign ``key`` a fresh lane; returns the lane index."""
        if key in self._lane_of:
            raise ValueError(f"read {key!r} already occupies a lane")
        with self.tracer.span("engine.admit"):
            if not self._free:
                self._grow()
            lane = self._free.pop()
            self._backend.reset(np.array([lane], dtype=np.intp))
            self._costs[lane] = 0.0
            self._ends[lane] = 0
            self._samples[lane] = 0
            self._kill_envelope[lane] = np.inf
            self._lane_of[key] = lane
        return lane

    def retire(self, key: Hashable) -> None:
        """Release ``key``'s lane (no-op for unknown keys)."""
        lane = self._lane_of.pop(key, None)
        if lane is not None:
            self._free.append(lane)
            self.tracer.instant("engine.retire", lane=lane)

    def samples_processed(self, key: Hashable) -> int:
        """Query samples consumed so far by ``key``'s alignment."""
        return int(self._samples[self._lane_of[key]])

    def _lane_snapshot(self, key: Hashable, lane: int) -> LaneSnapshot:
        lane_costs = self._costs[lane]
        best = int(np.argmin(lane_costs))  # ties: first target in panel order
        return LaneSnapshot(
            key=key,
            cost=float(lane_costs[best]),
            end_position=int(self._ends[lane, best]),
            samples_processed=int(self._samples[lane]),
            target=self.target_names[best],
            target_costs=tuple(float(cost) for cost in lane_costs),
            target_ends=tuple(int(end) for end in self._ends[lane]),
        )

    def snapshot(self, key: Hashable) -> LaneSnapshot:
        """Current cost/end-position of one active lane (best panel target)."""
        return self._lane_snapshot(key, self._lane_of[key])

    def state_of(self, key: Hashable) -> SDTWState:
        """Scalar :class:`SDTWState` view of one lane (tests / interop)."""
        lane = self._lane_of[key]
        return self._backend.gather(np.array([lane], dtype=np.intp)).lane(0)

    # ---------------------------------------------------------------- pruning
    def _prune_bounds(
        self, lanes: np.ndarray, lengths: np.ndarray
    ) -> Optional[np.ndarray]:
        """Per-lane kill bounds for this round, or ``None`` when not pruning.

        A cell can be frozen only if no alignment continuing through it can
        ever end at or below the decision bound ``prune_bound + prune_margin``.
        Over ``r`` remaining query samples a path earns at most
        ``bonus * (r + cap)`` of match-bonus credit (each diagonal harvests at
        most ``cap``; ``r`` steps fit at most ``r`` diagonals plus one
        pre-built run), so the kill bound is the decision bound plus that
        credit, with ``r`` the lane's remaining lifetime (at least this
        round's chunk). The per-lane envelope keeps bounds monotonically
        non-increasing across rounds — dead cells stay dead even if the
        caller moves :attr:`prune_bound`.
        """
        if not self.prune or self.prune_bound is None:
            return None
        base = float(self.prune_bound) + self.prune_margin
        bonus = float(self.config.match_bonus)
        if bonus and self.config.uses_bonus:
            remaining = np.maximum(
                self.prune_lifetime_samples - self._samples[lanes], lengths
            ).astype(np.float64)
            kill = base + bonus * (remaining + float(self.config.match_bonus_cap))
        else:
            kill = np.full(lanes.size, base, dtype=np.float64)
        kill = np.minimum(kill, self._kill_envelope[lanes])
        self._kill_envelope[lanes] = kill
        return kill

    def _lb_gate(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        lengths: np.ndarray,
        bounds: Optional[np.ndarray],
    ) -> np.ndarray:
        """Lower-bound lane gate: which lanes must actually be dispatched.

        Runs the cascade per lane against its (min-clamped) kill bound: first
        the O(1) LB_Kim-style bound on top of the lane's cached row minimum,
        then — for survivors, at :attr:`lb_level` 2 — the O(chunk) per-block
        envelope bound on top of the cached per-target minima. A killed lane's
        cached costs are clamped up to the violated bound (they provably
        exceed the kill bound forever, so any reported value above it is
        faithful) and its kill envelope drops to ``-inf``: stale-dead lanes
        are skipped on sight every later round. Admissibility: every query
        sample adds at least its envelope gap, block boundaries confine paths
        to one block, and the kill bound already credits the maximum match
        bonus the lane's remaining lifetime could harvest.
        """
        envelope = self._kill_envelope[lanes]
        # Zero-length entries stay dispatched: advancing nothing is free and
        # counting them as skipped lane-rounds would inflate the gate stats.
        keep = ~(np.isneginf(envelope) & (lengths > 0))
        if bounds is not None:
            lane_costs = self._costs[lanes]
            mu = lane_costs.min(axis=1)
            for index in np.flatnonzero(keep & (lengths > 0)):
                bound = float(bounds[index])
                kim = mu[index] + lb_kim_bound(
                    queries[index], self._lb_low, self._lb_high, self.config
                )
                if kim > bound:
                    keep[index] = False
                    lane = lanes[index]
                    np.maximum(self._costs[lane], kim, out=self._costs[lane])
                    continue
                if self.lb_level >= 2:
                    per_block = lane_costs[index] + lb_keogh_bounds(
                        queries[index], self._lb_lows, self._lb_highs, self.config
                    )
                    if float(per_block.min()) > bound:
                        keep[index] = False
                        lane = lanes[index]
                        np.maximum(
                            self._costs[lane], per_block, out=self._costs[lane]
                        )
        skipped = np.flatnonzero(~keep)
        if skipped.size:
            self._kill_envelope[lanes[skipped]] = -np.inf
            self.lanes_lb_skipped += int(skipped.size)
            self.cells_lb_skipped += int(lengths[skipped].sum()) * int(
                self.reference_values.size
            )
        return keep

    @property
    def cells_advanced(self) -> int:
        """DP cells the backend actually swept (all rounds so far)."""
        stats = getattr(self._backend, "stats", None)
        return 0 if stats is None else int(stats.cells_advanced)

    @property
    def cells_pruned(self) -> int:
        """DP cells the pruning layer skipped (all rounds so far)."""
        stats = getattr(self._backend, "stats", None)
        return 0 if stats is None else int(stats.cells_pruned)

    # ------------------------------------------------------------------- step
    def step(
        self, items: Sequence[Tuple[Hashable, np.ndarray]]
    ) -> Dict[Hashable, LaneSnapshot]:
        """Advance every listed alignment with one batched wavefront.

        ``items`` pairs each read key with its new (kernel-scale) query
        samples for this round; lengths may be ragged. Unknown keys are
        admitted automatically. Returns the post-step snapshot per key.

        Every call counts as one poll; only polls that actually advance
        lanes append a :class:`BatchRound` (idle polls would otherwise
        deflate the occupancy statistics the dispatch models consume).
        """
        keys = [key for key, _ in items]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate read keys in one batch round")
        poll = self._n_polls
        self._n_polls += 1
        if not keys:
            return {}
        with self.tracer.span("engine.step", poll=poll, n_lanes=len(keys)):
            for key in keys:
                if key not in self._lane_of:
                    self.admit(key)
            lanes = np.fromiter(
                (self._lane_of[key] for key in keys), dtype=np.intp, count=len(keys)
            )
            queries = [np.asarray(query) for _, query in items]
            lengths = np.fromiter(
                (query.size for query in queries), dtype=np.int64, count=len(queries)
            )

            self.rounds.append(
                BatchRound(index=poll, n_lanes=len(keys), n_samples=int(lengths.sum()))
            )

            bounds = self._prune_bounds(lanes, lengths)
            if self.lb_cascade:
                lb_before = (self.lanes_lb_skipped, self.cells_lb_skipped)
                keep = self._lb_gate(lanes, queries, lengths, bounds)
                if self.tracer.enabled:
                    with self.tracer.span(
                        "backend.lb",
                        lanes_skipped=self.lanes_lb_skipped - lb_before[0],
                        cells_skipped=self.cells_lb_skipped - lb_before[1],
                        level=self.lb_level,
                    ):
                        pass
                if not keep.all():
                    live = np.flatnonzero(keep)
                    live_lanes = lanes[live]
                    live_queries = [queries[int(index)] for index in live]
                    live_bounds = None if bounds is None else bounds[live]
                else:
                    live_lanes, live_queries, live_bounds = lanes, queries, bounds
            else:
                live_lanes, live_queries, live_bounds = lanes, queries, bounds
            if live_lanes.size:
                if live_bounds is None:
                    # Positional call keeps user-registered backends that
                    # predate the prune_bounds keyword working for unpruned
                    # runs.
                    costs, ends = self._backend.advance(live_lanes, live_queries)
                else:
                    stats = getattr(self._backend, "stats", None)
                    before = (
                        (stats.cells_advanced, stats.cells_pruned)
                        if stats is not None
                        else (0, 0)
                    )
                    costs, ends = self._backend.advance(
                        live_lanes, live_queries, prune_bounds=live_bounds
                    )
                    if self.tracer.enabled and stats is not None:
                        with self.tracer.span(
                            "backend.prune",
                            cells_advanced=stats.cells_advanced - before[0],
                            cells_pruned=stats.cells_pruned - before[1],
                        ):
                            pass
                self._costs[live_lanes] = costs
                self._ends[live_lanes] = ends
            # Skipped lanes still consume their samples logically: decision
            # timing (remaining-lifetime accounting, prefix trimming) must not
            # depend on whether the gate fired. Their backend-side state stays
            # frozen at the kill round, consistent with frozen-column pruning.
            self._samples[lanes] += lengths

            return {
                key: self._lane_snapshot(key, int(lanes[index]))
                for index, key in enumerate(keys)
            }

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down a backend the engine created (borrowed backends survive)."""
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "BatchSDTWEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- occupancy
    @property
    def n_polls(self) -> int:
        """Total ``step`` calls, idle polls included."""
        return self._n_polls

    @property
    def occupancy_trace(self) -> List[int]:
        """Per-poll active-lane counts — the multi-tile dispatch request trace.

        Dense over every poll (idle polls contribute a zero), so index ``r``
        maps to time ``r * round_duration`` when the trace is replayed.
        """
        trace = [0] * self._n_polls
        for entry in self.rounds:
            trace[entry.index] = entry.n_lanes
        return trace

    @property
    def peak_occupancy(self) -> int:
        return max((entry.n_lanes for entry in self.rounds), default=0)

    @property
    def mean_occupancy(self) -> float:
        """Mean lanes per *busy* round (idle polls excluded)."""
        if not self.rounds:
            return 0.0
        return float(np.mean([entry.n_lanes for entry in self.rounds]))
