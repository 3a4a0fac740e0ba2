"""Candidate generation and the budgeted probe search.

µ-cuDNN's optimizer enumerates only the convolution algorithms the library
actually installed, benchmarks them on the real layer shape, and stops as
soon as a winner is clear; this module is the same search for the sDTW
runtime. Candidates are ``(backend, workers, tile_columns, prune,
lb_cascade)`` points drawn from:

* **installed backends only** — the registry
  (:func:`repro.batch.available_backends`) filtered by the native kernel's
  import probe, so a candidate list never names an engine this host cannot
  construct;
* **hardware seeds** — ``tile_columns`` candidates from the detected L2
  size (the reason column tiling exists: keep the per-step column working
  set cache-resident) and ``workers`` candidates from ``os.cpu_count()``
  (lane-striped numpy threads are only candidates when there is more than
  one core to stripe across);
* **the exactness-preserving layers** — ``prune`` and ``prune+lb_cascade``
  variants of the in-process backends; both preserve accept/eject decisions
  bit for bit, so the tuner is free to turn them on whenever the probe says
  they pay.

The search itself is budgeted (``tune_budget_s`` bounds probe wall clock;
the first candidate always runs so resolution cannot come back empty) and
early-stops once the incumbent leads the runner-up by a configurable margin
after a minimum number of probes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Tuple

from repro.tune.cache import TunedDecision, TuningCache, cache_key
from repro.tune.probe import (
    PROBE_ROUNDS,
    PROBE_SEED,
    ProbeResult,
    WorkloadShape,
    run_probe,
    synthesize_workload,
)

__all__ = [
    "TuneOutcome",
    "detect_l2_bytes",
    "generate_candidates",
    "installed_backends",
    "resolve_auto",
    "tune_config",
]

# Search defaults; override per run via RunConfig.tune = {"margin": ..., ...}.
DEFAULT_MARGIN = 1.25  # incumbent must lead runner-up by 25% to stop early
DEFAULT_MIN_PROBES = 3
_L2_FALLBACK_BYTES = 1 << 20  # sysfs unavailable (macOS, containers): assume 1 MiB


def installed_backends() -> List[str]:
    """Registry backends this host can actually construct.

    ``available_backends()`` lists every *registered* name; the native
    entry additionally needs an importable kernel (Numba or the AOT Cython
    extension). Filtering here means a candidate never fails for a reason
    the probe could have known up front.
    """
    from repro.batch.backends import available_backends
    from repro.batch.native import cython_kernel_available, numba_available

    names: List[str] = []
    for name in available_backends():
        if name == "native" and not (numba_available() or cython_kernel_available()):
            continue
        names.append(name)
    return names


def detect_l2_bytes() -> Optional[int]:
    """Per-core L2 size from sysfs; ``None`` where Linux sysfs is absent."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        indexes = sorted(base.glob("index*"))
    except OSError:
        return None
    for index in indexes:
        try:
            if index.joinpath("level").read_text().strip() != "2":
                continue
            size = index.joinpath("size").read_text().strip().upper()
        except OSError:
            continue
        try:
            if size.endswith("K"):
                return int(size[:-1]) * 1024
            if size.endswith("M"):
                return int(size[:-1]) * 1024 * 1024
            return int(size)
        except ValueError:
            continue
    return None


def _tile_seed(shape: WorkloadShape) -> Optional[int]:
    """An L2-resident ``tile_columns`` candidate, or ``None`` when tiling
    cannot help (the whole working set already fits).

    The per-column working set of one wavefront step is a handful of
    row/run lanes per channel; sizing the tile so
    ``channels * bytes_per_cell * tile`` stays inside L2 is the heuristic
    the manual ``tile_columns`` guidance uses, here seeded automatically.
    """
    l2 = detect_l2_bytes() or _L2_FALLBACK_BYTES
    bytes_per_cell = 4 if shape.dtype_path == "int32" else 8
    # ~4 resident arrays touch each column per step (rows, runs, bounds, reference).
    per_column = max(1, shape.n_channels) * bytes_per_cell * 4
    tile = l2 // per_column
    tile = max(1024, min(int(tile), int(shape.reference_columns)))
    if tile >= shape.reference_columns:
        return None
    return tile


def _worker_seeds() -> List[int]:
    """Thread counts worth probing for the numpy backend's lane stripes."""
    cpu = int(os.cpu_count() or 1)
    if cpu < 2:
        return []
    seeds = {2, min(4, cpu), cpu}
    return sorted(count for count in seeds if 2 <= count <= cpu)


def generate_candidates(shape: WorkloadShape) -> List[ProbeResult]:
    """The ordered candidate list for ``shape`` (as unprobed result points).

    Ordered so the strongest priors come first — the search early-stops and
    the budget truncates the tail, so a good incumbent must surface early:
    in-process brute force (the deployment default), its pruned and gated
    variants (big wins on mixed workloads, measured here on the mixed probe
    workload), the native kernel when installed, then tiling and the
    lane-striped numpy threads.
    """
    installed = installed_backends()
    candidates: List[ProbeResult] = []

    def add(backend: str, **point: Any) -> None:
        if backend in installed:
            candidates.append(ProbeResult(backend=backend, **point))

    add("numpy")
    add("numpy", prune=True)
    add("numpy", prune=True, lb_cascade=True)
    add("native")
    add("native", prune=True, lb_cascade=True)
    tile = _tile_seed(shape)
    if tile is not None:
        add("numpy", tile_columns=tile)
        add("native", tile_columns=tile)
    for workers in _worker_seeds():
        add("numpy", workers=workers)
    return candidates


@dataclass(frozen=True)
class TuneOutcome:
    """Everything one resolution produced: the decision and how it was made."""

    decision: TunedDecision
    results: Tuple[ProbeResult, ...]
    shape: WorkloadShape
    key: str
    cache_path: str

    def table(self) -> List[Mapping[str, Any]]:
        """Probe-table rows, fastest first (the CLI and example print these)."""
        ordered = sorted(self.results, key=lambda r: r.cell_rate, reverse=True)
        return [result.as_row() for result in ordered]


def _tune_options(config: Any) -> Mapping[str, Any]:
    return dict(getattr(config, "tune", None) or {})


def tune_config(
    config: Any,
    panel: Optional[Any] = None,
    tracer: Optional[Any] = None,
    cache: Optional[TuningCache] = None,
) -> TuneOutcome:
    """Resolve the tuning decision for ``config`` (probe or cache hit).

    Honors ``config.tune`` options: ``cache_path`` (where the JSON cache
    lives), ``ignore_cache`` (skip the lookup, still record the verdict),
    ``margin``/``min_probes`` (early-stop policy), ``rounds``/``seed``
    (probe workload). Probe wall clock is bounded by
    ``config.tune_budget_s``; the first candidate always runs so the
    resolution cannot come back empty. Every probe runs under a
    ``tune.probe`` span on the caller's tracer (sessions pass theirs, so
    resolution shows up in the trace like any other phase).
    """
    from repro.obs.trace import NULL_TRACER

    tracer = tracer if tracer is not None else NULL_TRACER
    options = _tune_options(config)
    shape = WorkloadShape.from_config(config, panel=panel)
    key = cache_key(shape)
    if cache is None:
        cache = TuningCache(options.get("cache_path"))
    if not options.get("ignore_cache", False):
        entry = cache.get(key)
        # An entry naming a backend this host cannot build (an unregistered
        # name, or "native" without a compiled kernel) is a miss: re-probe.
        if entry is not None and entry.get("backend") in installed_backends():
            try:
                decision = TunedDecision.from_dict(entry, cache_hit=True, key=key)
            except TypeError:
                decision = None
            if decision is not None:
                return TuneOutcome(
                    decision=decision,
                    results=(),
                    shape=shape,
                    key=key,
                    cache_path=str(cache.path),
                )

    margin = float(options.get("margin", DEFAULT_MARGIN))
    min_probes = int(options.get("min_probes", DEFAULT_MIN_PROBES))
    budget_s = float(getattr(config, "tune_budget_s", 2.0))
    start = time.perf_counter()
    with tracer.span("tune.workload", key=key):
        workload = synthesize_workload(
            shape,
            n_rounds=int(options.get("rounds", PROBE_ROUNDS)),
            seed=int(options.get("seed", PROBE_SEED)),
        )

    candidates = generate_candidates(shape)
    results: List[ProbeResult] = []
    for candidate in candidates:
        elapsed = time.perf_counter() - start
        if results and elapsed >= budget_s:
            break
        with tracer.span(
            "tune.probe",
            candidate=candidate.label,
            backend=candidate.backend,
        ):
            result = run_probe(
                workload,
                backend=candidate.backend,
                workers=candidate.workers,
                tile_columns=candidate.tile_columns,
                prune=candidate.prune,
                lb_cascade=candidate.lb_cascade,
            )
        results.append(result)
        measured = sorted(
            (r for r in results if r.error is None),
            key=lambda r: r.cell_rate,
            reverse=True,
        )
        if len(results) >= min_probes and len(measured) >= 2:
            if measured[0].cell_rate >= margin * measured[1].cell_rate:
                break

    probed_s = time.perf_counter() - start
    measured = [r for r in results if r.error is None]
    if not measured:
        # Every candidate failed (should be impossible: numpy always runs).
        # Degrade to brute-force numpy rather than taking the session down.
        best = ProbeResult(backend="numpy")
    else:
        best = max(measured, key=lambda r: r.cell_rate)
    decision = TunedDecision(
        backend=best.backend,
        workers=best.workers,
        tile_columns=best.tile_columns,
        prune=best.prune,
        lb_cascade=best.lb_cascade,
        cell_rate=best.cell_rate,
        probed_s=probed_s,
        n_probes=len(results),
        cache_hit=False,
        key=key,
    )
    cache.put(key, decision.as_dict())
    cache.save()
    return TuneOutcome(
        decision=decision,
        results=tuple(results),
        shape=shape,
        key=key,
        cache_path=str(cache.path),
    )


def resolve_auto(
    config: Any,
    panel: Optional[Any] = None,
    tracer: Optional[Any] = None,
    cache: Optional[TuningCache] = None,
) -> Tuple[Any, TunedDecision]:
    """Resolve ``backend="auto"`` to a concrete, validated config.

    The identity transform for already-pinned configs, so call sites can
    route every config through here. Returns ``(resolved_config,
    decision)``; the decision's ``cache_hit`` flag says whether probes ran.
    """
    if getattr(config, "backend", None) != "auto":
        decision = TunedDecision(
            backend=config.backend,
            workers=config.workers,
            tile_columns=config.tile_columns,
            prune=config.prune,
            lb_cascade=config.lb_cascade,
            cache_hit=True,
        )
        return config, decision
    outcome = tune_config(config, panel=panel, tracer=tracer, cache=cache)
    return outcome.decision.apply(config), outcome.decision
