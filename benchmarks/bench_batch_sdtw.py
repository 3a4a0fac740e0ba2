"""Supplementary benchmark: scalar per-read loop vs the batched sDTW backends.

The batch execution engine's argument is that one ``(channels, reference)``
matrix operation per wavefront step beats ``channels`` separate
``(reference,)`` operations issued from a Python loop — the same reason the
accelerator advances all alignments in lockstep. This benchmark replays an
identical chunk-round workload through the per-read scalar path and through
the engine on each requested execution backend, checks the costs are
bit-identical, and reports wavefront throughput (DP cells per second).

Two entry points:

* **pytest** (the CI smoke path) measures the default ``numpy`` backend on
  two deployment geometries: ``amplicon`` — a qPCR-assay-scale target across
  a large channel count, where the per-read Python loop is
  overhead-dominated and lockstep batching pays maximally (gated via
  ``BATCH_SDTW_MIN_SPEEDUP``, default 5x) — and ``genome`` — a
  lambda-phage-scale reference, where every kernel call is
  memory-bandwidth-bound and one core's bandwidth is the ceiling (reported,
  not gated).
* **script mode** (``python benchmarks/bench_batch_sdtw.py --workers 2 4``)
  measures any registered backend, plus the numpy backend's lane stripes
  on each ``--workers`` thread count, on these workloads — ``flowcell``: by
  default 512 channels against a genome-scale reference, the configuration
  lane striping exists for; ``genome_single_channel``: one channel against
  a larger genome (one lane, so striping has nothing to distribute and
  that row runs serially); and ``flowcell_pruned``: a minority of
  channels stream reads sampled from the reference plus noise while the
  rest stream random signal, and every backend is measured brute-force
  **and** with the pruning layer on (kill bounds from a threshold placed
  between the two cost distributions) — the ``<backend>[pruned]`` entries
  carry ``cells_advanced`` / ``cells_pruned`` / ``pruned_fraction`` and
  ``speedup_vs_unpruned``, after asserting accept/eject decisions and every
  below-threshold cost are bit-identical to brute force; and ``flowcell_lb``:
  the same mixed construction but in the adaptive-sampling regime the gate
  targets: a full flowcell of mostly-off-target channels (one lane in 128
  on target by default), short chunks, and many decision rounds, measured
  brute-force, pruned, **and** pruned with the
  lower-bound lane gate on (``lb_cascade=True``) — the ``<backend>[lb]``
  entries add ``lanes_lb_skipped`` / ``cells_lb_skipped`` and
  ``speedup_vs_pruned``, the gate's win over column pruning alone, under the
  same in-bench bit-identity assertions — and emits
  per-backend JSON so throughput
  scaling with ``--workers`` is measurable. Every engine run is traced
  (:mod:`repro.obs`), so each backend entry carries a ``phases`` self-time
  breakdown whose sum matches the measured seconds, plus, for striped runs,
  a ``stripes`` summary (slowest/fastest stripe totals and the idle tail,
  from :func:`repro.obs.stripe_summary`). ``--config run.json`` loads a
  :class:`repro.runtime.RunConfig`: its backend/workers/tile_columns become
  the measured backend (when no ``--backend`` flags are given) and the
  serialized config is recorded under the report's ``run_config`` key, so a
  benchmark JSON documents exactly the configuration that produced it. The
  committed ``BENCH_batch_sdtw.json`` at the repository root records this
  script's output per PR, the performance trajectory baseline.

Every backend entry reports two cell rates. ``nominal_cells_per_s`` counts
every cell of the full DP problem per second — pruned cells retire for free,
so pruning raises it; it is the end-to-end throughput figure.
``effective_cells_per_s`` counts only the cells the kernel actually advanced
per second — the raw compute rate, roughly constant with or without pruning
(column tiling's figure includes halo recompute, so its ``cells_advanced``
can exceed the problem's ``dp_cells``). Without pruning the two coincide up
to that halo term.

Both emit a machine-readable JSON report (``BATCH_SDTW_JSON`` / ``--json``
choose the path; unset or ``-`` prints to stdout only). Pytest tunables:
``BATCH_SDTW_CHANNELS``, ``BATCH_SDTW_ROUNDS``, ``BATCH_SDTW_CHUNK``,
``BATCH_SDTW_MIN_SPEEDUP`` (the CI smoke invocation relaxes the gate —
shared runners vary too much for a hard 5x assertion there).
"""

import argparse
import json
import os
import time

import numpy as np
from _bench_utils import host_block, print_rows

from repro.batch import available_backends
from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.reference import ReferenceSquiggle
from repro.core.sdtw import sdtw_resume
from repro.genomes.sequences import random_genome
from repro.obs import Tracer, export_chrome_trace, stripe_summary

CHANNELS = int(os.environ.get("BATCH_SDTW_CHANNELS", "256"))
ROUNDS = int(os.environ.get("BATCH_SDTW_ROUNDS", "2"))
CHUNK_SAMPLES = int(os.environ.get("BATCH_SDTW_CHUNK", "250"))
MIN_SPEEDUP = float(os.environ.get("BATCH_SDTW_MIN_SPEEDUP", "5.0"))

_REPORTS = {}


def _chunk_rounds(rng, n_channels, n_rounds, chunk_samples):
    """Quantized query chunks per round per channel (ragged final round)."""
    rounds = []
    for round_index in range(n_rounds):
        chunks = []
        for _ in range(n_channels):
            length = chunk_samples
            if round_index == n_rounds - 1:
                length = int(rng.integers(1, chunk_samples + 1))
            chunks.append(rng.integers(-127, 128, size=length, dtype=np.int64))
        rounds.append(chunks)
    return rounds


def _pruned_chunk_rounds(rng, reference, n_channels, n_rounds, chunk_samples,
                         on_target_fraction=0.25):
    """Chunk rounds for the pruning workload, plus the on-target mask.

    The first ``on_target_fraction`` of the channels stream reads sampled
    from the reference itself plus small quantization noise (their costs land
    far below any sensible threshold — the match bonus drives them strongly
    negative); the rest stream random signal (costs far above). The gap is
    what the pruning layer exploits: off-target lanes blow through the kill
    bound early and freeze, on-target lanes stay fully alive.
    """
    total = n_rounds * chunk_samples
    on_target = np.zeros(n_channels, dtype=bool)
    on_target[: max(1, int(n_channels * on_target_fraction))] = True
    prefixes = []
    for channel in range(n_channels):
        if on_target[channel]:
            start = int(rng.integers(0, max(1, reference.size - total)))
            base = np.tile(reference, total // reference.size + 2)[start : start + total]
            noise = rng.integers(-2, 3, size=total)
            prefixes.append(np.clip(base + noise, -127, 127).astype(np.int64))
        else:
            prefixes.append(rng.integers(-127, 128, size=total, dtype=np.int64))
    rounds = [
        [prefix[index * chunk_samples : (index + 1) * chunk_samples] for prefix in prefixes]
        for index in range(n_rounds)
    ]
    return rounds, on_target


def _measure_scalar(rounds, reference, config):
    """The pipeline's per-read fallback: one sdtw_resume per channel per round."""
    start = time.perf_counter()
    states = {}
    for round_chunks in rounds:
        for channel, chunk in enumerate(round_chunks):
            states[channel] = sdtw_resume(chunk, reference, config, state=states.get(channel))
    return time.perf_counter() - start, states


def _measure_engine(rounds, reference, config, backend, backend_options,
                    prune_threshold=None, prune_lifetime=None, lb_cascade=False):
    """One engine step per round across all channels, on the given backend.

    Backend construction (the thread pool of a striped backend) happens
    outside the timed region: pools are persistent in deployment, paid once
    per run, not once per round. The run is traced so the report can
    attribute round time to execution phases; the tracer is one predicted
    branch plus a perf_counter pair per span, far below measurement noise.

    With ``prune_threshold`` set the engine runs its pruning layer the way
    the streaming classifier drives it: the threshold is the decision bound,
    ``prune_lifetime`` the most samples any lane will ever consume.
    ``lb_cascade`` additionally turns on the lower-bound lane gate in front
    of the backend dispatch.
    """
    tracer = Tracer(track="bench")
    prune = prune_threshold is not None
    engine = BatchSDTWEngine(
        reference, config, backend=backend, backend_options=backend_options,
        tracer=tracer,
        prune=prune,
        prune_margin=0.0,
        prune_lifetime_samples=prune_lifetime if prune else None,
        lb_cascade=lb_cascade,
    )
    if prune:
        engine.prune_bound = float(prune_threshold)
    try:
        start = time.perf_counter()
        for round_chunks in rounds:
            snapshots = engine.step(list(enumerate(round_chunks)))
        elapsed = time.perf_counter() - start
        return elapsed, snapshots, engine, tracer
    except BaseException:
        engine.close()
        raise


def _backend_entry(backend, options, dp_cells, scalar_s, batch_s, engine, tracer):
    """One report entry: timings, phase breakdown, and the cell counters.

    Phase self times decompose the traced wall clock exactly (every root
    span's duration is distributed over its subtree), so ``sum(self_s) ~=
    seconds`` per backend entry.
    """
    phases = {
        name: stat.as_dict() for name, stat in sorted(tracer.phase_totals().items())
    }
    advanced = engine.cells_advanced
    pruned = engine.cells_pruned
    entry = {
        "backend": backend,
        "options": dict(options or {}),
        "seconds": batch_s,
        "cells_advanced": int(advanced),
        "cells_pruned": int(pruned),
        "lanes_lb_skipped": int(engine.lanes_lb_skipped),
        "cells_lb_skipped": int(engine.cells_lb_skipped),
        "pruned_fraction": pruned / (advanced + pruned) if advanced + pruned else 0.0,
        "nominal_cells_per_s": dp_cells / batch_s,
        "effective_cells_per_s": advanced / batch_s,
        "speedup_vs_scalar": scalar_s / batch_s,
        "phases": phases,
        "phase_self_seconds": sum(stat["self_s"] for stat in phases.values()),
    }
    # Stripe timings ride on the flight recorder's backend.wavefront spans.
    stripes = stripe_summary(export_chrome_trace(tracer))
    if stripes is not None:
        entry["stripes"] = stripes
    return entry


def _measure(reference, n_channels, backend_specs=None, rounds=ROUNDS,
             chunk=CHUNK_SAMPLES, round_chunks=None, prune_on_target=None,
             lb_gate=False, threshold_position=0.5):
    """Measure scalar vs engine throughput; returns the per-workload report.

    ``backend_specs`` is a list of ``(label, backend_name, options)``; the
    default measures the in-process numpy backend only. Legacy top-level
    keys (``batched_seconds``, ``speedup``, ...) describe the first listed
    backend, keeping the CI gate stable; every backend gets an entry under
    ``"backends"``.

    With ``prune_on_target`` (a per-channel boolean mask; pair with
    ``round_chunks`` from :func:`_pruned_chunk_rounds`) every backend is
    measured a second time with the pruning layer on, against a threshold
    placed midway between the on- and off-target cost distributions; the
    extra ``<label>[pruned]`` entries carry ``speedup_vs_unpruned`` and the
    pruning counters, after asserting the decisions and every
    below-threshold cost match brute force bit for bit. ``lb_gate=True``
    adds a third measurement per backend with the lower-bound lane gate on
    (``<label>[lb]``, carrying ``speedup_vs_pruned`` and the gate counters)
    under the same bit-identity assertions.
    """
    if backend_specs is None:
        backend_specs = [("numpy", "numpy", None)]
    config = SDTWConfig.hardware()
    if round_chunks is None:
        rng = np.random.default_rng(20211025)
        round_chunks = _chunk_rounds(rng, n_channels, rounds, chunk)
    total_samples = sum(c.size for chunks in round_chunks for c in chunks)
    dp_cells = total_samples * reference.size

    scalar_s, states = _measure_scalar(round_chunks, reference, config)

    threshold = None
    lifetime = None
    if prune_on_target is not None:
        costs = np.array([states[ch].cost for ch in range(n_channels)], dtype=np.float64)
        on, off = costs[prune_on_target], costs[~prune_on_target]
        assert on.max() < off.min(), "pruning workload: cost distributions overlap"
        # threshold_position slides the threshold across the gap between the
        # two cost distributions: 0.5 is the midpoint, small values emulate a
        # tightly calibrated threshold (just above the accepted costs) — the
        # regime where kill bounds bite early and the lane gate pays.
        threshold = float(on.max() + (off.min() - on.max()) * threshold_position)
        per_channel = np.zeros(n_channels, dtype=np.int64)
        for chunks in round_chunks:
            for channel, piece in enumerate(chunks):
                per_channel[channel] += piece.size
        lifetime = int(per_channel.max())

    backends = {}
    for label, backend, options in backend_specs:
        batch_s, snapshots, engine, tracer = _measure_engine(
            round_chunks, reference, config, backend, options
        )
        try:
            # Same work, bit-identical outcome — whatever executed it.
            for channel, state in states.items():
                assert snapshots[channel].cost == state.cost, (label, channel)
                assert np.array_equal(engine.state_of(channel).row, state.row), (
                    label,
                    channel,
                )
            entry = _backend_entry(
                backend, options, dp_cells, scalar_s, batch_s, engine, tracer
            )
        finally:
            engine.close()
        backends[label] = entry

        if threshold is None:
            continue
        batch_s, snapshots, engine, tracer = _measure_engine(
            round_chunks, reference, config, backend, options,
            prune_threshold=threshold, prune_lifetime=lifetime,
        )
        try:
            # The pruning exactness contract: accept/eject decisions are
            # bit-identical, and every cost at or below the threshold is
            # bit-exact (value and end position). Costs above the bound may
            # be stale in either direction but can never falsely dip below.
            for channel, state in states.items():
                snapshot = snapshots[channel]
                accepted = state.cost <= threshold
                assert (snapshot.cost <= threshold) == accepted, (label, channel)
                if accepted:
                    assert snapshot.cost == state.cost, (label, channel)
                    assert snapshot.end_position == state.end_position, (label, channel)
            pruned_entry = _backend_entry(
                backend, options, dp_cells, scalar_s, batch_s, engine, tracer
            )
        finally:
            engine.close()
        pruned_entry["prune_threshold"] = threshold
        pruned_entry["prune_lifetime_samples"] = lifetime
        pruned_entry["speedup_vs_unpruned"] = entry["seconds"] / pruned_entry["seconds"]
        backends[f"{label}[pruned]"] = pruned_entry

        if not lb_gate:
            continue
        batch_s, snapshots, engine, tracer = _measure_engine(
            round_chunks, reference, config, backend, options,
            prune_threshold=threshold, prune_lifetime=lifetime, lb_cascade=True,
        )
        try:
            # The gate shares the pruning exactness contract: identical
            # decisions, bit-exact accepted costs — lanes it skipped are
            # provably above the bound, clamped costs included.
            for channel, state in states.items():
                snapshot = snapshots[channel]
                accepted = state.cost <= threshold
                assert (snapshot.cost <= threshold) == accepted, (label, channel)
                if accepted:
                    assert snapshot.cost == state.cost, (label, channel)
                    assert snapshot.end_position == state.end_position, (label, channel)
            lb_entry = _backend_entry(
                backend, options, dp_cells, scalar_s, batch_s, engine, tracer
            )
        finally:
            engine.close()
        lb_entry["prune_threshold"] = threshold
        lb_entry["prune_lifetime_samples"] = lifetime
        lb_entry["speedup_vs_unpruned"] = entry["seconds"] / lb_entry["seconds"]
        lb_entry["speedup_vs_pruned"] = (
            pruned_entry["seconds"] / lb_entry["seconds"]
        )
        backends[f"{label}[lb]"] = lb_entry

    first = backends[backend_specs[0][0]]
    report = {
        "channels": n_channels,
        "rounds": rounds,
        "chunk_samples": chunk,
        "reference_samples": int(reference.size),
        "dp_cells": int(dp_cells),
        "scalar_seconds": scalar_s,
        "scalar_cells_per_s": dp_cells / scalar_s,
        "batched_seconds": first["seconds"],
        "batched_cells_per_s": first["nominal_cells_per_s"],
        "speedup": first["speedup_vs_scalar"],
        "backends": backends,
    }
    if threshold is not None:
        report["prune_threshold"] = threshold
        report["on_target_channels"] = int(np.count_nonzero(prune_on_target))
    return report


def _emit(destination=None):
    _REPORTS.setdefault("host", host_block())
    payload = json.dumps(_REPORTS, indent=2, sort_keys=True)
    if destination is None:
        destination = os.environ.get("BATCH_SDTW_JSON", "-")
    if destination and destination != "-":
        with open(destination, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    print_rows(
        "Batched sDTW backends vs per-read scalar loop",
        [
            {
                "workload": name,
                "backend": label,
                "channels": report["channels"],
                "reference": report["reference_samples"],
                "scalar_Mcells_s": report["scalar_cells_per_s"] / 1e6,
                "nominal_Mcells_s": entry["nominal_cells_per_s"] / 1e6,
                "effective_Mcells_s": entry["effective_cells_per_s"] / 1e6,
                "speedup": entry["speedup_vs_scalar"],
                "pruned_%": 100.0 * entry["pruned_fraction"],
                "lb_lanes": entry.get("lanes_lb_skipped", 0),
            }
            for name, report in _REPORTS.items()
            if isinstance(report, dict) and "backends" in report
            for label, entry in report["backends"].items()
        ],
    )


# ------------------------------------------------------------------ pytest
def test_batch_wavefront_throughput_amplicon():
    """Gated workload: short amplicon target, full-flowcell channel count."""
    reference = ReferenceSquiggle.from_genome(random_genome(100, seed=3)).values(quantized=True)
    report = _measure(reference, CHANNELS)
    _REPORTS["amplicon"] = report
    assert report["speedup"] >= MIN_SPEEDUP, (
        f"batched wavefront only {report['speedup']:.2f}x faster than the per-read "
        f"loop at {CHANNELS} channels x {reference.size}-sample reference "
        f"(expected >= {MIN_SPEEDUP}x)"
    )


def test_batch_wavefront_throughput_genome(lambda_reference):
    """Reported workload: lambda-scale reference (memory-bound regime)."""
    reference = lambda_reference.values(quantized=True)
    report = _measure(reference, min(CHANNELS, 64))
    _REPORTS["genome"] = report
    _emit()
    # In the bandwidth-bound regime the win is smaller; batching must still
    # never be slower than the loop it replaces.
    assert report["speedup"] >= 1.0


# ------------------------------------------------------------------ script
def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Measure batched-sDTW execution backends against the "
        "per-read scalar loop and emit per-backend throughput JSON."
    )
    parser.add_argument(
        "--backend",
        action="append",
        choices=available_backends(),
        default=None,
        help="execution backend to measure (repeatable; default: numpy; the "
        "numpy baseline is always included)",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="load a repro.runtime.RunConfig (JSON/YAML): its backend, "
        "workers and tile_columns become the measured backend when no "
        "--backend flags are given, and the serialized config is recorded "
        "under the report's 'run_config' key for reproducibility",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[],
        help="thread counts to stripe the numpy backend's lanes over (one "
        "measurement per value, so scaling is visible in the JSON)",
    )
    parser.add_argument(
        "--channels",
        type=int,
        default=512,
        help="concurrently sequencing channels (default: a full flowcell)",
    )
    parser.add_argument(
        "--genome-bases",
        type=int,
        default=2400,
        help="target genome length; the reference squiggle covers both "
        "strands (default: the lambda-phage-scale bench genome)",
    )
    parser.add_argument(
        "--single-channel-genome-bases",
        type=int,
        default=6000,
        help="genome length for the single-channel workload (0 skips it); "
        "one lane against a reference too long for one core's bandwidth, "
        "where lane striping has nothing to distribute",
    )
    parser.add_argument(
        "--single-channel-rounds",
        type=int,
        default=4,
        help="chunk rounds for the single-channel workload (more rounds = "
        "longer streamed prefix)",
    )
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--chunk-samples", type=int, default=CHUNK_SAMPLES)
    parser.add_argument(
        "--pruned-channels",
        type=int,
        default=128,
        help="channels for the flowcell_pruned workload, which measures "
        "every backend brute-force and with the pruning layer on "
        "(0 skips it)",
    )
    parser.add_argument(
        "--pruned-rounds",
        type=int,
        default=8,
        help="chunk rounds for the flowcell_pruned workload (off-target "
        "lanes freeze after round one, so more rounds mean a larger "
        "pruned fraction — mirroring longer streamed prefixes)",
    )
    parser.add_argument(
        "--on-target-fraction",
        type=float,
        default=0.25,
        help="fraction of flowcell_pruned channels streaming reference-"
        "derived (accepted) reads; the rest stream random signal the "
        "pruning layer abandons early",
    )
    parser.add_argument(
        "--require-pruning",
        action="store_true",
        help="fail unless the pruned entries actually pruned cells "
        "(cells_pruned > 0) — the CI smoke gate for the pruning layer",
    )
    parser.add_argument(
        "--lb-channels",
        type=int,
        default=512,
        help="channels for the flowcell_lb workload, which measures every "
        "backend brute-force, pruned, and pruned with the lower-bound lane "
        "gate on (0 skips it)",
    )
    parser.add_argument(
        "--lb-rounds",
        type=int,
        default=40,
        help="chunk rounds for the flowcell_lb workload (gated lanes skip "
        "dispatch entirely after the gate fires, so more rounds mean a "
        "larger skipped fraction)",
    )
    parser.add_argument(
        "--lb-chunk-samples",
        type=int,
        default=50,
        help="chunk size for the flowcell_lb workload; short chunks mean "
        "frequent decision rounds, the adaptive-sampling regime where "
        "skipping a dead lane's dispatch beats re-scanning its columns",
    )
    parser.add_argument(
        "--lb-on-target-fraction",
        type=float,
        default=0.0078125,
        help="fraction of flowcell_lb channels streaming reference-derived "
        "reads (default one in 128: enrichment targets are rare); "
        "mostly-off-target traffic is the regime the lane gate targets",
    )
    parser.add_argument(
        "--require-lb",
        action="store_true",
        help="fail unless the [lb] entries actually skipped lanes "
        "(lanes_lb_skipped > 0) — the CI smoke gate for the lane gate",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--json",
        default=None,
        help="write the report here ('-' or unset: stdout only; falls back "
        "to BATCH_SDTW_JSON)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless every measured backend beats the scalar loop by "
        "this factor (smoke-gate for CI)",
    )
    args = parser.parse_args(argv)

    run_config = None
    if args.config:
        from repro.runtime import RunConfig

        run_config = RunConfig.from_file(args.config)
        _REPORTS["run_config"] = run_config.to_dict()

    specs = [("numpy", "numpy", None)]
    if args.backend is None and run_config is not None:
        # The config names the backend under measurement; the numpy baseline
        # stays as the comparison row.
        options = run_config.resolved_backend_options()
        if run_config.backend != "numpy":
            specs.append((f"{run_config.backend}[config]", run_config.backend, options))
        elif options:
            specs.append(("numpy[config]", "numpy", options))
    else:
        for workers in args.workers:
            specs.append((f"numpy[workers={workers}]", "numpy", {"workers": workers}))
        for backend in args.backend or ["numpy"]:
            if backend != "numpy":
                # "native" takes no thread count; measure it once.
                specs.append((backend, backend, None))

    reference = ReferenceSquiggle.from_genome(
        random_genome(args.genome_bases, seed=args.seed)
    ).values(quantized=True)
    report = _measure(
        reference, args.channels, specs, rounds=args.rounds, chunk=args.chunk_samples
    )
    _REPORTS["flowcell"] = report

    if args.single_channel_genome_bases:
        # One channel, genome-scale reference: single-core bandwidth-bound.
        # Lane striping cannot help (one lane).
        single_reference = ReferenceSquiggle.from_genome(
            random_genome(args.single_channel_genome_bases, seed=args.seed + 1)
        ).values(quantized=True)
        _REPORTS["genome_single_channel"] = _measure(
            single_reference,
            1,
            specs,
            rounds=args.single_channel_rounds,
            chunk=args.chunk_samples,
        )

    if args.pruned_channels:
        # The pruning workload: mixed on-/off-target traffic, every backend
        # measured brute-force and pruned against the same kill threshold.
        pruned_rng = np.random.default_rng(args.seed + 2)
        pruned_chunks, on_target = _pruned_chunk_rounds(
            pruned_rng,
            reference,
            args.pruned_channels,
            args.pruned_rounds,
            args.chunk_samples,
            on_target_fraction=args.on_target_fraction,
        )
        _REPORTS["flowcell_pruned"] = _measure(
            reference,
            args.pruned_channels,
            specs,
            rounds=args.pruned_rounds,
            chunk=args.chunk_samples,
            round_chunks=pruned_chunks,
            prune_on_target=on_target,
        )

    if args.lb_channels:
        # The lane-gate workload: mostly off-target traffic, every backend
        # measured brute-force, column-pruned, and column-pruned with the
        # lower-bound cascade skipping dead lanes before dispatch.
        lb_rng = np.random.default_rng(args.seed + 3)
        lb_chunks, lb_on_target = _pruned_chunk_rounds(
            lb_rng,
            reference,
            args.lb_channels,
            args.lb_rounds,
            args.lb_chunk_samples,
            on_target_fraction=args.lb_on_target_fraction,
        )
        _REPORTS["flowcell_lb"] = _measure(
            reference,
            args.lb_channels,
            specs,
            rounds=args.lb_rounds,
            chunk=args.lb_chunk_samples,
            round_chunks=lb_chunks,
            prune_on_target=lb_on_target,
            lb_gate=True,
            # Tightly calibrated threshold (just above the accepted reads):
            # off-target lanes blow through their kill bounds within a round
            # or two, which is exactly when skipping their dispatch matters.
            threshold_position=0.02,
        )
    _emit(args.json)

    if args.require_pruning:
        pruned_entries = {
            label: entry
            for measured in _REPORTS.values()
            if isinstance(measured, dict) and "backends" in measured
            for label, entry in measured["backends"].items()
            # [lb] entries may legitimately skip whole lanes before the
            # column-pruning layer sees them; the gate below covers those.
            if "prune_threshold" in entry and not label.endswith("[lb]")
        }
        if not pruned_entries:
            raise SystemExit(
                "--require-pruning: no pruned backend entries were measured "
                "(is --pruned-channels 0?)"
            )
        for label, entry in pruned_entries.items():
            if entry["cells_pruned"] <= 0:
                raise SystemExit(
                    f"--require-pruning: backend {label} advanced every cell "
                    f"(cells_pruned == 0); the pruning layer never engaged"
                )

    if args.require_lb:
        lb_entries = {
            label: entry
            for measured in _REPORTS.values()
            if isinstance(measured, dict) and "backends" in measured
            for label, entry in measured["backends"].items()
            if label.endswith("[lb]")
        }
        if not lb_entries:
            raise SystemExit(
                "--require-lb: no lane-gated backend entries were measured "
                "(is --lb-channels 0?)"
            )
        for label, entry in lb_entries.items():
            if entry["lanes_lb_skipped"] <= 0:
                raise SystemExit(
                    f"--require-lb: backend {label} dispatched every lane "
                    f"(lanes_lb_skipped == 0); the lane gate never fired"
                )

    if args.min_speedup is not None:
        for workload, measured in _REPORTS.items():
            if not (isinstance(measured, dict) and "backends" in measured):
                continue
            slowest = min(
                measured["backends"].items(),
                key=lambda item: item[1]["speedup_vs_scalar"],
            )
            if slowest[1]["speedup_vs_scalar"] < args.min_speedup:
                raise SystemExit(
                    f"{workload}: backend {slowest[0]} only reached "
                    f"{slowest[1]['speedup_vs_scalar']:.2f}x over the scalar loop "
                    f"(expected >= {args.min_speedup}x)"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
