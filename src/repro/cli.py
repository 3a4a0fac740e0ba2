"""Command-line interface for the SquiggleFilter reproduction.

Six subcommands cover the library's main workflows without writing Python:

* ``simulate-specimen`` — synthesize a target + background specimen and save
  the genomes (FASTA) and raw reads (FAST5-like ``.npz``).
* ``build-reference``   — print reference-squiggle statistics for a genome
  (buffer footprint, whether it fits the accelerator).
* ``classify``          — calibrate a SquiggleFilter on a simulated specimen
  and report classification metrics for held-out reads.
* ``runtime-model``     — evaluate the analytical Read Until runtime model at
  a given operating point.
* ``read-until``        — run a chunk-driven Read Until session end to end
  with any registered streaming classifier (``--classifier`` picks one from
  :func:`repro.pipeline.api.available_classifiers`). The run is described by
  a :class:`repro.runtime.RunConfig` — load one with ``--config run.json``
  (``.yaml`` works when PyYAML is installed) and/or override its fields with
  explicit flags (flags win): ``--batch`` switches onto the batched
  wavefront engine, ``--backend`` (choices generated from
  :func:`repro.batch.available_backends`, with ``--workers N`` lane-stripe
  threads for the numpy backend and ``--tile-columns`` for column tiling)
  picks the execution backend, ``--prune`` (with ``--prune-margin``)
  turns on the early-abandoning sDTW pruning layer (decisions stay
  bit-identical), ``--lb-cascade`` (with ``--lb-level``) adds the
  lower-bound lane gate on top of it, and ``--target-panel N`` screens N
  synthesized viral targets at once through one
  :class:`~repro.core.panel.TargetPanel`, reporting per-target accept
  counts. The squigglefilter-family session itself is driven through
  :func:`repro.runtime.open_session` — the same code path the examples and
  benchmarks use.
* ``config-dump``       — print the fully resolved :class:`RunConfig`
  (file + flag overlay) as JSON, the reproducibility record of a run.
  ``--resolve`` additionally runs the tuner when the config says
  ``backend: "auto"``, so the printed JSON pins the tuned backend — ready
  to commit as a reproducible run config.
* ``tune``              — run the :mod:`repro.tune` calibration probes for
  a workload shape (config file and/or flags), print the probe table and
  the chosen point, and warm the persistent tuning cache so later
  ``backend="auto"`` runs resolve instantly.
* ``serve``             — run the multi-tenant classification service
  (:mod:`repro.serve`): tenants create sessions over HTTP (each a named
  ``RunConfig``, optionally overlaid on ``--config`` as the server's
  default template), rounds multiplex over a shared bounded backend pool
  with 429/Retry-After backpressure, ``/health`` + Prometheus ``/metrics``
  are exposed, and SIGTERM drains gracefully.
* ``trace``             — inspect a Chrome trace-event JSON file written by
  ``read-until --trace out.json`` (or ``RunConfig.trace_path``): validates
  the shape and prints the per-phase self-time table sorted hottest first —
  the terminal-only view for hosts without a browser (load the same file in
  https://ui.perfetto.dev or ``chrome://tracing`` for the timeline).

The CLI is intentionally thin: it parses arguments, calls the same public API
the examples use, and prints human-readable reports via
:mod:`repro.analysis.report`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.metrics import confusion_from_labels
from repro.analysis.report import format_table
from repro.core.filter import MultiStageSquiggleFilter, SquiggleFilter
from repro.core.panel import TargetPanel
from repro.core.reference import ReferenceSquiggle
from repro.core.thresholds import choose_threshold
from repro.genomes.sequences import random_genome
from repro.io.fast5 import Fast5Read, Fast5Store
from repro.io.fasta import FastaRecord, read_fasta, write_fasta
from repro.batch import available_backends
from repro.pipeline.api import available_classifiers, build_pipeline, create_classifier
from repro.pipeline.runtime_model import ReadUntilModelConfig, sequencing_runtime_s
from repro.pore_model.kmer_model import KmerModel
from repro.runtime import RunConfig, load_config_mapping, open_session
from repro.sequencer.reads import ReadGenerator, ReadLengthModel, SpecimenMixture


def _add_run_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The RunConfig-shaped flags shared by ``read-until`` and ``config-dump``.

    Every flag defaults to ``None`` ("not given") so resolution order is
    explicit flag > config file > built-in default — what
    :func:`_resolve_run_config` implements.
    """
    parser.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="load a RunConfig from this JSON (or, with PyYAML installed, "
        "YAML) file; explicit flags override the file's values",
    )
    parser.add_argument(
        "--batch",
        dest="batch",
        action="store_true",
        default=None,
        help="drive the session through the batched wavefront engine: one "
        "vectorized sDTW advance across all undecided channels per chunk "
        "round (squigglefilter classifier only)",
    )
    parser.add_argument(
        "--no-batch",
        dest="batch",
        action="store_false",
        help="force the per-read scalar classification path even for a "
        "batch-capable classifier (default: auto)",
    )
    parser.add_argument(
        "--n-channels",
        type=int,
        default=None,
        help="concurrently sequencing channels to simulate (batching pays "
        "off as this grows; default: 1)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", *available_backends()),
        default=None,
        help="execution backend for the batched wavefront engine (choices "
        "come straight from the backend registry, plus 'auto' to let the "
        "repro.tune probes pick the backend/workers/tile point for this "
        "host and workload shape): 'numpy' advances all "
        "lanes in-process (striped over --workers threads when given), "
        "'native' runs the compiled scalar kernel "
        "(implies the batch classifier; decisions are identical whichever "
        "backend runs)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="threads the numpy backend stripes each round's lanes over "
        "(default: serial; decisions are identical either way)",
    )
    parser.add_argument(
        "--tile-columns",
        type=int,
        default=None,
        help="column tile width for the wavefront (cache-sized advance; "
        "each lane stripe tiles on its own; exact results either way)",
    )
    parser.add_argument(
        "--prune",
        dest="prune",
        action="store_true",
        default=None,
        help="enable the sDTW pruning layer (per-lane early abandoning + "
        "active-column intervals); accept/eject decisions stay "
        "bit-identical to brute force on every backend while only "
        "still-viable column spans advance (implies the batch classifier)",
    )
    parser.add_argument(
        "--prune-margin",
        dest="prune_margin",
        type=float,
        default=None,
        metavar="COST",
        help="widen the pruning exactness window: every reported cost "
        "within this margin of the eject threshold stays bit-exact "
        "(default: 0, the decisions-only guarantee)",
    )
    parser.add_argument(
        "--lb-cascade",
        dest="lb_cascade",
        action="store_true",
        default=None,
        help="enable the lower-bound lane gate on top of --prune (requires "
        "it): cascading LB_Kim/LB_Keogh-style bounds let whole lanes skip "
        "their wavefront advance before dispatch once no continuation "
        "could decide differently (decisions stay bit-identical)",
    )
    parser.add_argument(
        "--lb-level",
        dest="lb_level",
        type=int,
        choices=(1, 2),
        default=None,
        help="deepest lower-bound cascade rung: 1 = the O(1) extrema bound "
        "only, 2 = additionally the O(chunk) per-target envelope bound "
        "(default: 2)",
    )
    parser.add_argument(
        "--prefix-samples",
        type=int,
        default=None,
        help="signal prefix examined before the decision (default: 1000)",
    )
    parser.add_argument("--chunk-samples", type=int, default=None)
    parser.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        metavar="PATH",
        help="record session/engine/backend spans (repro.obs) and write a "
        "Chrome trace-event / Perfetto JSON file here when the session "
        "closes; inspect it with `repro trace PATH` or load it in "
        "https://ui.perfetto.dev (decisions are identical traced or not)",
    )


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """Resolve the run configuration: flag > config file > CLI default."""
    data: Dict[str, Any] = dict(load_config_mapping(args.config)) if args.config else {}
    overrides = {
        "backend": args.backend,
        "workers": args.workers,
        "tile_columns": args.tile_columns,
        "batch": args.batch,
        "n_channels": args.n_channels,
        "prefix_samples": args.prefix_samples,
        "chunk_samples": args.chunk_samples,
        "trace_path": args.trace_path,
        "prune": args.prune,
        "prune_margin": args.prune_margin,
        "lb_cascade": args.lb_cascade,
        "lb_level": args.lb_level,
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    data.setdefault("prefix_samples", 1000)
    return RunConfig.from_dict(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squigglefilter-repro",
        description="SquiggleFilter reproduction command-line tools",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate-specimen", help="synthesize genomes and raw reads for a specimen"
    )
    simulate.add_argument("--target-length", type=int, default=3000)
    simulate.add_argument("--background-length", type=int, default=20000)
    simulate.add_argument("--viral-fraction", type=float, default=0.01)
    simulate.add_argument("--n-reads", type=int, default=50)
    simulate.add_argument("--mean-read-bases", type=int, default=400)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--fasta-out", default=None, help="write genomes to this FASTA file")
    simulate.add_argument("--reads-out", default=None, help="write raw reads to this .npz store")

    reference = subparsers.add_parser(
        "build-reference", help="report reference-squiggle statistics for a genome"
    )
    reference.add_argument("--fasta", default=None, help="FASTA file with the target genome")
    reference.add_argument("--length", type=int, default=30000, help="synthesize a genome instead")
    reference.add_argument("--seed", type=int, default=1)
    reference.add_argument("--single-strand", action="store_true")

    classify = subparsers.add_parser(
        "classify", help="calibrate a filter on a simulated specimen and report accuracy"
    )
    classify.add_argument("--target-length", type=int, default=2400)
    classify.add_argument("--background-length", type=int, default=16000)
    classify.add_argument("--reads-per-class", type=int, default=20)
    classify.add_argument("--prefix-samples", type=int, default=1000)
    classify.add_argument("--seed", type=int, default=11)

    read_until = subparsers.add_parser(
        "read-until",
        help="stream a simulated specimen through the chunk-driven Read Until pipeline",
    )
    read_until.add_argument(
        "--classifier",
        choices=available_classifiers(),
        default="squigglefilter",
        help="registered streaming classifier to drive the session with",
    )
    _add_run_config_arguments(read_until)
    read_until.add_argument(
        "--target-panel",
        type=int,
        default=None,
        metavar="N",
        help="screen N synthesized viral targets at once through one "
        "TargetPanel (lengths staggered around --target-length); the "
        "session classifies every read against all members in one "
        "wavefront and reports per-target accepts (squigglefilter "
        "family only; implies the batch classifier)",
    )
    read_until.add_argument("--target-length", type=int, default=2400)
    read_until.add_argument("--background-length", type=int, default=16000)
    read_until.add_argument("--viral-fraction", type=float, default=0.05)
    read_until.add_argument("--n-reads", type=int, default=60)
    read_until.add_argument("--calibration-reads-per-class", type=int, default=15)
    read_until.add_argument(
        "--stage-prefixes",
        type=int,
        nargs="+",
        default=[500, 1000],
        help="stage decision points in samples (multistage classifier only)",
    )
    read_until.add_argument("--seed", type=int, default=17)

    config_dump = subparsers.add_parser(
        "config-dump",
        help="print the resolved RunConfig (config file + flag overrides) as "
        "JSON — the reproducibility record of a read-until invocation",
    )
    _add_run_config_arguments(config_dump)
    config_dump.add_argument(
        "--resolve",
        action="store_true",
        help="with backend 'auto', run the repro.tune probes (or hit the "
        "tuning cache) and print the config with the tuned "
        "backend/workers/tile_columns pinned — ready to commit",
    )

    tune = subparsers.add_parser(
        "tune",
        help="run the repro.tune calibration probes for a workload shape, "
        "print the probe table and chosen point, and warm the persistent "
        "tuning cache (backend='auto' runs then resolve instantly)",
    )
    _add_run_config_arguments(tune)
    tune.add_argument(
        "--target-length",
        type=int,
        default=2400,
        help="bases of the synthesized target genome when the config names "
        "no genome/targets (sizes the probed reference; default: 2400)",
    )
    tune.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="probe wall-clock budget (overrides the config's tune_budget_s; "
        "the first probe always completes)",
    )
    tune.add_argument(
        "--ignore-cache",
        action="store_true",
        help="probe even when the cache already holds a decision for this "
        "(host, shape) key; the fresh verdict still overwrites the entry",
    )
    tune.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete the persistent tuning cache file and exit",
    )
    tune.add_argument("--seed", type=int, default=17)

    serve = subparsers.add_parser(
        "serve",
        help="run the multi-tenant async classification service "
        "(repro.serve): HTTP sessions over a shared bounded backend pool "
        "with /health, Prometheus /metrics and graceful draining",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8093)
    serve.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="RunConfig file used as the default session template; tenant "
        "configs overlay it field by field (validated at startup)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=2,
        help="execution slots in the shared backend pool: at most this many "
        "classification rounds advance at once (default: 2)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="rounds allowed to wait for a slot before the service sheds "
        "load with 429 + Retry-After (default: 32)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=256,
        help="open-session admission limit (default: 256)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="validate a Chrome trace-event JSON file (written by "
        "`read-until --trace` or RunConfig.trace_path) and print the "
        "per-phase self-time table, hottest phase first",
    )
    trace.add_argument("trace_file", metavar="FILE", help="trace JSON file to inspect")
    trace.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show only the N hottest phases (default: all)",
    )

    runtime = subparsers.add_parser(
        "runtime-model", help="evaluate the analytical Read Until runtime model"
    )
    runtime.add_argument("--genome-length", type=int, default=30000)
    runtime.add_argument("--coverage", type=float, default=30.0)
    runtime.add_argument("--viral-fraction", type=float, default=0.01)
    runtime.add_argument("--recall", type=float, default=0.95)
    runtime.add_argument("--false-positive-rate", type=float, default=0.02)
    runtime.add_argument("--decision-latency-ms", type=float, default=0.043)
    runtime.add_argument("--mean-target-read-bases", type=float, default=4000.0)
    runtime.add_argument("--mean-background-read-bases", type=float, default=8000.0)
    return parser


# ------------------------------------------------------------------ commands
def _command_simulate(args: argparse.Namespace) -> int:
    kmer_model = KmerModel()
    target = random_genome(args.target_length, seed=args.seed)
    background = random_genome(args.background_length, seed=args.seed + 1)
    mixture = SpecimenMixture.two_component(
        "target", target, "background", background, args.viral_fraction
    )
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(mean_bases=args.mean_read_bases),
        seed=args.seed + 2,
    )
    reads = generator.generate(args.n_reads)
    n_target = sum(1 for read in reads if read.is_target)
    print(
        f"simulated {len(reads)} reads ({n_target} target, {len(reads) - n_target} background) "
        f"from a {args.viral_fraction:.2%} specimen"
    )
    if args.fasta_out:
        write_fasta(
            args.fasta_out,
            [
                FastaRecord(name="target", sequence=target),
                FastaRecord(name="background", sequence=background),
            ],
        )
        print(f"wrote genomes to {args.fasta_out}")
    if args.reads_out:
        store = Fast5Store()
        for read in reads:
            store.add(
                Fast5Read.from_picoamps(
                    read.read_id,
                    read.signal_pa,
                    channel=read.channel,
                    metadata={"source": read.source, "is_target": str(read.is_target)},
                )
            )
        store.save(args.reads_out)
        print(f"wrote {len(store)} raw reads to {args.reads_out}")
    return 0


def _command_build_reference(args: argparse.Namespace) -> int:
    if args.fasta:
        records = read_fasta(args.fasta)
        if not records:
            print("FASTA file contains no records", file=sys.stderr)
            return 1
        genome = records[0].sequence
        name = records[0].name
    else:
        genome = random_genome(args.length, seed=args.seed)
        name = f"synthetic_{args.length}bp"
    reference = ReferenceSquiggle.from_genome(
        genome, include_reverse_complement=not args.single_strand
    )
    rows = [
        {"property": "genome", "value": name},
        {"property": "genome_length_bases", "value": len(genome)},
        {"property": "reference_positions", "value": reference.n_positions},
        {"property": "buffer_kb", "value": reference.buffer_bytes() / 1024},
        {"property": "fits_100kb_buffer", "value": reference.fits_buffer()},
        {"property": "strands", "value": 1 if args.single_strand else 2},
    ]
    print(format_table(rows))
    return 0


def _command_classify(args: argparse.Namespace) -> int:
    kmer_model = KmerModel()
    target = random_genome(args.target_length, seed=args.seed)
    background = random_genome(args.background_length, seed=args.seed + 1)
    mixture = SpecimenMixture.two_component("target", target, "background", background, 0.5)
    generator = ReadGenerator(mixture, kmer_model=kmer_model, seed=args.seed + 2)
    calibration = generator.generate_balanced(args.reads_per_class)
    evaluation = generator.generate_balanced(args.reads_per_class)

    reference = ReferenceSquiggle.from_genome(target, kmer_model=kmer_model)
    squiggle_filter = SquiggleFilter(reference, prefix_samples=args.prefix_samples)
    threshold = squiggle_filter.calibrate(
        [read.signal_pa for read in calibration if read.is_target],
        [read.signal_pa for read in calibration if not read.is_target],
    )
    predictions = [squiggle_filter.classify(read.signal_pa).accept for read in evaluation]
    confusion = confusion_from_labels([read.is_target for read in evaluation], predictions)
    rows = [
        {"metric": "threshold", "value": threshold},
        {"metric": "recall", "value": confusion.recall},
        {"metric": "precision", "value": confusion.precision},
        {"metric": "f1", "value": confusion.f1},
        {"metric": "false_positive_rate", "value": confusion.false_positive_rate},
        {"metric": "evaluated_reads", "value": confusion.total},
    ]
    print(format_table(rows))
    return 0


def _command_read_until(args: argparse.Namespace) -> int:
    # Workers-vs-backend (and every other cross-field) validation lives in
    # RunConfig so a config file naming the backend satisfies it too.
    try:
        run_config = _resolve_run_config(args)
    except (ValueError, RuntimeError, OSError) as error:
        print(f"invalid run configuration: {error}", file=sys.stderr)
        return 2

    kmer_model = KmerModel()
    background = random_genome(args.background_length, seed=args.seed + 1)
    panel_genomes = dict(run_config.targets) if run_config.targets is not None else None
    if args.target_panel:
        if args.target_panel < 2:
            print("--target-panel needs at least 2 targets", file=sys.stderr)
            return 2
        # Staggered lengths exercise ragged panel members deliberately.
        factors = (1.0, 0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 0.9)
        panel_genomes = {
            f"virus{index + 1}": random_genome(
                max(300, int(args.target_length * factors[index % len(factors)])),
                seed=args.seed + 101 * (index + 1),
            )
            for index in range(args.target_panel)
        }
    if panel_genomes is not None:
        per_member = args.viral_fraction / len(panel_genomes)
        mixture = SpecimenMixture(
            genomes={**panel_genomes, "background": background},
            fractions={
                **{name: per_member for name in panel_genomes},
                "background": 1.0 - args.viral_fraction,
            },
            target_names=tuple(panel_genomes),
        )
        target = next(iter(panel_genomes.values()))
    else:
        # A config file naming a genome pins the target; otherwise synthesize.
        target = (
            run_config.genome
            if run_config.genome is not None
            else random_genome(args.target_length, seed=args.seed)
        )
        mixture = SpecimenMixture.two_component(
            "target", target, "background", background, args.viral_fraction
        )
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(mean_bases=500, sigma=0.2, min_bases=350, max_bases=900),
        seed=args.seed + 2,
    )
    calibration = generator.generate_balanced(args.calibration_reads_per_class)
    target_signals = [read.signal_pa for read in calibration if read.is_target]
    background_signals = [read.signal_pa for read in calibration if not read.is_target]

    classifier_name = args.classifier
    squigglefilter_family = ("squigglefilter", "batch_squigglefilter")
    for flag, given in (
        ("--batch", args.batch),
        ("--backend", args.backend),
        ("--target-panel", args.target_panel),
        ("--config", args.config),
        ("--trace", args.trace_path),
        ("--prune", args.prune),
        ("--prune-margin", args.prune_margin),
        ("--lb-cascade", args.lb_cascade),
        ("--lb-level", args.lb_level),
    ):
        if given and args.classifier not in squigglefilter_family:
            print(
                f"{flag} requires the squigglefilter classifier "
                f"(got {args.classifier!r})",
                file=sys.stderr,
            )
            return 2
    use_batch_classifier = args.classifier == "batch_squigglefilter" or (
        args.classifier == "squigglefilter"
        and (
            run_config.batch is True
            or args.backend is not None
            or args.config is not None
            or panel_genomes is not None
            or run_config.tracing_enabled
            or run_config.prune
        )
    )
    reads = generator.generate(args.n_reads)

    if use_batch_classifier:
        # The unified runtime path: one RunConfig describes the session, and
        # open_session owns calibration geometry, lazy backend spawn and
        # teardown. The threshold is calibrated on the same chunk geometry
        # the session will stream at (the classifier normalizes per chunk).
        classifier_name = "batch_squigglefilter"
        if panel_genomes is not None:
            reference = TargetPanel.from_genomes(
                panel_genomes,
                kmer_model=kmer_model,
                include_reverse_complement=run_config.include_reverse_complement,
            )
        else:
            reference = ReferenceSquiggle.from_genome(
                target,
                kmer_model=kmer_model,
                include_reverse_complement=run_config.include_reverse_complement,
            )
        session_config = run_config.with_(genome=None, targets=None, reference=reference)
        with open_session(session_config) as session:
            if session.threshold is None:
                session.calibrate(target_signals, background_signals)
            result = session.run(reads, target_genome=target)
    else:
        if args.classifier == "squigglefilter":
            reference = ReferenceSquiggle.from_genome(
                target,
                kmer_model=kmer_model,
                include_reverse_complement=run_config.include_reverse_complement,
            )
            helper = SquiggleFilter(reference, prefix_samples=run_config.prefix_samples)
            threshold = choose_threshold(
                helper.cost_batch(target_signals, run_config.prefix_samples),
                helper.cost_batch(background_signals, run_config.prefix_samples),
            )
            params = {
                "reference": reference,
                "prefix_samples": run_config.prefix_samples,
                "threshold": threshold,
            }
        elif args.classifier == "multistage":
            reference = ReferenceSquiggle.from_genome(
                target,
                kmer_model=kmer_model,
                include_reverse_complement=run_config.include_reverse_complement,
            )
            calibrated = MultiStageSquiggleFilter.calibrated(
                reference,
                target_signals,
                background_signals,
                prefix_lengths=sorted(args.stage_prefixes),
            )
            params = {"reference": reference, "stages": calibrated.stages}
        else:  # basecall_align
            params = {"prefix_samples": run_config.prefix_samples, "seed": args.seed}

        pipeline = build_pipeline(
            {
                "classifier": {"name": classifier_name, "params": params},
                "target_genome": target,
                "prefix_samples": run_config.prefix_samples,
                "chunk_samples": run_config.chunk_samples,
                "n_channels": run_config.n_channels,
                "batch": run_config.batch,
                "assemble": False,
            }
        )
        try:
            result = pipeline.run(reads)
        finally:
            close = getattr(pipeline.classifier, "close", None)
            if close is not None:
                close()
    rows = [
        {"metric": "classifier", "value": classifier_name},
        {"metric": "reads_processed", "value": result.session.n_reads},
        {"metric": "reads_ejected", "value": result.session.n_ejected},
        {"metric": "recall", "value": result.recall},
        {"metric": "false_positive_rate", "value": result.false_positive_rate},
        {"metric": "decision_latency_ms", "value": result.decision_latency_s * 1e3},
        {"metric": "mean_background_samples", "value": result.session.mean_nontarget_sequenced_samples},
        {"metric": "pore_minutes", "value": result.runtime_s / 60.0},
    ]
    if result.streaming.get("batched"):
        rows.append({"metric": "backend", "value": result.streaming.get("backend", "numpy")})
        rows.append({"metric": "batch_rounds", "value": len(result.streaming["batch_occupancy"])})
        rows.append({"metric": "peak_batch_lanes", "value": result.streaming["peak_batch_lanes"]})
    if panel_genomes is not None:
        accepts = result.streaming.get("per_target_accepts", {})
        for name in panel_genomes:
            rows.append({"metric": f"accepts[{name}]", "value": accepts.get(name, 0)})
    print(format_table(rows))
    if use_batch_classifier and run_config.trace_path is not None:
        print(
            f"wrote trace to {run_config.trace_path} "
            f"(inspect: `repro trace {run_config.trace_path}`, or load in Perfetto)"
        )
    return 0


def _command_config_dump(args: argparse.Namespace) -> int:
    try:
        run_config = _resolve_run_config(args)
    except (ValueError, RuntimeError, OSError) as error:
        print(f"invalid run configuration: {error}", file=sys.stderr)
        return 2
    if args.resolve and run_config.backend == "auto":
        from repro.tune import resolve_auto

        run_config, decision = resolve_auto(run_config)
        print(
            f"resolved backend=auto -> {decision.backend} "
            f"({'tuning cache hit' if decision.cache_hit else f'{decision.n_probes} probes'})",
            file=sys.stderr,
        )
    print(run_config.to_json())
    return 0


def _command_tune(args: argparse.Namespace) -> int:
    from repro.tune import TuningCache, tune_config

    if args.clear_cache:
        cache = TuningCache()
        path = cache.path
        cache.clear()
        print(f"cleared tuning cache at {path}")
        return 0
    try:
        run_config = _resolve_run_config(args)
    except (ValueError, RuntimeError, OSError) as error:
        print(f"invalid run configuration: {error}", file=sys.stderr)
        return 2
    if (
        run_config.genome is None
        and run_config.targets is None
        and run_config.reference is None
    ):
        # No target named: probe against a synthesized genome of the
        # requested scale (the shape, not the sequence, is what tuning sees).
        run_config = run_config.with_(
            genome=random_genome(args.target_length, seed=args.seed)
        )
    changes: Dict[str, Any] = {}
    if args.budget is not None:
        changes["tune_budget_s"] = args.budget
    if args.ignore_cache:
        changes["tune"] = {**dict(run_config.tune or {}), "ignore_cache": True}
    if changes:
        run_config = run_config.with_(**changes)
    outcome = tune_config(run_config)
    decision = outcome.decision
    if decision.cache_hit:
        print(f"tuning cache hit for key {outcome.key}")
    else:
        print(
            f"probed {decision.n_probes} candidate(s) in {decision.probed_s:.3f}s "
            f"(budget {run_config.tune_budget_s:g}s) for key {outcome.key}"
        )
        print(format_table(list(outcome.table())))
    chosen = [
        {"property": "backend", "value": decision.backend},
        {"property": "workers", "value": decision.workers},
        {"property": "tile_columns", "value": decision.tile_columns},
        {"property": "prune", "value": decision.prune},
        {"property": "lb_cascade", "value": decision.lb_cascade},
        {"property": "cache_hit", "value": decision.cache_hit},
        {"property": "cache_path", "value": outcome.cache_path},
    ]
    print(format_table(chosen))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve_forever

    default_config = None
    if args.config:
        try:
            default_config = dict(load_config_mapping(args.config))
            # Validate the template at startup: a bad default should fail
            # here with the field-naming message, not on the first tenant.
            RunConfig.from_dict(default_config)
        except (ValueError, RuntimeError, OSError) as error:
            print(f"invalid run configuration: {error}", file=sys.stderr)
            return 2
    return serve_forever(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        default_config=default_config,
        max_sessions=args.max_sessions,
    )


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        format_phase_table,
        load_trace,
        phase_table,
        stripe_summary,
        validate_trace,
    )

    try:
        document = load_trace(args.trace_file)
        spans = validate_trace(document)
    except (OSError, ValueError) as error:
        print(f"invalid trace file: {error}", file=sys.stderr)
        return 2
    rows = phase_table(document)
    if args.top is not None:
        rows = rows[: max(args.top, 0)]
    tracks = {event["tid"] for event in spans}
    total_self_ms = sum(row["self_us"] for row in phase_table(document)) / 1000.0
    print(
        f"{args.trace_file}: {len(spans)} spans on {len(tracks)} track(s), "
        f"{total_self_ms:.3f} ms total self time"
    )
    print(format_phase_table(rows))
    stripes = stripe_summary(document)
    if stripes is not None:
        print(
            f"striped wavefronts: {stripes['spans']} spans, up to "
            f"{stripes['stripes']} stripes; slowest stripe "
            f"{stripes['slowest_s'] * 1e3:.3f} ms, fastest "
            f"{stripes['fastest_s'] * 1e3:.3f} ms, idle tail "
            f"{stripes['idle_tail_s'] * 1e3:.3f} ms"
        )
    return 0


def _command_runtime(args: argparse.Namespace) -> int:
    config = ReadUntilModelConfig(
        genome_length_bases=args.genome_length,
        coverage=args.coverage,
        viral_fraction=args.viral_fraction,
        mean_target_read_bases=args.mean_target_read_bases,
        mean_background_read_bases=args.mean_background_read_bases,
        decision_latency_s=args.decision_latency_ms / 1e3,
    )
    with_read_until = sequencing_runtime_s(
        config, recall=args.recall, false_positive_rate=args.false_positive_rate
    )
    control = sequencing_runtime_s(config, use_read_until=False)
    rows = [
        {"quantity": "control_runtime_minutes", "value": control / 60.0},
        {"quantity": "read_until_runtime_minutes", "value": with_read_until / 60.0},
        {"quantity": "speedup", "value": control / with_read_until if with_read_until else float("inf")},
        {"quantity": "recall", "value": args.recall},
        {"quantity": "false_positive_rate", "value": args.false_positive_rate},
    ]
    print(format_table(rows))
    return 0


_COMMANDS = {
    "simulate-specimen": _command_simulate,
    "build-reference": _command_build_reference,
    "classify": _command_classify,
    "read-until": _command_read_until,
    "config-dump": _command_config_dump,
    "tune": _command_tune,
    "serve": _command_serve,
    "trace": _command_trace,
    "runtime-model": _command_runtime,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
