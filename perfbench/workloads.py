"""Workload definitions, seeded input generation and the brute-force oracle.

Every input a run feeds the program is derived from ``--seed``: the target
and background genomes, the read stream (synthesized through the pore
model), the calibration reads that fix the ejection threshold, and the
sample of reads the oracle re-checks. The program under test only ever
receives a :class:`~repro.runtime.RunConfig` and
:class:`~repro.sequencer.read_until_api.SignalChunk` rounds.

Why each workload exists (see also ``BENCHMARK.json``):

* ``flowcell_full`` — a full 512-channel flowcell against an amplicon-scale
  target with pruning and the lower-bound lane gate on. Per-lane layers
  (prepare, admit, LB gate, decide) scale with lanes, not columns, and it
  is the only workload where prune/LB see realistic off-target reads. The
  wavefront kernel is still nearly all of its round, so a kernel speed-up
  shows here too.
* ``serve_flowcell`` — closed loop over HTTP to ``repro serve``, two
  tenants of 256 channels each, brute force (the ``RunConfig`` default).
  Latency includes HTTP/JSON and the service's pool, and since pruning and
  the lower-bound gate are off it is the workload on which a change to
  those layers must not move anything.

Pores are recaptured instantly (capture and ejection dead time 0), so every
channel holds a read in every polling round and the offered load is the
flowcell's maximum. Execution fields (backend, workers, tiling) stay at
their ``RunConfig`` defaults, so a change of the default engine is measured.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import SDTWConfig
from repro.core.normalization import SignalNormalizer
from repro.core.sdtw import sdtw_resume
from repro.genomes.sequences import random_genome
from repro.pore_model.kmer_model import KmerModel
from repro.runtime import RunConfig
from repro.sequencer.read_until_api import ReadUntilSimulator
from repro.sequencer.reads import Read, ReadGenerator, ReadLengthModel, SpecimenMixture
from repro.sequencer.run import MinIONParameters

SAMPLE_RATE_HZ = 4000.0
BACKGROUND_BASES = 40_000
# Brute force re-decides, per replay, a seeded sample of the reads (each with
# probability ORACLE_PROBABILITY, at most ORACLE_QUOTA of them), the
# ORACLE_QUOTA decisions nearest the threshold and the accepted reads.
ORACLE_QUOTA = 8
ORACLE_PROBABILITY = 0.25


@dataclass(frozen=True)
class Workload:
    """The shape of one workload; the seed fills in its contents."""

    name: str
    mode: str  # "session" (in-process) or "serve" (over HTTP); both closed loop
    target_bases: int
    n_channels: int
    chunk_samples: int
    prefix_samples: int
    target_fraction: float
    # Reads run about 1.5 decision prefixes (~10 samples per base), so an
    # accepted read holds its channel for a few polls only and the lanes per
    # round stay close to the channel count whatever the seed.
    mean_read_bases: float = 300.0
    prune: bool = False
    lb_cascade: bool = False
    tenants: int = 1
    calibration_reads_per_class: int = 12

    @property
    def chunks_per_decision(self) -> int:
        return math.ceil(self.prefix_samples / self.chunk_samples)


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload(
            name="flowcell_full",
            mode="session",
            target_bases=500,
            n_channels=512,
            chunk_samples=250,
            prefix_samples=2000,
            target_fraction=0.10,
            prune=True,
            lb_cascade=True,
            calibration_reads_per_class=32,
        ),
        Workload(
            name="serve_flowcell",
            mode="serve",
            target_bases=500,
            n_channels=256,
            chunk_samples=250,
            prefix_samples=2000,
            target_fraction=0.10,
            tenants=2,
            calibration_reads_per_class=32,
        ),
    )
}


def _sub_seeds(seed: int, name: str, count: int) -> List[int]:
    """Independent integer seeds for the pieces of one workload's inputs."""
    salt = sum(ord(char) * (index + 1) for index, char in enumerate(name))
    rng = np.random.default_rng([int(seed), salt])
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


# ------------------------------------------------------------------- oracle
class Oracle:
    """Brute-force reference decisions: scalar ``sdtw_resume`` per read.

    Replays a read's decision prefix exactly as the classifier receives it —
    cut at the chunk boundaries, each chunk normalized on its own and
    quantized — through the one-row scalar recurrence, with no batching,
    pruning or lower bounds.
    """

    def __init__(self, config: RunConfig, chunk_samples: int) -> None:
        panel = config.resolve_panel()
        self.hardware: SDTWConfig = config.hardware
        self.reference = panel.values(quantized=self.hardware.quantize)
        self.normalizer = SignalNormalizer(panel.normalization)
        self.prefix_samples = config.prefix_samples
        self.chunk_samples = chunk_samples

    def cost(self, signal: np.ndarray) -> float:
        """Alignment cost of a read's decision prefix."""
        prefix = np.asarray(signal, dtype=np.float64)[: self.prefix_samples]
        state = None
        for start in range(0, prefix.size, self.chunk_samples):
            piece = self.normalizer.normalize(prefix[start : start + self.chunk_samples])
            if self.hardware.quantize:
                piece = self.normalizer.quantize(piece)
            state = sdtw_resume(piece, self.reference, self.hardware, state=state)
        return state.cost

    def mismatch(self, signal: np.ndarray, kind: str, cost: float,
                 threshold: float, margin: float) -> Optional[str]:
        """Why a decision disagrees with brute force, or ``None``.

        The kind must always match; the cost must match bit for bit whenever
        the brute-force cost is within the exactness window
        ``threshold + margin`` (pruned layers may report any cost above it).
        """
        expected_cost = self.cost(signal)
        expected_kind = "accept" if expected_cost <= threshold else "eject"
        if kind != expected_kind:
            return f"kind {kind} != {expected_kind} (oracle cost {expected_cost})"
        if expected_cost <= threshold + margin and cost != expected_cost:
            return f"cost {cost} != oracle cost {expected_cost}"
        return None


def best_f1_threshold(target_costs: Sequence[float], nontarget_costs: Sequence[float],
                      target_fraction: float) -> float:
    """The threshold that maximizes expected F1 at the workload's prevalence.

    Each class's calibration costs are summarized by a normal fit, and the
    expected F1 of a mixture with ``target_fraction`` targets is maximized
    over a grid spanning both classes. A smooth fit uses every calibration
    read, so a handful of reads near the class boundary cannot swing the
    threshold the way an empirical cut would. Computed here, not by the
    program, so a change to the program's threshold helpers cannot move
    the workload.
    """
    targets = np.asarray(target_costs, dtype=np.float64)
    nontargets = np.asarray(nontarget_costs, dtype=np.float64)
    floor = 1.0  # costs are integers on the quantized data path
    mean_t, std_t = targets.mean(), max(targets.std(), floor)
    mean_n, std_n = nontargets.mean(), max(nontargets.std(), floor)
    grid = np.linspace(min(targets.min(), nontargets.min()),
                       max(targets.max(), nontargets.max()), 2001)
    normal_cdf = np.vectorize(lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
    recall = normal_cdf((grid - mean_t) / std_t)
    false_rate = normal_cdf((grid - mean_n) / std_n)
    true_pos = target_fraction * recall
    f1 = 2 * true_pos / (
        2 * true_pos + (1 - target_fraction) * false_rate + target_fraction * (1 - recall)
    )
    return float(np.floor(grid[int(np.argmax(f1))]))


# ------------------------------------------------------------------- inputs
@dataclass
class Inputs:
    """Everything one run of a workload needs, generated from the seed."""

    spec: Workload
    config: RunConfig
    mixture: SpecimenMixture
    kmer_model: KmerModel
    read_seeds: List[int]
    oracle: Oracle
    generate_s: float

    def tenant_config(self, index: int) -> RunConfig:
        if self.spec.tenants == 1:
            return self.config
        return self.config.with_(label=f"tenant{index}")

    def supply(self, tenant: int = 0) -> "ReadSupply":
        return ReadSupply(self, tenant)

    def simulator(self, supply: "ReadSupply") -> ReadUntilSimulator:
        spec = self.spec
        return ReadUntilSimulator(
            supply,
            parameters=MinIONParameters(
                sample_rate_hz=SAMPLE_RATE_HZ, capture_time_s=0.0, ejection_time_s=0.0
            ),
            chunk_samples=spec.chunk_samples,
            n_channels=spec.n_channels,
            # The simulator's default (8) silently stops streaming before
            # the decision prefix whenever prefix > 8 x chunk; set it to
            # exactly the chunks a decision needs, so a read that is not
            # decided by then surfaces as an undecided read.
            max_chunks_per_read=spec.chunks_per_decision,
        )


def _length_model(spec: Workload) -> ReadLengthModel:
    return ReadLengthModel(
        mean_bases=spec.mean_read_bases,
        sigma=0.25,
        min_bases=int(0.4 * spec.mean_read_bases),
        max_bases=int(2 * spec.mean_read_bases),
    )


def build_inputs(spec: Workload, seed: int) -> Inputs:
    """Genomes, threshold and read-stream seeds for one run (untimed)."""
    start = time.perf_counter()
    seeds = _sub_seeds(seed, spec.name, 3 + spec.tenants)
    kmer_model = KmerModel()
    target = random_genome(spec.target_bases, seed=seeds[0])
    background = random_genome(BACKGROUND_BASES, seed=seeds[1])
    mixture = SpecimenMixture.two_component(
        "target", target, "background", background, spec.target_fraction
    )
    base = RunConfig(
        genome=target,
        threshold=0.0,
        prefix_samples=spec.prefix_samples,
        chunk_samples=spec.chunk_samples,
        n_channels=spec.n_channels,
        prune=spec.prune,
        lb_cascade=spec.lb_cascade,
    )
    oracle = Oracle(base, spec.chunk_samples)
    calibration = ReadGenerator(
        mixture, kmer_model=kmer_model, length_model=_length_model(spec), seed=seeds[2]
    ).generate_balanced(spec.calibration_reads_per_class)
    costs = {True: [], False: []}
    for read in calibration:
        costs[read.is_target].append(oracle.cost(read.signal_pa))
    threshold = best_f1_threshold(costs[True], costs[False], spec.target_fraction)
    config = base.with_(threshold=threshold)
    return Inputs(
        spec=spec,
        config=config,
        mixture=mixture,
        kmer_model=kmer_model,
        read_seeds=seeds[3:],
        oracle=oracle,
        generate_s=time.perf_counter() - start,
    )


class ReadSupply:
    """Endless seeded read stream for one simulator, synthesized lazily.

    Reads are synthesized in batches when the simulator asks for more;
    ``generate_s`` accumulates that time so the measurement can exclude it
    (inputs are generated untimed). Two supplies of the same inputs and
    tenant yield identical reads, so the oracle re-synthesizes the reads it
    checks instead of the run holding on to their signal.
    """

    batch = 64

    def __init__(self, inputs: Inputs, tenant: int) -> None:
        self.inputs = inputs
        self.tenant = tenant
        self._generator = ReadGenerator(
            inputs.mixture,
            kmer_model=inputs.kmer_model,
            length_model=_length_model(inputs.spec),
            seed=inputs.read_seeds[tenant],
        )
        self._sample_rng = np.random.default_rng(inputs.read_seeds[tenant] + 1)
        self.id_prefix = f"t{tenant}-" if inputs.spec.tenants > 1 else ""
        self.generate_s = 0.0
        self.labels: Dict[str, bool] = {}  # read id -> is a target read
        self.sampled: Set[str] = set()  # the seeded oracle sample
        self._ready: Deque[Read] = deque()

    def __iter__(self) -> Iterator[Read]:
        return self._stream()

    def _synthesize(self, n_reads: int) -> List[Read]:
        start = time.perf_counter()
        reads = self._generator.generate(n_reads)
        for read in reads:
            read.read_id = self.id_prefix + read.read_id
            self.labels[read.read_id] = read.is_target
            if self._sample_rng.random() < ORACLE_PROBABILITY:
                self.sampled.add(read.read_id)
        self.generate_s += time.perf_counter() - start
        return reads

    def _stream(self) -> Iterator[Read]:
        while True:
            if not self._ready:
                self._ready.extend(self._synthesize(self.batch))
            yield self._ready.popleft()

    def signals(self, read_ids: Set[str]) -> Dict[str, np.ndarray]:
        """The raw signal of the given reads of this stream, re-synthesized."""
        wanted, found = set(read_ids), {}
        replay = iter(ReadSupply(self.inputs, self.tenant))
        for _ in range(len(self.labels)):
            if len(found) == len(wanted):
                break
            read = next(replay)
            if read.read_id in wanted:
                found[read.read_id] = read.signal_pa
        if len(found) < len(wanted):
            raise KeyError(f"reads not in this stream: {sorted(wanted - set(found))}")
        return found


@dataclass
class Tally:
    """Decisions of one replay, scored against labels and the oracle."""

    decisions: Dict[str, Tuple[str, float, int]] = field(default_factory=dict)
    undecided: List[str] = field(default_factory=list)

    def record(self, read_id: str, kind: str, cost: float, samples_used: int) -> None:
        self.decisions[read_id] = (kind, cost, samples_used)

    def settle(self, simulator: ReadUntilSimulator, dropped: Set[str] = frozenset()) -> None:
        """Collect the reads that finished without a terminal decision."""
        self.undecided = [
            entry.read_id
            for entry in simulator.action_log
            if entry.read_id not in self.decisions and entry.read_id not in dropped
        ]

    def f1(self, labels: Mapping[str, bool]) -> float:
        """F1 of accepts against the ground-truth target labels."""
        true_pos = false_pos = false_neg = 0
        for read_id, (kind, _cost, _used) in self.decisions.items():
            is_target = labels[read_id]
            accepted = kind == "accept"
            true_pos += accepted and is_target
            false_pos += accepted and not is_target
            false_neg += (not accepted) and is_target
        denominator = 2 * true_pos + false_pos + false_neg
        return 2 * true_pos / denominator if denominator else 0.0

    def oracle_failures(self, supply: ReadSupply, inputs: Inputs,
                        check_all: bool = False) -> Tuple[int, List[str]]:
        """(reads re-decided, mismatch messages) for this replay.

        Every decision must agree with its own reported cost. Brute force
        then re-decides up to ``ORACLE_QUOTA`` reads of the seeded sample,
        the ``ORACLE_QUOTA`` decisions whose cost lies closest to the
        threshold (where a wrong decision is likeliest) and the accepted
        reads (whose cost must be exact), at most ``4 * ORACLE_QUOTA``.
        """
        threshold, margin = inputs.config.threshold, inputs.config.prune_margin
        failures = [
            f"{read_id}: {kind} with cost {cost} against threshold {threshold}"
            for read_id, (kind, cost, _used) in sorted(self.decisions.items())
            if (kind == "accept") != (cost <= threshold)
        ]
        if check_all:
            selected = set(self.decisions)
        else:
            quota = ORACLE_QUOTA
            by_id = sorted(self.decisions)
            nearest = sorted(by_id, key=lambda r: abs(self.decisions[r][1] - threshold))
            accepted = [r for r in by_id if self.decisions[r][0] == "accept"]
            selected = set([r for r in by_id if r in supply.sampled][:quota])
            selected.update(nearest[:quota], accepted[: 4 * quota])
        signals = supply.signals(selected)
        for read_id in sorted(selected):
            kind, cost, _used = self.decisions[read_id]
            problem = inputs.oracle.mismatch(signals[read_id], kind, cost, threshold, margin)
            if problem is not None:
                failures.append(f"{read_id}: {problem}")
        return len(selected), failures


def score(result: Dict[str, Any], runs: Sequence[Any], inputs: Inputs,
          check_all: bool) -> None:
    """Attempts, failures and oracle checks over finished replays.

    Each run carries ``tally``, ``supply``, ``rounds`` and ``failed_rounds``.
    Attempts are rounds plus reads that finished; failures are failed rounds,
    undecided reads and oracle mismatches.
    """
    attempted = failed = checked = 0
    for run in runs:
        n_checked, mismatches = run.tally.oracle_failures(run.supply, inputs, check_all)
        undecided = run.tally.undecided
        checked += n_checked
        attempted += run.rounds + run.failed_rounds + len(run.tally.decisions) + len(undecided)
        failed += run.failed_rounds + len(undecided) + len(mismatches)
        result["problems"].extend(mismatches)
        result["problems"].extend(f"{read_id}: undecided" for read_id in undecided)
    result.update(attempted=attempted, failed=failed, oracle_checked=checked)


def host_calibration(repeats: int = 3) -> float:
    """Cells/s of a fixed scalar ``sdtw_resume`` probe (host speed figure).

    The same problem in every run on every commit, so figures from hosts
    of different speed or core count can be compared through it.
    """
    rng = np.random.default_rng(12345)
    reference = rng.integers(-127, 128, size=4000)
    query = rng.integers(-127, 128, size=300)
    config = SDTWConfig.hardware()
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        sdtw_resume(query, reference, config)
        timings.append(time.perf_counter() - start)
    return query.size * reference.size / sorted(timings)[len(timings) // 2]
