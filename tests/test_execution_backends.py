"""Tests for the pluggable execution-backend layer (`repro.batch.backends`).

The contract under test: the lane manager (:class:`BatchSDTWEngine`) treats
backends as interchangeable — every cost, row, snapshot and Read Until
decision is bit-identical whether the lane-stacked state advances serially
(``numpy``) or with its lanes sharded into stripes advanced on a thread pool
(``numpy`` with ``workers``), across lane churn, capacity growth and ragged
chunk schedules.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.backends import (
    NumpyBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.batch.classifier import BatchSquiggleClassifier
from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.filter import MultiStageSquiggleFilter, SquiggleFilter
from repro.core.sdtw import sdtw_resume
from repro.hardware.scheduler import TileScheduler
from repro.pipeline.api import build_pipeline
from repro.pipeline.read_until import ReadUntilPipeline
from repro.runtime import RunConfig
from repro.sequencer.reads import ReadGenerator, ReadLengthModel

# (backend name, factory options) pairs every backend-agnostic test runs over:
# serial, lanes striped over two threads, and over three threads that also
# tile the columns.
BACKENDS = [
    ("numpy", None),
    ("numpy", {"workers": 2}),
    ("numpy", {"workers": 3, "tile_columns": 17}),
]

# The flowcell replays below run 400-sample chunks against a ~2400-column
# reference; 17-column tiles would recompute a 400-column halo per tile, so
# the striped-and-tiled row uses a tile width sized for that reference.
FLOWCELL_BACKENDS = [
    ("numpy", None),
    ("numpy", {"workers": 2}),
    ("numpy", {"workers": 3, "tile_columns": 600}),
]

# Configuration classes with distinct execution paths: the int32 fast path,
# a no-bonus integer config, a float config, a fractional bonus.
STRIPED_CONFIGS = [
    SDTWConfig.hardware(),
    SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=True, match_bonus=0.0),
    SDTWConfig(distance="squared", allow_reference_deletions=False, quantize=False, match_bonus=0.0),
    SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=False, match_bonus=2.5, match_bonus_cap=4),
]


def make_engine(reference, config=None, backend="numpy", options=None, **kwargs):
    return BatchSDTWEngine(
        reference, config, backend=backend, backend_options=options, **kwargs
    )


# ------------------------------------------------------------------ registry
class TestBackendRegistry:
    def test_all_backends_registered(self):
        names = available_backends()
        assert "numpy" in names and "native" in names

    def test_create_by_name(self, rng):
        reference = rng.integers(-127, 128, 30)
        backend = create_backend("numpy", reference, SDTWConfig.hardware(), 4)
        assert isinstance(backend, NumpyBackend)
        assert backend.capacity == 4
        assert backend.reference_length == 30

    def test_unknown_backend_rejected_listing_registry(self, rng):
        """An unknown name is a ValueError naming every registered backend."""
        for name in available_backends():
            with pytest.raises(ValueError, match=name):
                create_backend("tpu", rng.integers(-127, 128, 30), SDTWConfig.hardware(), 4)
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_engine(rng.integers(-127, 128, 30), backend="tpu")

    def test_registry_lists_exactly_the_built_in_backends(self):
        assert available_backends() == ("native", "numpy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy")(NumpyBackend)

    def test_engine_borrows_prebuilt_backend(self, rng):
        reference = rng.integers(-127, 128, 30)
        backend = NumpyBackend(reference, SDTWConfig.hardware(), capacity=4)
        engine = make_engine(reference, backend=backend)
        assert engine.backend is backend
        assert engine.backend_name == "numpy"
        assert engine.capacity == 4
        with pytest.raises(ValueError, match="backend_options"):
            make_engine(reference, backend=backend, options={"workers": 2})
        with pytest.raises(ValueError, match="reference"):
            make_engine(rng.integers(-127, 128, 31), backend=backend)

    def test_engine_reports_backend_name(self, rng):
        reference = rng.integers(-127, 128, 30)
        with make_engine(reference, backend="numpy", options={"workers": 2}) as engine:
            assert engine.backend_name == "numpy"
            assert engine.backend.workers == 2


# -------------------------------------------------------------- bit identity
signal_values = st.integers(min_value=-127, max_value=127)
lane_query = st.lists(signal_values, min_size=1, max_size=24).map(lambda v: np.array(v))
lane_queries = st.lists(lane_query, min_size=1, max_size=5)

backend_settings = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_PROPERTY_REFERENCE = np.random.default_rng(20260728).integers(-127, 128, 60)


class TestBackendBitIdentity:
    @backend_settings
    @given(queries=lane_queries, data=st.data())
    def test_sharded_matches_numpy_and_scalar_over_ragged_rounds(self, queries, data):
        """The acceptance property: identical rows/costs/ends serial and
        lane-sharded (striped over threads, with and without column tiling)
        across ragged chunk schedules, including admissions mid-session."""
        n_rounds = data.draw(st.integers(min_value=1, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        schedules = []
        for query in queries:
            cuts = np.sort(rng.integers(0, query.size + 1, size=n_rounds - 1))
            bounds = [0, *cuts.tolist(), query.size]
            schedules.append([query[bounds[i] : bounds[i + 1]] for i in range(n_rounds)])

        config = SDTWConfig.hardware()
        engines = [
            make_engine(_PROPERTY_REFERENCE, config, backend=name, options=options)
            for name, options in BACKENDS
        ]
        try:
            scalar = [None] * len(queries)
            for round_index in range(n_rounds):
                snaps = [
                    engine.step(
                        [
                            (lane, schedules[lane][round_index])
                            for lane in range(len(queries))
                        ]
                    )
                    for engine in engines
                ]
                for lane in range(len(queries)):
                    chunk = schedules[lane][round_index]
                    if chunk.size:
                        scalar[lane] = sdtw_resume(
                            chunk, _PROPERTY_REFERENCE, config, state=scalar[lane]
                        )
                    if scalar[lane] is None:
                        continue
                    for engine, snap in zip(engines, snaps):
                        assert snap[lane].cost == scalar[lane].cost
                        assert snap[lane].end_position == scalar[lane].end_position
            for lane in range(len(queries)):
                rows = [engine.state_of(lane).row for engine in engines]
                assert np.array_equal(rows[0], scalar[lane].row)
                for other in rows[1:]:
                    assert np.array_equal(other, rows[0])
        finally:
            for engine in engines:
                engine.close()

    def test_striped_stress_matches_serial(self, rng):
        """More stripe threads than cores under a short switch interval:
        every round's costs, the resident rows and the merged cell counts
        match the serial backend, so no stripe lost a write."""
        import sys
        import time

        config = SDTWConfig.hardware()
        reference = rng.integers(-127, 128, 300)
        serial = NumpyBackend(reference, config, capacity=64)
        striped = NumpyBackend(reference, config, capacity=64, workers=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 30.0
            for _ in range(30):
                lanes = rng.choice(64, size=int(rng.integers(2, 65)), replace=False)
                queries = [rng.integers(-127, 128, int(rng.integers(0, 20))) for _ in lanes]
                expected_costs, expected_ends = serial.advance(lanes, queries)
                costs, ends = striped.advance(lanes, queries)
                assert np.array_equal(costs, expected_costs)
                assert np.array_equal(ends, expected_ends)
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)
            striped.close()
        every = np.arange(64)
        assert np.array_equal(striped.gather(every).rows, serial.gather(every).rows)
        assert np.array_equal(
            striped.gather(every).samples_processed, serial.gather(every).samples_processed
        )
        assert striped.stats.cells_advanced == serial.stats.cells_advanced

    @pytest.mark.parametrize("config", STRIPED_CONFIGS)
    def test_sharded_matches_scalar_across_configs(self, config, rng):
        reference = (
            rng.integers(-127, 128, 80) if config.quantize else rng.normal(size=80)
        )
        queries = [
            rng.integers(-127, 128, n).astype(np.float64)
            if not config.quantize
            else rng.integers(-127, 128, n)
            for n in (5, 17, 31)
        ]
        with make_engine(
            reference, config, backend="numpy", options={"workers": 2}
        ) as engine:
            scalar = [None] * len(queries)
            for start in range(0, 31, 11):
                items = []
                for lane, query in enumerate(queries):
                    chunk = query[start : start + 11]
                    items.append((lane, chunk))
                    if chunk.size:
                        scalar[lane] = sdtw_resume(chunk, reference, config, state=scalar[lane])
                engine.step(items)
            for lane in range(len(queries)):
                state = engine.state_of(lane)
                assert np.array_equal(state.row, scalar[lane].row)
                assert state.samples_processed == scalar[lane].samples_processed

    def test_filter_classify_batch_backend_parameter(
        self, reference_squiggle, target_signals, nontarget_signals
    ):
        """SquiggleFilter.classify_batch(run_config=...) changes execution only."""
        squiggle_filter = SquiggleFilter(reference_squiggle, prefix_samples=500)
        signals = list(target_signals) + list(nontarget_signals)
        threaded = RunConfig(backend="numpy", workers=2)
        numpy_decisions = squiggle_filter.classify_batch(signals, threshold=1e12)
        threaded_decisions = squiggle_filter.classify_batch(
            signals, threshold=1e12, run_config=threaded
        )
        assert threaded_decisions == numpy_decisions
        assert squiggle_filter.cost_batch(
            signals, run_config=threaded
        ) == squiggle_filter.cost_batch(signals)

    def test_multistage_classify_batch_backend_parameter(
        self, reference_squiggle, target_signals, nontarget_signals
    ):
        multistage = MultiStageSquiggleFilter.calibrated(
            reference_squiggle, target_signals, nontarget_signals, prefix_lengths=(300, 600)
        )
        signals = list(target_signals) + list(nontarget_signals)
        assert multistage.classify_batch(
            signals, run_config=RunConfig(backend="numpy", workers=2)
        ) == multistage.classify_batch(signals)


# ----------------------------------------------------------------- lane churn
class TestLaneChurn:
    @pytest.mark.parametrize("backend,options", BACKENDS)
    def test_recycled_lanes_start_clean_across_grow(self, backend, options, rng):
        """Admit -> retire -> re-admit across a growth boundary: recycled
        lanes must come up zeroed and snapshots must never read stale state."""
        config = SDTWConfig.hardware()
        reference = rng.integers(-127, 128, 40)
        with make_engine(
            reference, config, backend=backend, options=options, initial_capacity=2
        ) as engine:
            first = {key: rng.integers(-127, 128, 12) for key in ("a", "b")}
            engine.step(list(first.items()))
            survivor = sdtw_resume(first["b"], reference, config)

            engine.retire("a")
            # Forces _grow(): "b" occupies one lane, "c" recycles a's lane,
            # "d" and "e" exceed the original capacity of 2.
            fresh = {key: rng.integers(-127, 128, 9) for key in ("c", "d", "e")}
            for key in fresh:
                engine.admit(key)
            assert engine.capacity > 2
            # Freshly admitted lanes show zero progress before any samples —
            # a stale read of a's old lane would show 12 samples.
            for key in fresh:
                assert engine.samples_processed(key) == 0
                assert engine.snapshot(key).cost == 0.0
                assert not engine.state_of(key).row.any()

            snaps = engine.step(list(fresh.items()))
            for key, query in fresh.items():
                expected = sdtw_resume(query, reference, config)
                assert snaps[key].cost == expected.cost
                assert snaps[key].samples_processed == expected.samples_processed
                assert np.array_equal(engine.state_of(key).row, expected.row)
            # The survivor's state crossed the growth boundary untouched.
            assert np.array_equal(engine.state_of("b").row, survivor.row)
            assert engine.samples_processed("b") == survivor.samples_processed

    @pytest.mark.parametrize("backend,options", BACKENDS)
    def test_retire_readmit_same_key_resets_progress(self, backend, options, rng):
        config = SDTWConfig.hardware()
        reference = rng.integers(-127, 128, 30)
        with make_engine(
            reference, config, backend=backend, options=options, initial_capacity=1
        ) as engine:
            engine.step([("read", rng.integers(-127, 128, 10))])
            before = engine.snapshot("read")
            assert before.samples_processed == 10
            engine.retire("read")
            engine.admit("read")
            assert engine.samples_processed("read") == 0
            replay = rng.integers(-127, 128, 6)
            snap = engine.step([("read", replay)])["read"]
            expected = sdtw_resume(replay, reference, config)
            assert snap.cost == expected.cost
            assert snap.samples_processed == 6


# ---------------------------------------------------------------- idle rounds
class TestIdleRounds:
    def test_idle_polls_are_counted_but_not_recorded(self, rng):
        engine = make_engine(rng.integers(-127, 128, 20))
        engine.step([("a", rng.integers(-127, 128, 5)), ("b", rng.integers(-127, 128, 3))])
        engine.step([])
        engine.step([("a", rng.integers(-127, 128, 2))])
        engine.step([])
        assert engine.n_polls == 4
        assert [entry.index for entry in engine.rounds] == [0, 2]
        assert [entry.n_lanes for entry in engine.rounds] == [2, 1]
        # The dense trace keeps the idle polls as zeros for timing...
        assert engine.occupancy_trace == [2, 0, 1, 0]
        assert engine.peak_occupancy == 2
        # ...but occupancy statistics are computed over busy rounds only.
        assert engine.mean_occupancy == pytest.approx(1.5)

    def test_all_idle_engine(self, rng):
        engine = make_engine(rng.integers(-127, 128, 20))
        engine.step([])
        engine.step([])
        assert engine.rounds == []
        assert engine.occupancy_trace == [0, 0]
        assert engine.mean_occupancy == 0.0
        assert engine.peak_occupancy == 0

    def test_simulate_engine_rounds_matches_dense_trace(self, rng):
        engine = make_engine(rng.integers(-127, 128, 20))
        keys = [f"r{i}" for i in range(5)]
        engine.step([(k, rng.integers(-127, 128, 4)) for k in keys])
        engine.step([])
        engine.step([(k, rng.integers(-127, 128, 4)) for k in keys[:3]])
        engine.step([])
        scheduler = TileScheduler(n_tiles=2, classification_latency_s=1e-3)
        dense = scheduler.simulate_batch_trace(engine.occupancy_trace, 0.5)
        sparse = scheduler.simulate_engine_rounds(engine.rounds, 0.5, n_polls=engine.n_polls)
        assert sparse.n_requests == dense.n_requests == 8
        assert sparse.simulated_seconds == dense.simulated_seconds
        assert sparse.waiting_times_s == dense.waiting_times_s
        assert np.array_equal(sparse.tile_busy_seconds, dense.tile_busy_seconds)

    def test_simulate_engine_rounds_validation(self):
        scheduler = TileScheduler(n_tiles=1)
        rounds = [type("R", (), {"index": 0, "n_lanes": 2})()]
        with pytest.raises(ValueError, match="round_duration_s"):
            scheduler.simulate_engine_rounds(rounds, 0.0)
        with pytest.raises(ValueError, match="n_polls"):
            scheduler.simulate_engine_rounds(rounds, 0.5, n_polls=0)
        bad = [
            type("R", (), {"index": 1, "n_lanes": 1})(),
            type("R", (), {"index": 1, "n_lanes": 1})(),
        ]
        with pytest.raises(ValueError, match="strictly increasing"):
            scheduler.simulate_engine_rounds(bad, 0.5)
        empty = scheduler.simulate_engine_rounds([], 0.5)
        assert empty.n_requests == 0


# ------------------------------------------------------------------ lifecycle
class TestBackendLifecycle:
    def test_close_is_idempotent_and_final(self, rng):
        reference = rng.integers(-127, 128, 30)
        engine = make_engine(reference, backend="numpy", options={"workers": 2})
        engine.step([("a", rng.integers(-127, 128, 5))])
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError, match="shutdown"):
            engine.backend.advance(np.array([0, 1]), [rng.integers(-127, 128, 3)] * 2)

    def test_engine_owns_created_backend_but_borrows_instances(self, rng):
        reference = rng.integers(-127, 128, 30)
        backend = NumpyBackend(reference, SDTWConfig.hardware(), capacity=4, workers=2)
        engine = make_engine(reference, backend=backend)
        engine.close()  # borrowed: must NOT shut the backend down
        costs, _ = backend.advance(np.array([0, 1]), [rng.integers(-127, 128, 3)] * 2)
        assert costs.shape == (2, 1)  # (lanes, panel blocks)
        backend.close()

    def test_classifier_close_releases_engine(self, reference_squiggle):
        classifier = BatchSquiggleClassifier(
            reference_squiggle,
            threshold=1e9,
            prefix_samples=400,
            run_config=RunConfig(backend="numpy", workers=2),
        )
        assert classifier.backend_name == "numpy"
        classifier.close()
        with pytest.raises(RuntimeError, match="shutdown"):
            classifier.engine.backend.advance(np.array([0, 1]), [np.arange(3)] * 2)

    def test_sharded_workers_must_be_positive(self, rng):
        """Lane-sharding thread counts must be positive."""
        with pytest.raises(ValueError, match="workers"):
            NumpyBackend(
                rng.integers(-127, 128, 20), SDTWConfig.hardware(), capacity=2, workers=0
            )

    def test_serial_backend_creates_no_thread_pool(self, rng):
        reference = rng.integers(-127, 128, 20)
        for workers in (None, 1):
            backend = NumpyBackend(reference, SDTWConfig.hardware(), capacity=2, workers=workers)
            assert backend._executor is None
            backend.close()

    def test_close_after_worker_exception_mid_round(self, rng):
        """A stripe whose kernel raises surfaces the error only after every
        stripe joined: the other stripe's lanes advanced exactly, and the
        backend keeps working and closes cleanly."""
        reference = rng.integers(-127, 128, 40)
        config = SDTWConfig.hardware()
        backend = NumpyBackend(reference, config, capacity=4, workers=2)
        good = rng.integers(-127, 128, 8)
        bad = rng.integers(-127, 128, (2, 2))  # 2-D: the kernel rejects it
        with pytest.raises(ValueError):
            backend.advance(np.array([0, 1]), [bad, good])
        follow_up = rng.integers(-127, 128, 5)
        costs, ends = backend.advance(np.array([1, 2]), [follow_up, good])
        expected = sdtw_resume(
            follow_up, reference, config, state=sdtw_resume(good, reference, config)
        )
        assert costs[0, 0] == expected.cost
        assert ends[0, 0] == expected.end_position
        backend.close()


# ------------------------------------------------------- pipeline + spec + CLI
@pytest.fixture(scope="module")
def backend_flowcell_reads(mixture, kmer_model):
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(mean_bases=300, sigma=0.15, min_bases=220, max_bases=500),
        seed=20260729,
    )
    reads = [generator.generate_one(source="virus") for _ in range(6)]
    reads += [generator.generate_one(source="host") for _ in range(18)]
    return reads


@pytest.fixture(scope="module")
def backend_threshold(reference_squiggle, target_signals, nontarget_signals):
    classifier = BatchSquiggleClassifier(reference_squiggle, prefix_samples=800)
    return classifier.calibrate(target_signals, nontarget_signals, chunk_samples=400)


class TestShardedPipeline:
    """Lane-sharded (thread-striped) execution through the pipeline layer."""
    def test_seeded_flowcell_decisions_identical_across_backends(
        self, reference_squiggle, target_genome, backend_threshold, backend_flowcell_reads
    ):
        """Acceptance: bit-identical accept/eject decisions on the seeded
        8-channel flowcell, serial vs lane-striped threads."""
        decisions = []
        for backend, options in FLOWCELL_BACKENDS:
            with BatchSquiggleClassifier(
                reference_squiggle,
                threshold=backend_threshold,
                prefix_samples=800,
                run_config=RunConfig(backend=backend, **(options or {})),
            ) as classifier:
                result = ReadUntilPipeline(
                    classifier,
                    target_genome,
                    assemble=False,
                    chunk_samples=400,
                    n_channels=8,
                    batch=True,
                ).run(backend_flowcell_reads)
            assert result.streaming["backend"] == backend
            decisions.append({
                outcome.read.read_id: (
                    outcome.ejected,
                    outcome.decision.cost if outcome.decision else None,
                    outcome.decision.samples_used if outcome.decision else None,
                )
                for outcome in result.session.outcomes
            })
        assert all(other == decisions[0] for other in decisions[1:])
        assert len(decisions[0]) == len(backend_flowcell_reads)

    def test_seeded_flowcell_decisions_identical_with_pruning(
        self, reference_squiggle, target_genome, backend_threshold, backend_flowcell_reads
    ):
        """Acceptance: with the pruning layer on, every backend still makes
        the seeded flowcell's accept/eject decisions bit-identically to the
        brute-force numpy run (accepted reads keep their exact cost; ejected
        reads may report a stale above-threshold cost, so only the decision
        and sample count are compared there)."""
        from repro.batch.native import numba_available
        def run_flowcell(classifier):
            result = ReadUntilPipeline(
                classifier,
                target_genome,
                assemble=False,
                chunk_samples=400,
                n_channels=8,
                batch=True,
            ).run(backend_flowcell_reads)
            summary = {}
            for outcome in result.session.outcomes:
                decision = outcome.decision
                accepted = decision is not None and not outcome.ejected
                summary[outcome.read.read_id] = (
                    outcome.ejected,
                    decision.samples_used if decision else None,
                    decision.cost if accepted else None,
                )
            return summary

        with BatchSquiggleClassifier(
            reference_squiggle, threshold=backend_threshold, prefix_samples=800
        ) as classifier:
            brute = run_flowcell(classifier)

        pruned_backends = [(name, dict(options or {})) for name, options in FLOWCELL_BACKENDS]
        if numba_available():
            # The compiled scalar kernel is CI-only; without Numba the
            # native backend is covered by the jit=False property harness
            # in test_sdtw_pruning.py (the pure-Python kernel is too slow
            # for a full flowcell replay).
            pruned_backends.append(("native", {}))
        for backend, fields in pruned_backends:
            config = RunConfig(
                reference=reference_squiggle,
                threshold=backend_threshold,
                prefix_samples=800,
                backend=backend,
                prune=True,
                **fields,
            )
            with BatchSquiggleClassifier(
                reference_squiggle, run_config=config
            ) as classifier:
                pruned = run_flowcell(classifier)
            assert pruned == brute, backend
            assert classifier.engine.cells_pruned >= 0

    def test_build_pipeline_backend_key(
        self, reference_squiggle, target_genome, backend_threshold, backend_flowcell_reads
    ):
        pipeline = build_pipeline(
            {
                "classifier": {
                    "name": "batch_squigglefilter",
                    "reference": reference_squiggle,
                    "threshold": backend_threshold,
                    "prefix_samples": 800,
                },
                "target_genome": target_genome,
                "backend": "numpy",
                "backend_options": {"workers": 2},
                "batch": True,
                "assemble": False,
            }
        )
        try:
            assert pipeline.classifier.backend_name == "numpy"
            assert pipeline.classifier.engine.backend.workers == 2
            result = pipeline.run(backend_flowcell_reads[:8])
            assert result.streaming["backend"] == "numpy"
            assert result.streaming["batched"] is True
        finally:
            pipeline.classifier.close()


class TestCliBackend:
    CLI_ARGS = [
        "read-until",
        "--n-channels", "4",
        "--target-length", "800",
        "--background-length", "3000",
        "--n-reads", "10",
        "--calibration-reads-per-class", "5",
        "--prefix-samples", "500",
    ]

    def test_backend_flag_runs_sharded_session(self, capsys):
        """--workers shards each round's lanes over threads."""
        from repro.cli import main

        exit_code = main(self.CLI_ARGS + ["--backend", "numpy", "--workers", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "numpy" in output

    def test_backend_flag_implies_batch_classifier(self, capsys):
        from repro.cli import main

        assert main(self.CLI_ARGS + ["--backend", "numpy"]) == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "numpy" in output

    def test_workers_require_sharded_backend(self, capsys):
        """Only the numpy backend shards lanes over threads: --workers is
        refused for 'native'."""
        from repro.cli import main

        # RunConfig validation owns the cross-field check, so the error
        # names the offending field instead of a flag.
        assert main(self.CLI_ARGS + ["--backend", "native", "--workers", "2"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_workers_flag_combines_with_config_file_backend(self, tmp_path, capsys):
        """Regression: --workers without --backend applies to the backend
        the config file names."""
        import json

        from repro.cli import main

        path = tmp_path / "run.json"
        path.write_text(json.dumps({"backend": "numpy"}))
        exit_code = main(
            self.CLI_ARGS + ["--config", str(path), "--workers", "2"]
        )
        assert exit_code == 0
        assert "numpy" in capsys.readouterr().out

    def test_backend_requires_squigglefilter_family(self, capsys):
        from repro.cli import main

        exit_code = main(["read-until", "--backend", "numpy", "--classifier", "multistage"])
        assert exit_code == 2
        assert "--backend requires" in capsys.readouterr().err
