"""Tests for the first-class TargetPanel layer and reference-axis tiling.

The contract under test (PR 4's acceptance invariant): a panel of N targets
advanced through the concatenated column space produces per-target costs,
end positions and rows **bit-identical** to N independent single-reference
``sdtw_resume`` runs — serially and with lanes striped over threads, with
and without column tiling, across ragged chunk schedules, ragged target
lengths, and lane recycling.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.backends import NumpyBackend, available_backends, create_backend
from repro.batch.classifier import BatchSquiggleClassifier
from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.filter import SquiggleFilter, build_default_filter
from repro.core.panel import TargetPanel
from repro.core.reference import ReferenceSquiggle
from repro.core.sdtw import (
    normalize_block_starts,
    reduce_block_minima,
    sdtw_resume,
    sdtw_resume_batch,
)
from repro.genomes.sequences import random_genome
from repro.pipeline.api import build_pipeline
from repro.pipeline.read_until import ReadUntilPipeline
from repro.runtime import RunConfig

# Every execution shape a panel can advance on: the serial wavefront, the
# same wavefront in cache-sized column tiles, lanes striped over threads, and
# striped lanes that each tile their columns.
PANEL_BACKENDS = [
    ("numpy", None),
    ("numpy", {"tile_columns": 17}),
    ("numpy", {"workers": 2}),
    ("numpy", {"workers": 3, "tile_columns": 17}),
]

# Deliberately ragged target lengths (in reference columns, both strands).
_PANEL_RNG = np.random.default_rng(20260728)
PANEL_REFERENCES = {
    "alpha": _PANEL_RNG.integers(-127, 128, 53),
    "beta": _PANEL_RNG.integers(-127, 128, 11),
    "gamma": _PANEL_RNG.integers(-127, 128, 34),
}
PANEL_CONCAT = np.concatenate(list(PANEL_REFERENCES.values()))
PANEL_STARTS = np.array([0, 53, 64])


def scalar_panel_states(schedules, config):
    """Ground truth: N independent single-reference sdtw_resume chains."""
    states = {}
    for lane, rounds in enumerate(schedules):
        for chunk in rounds:
            if not chunk.size:
                continue
            for name, reference in PANEL_REFERENCES.items():
                states[(lane, name)] = sdtw_resume(
                    chunk, reference, config, state=states.get((lane, name))
                )
    return states


# ------------------------------------------------------------------ structure
class TestTargetPanelStructure:
    def test_offsets_lengths_and_slices(self, kmer_model):
        genomes = {"a": random_genome(300, seed=1), "b": random_genome(120, seed=2)}
        panel = TargetPanel.from_genomes(genomes, kmer_model=kmer_model)
        assert panel.names == ("a", "b")
        assert panel.n_targets == 2
        assert len(panel) == int(panel.lengths.sum())
        assert panel.offsets[0] == 0 and panel.offsets[1] == panel.lengths[0]
        (name_a, slice_a), (name_b, slice_b) = panel.slices()
        values = panel.values(quantized=True)
        assert np.array_equal(
            values[slice_a], panel.reference_for("a").values(quantized=True)
        )
        assert np.array_equal(
            values[slice_b], panel.reference_for("b").values(quantized=True)
        )
        assert panel.buffer_bytes() == sum(
            panel.reference_for(name).buffer_bytes() for name in panel.names
        )

    def test_coerce_and_single(self, reference_squiggle):
        panel = TargetPanel.coerce(reference_squiggle)
        assert panel.n_targets == 1
        assert panel.primary is reference_squiggle
        assert TargetPanel.coerce(panel) is panel
        with pytest.raises(TypeError, match="TargetPanel or ReferenceSquiggle"):
            TargetPanel.coerce(np.arange(5))

    def test_empty_and_duplicate_names_rejected(self, reference_squiggle):
        with pytest.raises(ValueError, match="at least one"):
            TargetPanel([])
        with pytest.raises(ValueError, match="unique"):
            TargetPanel([("x", reference_squiggle), ("x", reference_squiggle)])

    def test_mismatched_normalization_rejected(self, target_genome, kmer_model):
        from repro.core.normalization import NormalizationConfig

        a = ReferenceSquiggle.from_genome(target_genome, kmer_model=kmer_model)
        b = ReferenceSquiggle.from_genome(
            target_genome,
            kmer_model=kmer_model,
            normalization=NormalizationConfig(clip=3.0),
        )
        with pytest.raises(ValueError, match="NormalizationConfig"):
            TargetPanel([("a", a), ("b", b)])

    def test_block_start_validation(self):
        with pytest.raises(ValueError, match="begin with column 0"):
            normalize_block_starts([3, 5], 10)
        with pytest.raises(ValueError, match="strictly increasing"):
            normalize_block_starts([0, 5, 5], 10)
        with pytest.raises(ValueError, match="beyond"):
            normalize_block_starts([0, 10], 10)


# ----------------------------------------------------- acceptance bit identity
signal_values = st.integers(min_value=-127, max_value=127)
lane_query = st.lists(signal_values, min_size=1, max_size=24).map(lambda v: np.array(v))
lane_queries = st.lists(lane_query, min_size=1, max_size=4)

panel_settings = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestPanelBitIdentity:
    @panel_settings
    @given(queries=lane_queries, data=st.data())
    def test_panel_costs_match_independent_runs_on_all_backends(self, queries, data):
        """The acceptance property: per-target panel costs/ends equal N
        independent single-reference sdtw_resume runs, across ragged chunk
        schedules, serial and striped, tiled and untiled."""
        n_rounds = data.draw(st.integers(min_value=1, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        schedules = []
        for query in queries:
            cuts = np.sort(rng.integers(0, query.size + 1, size=n_rounds - 1))
            bounds = [0, *cuts.tolist(), query.size]
            schedules.append([query[bounds[i] : bounds[i + 1]] for i in range(n_rounds)])

        config = SDTWConfig.hardware()
        panel_values = PANEL_CONCAT
        backends = [
            create_backend(
                name,
                panel_values,
                config,
                len(queries),
                block_starts=PANEL_STARTS,
                **dict(options or {}),
            )
            for name, options in PANEL_BACKENDS
        ]
        lanes = np.arange(len(queries), dtype=np.intp)
        try:
            scalar = {}
            for round_index in range(n_rounds):
                chunks = [schedules[lane][round_index] for lane in range(len(queries))]
                for lane, chunk in enumerate(chunks):
                    if not chunk.size:
                        continue
                    for name, reference in PANEL_REFERENCES.items():
                        scalar[(lane, name)] = sdtw_resume(
                            chunk, reference, config, state=scalar.get((lane, name))
                        )
                results = [backend.advance(lanes, chunks) for backend in backends]
                for backend, (costs, ends) in zip(backends, results):
                    assert costs.shape == (len(queries), 3)
                    for lane in range(len(queries)):
                        for index, name in enumerate(PANEL_REFERENCES):
                            state = scalar.get((lane, name))
                            if state is None:
                                continue
                            assert costs[lane, index] == state.cost, backend.backend_name
                            assert ends[lane, index] == state.end_position, (
                                backend.backend_name
                            )
            # Final resident rows are the concatenation of the independent runs.
            for backend in backends:
                gathered = backend.gather(lanes)
                for lane in range(len(queries)):
                    if not queries[lane].size:
                        continue
                    expected = np.concatenate(
                        [scalar[(lane, name)].row for name in PANEL_REFERENCES]
                    )
                    assert np.array_equal(gathered.rows[lane], expected), (
                        backend.backend_name
                    )
        finally:
            for backend in backends:
                backend.close()

    @pytest.mark.parametrize("tile_columns", [1, 5, 11, 53, 64, 97, 98])
    def test_tiled_advance_identical_to_untiled(self, tile_columns, rng):
        """Tile widths from degenerate (1 column) through 'narrower than the
        last block' to wider-than-reference all reproduce the untiled rows."""
        config = SDTWConfig.hardware()
        queries = [rng.integers(-127, 128, n) for n in (21, 7)]
        untiled = sdtw_resume_batch(
            queries, PANEL_CONCAT, config, block_starts=PANEL_STARTS
        )
        tiled = sdtw_resume_batch(
            queries,
            PANEL_CONCAT,
            config,
            block_starts=PANEL_STARTS,
            tile_columns=tile_columns,
        )
        assert np.array_equal(tiled.rows, untiled.rows)
        assert np.array_equal(tiled.runs, untiled.runs)
        assert np.array_equal(tiled.samples_processed, untiled.samples_processed)

    @pytest.mark.parametrize(
        "n_lanes,workers", [(0, 4), (1, 4), (2, 4), (5, 2)]
    )
    def test_stripes_clamped_to_lanes(self, n_lanes, workers, rng):
        """A round splits into min(workers, lanes) stripes; rounds with fewer
        than two lanes (none at all, or one with idle threads to spare) run
        serially and still produce exact per-target costs."""
        from repro.obs import Tracer

        config = SDTWConfig.hardware()
        backend = NumpyBackend(
            PANEL_CONCAT,
            config,
            capacity=max(n_lanes, 1),
            workers=workers,
            block_starts=PANEL_STARTS,
        )
        backend.tracer = Tracer()
        try:
            queries = [rng.integers(-127, 128, 13 + lane) for lane in range(n_lanes)]
            costs, ends = backend.advance(np.arange(n_lanes, dtype=np.intp), queries)
            assert costs.shape == ends.shape == (n_lanes, 3)
            for lane, query in enumerate(queries):
                for index, reference in enumerate(PANEL_REFERENCES.values()):
                    expected = sdtw_resume(query, reference, config)
                    assert costs[lane, index] == expected.cost
                    assert ends[lane, index] == expected.end_position
            (wavefront,) = [
                r for r in backend.tracer.records() if r.name == "backend.wavefront"
            ]
            stripes = (wavefront.args or {}).get("stripes")
            assert stripes == (min(workers, n_lanes) if n_lanes >= 2 else None)
        finally:
            backend.close()


# ------------------------------------------------------------------ filter API
class TestPanelFilter:
    def test_one_target_panel_bit_identical_to_plain_filter(
        self, reference_squiggle, target_signals, nontarget_signals
    ):
        """A 1-entry panel is the plain filter: identical decisions, costs,
        thresholds and batch decisions, field for field."""
        plain = SquiggleFilter(reference_squiggle, prefix_samples=600)
        panelled = SquiggleFilter(TargetPanel.single(reference_squiggle), prefix_samples=600)
        plain.calibrate(target_signals, nontarget_signals)
        panelled.calibrate(target_signals, nontarget_signals)
        assert panelled.threshold == plain.threshold
        signals = list(target_signals) + list(nontarget_signals)
        assert [panelled.classify(s) for s in signals] == [plain.classify(s) for s in signals]
        assert panelled.classify_batch(signals) == plain.classify_batch(signals)

    def test_panel_classify_reports_argmin_target(self, kmer_model, rng):
        genomes = {
            "long": random_genome(700, seed=31),
            "short": random_genome(150, seed=32),
            "mid": random_genome(400, seed=33),
        }
        squiggle_filter = build_default_filter(genomes, kmer_model=kmer_model, prefix_samples=400)
        assert squiggle_filter.panel.names == ("long", "short", "mid")
        signal = rng.normal(90.0, 10.0, 500)
        decision = squiggle_filter.classify(signal, threshold=1e12)
        assert decision.target in genomes
        assert len(decision.target_costs) == 3
        assert decision.cost == min(decision.target_costs)
        # The reported target is the per-target argmin (first on ties).
        assert decision.target == squiggle_filter.panel.names[
            int(np.argmin(decision.target_costs))
        ]
        # Scalar path and each batched backend agree field for field.
        alignments = squiggle_filter.target_alignments(signal, 400)
        assert decision.target_costs == tuple(
            alignments[name].cost for name in squiggle_filter.panel.names
        )
        for backend, options in PANEL_BACKENDS:
            batch = squiggle_filter.classify_batch(
                [signal],
                threshold=1e12,
                run_config=RunConfig(backend=backend, **(options or {})),
            )
            assert batch == [decision], backend

    def test_panel_end_positions_are_target_local(self, kmer_model, rng):
        genomes = {"a": random_genome(300, seed=41), "b": random_genome(200, seed=42)}
        squiggle_filter = build_default_filter(genomes, kmer_model=kmer_model, prefix_samples=300)
        decision = squiggle_filter.classify(rng.normal(90.0, 10.0, 350), threshold=1e12)
        target_length = squiggle_filter.panel.reference_for(decision.target).n_positions
        assert 0 <= decision.end_position < target_length


# --------------------------------------------------------- engine + classifier
class TestPanelEngine:
    def test_engine_snapshot_carries_per_target_breakdown(self, kmer_model, rng):
        config = SDTWConfig.hardware()
        panel = TargetPanel.from_genomes(
            {"a": random_genome(80, seed=51), "b": random_genome(40, seed=52)},
            kmer_model=kmer_model,
        )
        with BatchSDTWEngine(panel, config) as engine:
            assert engine.n_targets == 2
            assert engine.target_names == ("a", "b")
            query = rng.integers(-127, 128, 15)
            snap = engine.step([("read", query)])["read"]
            expected = {
                name: sdtw_resume(
                    query, panel.reference_for(name).values(quantized=True), config
                )
                for name in panel.names
            }
            assert snap.target_costs == tuple(expected[n].cost for n in panel.names)
            assert snap.target_ends == tuple(
                expected[n].end_position for n in panel.names
            )
            best = min(panel.names, key=lambda n: expected[n].cost)
            assert snap.target == best
            assert snap.cost == expected[best].cost
            assert snap.end_position == expected[best].end_position

    def test_prebuilt_backend_block_mismatch_rejected(self, kmer_model):
        config = SDTWConfig.hardware()
        panel = TargetPanel.from_genomes(
            {"a": random_genome(30, seed=5), "b": random_genome(24, seed=6)},
            kmer_model=kmer_model,
        )
        # Same column count, but reduced as one block instead of two.
        backend = create_backend("numpy", panel.values(quantized=True), config, 2)
        with pytest.raises(ValueError, match="panel blocks"):
            BatchSDTWEngine(panel, config, backend=backend)
        backend.close()


# ------------------------------------------------------------ pipeline and CLI
@pytest.fixture(scope="module")
def virus_panel(kmer_model):
    return {
        "virus_a": random_genome(600, seed=71),
        "virus_b": random_genome(350, seed=72),
        "virus_c": random_genome(480, seed=73),
    }


class TestPanelPipeline:
    def test_build_pipeline_targets_key_reports_per_target_accepts(
        self, virus_panel, background_genome, kmer_model
    ):
        from repro.sequencer.reads import ReadGenerator, ReadLengthModel, SpecimenMixture

        mixture = SpecimenMixture(
            genomes={**virus_panel, "host": background_genome},
            fractions={
                **{name: 0.15 for name in virus_panel},
                "host": 1.0 - 0.45,
            },
            target_names=tuple(virus_panel),
        )
        generator = ReadGenerator(
            mixture,
            kmer_model=kmer_model,
            length_model=ReadLengthModel(mean_bases=300, sigma=0.15, min_bases=240, max_bases=460),
            seed=20260731,
        )
        reads = generator.generate(24)
        pipeline = build_pipeline(
            {
                "classifier": {
                    "name": "batch_squigglefilter",
                    "kmer_model": kmer_model,
                    "threshold": 1e12,  # accept-everything: attribution is what matters
                    "prefix_samples": 600,
                },
                "targets": virus_panel,
                "target_genome": virus_panel["virus_a"],
                "n_channels": 4,
                "batch": True,
                "assemble": False,
            }
        )
        try:
            assert pipeline.classifier.panel.names == tuple(virus_panel)
            result = pipeline.run(reads)
        finally:
            pipeline.classifier.close()
        accepts = result.streaming["per_target_accepts"]
        assert sum(accepts.values()) == len(reads)  # threshold accepts all
        assert set(accepts) <= set(virus_panel)
        assert result.streaming["targets"] == list(virus_panel)
        # Every read carries a target attribution in its decision.
        for outcome in result.session.outcomes:
            assert outcome.decision is not None
            assert outcome.decision.target in virus_panel
            assert len(outcome.decision.target_costs) == 3

    def test_panel_decisions_identical_across_backends(
        self, virus_panel, background_genome, kmer_model
    ):
        from repro.sequencer.reads import ReadGenerator, ReadLengthModel, SpecimenMixture

        panel = TargetPanel.from_genomes(virus_panel, kmer_model=kmer_model)
        mixture = SpecimenMixture(
            genomes={**virus_panel, "host": background_genome},
            fractions={**{name: 0.1 for name in virus_panel}, "host": 0.7},
            target_names=tuple(virus_panel),
        )
        generator = ReadGenerator(
            mixture,
            kmer_model=kmer_model,
            length_model=ReadLengthModel(mean_bases=260, sigma=0.15, min_bases=220, max_bases=400),
            seed=20260801,
        )
        reads = generator.generate(12)
        calibration = generator.generate_balanced(6)
        helper = BatchSquiggleClassifier(panel, prefix_samples=500)
        threshold = helper.calibrate(
            [r.signal_pa for r in calibration if r.is_target],
            [r.signal_pa for r in calibration if not r.is_target],
            chunk_samples=250,
        )
        decisions = {}
        for backend, options in PANEL_BACKENDS:
            with BatchSquiggleClassifier(
                panel,
                threshold=threshold,
                prefix_samples=500,
                run_config=RunConfig(backend=backend, **(options or {})),
            ) as classifier:
                result = ReadUntilPipeline(
                    classifier,
                    virus_panel["virus_a"],
                    assemble=False,
                    chunk_samples=250,
                    n_channels=4,
                    batch=True,
                ).run(reads)
            key = f"{backend}:{options}"
            decisions[key] = {
                outcome.read.read_id: (
                    outcome.ejected,
                    outcome.decision.cost if outcome.decision else None,
                    outcome.decision.target if outcome.decision else None,
                    outcome.decision.target_costs if outcome.decision else None,
                )
                for outcome in result.session.outcomes
            }
        baseline = decisions["numpy:None"]
        assert len(baseline) == len(reads)
        for key, mapping in decisions.items():
            assert mapping == baseline, key


class TestCliTargetPanel:
    CLI_ARGS = [
        "read-until",
        "--n-channels", "4",
        "--target-length", "600",
        "--background-length", "2500",
        "--n-reads", "10",
        "--calibration-reads-per-class", "5",
        "--prefix-samples", "400",
    ]

    def test_target_panel_session_reports_per_target_accepts(self, capsys):
        from repro.cli import main

        exit_code = main(self.CLI_ARGS + ["--target-panel", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        for name in ("virus1", "virus2", "virus3"):
            assert f"accepts[{name}]" in output

    def test_target_panel_with_threaded_backend(self, capsys):
        from repro.cli import main

        exit_code = main(
            self.CLI_ARGS + ["--target-panel", "2", "--backend", "numpy", "--workers", "2"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "numpy" in output
        assert "accepts[virus1]" in output

    def test_target_panel_requires_squigglefilter_family(self, capsys):
        from repro.cli import main

        exit_code = main(
            self.CLI_ARGS + ["--target-panel", "2", "--classifier", "multistage"]
        )
        assert exit_code == 2
        assert "--target-panel requires" in capsys.readouterr().err

    def test_target_panel_needs_two_targets(self, capsys):
        from repro.cli import main

        assert main(self.CLI_ARGS + ["--target-panel", "1"]) == 2
        assert "at least 2" in capsys.readouterr().err

    def test_workers_rejected_on_native_backend(self, capsys):
        from repro.cli import main

        # RunConfig validation owns the workers-vs-backend check; the error
        # names the offending field.
        assert main(self.CLI_ARGS + ["--backend", "native", "--workers", "2"]) == 2
        assert "workers" in capsys.readouterr().err
