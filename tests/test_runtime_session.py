"""Tests for the unified RunConfig/ReadUntilSession runtime API.

The contract under test: one declarative, serializable :class:`RunConfig`
describes a run; :func:`open_session` owns lazy backend creation and engine
lifecycle; and driving a seeded flowcell through the session produces
decisions bit-identical to the pre-existing classifier/pipeline entry points
on every registered execution backend — which also makes the deprecation
shims safe.
"""

import json
import threading
import warnings

import numpy as np
import pytest

from repro.batch.classifier import BatchSquiggleClassifier
from repro.core.config import SDTWConfig
from repro.pipeline.api import build_pipeline
from repro.pipeline.read_until import ReadUntilPipeline
from repro.runtime import (
    ReadUntilSession,
    RunConfig,
    SessionClosedError,
    open_session,
)
from repro.sequencer.read_until_api import SignalChunk
from repro.sequencer.reads import ReadGenerator, ReadLengthModel

# Execution backends the acceptance property runs over: serial, lanes striped
# over threads, and striped lanes that each tile their columns. The sessions
# feed 400-sample chunks, and a tile recomputes a halo of one chunk length,
# so the tile is sized for the ~2400-column reference rather than a few
# columns (the kernel-level suites cover narrow tiles).
SESSION_BACKENDS = [
    ("numpy", {}),
    ("numpy", {"workers": 2}),
    ("numpy", {"workers": 3, "tile_columns": 600}),
]
# Ids name the lane stripes ("sharded-lanes") and the column tile width.
SESSION_BACKEND_IDS = ["numpy-extra0", "sharded-lanes-workers2", "cols600-workers3"]


def session_config(reference, threshold, **overrides):
    base = dict(
        reference=reference,
        threshold=threshold,
        prefix_samples=800,
        chunk_samples=400,
        n_channels=8,
    )
    base.update(overrides)
    return RunConfig(**base)


# -------------------------------------------------------------- validation
class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(backend="tpu"), "backend"),
            (dict(backend="numpy", workers=0), "workers"),
            (dict(backend="numpy", workers=-3), "workers"),
            (dict(backend="native", workers=2), "workers"),
            (dict(tile_columns=0), "tile_columns"),
            (dict(tile_columns=-16), "tile_columns"),
            (dict(backend="numpy", workers=2, tile_columns=0), "tile_columns"),
            (dict(prefix_samples=0), "prefix_samples"),
            (dict(chunk_samples=-1), "chunk_samples"),
            (dict(n_channels=0), "n_channels"),
            (dict(targets={}), "targets"),
            (dict(label=""), "label"),
            (dict(label="   "), "label"),
            (dict(label=7), "label"),
        ],
    )
    def test_invalid_field_named_in_error(self, kwargs, field):
        with pytest.raises(ValueError) as excinfo:
            RunConfig(**kwargs)
        assert str(excinfo.value).startswith(field), excinfo.value

    def test_exactly_one_reference_spec(self, reference_squiggle):
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(genome="ACGT" * 100, targets={"a": "ACGT" * 100})
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(genome="ACGT" * 100, reference=reference_squiggle)

    def test_with_revalidates(self):
        config = RunConfig(genome="ACGT" * 100)
        with pytest.raises(ValueError, match="backend"):
            config.with_(backend="tpu")

    def test_backend_name_normalized(self):
        assert RunConfig(backend="NumPy").backend == "numpy"

    def test_gpu_backend_name_is_rejected(self):
        # Deleted backends: the GPU path and the process-sharded pair.
        for name in ("gpu", "sharded", "colsharded"):
            with pytest.raises(ValueError) as excinfo:
                RunConfig(backend=name)
            assert str(excinfo.value).startswith(
                f"backend: unknown execution backend '{name}'"
            ), excinfo.value

    def test_resolved_backend_options_fold_sizing_fields(self):
        config = RunConfig(backend="numpy", workers=3, backend_options={"extra": 1})
        assert config.resolved_backend_options() == {"workers": 3, "extra": 1}
        tiled = RunConfig(backend="numpy", tile_columns=64)
        assert tiled.resolved_backend_options() == {"tile_columns": 64}
        # Each lane stripe tiles on its own, so the two sizing fields combine.
        striped = RunConfig(backend="numpy", workers=2, tile_columns=64)
        assert striped.resolved_backend_options() == {"workers": 2, "tile_columns": 64}


# ------------------------------------------------------------ serialization
class TestRunConfigSerialization:
    def test_dict_roundtrip(self):
        config = RunConfig(
            targets={"a": "ACGT" * 200, "b": "GGCA" * 150},
            hardware=SDTWConfig.hardware().with_(match_bonus=0.0),
            threshold=123.5,
            prefix_samples=640,
            chunk_samples=320,
            n_channels=16,
            batch=True,
            label="flowcell-A",
            backend="numpy",
            workers=4,
        )
        assert config.to_dict()["label"] == "flowcell-A"
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_hardware_accepts_mapping(self):
        config = RunConfig(hardware={"distance": "absolute", "match_bonus": 0.0})
        assert config.hardware == SDTWConfig(distance="absolute", match_bonus=0.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="n_channel"):
            RunConfig.from_dict({"n_channel": 4})

    def test_prebuilt_reference_not_serializable(self, reference_squiggle):
        config = RunConfig(reference=reference_squiggle)
        with pytest.raises(ValueError, match="reference"):
            config.to_dict()

    def test_json_file_roundtrip(self, tmp_path):
        config = RunConfig(genome="ACGT" * 200, backend="numpy", workers=2)
        path = tmp_path / "run.json"
        config.to_file(path)
        assert RunConfig.from_file(path) == config
        assert json.loads(path.read_text())["workers"] == 2

    def test_yaml_file_roundtrip(self, tmp_path):
        pytest.importorskip("yaml")
        config = RunConfig(genome="ACGT" * 200, n_channels=4)
        path = tmp_path / "run.yaml"
        config.to_file(path)
        assert RunConfig.from_file(path) == config


# -------------------------------------------------------- session lifecycle
def _chunk(read_id, signal, start=0, channel=0, number=0, last=False):
    return SignalChunk(
        channel=channel,
        read_id=read_id,
        read_number=number,
        chunk_start_sample=start,
        signal_pa=np.asarray(signal, dtype=np.float64),
        is_last=last,
    )


class TestSessionLifecycle:
    def _config(self, reference_squiggle, **overrides):
        base = dict(reference=reference_squiggle, threshold=1e9, prefix_samples=400)
        base.update(overrides)
        return RunConfig(**base)

    def test_backend_not_spawned_until_first_submit(
        self, reference_squiggle, target_signals
    ):
        with open_session(self._config(reference_squiggle)) as session:
            assert not session.started
            assert session.engine is None
            actions = session.submit(
                [_chunk("r0", target_signals[0][:400], last=True)]
            )
            assert session.started
            assert session.engine is not None
            assert len(actions) == 1 and actions[0].is_terminal

    def test_calibrate_does_not_spawn_the_backend(
        self, reference_squiggle, target_signals, nontarget_signals
    ):
        with open_session(
            self._config(reference_squiggle, threshold=None)
        ) as session:
            threshold = session.calibrate(target_signals, nontarget_signals)
            assert threshold == session.threshold
            assert not session.started

    def test_double_close_is_idempotent(self, reference_squiggle):
        session = open_session(self._config(reference_squiggle))
        session.close()
        session.close()
        assert session.closed is True

    def test_reuse_after_close_raises(self, reference_squiggle, target_signals):
        session = open_session(self._config(reference_squiggle))
        session.submit([_chunk("r0", target_signals[0][:400], last=True)])
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit([_chunk("r1", target_signals[0][:400], last=True)])
        with pytest.raises(RuntimeError, match="closed"):
            session.classifier
        with pytest.raises(RuntimeError, match="closed"):
            session.calibrate([], [])

    def test_context_manager_closes_on_exception(self, reference_squiggle):
        with pytest.raises(KeyError):
            with open_session(self._config(reference_squiggle)) as session:
                raise KeyError("boom")
        with pytest.raises(RuntimeError, match="closed"):
            session.submit([])

    def test_failing_round_closes_the_session(
        self, reference_squiggle, target_signals
    ):
        # No threshold configured -> the round raises inside the classifier;
        # the session must close itself so nothing leaks, then refuse reuse.
        session = open_session(self._config(reference_squiggle, threshold=None))
        with pytest.raises(ValueError, match="threshold"):
            session.submit([_chunk("r0", target_signals[0][:400], last=True)])
        with pytest.raises(RuntimeError, match="closed"):
            session.submit([_chunk("r1", target_signals[0][:400], last=True)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejects_the_round_and_session_stays_usable(
        self, reference_squiggle, target_signals, bad
    ):
        good = _chunk("r0", target_signals[0][:400], last=True)
        signal = np.array(target_signals[1][:400], dtype=np.float64)
        signal[7] = bad
        with open_session(self._config(reference_squiggle)) as session:
            with pytest.raises(ValueError, match=r"^chunk\[1\]\.signal: sample 7 is"):
                session.submit([good, _chunk("r1", signal, channel=1, last=True)])
            assert not session.closed
            assert session.summary()["rounds"] == 0
            actions = session.submit([good])
            assert len(actions) == 1 and actions[0].is_terminal

    def test_non_finite_sample_on_the_pipeline_path_keeps_the_session(
        self, reference_squiggle, target_signals
    ):
        """ReadUntilPipeline drives on_chunk_batch directly: the same check
        refuses the round before any lane advances, the session stays open,
        and the next round decides exactly as on a fresh session."""
        good = _chunk("r0", target_signals[0][:400], last=True)
        signal = np.array(target_signals[1][:400], dtype=np.float64)
        signal[3] = np.nan
        with open_session(self._config(reference_squiggle)) as fresh:
            (expected,) = fresh.submit([good])
        with open_session(self._config(reference_squiggle)) as session:
            session.begin_read("r0")
            session.begin_read("r1")
            with pytest.raises(ValueError, match=r"^chunk\[1\]\.signal: sample 3 is nan"):
                session.on_chunk_batch([good, _chunk("r1", signal, channel=1, last=True)])
            assert not session.closed
            assert session.summary()["rounds"] == 0
            (action,) = session.on_chunk_batch([good])
        assert action.is_terminal
        assert (action.kind, action.cost) == (expected.kind, expected.cost)

    def test_summary_tallies_decisions(self, reference_squiggle, target_signals):
        with open_session(self._config(reference_squiggle)) as session:
            session.submit(
                [
                    _chunk("r0", target_signals[0][:400], last=True),
                    _chunk("r1", target_signals[1][:400], channel=1, last=True),
                ]
            )
            summary = session.summary()
        assert summary["rounds"] == 1
        assert summary["accepts"] + summary["ejects"] == 2
        assert summary["backend"] == "numpy"
        assert summary["peak_batch_lanes"] == 2

    def test_session_without_reference_spec_fails_on_first_use(self):
        with open_session(RunConfig(threshold=1e9)) as session:
            with pytest.raises(ValueError, match="reference"):
                session.submit([_chunk("r0", np.ones(10), last=True)])

    def test_summary_reports_the_config_label(
        self, reference_squiggle, target_signals
    ):
        with open_session(
            self._config(reference_squiggle, label="flowcell-A")
        ) as session:
            session.submit([_chunk("r0", target_signals[0][:400], last=True)])
            assert session.label == "flowcell-A"
            assert session.summary()["label"] == "flowcell-A"
        # Unlabeled sessions don't grow the key.
        with open_session(self._config(reference_squiggle)) as session:
            assert "label" not in session.summary()

    @pytest.mark.parametrize("backend,extra", SESSION_BACKENDS, ids=SESSION_BACKEND_IDS)
    def test_use_after_close_raises_session_closed_error(
        self, reference_squiggle, target_signals, backend, extra
    ):
        """Satellite contract: after close(), submit() and summary() raise
        the same documented SessionClosedError on every registered backend
        (which is-a RuntimeError, so existing handlers keep working)."""
        config = self._config(reference_squiggle, backend=backend, **extra)
        session = open_session(config)
        try:
            session.submit([_chunk("r0", target_signals[0][:400], last=True)])
        finally:
            session.close()
        assert session.closed
        with pytest.raises(SessionClosedError, match="closed"):
            session.submit([_chunk("r1", target_signals[0][:400], last=True)])
        with pytest.raises(SessionClosedError, match="closed"):
            session.summary()
        assert issubclass(SessionClosedError, RuntimeError)

    def test_concurrent_submit_from_second_thread_raises(
        self, reference_squiggle, target_signals
    ):
        """Sessions are single-writer: while one thread's round is in
        flight, a second thread's submit fails loudly instead of corrupting
        lane state."""
        session = open_session(self._config(reference_squiggle))
        in_round = threading.Event()
        release = threading.Event()

        real_on_chunk_batch = type(session).on_chunk_batch

        def slow_round(self_, chunks):
            result = real_on_chunk_batch(self_, chunks)
            in_round.set()
            release.wait(timeout=10.0)
            return result

        try:
            type(session).on_chunk_batch = slow_round  # type: ignore[method-assign]

            def first_submit():
                session.submit([_chunk("r0", target_signals[0][:400], last=True)])

            worker = threading.Thread(target=first_submit)
            worker.start()
            assert in_round.wait(timeout=10.0)
            with pytest.raises(RuntimeError, match="single-writer"):
                session.submit(
                    [_chunk("r1", target_signals[1][:400], last=True)]
                )
            release.set()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
        finally:
            release.set()
            type(session).on_chunk_batch = real_on_chunk_batch  # type: ignore[method-assign]
            session.close()
        # The lock is released once the in-flight round finished: a fresh
        # session accepts submissions again (closed above, so just re-open).
        with open_session(self._config(reference_squiggle)) as fresh:
            fresh.submit([_chunk("r2", target_signals[0][:400], last=True)])


# ------------------------------------------------------ acceptance property
@pytest.fixture(scope="module")
def runtime_flowcell_reads(mixture, kmer_model):
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(
            mean_bases=300, sigma=0.15, min_bases=220, max_bases=500
        ),
        seed=20260729,
    )
    reads = [generator.generate_one(source="virus") for _ in range(6)]
    reads += [generator.generate_one(source="host") for _ in range(18)]
    return reads


@pytest.fixture(scope="module")
def runtime_threshold(reference_squiggle, target_signals, nontarget_signals):
    classifier = BatchSquiggleClassifier(reference_squiggle, prefix_samples=800)
    return classifier.calibrate(
        target_signals, nontarget_signals, chunk_samples=400
    )


def _decision_fields(result):
    return {
        outcome.read.read_id: (
            outcome.ejected,
            outcome.decision.cost if outcome.decision else None,
            outcome.decision.samples_used if outcome.decision else None,
            outcome.decision.end_position if outcome.decision else None,
            outcome.decision.target if outcome.decision else None,
        )
        for outcome in result.session.outcomes
    }


class TestSessionBitIdentity:
    def test_seeded_flowcell_identical_through_every_entry_point(
        self,
        reference_squiggle,
        target_genome,
        runtime_threshold,
        runtime_flowcell_reads,
    ):
        """Acceptance: the seeded 8-channel flowcell decides identically
        through the legacy classifier+pipeline entry point and through
        ReadUntilSession, on every registered backend."""
        legacy = BatchSquiggleClassifier(
            reference_squiggle, threshold=runtime_threshold, prefix_samples=800
        )
        baseline = _decision_fields(
            ReadUntilPipeline(
                legacy,
                target_genome,
                assemble=False,
                chunk_samples=400,
                n_channels=8,
                batch=True,
            ).run(runtime_flowcell_reads)
        )
        assert len(baseline) == len(runtime_flowcell_reads)

        for backend, extra in SESSION_BACKENDS:
            config = session_config(
                reference_squiggle, runtime_threshold, backend=backend, **extra
            )
            with open_session(config) as session:
                result = session.run(
                    runtime_flowcell_reads, target_genome=target_genome
                )
            assert result.streaming["backend"] == backend, backend
            assert _decision_fields(result) == baseline, backend

    def test_build_pipeline_accepts_a_run_config(
        self,
        reference_squiggle,
        target_genome,
        runtime_threshold,
        runtime_flowcell_reads,
    ):
        legacy = BatchSquiggleClassifier(
            reference_squiggle, threshold=runtime_threshold, prefix_samples=800
        )
        baseline = _decision_fields(
            ReadUntilPipeline(
                legacy,
                target_genome,
                assemble=False,
                chunk_samples=400,
                n_channels=8,
                batch=True,
            ).run(runtime_flowcell_reads)
        )
        pipeline = build_pipeline(
            session_config(reference_squiggle, runtime_threshold)
        )
        try:
            result = pipeline.run(runtime_flowcell_reads)
        finally:
            pipeline.classifier.close()
        assert isinstance(pipeline.classifier, ReadUntilSession)
        assert _decision_fields(result) == baseline


# ------------------------------------------------------------------- shims
class TestDeprecationShims:
    """The pre-RunConfig backend kwargs are gone: run_config= replaces them."""

    def test_classifier_run_config_decides_like_session(
        self,
        reference_squiggle,
        target_genome,
        runtime_threshold,
        runtime_flowcell_reads,
    ):
        config = session_config(
            reference_squiggle, runtime_threshold, backend="numpy", workers=2
        )
        with open_session(config) as session:
            session_decisions = _decision_fields(
                session.run(runtime_flowcell_reads, target_genome=target_genome)
            )
        with BatchSquiggleClassifier(reference_squiggle, run_config=config) as classifier:
            classifier_decisions = _decision_fields(
                ReadUntilPipeline(
                    classifier,
                    target_genome,
                    assemble=False,
                    chunk_samples=400,
                    n_channels=8,
                    batch=True,
                ).run(runtime_flowcell_reads)
            )
        assert classifier_decisions == session_decisions

    def test_classifier_default_construction_does_not_warn(self, reference_squiggle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BatchSquiggleClassifier(
                reference_squiggle, threshold=1e9, prefix_samples=400
            ).close()

    def test_classifier_consumes_run_config_fields(self, reference_squiggle):
        """run_config supplies threshold/prefix/hardware unless a kwarg
        explicitly overrides them — the migration table's contract."""
        config = RunConfig(
            threshold=123.0,
            prefix_samples=640,
            hardware=SDTWConfig.hardware().with_(match_bonus=0.0),
        )
        with BatchSquiggleClassifier(reference_squiggle, run_config=config) as classifier:
            assert classifier.threshold == 123.0
            assert classifier.prefix_samples == 640
            assert classifier.config == config.hardware
        with BatchSquiggleClassifier(
            reference_squiggle, run_config=config, prefix_samples=320
        ) as classifier:
            assert classifier.prefix_samples == 320

    def test_classifier_rejects_run_config_plus_legacy_kwargs(
        self, reference_squiggle
    ):
        with pytest.raises(TypeError, match="backend"):
            BatchSquiggleClassifier(
                reference_squiggle,
                threshold=1e9,
                backend="numpy",
                run_config=RunConfig(),
            )
        with pytest.raises(TypeError, match="backend_options"):
            BatchSquiggleClassifier(
                reference_squiggle, threshold=1e9, backend_options={}
            )


# ---------------------------------------------------------------------- CLI
class TestCliRunConfig:
    def test_config_dump_resolves_file_and_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        RunConfig(prefix_samples=800, n_channels=4).to_file(path)
        exit_code = main(
            [
                "config-dump",
                "--config",
                str(path),
                "--backend",
                "numpy",
                "--workers",
                "2",
                "--prefix-samples",
                "500",
            ]
        )
        assert exit_code == 0
        dumped = json.loads(capsys.readouterr().out)
        # flag > file > default
        assert dumped["backend"] == "numpy"
        assert dumped["workers"] == 2
        assert dumped["prefix_samples"] == 500
        assert dumped["n_channels"] == 4

    def test_config_dump_rejects_invalid_config(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        path.write_text(json.dumps({"backend": "tpu"}))
        assert main(["config-dump", "--config", str(path)]) == 2
        assert "backend" in capsys.readouterr().err

    def test_read_until_runs_from_config_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        RunConfig(
            prefix_samples=500, chunk_samples=250, n_channels=4, batch=True
        ).to_file(path)
        exit_code = main(
            [
                "read-until",
                "--config",
                str(path),
                "--n-reads",
                "10",
                "--target-length",
                "800",
                "--background-length",
                "3000",
                "--calibration-reads-per-class",
                "5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "numpy" in output