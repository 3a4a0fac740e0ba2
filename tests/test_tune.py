"""Tests for repro.tune: probes, the persistent cache, and backend="auto".

The contract under test: ``RunConfig(backend="auto")`` resolves to a
concrete *installed* backend via calibration probes on first use and via
the tuning cache on repeat use; probe wall clock is bounded by
``tune_budget_s``; decisions on the seeded 8-channel flowcell are
bit-identical to running the chosen backend pinned; and the cache layer is
corruption-tolerant (bad files load as empty, never raise) with keys stable
across processes.
"""

import asyncio
import json
import os
import subprocess
import sys
import time

import pytest

from repro.batch.classifier import BatchSquiggleClassifier
from repro.core.config import SDTWConfig
from repro.obs import MetricsRegistry
from repro.runtime import RunConfig, open_session
from repro.sequencer.reads import ReadGenerator, ReadLengthModel
from repro.serve.manager import SessionManager
from repro.serve.pool import BackendPool
from repro.tune import (
    SCHEMA_VERSION,
    TunedDecision,
    TuningCache,
    WorkloadShape,
    cache_key,
    generate_candidates,
    host_fingerprint,
    installed_backends,
    resolve_auto,
    size_bucket,
    tune_config,
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Every test gets its own tuning cache file; none touches ~/.cache."""
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune.json"))


def small_config(**overrides):
    base = dict(
        genome="ACGT" * 300,
        threshold=0.0,
        prefix_samples=400,
        chunk_samples=200,
        n_channels=4,
    )
    base.update(overrides)
    return RunConfig(**base)


# ------------------------------------------------------------ cache keying
class TestCacheKey:
    def test_size_bucket_rounds_up_to_powers_of_two(self):
        assert [size_bucket(v) for v in (0, 1, 2, 3, 4, 5, 1000, 1024, 1025)] == [
            0,
            1,
            2,
            4,
            4,
            8,
            1024,
            1024,
            2048,
        ]

    def test_key_is_stable_within_a_process(self):
        shape = WorkloadShape(reference_columns=4790, n_channels=8, chunk_samples=400)
        assert cache_key(shape) == cache_key(shape)

    def test_key_is_stable_across_processes(self):
        """The key must be derived, never randomized: a second process
        computing the key for the same shape must hit the first's entry."""
        shape = WorkloadShape(reference_columns=4790, n_channels=8, chunk_samples=400)
        script = (
            "from repro.tune import WorkloadShape, cache_key;"
            "print(cache_key(WorkloadShape(reference_columns=4790,"
            " n_channels=8, chunk_samples=400)), end='')"
        )
        other = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert other.stdout == cache_key(shape)

    def test_key_separates_shapes_but_buckets_nearby_sizes(self):
        near = WorkloadShape(reference_columns=4790, n_channels=8, chunk_samples=400)
        same_bucket = WorkloadShape(
            reference_columns=4801, n_channels=8, chunk_samples=400
        )
        far = WorkloadShape(reference_columns=190000, n_channels=8, chunk_samples=400)
        assert cache_key(near) == cache_key(same_bucket)
        assert cache_key(near) != cache_key(far)
        assert cache_key(near) != cache_key(
            WorkloadShape(reference_columns=4790, n_channels=512, chunk_samples=400)
        )

    def test_key_carries_the_dtype_path(self):
        int_shape = WorkloadShape(reference_columns=1000)
        float_shape = WorkloadShape(
            reference_columns=1000, hardware=SDTWConfig.vanilla()
        )
        assert int_shape.dtype_path == "int32"
        assert float_shape.dtype_path == "float64"
        assert cache_key(int_shape) != cache_key(float_shape)

    def test_host_fingerprint_fields(self):
        fingerprint = host_fingerprint()
        assert set(fingerprint) == {"cpu_count", "platform", "python", "numpy", "blas"}
        assert fingerprint["cpu_count"] >= 1


# ------------------------------------------------------- cache file hygiene
class TestTuningCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = TuningCache(path)
        decision = TunedDecision(backend="numpy", prune=True, cell_rate=1e8)
        cache.put("key", decision.as_dict())
        assert cache.save()
        reloaded = TuningCache(path)
        assert "key" in reloaded
        entry = reloaded.get("key")
        assert TunedDecision.from_dict(entry).backend == "numpy"
        assert TunedDecision.from_dict(entry).prune is True

    def test_missing_file_loads_empty(self, tmp_path):
        cache = TuningCache(tmp_path / "absent.json")
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",
            '"a bare string"',
            "[1, 2, 3]",
            json.dumps({"schema": SCHEMA_VERSION + 1, "entries": {"k": {"backend": "numpy"}}}),
            json.dumps({"entries": {"k": {"backend": "numpy"}}}),
            json.dumps({"schema": SCHEMA_VERSION, "entries": "not-a-mapping"}),
        ],
    )
    def test_corrupted_or_stale_files_load_empty_without_raising(
        self, tmp_path, payload
    ):
        path = tmp_path / "tune.json"
        path.write_text(payload)
        cache = TuningCache(path)
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_unwritable_path_is_nonfatal(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed")
        cache = TuningCache(blocker / "tune.json")
        cache.put("k", {"backend": "numpy"})
        assert cache.save() is False  # degraded, not raised

    def test_clear_removes_the_file(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = TuningCache(path)
        cache.put("k", {"backend": "numpy"})
        cache.save()
        assert path.exists()
        cache.clear()
        assert not path.exists()
        assert len(cache) == 0

    def test_decision_from_dict_ignores_unknown_fields(self):
        decision = TunedDecision.from_dict(
            {"backend": "numpy", "future_field": 1, "cell_rate": 2.0}
        )
        assert decision.backend == "numpy"
        assert decision.cell_rate == 2.0


# --------------------------------------------------- RunConfig integration
class TestRunConfigTuneFields:
    def test_auto_backend_validates(self):
        assert RunConfig(genome="ACGT" * 100, backend="auto").backend == "auto"
        assert RunConfig(genome="ACGT" * 100, backend="AUTO").backend == "auto"

    def test_auto_rejects_manual_sizing(self):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(backend="auto", workers=2)
        with pytest.raises(ValueError, match="workers"):
            RunConfig(backend="auto", tile_columns=64)

    def test_tune_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="tune_budget_s"):
            RunConfig(tune_budget_s=0.0)
        with pytest.raises(ValueError, match="tune_budget_s"):
            RunConfig(tune_budget_s=-1.0)

    def test_dict_roundtrip_of_tune_fields(self):
        config = RunConfig(
            genome="ACGT" * 100,
            backend="auto",
            tune={"ignore_cache": True, "margin": 2.0},
            tune_budget_s=0.5,
        )
        data = config.to_dict()
        assert data["backend"] == "auto"
        assert data["tune"] == {"ignore_cache": True, "margin": 2.0}
        assert data["tune_budget_s"] == 0.5
        restored = RunConfig.from_dict(json.loads(json.dumps(data)))
        assert restored == config

    def test_defaults_roundtrip(self):
        config = RunConfig(genome="ACGT" * 100)
        restored = RunConfig.from_dict(config.to_dict())
        assert restored.tune is None
        assert restored.tune_budget_s == 2.0


# ------------------------------------------------------------ shape + search
class TestWorkloadShape:
    def test_estimate_matches_built_panel_bucket(self):
        """The genome-length estimate and the built panel's exact column
        count must land on the same cache key (power-of-two bucketing)."""
        config = small_config()
        estimated = WorkloadShape.from_config(config)
        panel = config.resolve_panel()
        exact = WorkloadShape.from_config(config, panel=panel)
        assert exact.reference_columns == panel.n_positions
        assert cache_key(estimated) == cache_key(exact)

    def test_default_shape_when_no_target_named(self):
        shape = WorkloadShape.from_config(RunConfig(prefix_samples=500))
        assert shape.reference_columns > 0
        assert shape.chunk_samples == 500

    def test_candidates_only_name_installed_backends(self):
        installed = set(installed_backends())
        assert "numpy" in installed
        shape = WorkloadShape(reference_columns=4790, n_channels=8, chunk_samples=400)
        candidates = generate_candidates(shape)
        assert candidates, "candidate list must never be empty"
        assert candidates[0].backend == "numpy"
        assert {c.backend for c in candidates} <= installed
        # Thread counts are a numpy-backend knob: one candidate per count.
        threaded = [c.workers for c in candidates if c.workers is not None]
        assert all(c.backend == "numpy" for c in candidates if c.workers is not None)
        assert len(threaded) == len(set(threaded))


# ------------------------------------------------------------- tune_config
class TestTuneConfig:
    def test_probes_then_caches(self):
        config = small_config(backend="auto")
        first = tune_config(config)
        assert first.decision.cache_hit is False
        assert first.decision.n_probes >= 1
        assert first.decision.backend in installed_backends()
        assert first.results, "a fresh resolution must report its probe table"
        second = tune_config(config)
        assert second.decision.cache_hit is True
        assert second.decision.backend == first.decision.backend
        assert second.results == ()

    def test_ignore_cache_reprobes(self):
        config = small_config(backend="auto")
        tune_config(config)
        again = tune_config(config.with_(tune={"ignore_cache": True}))
        assert again.decision.cache_hit is False
        assert again.decision.n_probes >= 1

    def test_budget_bounds_probe_count(self):
        """With a vanishingly small budget exactly one probe runs (the
        first candidate always completes so resolution never comes back
        empty), and the sweep stops immediately after."""
        config = small_config(backend="auto", tune_budget_s=1e-6)
        outcome = tune_config(config)
        assert outcome.decision.n_probes == 1
        assert outcome.decision.backend == "numpy"

    def test_budget_bounds_wall_clock(self):
        config = small_config(backend="auto", tune_budget_s=0.2)
        start = time.perf_counter()
        outcome = tune_config(config)
        elapsed = time.perf_counter() - start
        # Budget + the one always-completed probe + workload synthesis; the
        # generous factor absorbs slow CI machines, the assertion still
        # catches an unbounded sweep.
        assert elapsed < 10.0
        assert outcome.decision.probed_s > 0.0

    def _plant_cached_backend(self, config, backend, workers=None):
        """Write a hand-made cache entry for ``config``'s shape naming ``backend``."""
        cache = TuningCache()
        cache.put(
            cache_key(WorkloadShape.from_config(config)),
            {"backend": backend, "workers": workers, "tile_columns": None,
             "prune": False, "lb_cascade": False},
        )
        assert cache.save()

    def test_cached_unregistered_backend_is_a_miss(self):
        config = small_config(backend="auto", tune_budget_s=1e-6)
        # Deleted backends a cache written by an older version may still name.
        for backend, workers in (("gpu", None), ("sharded", 2)):
            self._plant_cached_backend(config, backend, workers=workers)
            outcome = tune_config(config)
            assert outcome.decision.cache_hit is False, backend
            assert outcome.decision.backend == "numpy"
            resolved, _ = resolve_auto(config)
            assert resolved.backend == "numpy"

    def test_cached_native_without_compiled_kernel_is_a_miss(self, monkeypatch):
        import repro.batch.native as native

        monkeypatch.setattr(native, "numba_available", lambda: False)
        monkeypatch.setattr(native, "cython_kernel_available", lambda: False)
        config = small_config(backend="auto", tune_budget_s=1e-6)
        self._plant_cached_backend(config, "native")
        outcome = tune_config(config)
        assert outcome.decision.cache_hit is False
        assert outcome.decision.backend == "numpy"
        # The re-probe replaced the entry, so the next lookup hits.
        assert tune_config(config).decision.cache_hit is True

    def test_decision_applies_to_a_valid_config(self):
        config = small_config(backend="auto")
        resolved, decision = resolve_auto(config)
        assert resolved.backend == decision.backend
        assert resolved.backend != "auto"
        assert resolved.backend in installed_backends()

    def test_resolve_auto_is_identity_for_pinned_configs(self):
        config = small_config(backend="numpy")
        resolved, decision = resolve_auto(config)
        assert resolved is config
        assert decision.backend == "numpy"

    def test_probe_table_rows(self):
        outcome = tune_config(small_config(backend="auto"))
        rows = outcome.table()
        assert rows
        assert {"candidate", "seconds", "cells_per_s"} <= set(rows[0])


# ---------------------------------------------------- session bit-identity
@pytest.fixture(scope="module")
def tune_flowcell_reads(mixture, kmer_model):
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
def tune_threshold(reference_squiggle, target_signals, nontarget_signals):
    classifier = BatchSquiggleClassifier(reference_squiggle, prefix_samples=800)
    return classifier.calibrate(target_signals, nontarget_signals, chunk_samples=400)


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


class TestSessionAutoBackend:
    def _config(self, reference, threshold, **overrides):
        base = dict(
            reference=reference,
            threshold=threshold,
            prefix_samples=800,
            chunk_samples=400,
            n_channels=8,
        )
        base.update(overrides)
        return RunConfig(**base)

    def test_auto_decisions_bit_identical_to_pinned(
        self,
        reference_squiggle,
        target_genome,
        tune_threshold,
        tune_flowcell_reads,
    ):
        """Acceptance: the seeded 8-channel flowcell decides identically
        with backend='auto' (whatever point the tuner picks) and with the
        chosen backend pinned by hand."""
        auto_config = self._config(
            reference_squiggle, tune_threshold, backend="auto"
        )
        with open_session(auto_config) as session:
            auto_result = session.run(
                tune_flowcell_reads, target_genome=target_genome
            )
            tuned = session.tuned
            assert tuned is not None
            summary = session.summary()
        assert summary["backend"] == tuned.backend
        assert summary["tuned"]["backend"] == tuned.backend
        assert summary["tuned"]["cache_hit"] is False

        pinned_config = self._config(
            reference_squiggle,
            tune_threshold,
            backend=tuned.backend,
            workers=tuned.workers,
            tile_columns=tuned.tile_columns,
            prune=tuned.prune,
            lb_cascade=tuned.lb_cascade,
        )
        with open_session(pinned_config) as session:
            pinned_result = session.run(
                tune_flowcell_reads, target_genome=target_genome
            )
        assert _decision_fields(auto_result) == _decision_fields(pinned_result)

        # And identical to plain brute-force numpy: tuning may only change
        # speed, never a decision.
        numpy_config = self._config(reference_squiggle, tune_threshold)
        with open_session(numpy_config) as session:
            numpy_result = session.run(
                tune_flowcell_reads, target_genome=target_genome
            )
        assert _decision_fields(auto_result) == _decision_fields(numpy_result)

    def test_second_session_hits_the_cache(
        self, reference_squiggle, tune_threshold
    ):
        config = self._config(reference_squiggle, tune_threshold, backend="auto")
        with open_session(config) as session:
            session.classifier  # spawn -> resolve
            first = session.tuned
        with open_session(config) as session:
            session.classifier
            second = session.tuned
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert second.backend == first.backend

    def test_tune_probe_spans_traced(self, reference_squiggle, tune_threshold):
        config = self._config(
            reference_squiggle, tune_threshold, backend="auto", trace=True
        )
        with open_session(config) as session:
            session.classifier
            phases = session.summary().get("phase_totals", {})
        assert "tune.probe" in phases
        assert phases["tune.probe"]["count"] >= 1

    def test_backend_name_before_and_after_resolution(
        self, reference_squiggle, tune_threshold
    ):
        config = self._config(reference_squiggle, tune_threshold, backend="auto")
        with open_session(config) as session:
            assert session.backend_name == "auto"
            session.classifier
            assert session.backend_name != "auto"


# ------------------------------------------------------------ serve memoizing
class TestServeAutoBackend:
    def test_template_resolved_once_and_gauge_exported(self):
        async def scenario():
            metrics = MetricsRegistry()
            manager = SessionManager(
                BackendPool(max_concurrency=1, max_queue=1),
                metrics=metrics,
                default_config={
                    "genome": "ACGT" * 300,
                    "threshold": 0.0,
                    "prefix_samples": 400,
                    "chunk_samples": 200,
                    "backend": "auto",
                },
            )
            try:
                first = manager.create()
                second = manager.create()
                assert first["backend"] != "auto"
                assert second["backend"] == first["backend"]
                assert first["tuned"]["backend"] == first["backend"]
                # The second tenant replays the per-template memo: no
                # probes ran for it.
                assert second["tuned"]["cache_hit"] is True
                text = metrics.render()
                assert "repro_serve_tuned_backend" in text
                assert f'backend="{first["backend"]}"' in text
            finally:
                await manager.drain()
                await manager.pool.close()

        asyncio.run(scenario())
