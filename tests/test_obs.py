"""Tests for end-to-end tracing and unified telemetry (``repro.obs``).

Four layers, mirroring the subsystem:

* **Tracer** — span nesting and the self-time decomposition invariant
  (phase self times partition root-span wall clock exactly), the bounded
  flight recorder vs the accumulating phase totals, span arguments added
  at close (``annotate``), and the disabled path (one shared no-op span,
  nothing recorded).
* **Export** — Chrome trace-event/Perfetto documents: structural
  validation (required keys, non-negative timings, no same-lane overlap),
  both accepted file forms, and the per-phase table the ``repro trace``
  subcommand prints.
* **Metrics** — the Prometheus escaping fix (backslash/quote/newline in
  label values).
* **Sessions** — the acceptance property: on every registered execution
  backend, a traced seeded flowcell decides bit-identically to an
  untraced one; traced runs surface ``session.trace()``, per-phase
  summary totals, stripe timings on ``backend.wavefront`` when the numpy
  backend stripes lanes over threads, and a valid exported trace file via
  ``trace_path``.
"""

import json

import pytest

from repro.batch.classifier import BatchSquiggleClassifier
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    load_trace,
    phase_table,
    records_to_events,
    stripe_summary,
    validate_trace,
    write_chrome_trace,
)
from repro.pipeline.read_until import ReadUntilPipeline
from repro.runtime import RunConfig, open_session
from repro.sequencer.reads import ReadGenerator, ReadLengthModel

# Same matrix as tests/test_runtime_session.py.
OBS_BACKENDS = [
    ("numpy", {}),
    ("numpy", {"workers": 2}),
    ("numpy", {"workers": 3, "tile_columns": 600}),
]
OBS_BACKEND_IDS = ["numpy", "numpy-workers2", "numpy-workers3-tiled"]


# ---------------------------------------------------------------- tracer
class TestTracer:
    def test_span_nesting_and_self_time_decomposition(self):
        tracer = Tracer(track="t")
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child"):
                pass
        records = tracer.records()
        assert [r.name for r in records] == ["grandchild", "child", "child", "root"]
        assert [r.depth for r in records] == [2, 1, 1, 0]
        root = records[-1]
        phases = tracer.phase_totals()
        assert phases["child"].count == 2
        # Self times across the track partition the root span's wall clock.
        total_self = sum(stat.self_s for stat in phases.values())
        assert total_self == pytest.approx(root.duration_s, abs=1e-9)
        # A parent's self time excludes its children entirely.
        assert phases["root"].self_s <= root.duration_s
        assert phases["child"].total_s >= phases["grandchild"].total_s

    def test_instant_events_record_kind_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.instant("tick", lane=3)
        instant = tracer.records()[0]
        assert instant.kind == "instant"
        assert instant.duration_s == 0.0
        assert instant.depth == 1
        assert instant.args == {"lane": 3}

    def test_span_args_survive_into_the_record(self):
        tracer = Tracer()
        with tracer.span("step", poll=7, n_lanes=4):
            pass
        assert tracer.records()[0].args == {"poll": 7, "n_lanes": 4}

    def test_flight_recorder_is_bounded_but_totals_accumulate(self):
        tracer = Tracer(capacity=4)
        for _ in range(10):
            with tracer.span("round"):
                pass
        assert len(tracer) == 4
        assert tracer.phase_totals()["round"].count == 10
        assert tracer.count("round") == 10
        assert tracer.total_s("round") > 0.0

    def test_annotate_adds_args_known_at_close(self):
        tracer = Tracer()
        with tracer.span("backend.wavefront", stripes=2) as span:
            span.annotate(stripe_max_s=0.5, stripe_min_s=0.25)
        with tracer.span("plain") as span:
            span.annotate(late=True)
        wavefront, plain = tracer.records()
        assert wavefront.args == {"stripes": 2, "stripe_max_s": 0.5, "stripe_min_s": 0.25}
        assert plain.args == {"late": True}

    def test_disabled_tracer_is_a_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")
        with tracer.span("a", key="value") as span:
            tracer.instant("event")
            span.annotate(late=True)
        assert len(tracer) == 0
        assert tracer.phase_totals() == {}
        assert len(NULL_TRACER) == 0

    def test_clear_resets_recorder_and_totals(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.phase_totals() == {}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)


# ---------------------------------------------------------------- export
def _sample_tracer():
    tracer = Tracer(track="main")
    with tracer.span("round"):
        with tracer.span("backend.wavefront", stripes=2) as span:
            span.annotate(stripe_max_s=0.004, stripe_min_s=0.001)
        tracer.instant("retire", lane=1)
    return tracer


class TestExport:
    def test_records_to_events_shape(self):
        events = records_to_events(_sample_tracer().records())
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in metadata} == {"main"}
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"round", "backend.wavefront"}
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "retire"
        assert instants[0]["s"] == "t"
        assert all(e["ts"] >= 0 for e in spans + instants)
        assert min(e["ts"] for e in spans) == 0.0  # rebased to the epoch

    def test_write_validate_and_phase_table_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_sample_tracer(), str(path), metadata={"backend": "numpy"})
        document = load_trace(str(path))
        assert document["metadata"] == {"backend": "numpy"}
        complete = validate_trace(document)
        assert {e["name"] for e in complete} == {"round", "backend.wavefront"}
        rows = phase_table(document)
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)
        assert {row["phase"] for row in rows} == {"round", "backend.wavefront"}
        assert stripe_summary(document) == {
            "spans": 1,
            "stripes": 2,
            "slowest_s": 0.004,
            "fastest_s": 0.001,
            "idle_tail_s": pytest.approx(0.003),
        }

    def test_load_trace_accepts_bare_event_arrays(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(records_to_events(_sample_tracer().records())))
        assert validate_trace(load_trace(str(path)))

    def test_load_trace_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="traceEvents"):
            load_trace(str(path))

    @pytest.mark.parametrize(
        "event,message",
        [
            ({"ph": "X", "ts": 0, "pid": 1, "tid": 1, "dur": 1}, "missing required key"),
            ({"name": "a", "ph": "X", "ts": -1, "pid": 1, "tid": 1, "dur": 1}, "negative ts"),
            ({"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1, "dur": -2}, "negative dur"),
            ({"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1}, "missing dur"),
        ],
    )
    def test_validate_trace_names_the_violation(self, event, message):
        with pytest.raises(ValueError, match=message):
            validate_trace({"traceEvents": [event]})

    def test_validate_trace_rejects_same_lane_overlap(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError, match="overlapping spans"):
            validate_trace({"traceEvents": events})
        # The same interval pair on *different* depths is legal nesting.
        events[1]["args"] = {"depth": 1}
        assert len(validate_trace({"traceEvents": events})) == 2


# --------------------------------------------------------------- metrics
class TestMetricsEscaping:
    def test_hostile_label_values_render_on_one_escaped_line(self):
        registry = MetricsRegistry()
        hostile = 'we"ird\\lab\nel'
        registry.inc("obs_test_total", session=hostile)
        lines = [
            line
            for line in registry.render().splitlines()
            if line.startswith("obs_test_total{")
        ]
        # The newline must not split the sample across physical lines.
        assert len(lines) == 1
        assert lines[0] == 'obs_test_total{session="we\\"ird\\\\lab\\nel"} 1'

    def test_backslash_escaped_before_quote_and_newline(self):
        registry = MetricsRegistry()
        registry.inc("obs_order_total", path="a\\nb")  # literal backslash + n
        (line,) = [
            line
            for line in registry.render().splitlines()
            if line.startswith("obs_order_total{")
        ]
        # A pre-escaped input must not collapse into a real newline escape.
        assert line == 'obs_order_total{path="a\\\\nb"} 1'

    def test_hostile_run_config_label_survives_the_metrics_path(self):
        # A tenant may name its run anything RunConfig.label accepts —
        # including exposition-format metacharacters.
        config = RunConfig(genome="ACGT" * 100, label='flow"cell\\A')
        registry = MetricsRegistry()
        registry.inc("obs_label_total", label=config.label)
        (line,) = [
            line
            for line in registry.render().splitlines()
            if line.startswith("obs_label_total{")
        ]
        assert line == 'obs_label_total{label="flow\\"cell\\\\A"} 1'


# -------------------------------------------------------------- sessions
@pytest.fixture(scope="module")
def obs_flowcell_reads(mixture, kmer_model):
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(
            mean_bases=280, sigma=0.15, min_bases=220, max_bases=460
        ),
        seed=20210825,
    )
    reads = [generator.generate_one(source="virus") for _ in range(3)]
    reads += [generator.generate_one(source="host") for _ in range(9)]
    return reads


@pytest.fixture(scope="module")
def obs_threshold(reference_squiggle, target_signals, nontarget_signals):
    classifier = BatchSquiggleClassifier(reference_squiggle, prefix_samples=800)
    return classifier.calibrate(target_signals, nontarget_signals, chunk_samples=400)


def _session_config(reference, threshold, **overrides):
    base = dict(
        reference=reference,
        threshold=threshold,
        prefix_samples=800,
        chunk_samples=400,
        n_channels=8,
    )
    base.update(overrides)
    return RunConfig(**base)


def _decision_fields(result):
    return {
        outcome.read.read_id: (
            outcome.ejected,
            outcome.decision.cost if outcome.decision else None,
            outcome.decision.samples_used if outcome.decision else None,
            outcome.decision.end_position if outcome.decision else None,
        )
        for outcome in result.session.outcomes
    }


@pytest.fixture(scope="module")
def untraced_baseline(
    reference_squiggle, target_genome, obs_threshold, obs_flowcell_reads
):
    config = _session_config(reference_squiggle, obs_threshold)
    with open_session(config) as session:
        result = session.run(obs_flowcell_reads, target_genome=target_genome)
    return _decision_fields(result)


class TestTracedSessions:
    @pytest.mark.parametrize("backend,extra", OBS_BACKENDS, ids=OBS_BACKEND_IDS)
    def test_tracing_never_changes_decisions(
        self,
        backend,
        extra,
        reference_squiggle,
        target_genome,
        obs_threshold,
        obs_flowcell_reads,
        untraced_baseline,
    ):
        """Acceptance: traced == untraced, bit for bit, on every backend."""
        config = _session_config(
            reference_squiggle, obs_threshold, backend=backend, trace=True, **extra
        )
        with open_session(config) as session:
            result = session.run(obs_flowcell_reads, target_genome=target_genome)
            records = session.trace()
            summary = session.summary()
        assert _decision_fields(result) == untraced_baseline, backend

        names = {record.name for record in records}
        assert {"session.round", "engine.step", "backend.advance"} <= names
        # Spans nest session -> round -> engine -> backend on one track.
        rounds = [r for r in records if r.name == "session.round"]
        steps = [r for r in records if r.name == "engine.step"]
        assert rounds and steps
        assert all(r.depth == 0 for r in rounds)
        assert all(s.depth > 0 for s in steps)

        assert "phase_totals" in summary
        assert summary["phase_totals"]["engine.step"]["count"] == len(steps)
        assert summary["round_wall_s"] > 0.0
        assert summary["n_polls"] >= summary["busy_rounds"] > 0

        # One track: the stripe threads never write to the tracer. Striped
        # rounds carry their stripe timings on the backend.wavefront span.
        assert {r.track for r in records} == {"session"}
        wavefronts = [r for r in records if r.name == "backend.wavefront"]
        striped = [r.args for r in wavefronts if r.args and "stripes" in r.args]
        if "workers" in extra:
            assert striped
            for args in striped:
                assert 2 <= args["stripes"] <= extra["workers"]
                assert args["stripe_max_s"] >= args["stripe_min_s"] > 0.0
        else:
            assert not striped

    def test_untraced_session_records_nothing(
        self, reference_squiggle, target_genome, obs_threshold, obs_flowcell_reads
    ):
        config = _session_config(reference_squiggle, obs_threshold)
        with open_session(config) as session:
            session.run(obs_flowcell_reads, target_genome=target_genome)
            assert session.trace() == []
            assert not session.tracer.enabled
            summary = session.summary()
        assert "phase_totals" not in summary
        assert summary["round_wall_s"] > 0.0
        assert summary["busy_rounds"] > 0

    def test_trace_path_exports_stripe_args_on_close(
        self,
        tmp_path,
        reference_squiggle,
        target_genome,
        obs_threshold,
        obs_flowcell_reads,
    ):
        path = tmp_path / "striped.json"
        config = _session_config(
            reference_squiggle,
            obs_threshold,
            backend="numpy",
            workers=2,
            trace_path=str(path),
            label="obs-test",
        )
        with open_session(config) as session:
            session.run(obs_flowcell_reads, target_genome=target_genome)
        document = load_trace(str(path))
        assert document["metadata"]["backend"] == "numpy"
        assert document["metadata"]["label"] == "obs-test"
        complete = validate_trace(document)
        assert len({event["tid"] for event in complete}) == 1
        stripes = stripe_summary(document)
        assert stripes is not None and stripes["stripes"] == 2
        assert stripes["slowest_s"] >= stripes["fastest_s"] > 0.0
        assert stripes["idle_tail_s"] == pytest.approx(
            stripes["slowest_s"] - stripes["fastest_s"]
        )

    def test_pipeline_batch_path_and_session_share_the_tracer(
        self, reference_squiggle, target_genome, obs_threshold, obs_flowcell_reads
    ):
        """Driving the session through ReadUntilPipeline traces identically."""
        config = _session_config(reference_squiggle, obs_threshold, trace=True)
        with open_session(config) as session:
            ReadUntilPipeline(
                session,
                target_genome,
                assemble=False,
                chunk_samples=400,
                n_channels=8,
                batch=True,
            ).run(obs_flowcell_reads)
            assert session.tracer.count("session.round") > 0
            assert session.tracer.count("round.decide") > 0


# -------------------------------------------------------------------- CLI
class TestTraceCli:
    def test_trace_subcommand_prints_phase_table(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.json"
        write_chrome_trace(_sample_tracer(), str(path))
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans on 1 track(s)" in out
        assert "phase" in out and "self %" in out
        assert "backend.wavefront" in out
        assert (
            "striped wavefronts: 1 spans, up to 2 stripes; slowest stripe "
            "4.000 ms, fastest 1.000 ms, idle tail 3.000 ms"
        ) in out

    def test_trace_subcommand_rejects_invalid_files(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        assert main(["trace", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert main(["trace", str(bad)]) == 2
        assert "missing required key" in capsys.readouterr().err

    def test_read_until_trace_flag_writes_a_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        exit_code = main(
            [
                "read-until",
                "--trace",
                str(path),
                "--n-reads",
                "8",
                "--target-length",
                "600",
                "--background-length",
                "2400",
                "--calibration-reads-per-class",
                "4",
            ]
        )
        assert exit_code == 0
        assert "wrote trace to" in capsys.readouterr().out
        assert validate_trace(load_trace(str(path)))
