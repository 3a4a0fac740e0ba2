"""Checks of the benchmark's own correctness machinery.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import session_bench  # noqa: E402
from workloads import WORKLOADS, Inputs, Tally, best_f1_threshold, build_inputs  # noqa: E402

# Small shapes of every workload; check_all sends every decided read to the oracle.
SMALL = {
    "flowcell_full": {"n_channels": 24},
    "serve_flowcell": {"n_channels": 8},
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_decision_matches_brute_force(workload):
    overrides = dict(SMALL[workload], calibration_reads_per_class=4)
    result = run.measure(workload, seed=7, seconds=2.0, trace=False, check_all=True,
                         spec_overrides=overrides)
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["oracle_checked"] > 0
    # check_all: the oracle saw every decided read.
    assert result["oracle_checked"] == result["attempted"] - result["rounds"]


def test_traced_run_ledger_sums_to_wall():
    result = run.measure("flowcell_full", seed=7, seconds=2.0, trace=True,
                         spec_overrides={"n_channels": 24})
    assert result["problems"] == []
    layers = result["per_layer"]
    assert layers["bench.ledger_residual_share"] <= run.LEDGER_TOLERANCE
    assert layers["batch.engine.skipped_cell_share"] > 0
    assert layers["bench.trace_overhead"] > 0


def test_simulator_chunk_limit_shows_as_undecided_reads(monkeypatch):
    """A limit below the decision prefix leaves reads undecided: they must
    count as failures, not vanish from the tally."""
    spec = dataclasses.replace(WORKLOADS["flowcell_full"], n_channels=4,
                               calibration_reads_per_class=2)
    inputs = build_inputs(spec, seed=3)
    make_simulator = Inputs.simulator

    def short_simulator(self, supply):
        simulator = make_simulator(self, supply)
        simulator.max_chunks_per_read = 2
        return simulator

    monkeypatch.setattr(Inputs, "simulator", short_simulator)
    session, _seconds = session_bench.timed_setup(inputs)
    with session:
        replay = session_bench.Replay(inputs)
        replay.run(session, seconds=0.5)
    assert replay.tally.undecided


def test_oracle_flags_wrong_decisions():
    spec = dataclasses.replace(WORKLOADS["flowcell_full"], n_channels=4,
                               calibration_reads_per_class=2)
    inputs = build_inputs(spec, seed=5)
    supply = inputs.supply()
    read = next(iter(supply))
    threshold = inputs.config.threshold
    cost = inputs.oracle.cost(read.signal_pa)
    accepted = cost <= threshold

    def failures(kind, reported_cost):
        tally = Tally()
        tally.record(read.read_id, kind, reported_cost, 0)
        return tally.oracle_failures(supply, inputs, check_all=True)[1]

    assert Tally().oracle_failures(supply, inputs) == (0, [])
    assert failures("accept" if accepted else "eject", cost) == []
    # A decision consistent with its own cost, but not with brute force.
    assert len(failures("eject", threshold + 1) if accepted else failures("accept", threshold)) == 1
    # A decision that contradicts its own reported cost.
    assert len(failures("eject" if accepted else "accept", cost)) == 2


def test_best_f1_threshold_follows_prevalence():
    targets, nontargets = [100, 110, 120, 130], [200, 210, 220, 230]
    balanced = best_f1_threshold(targets, nontargets, 0.5)
    rare = best_f1_threshold(targets, nontargets, 0.05)
    assert 130 <= balanced < 200
    # Rare targets: false accepts cost more, so the threshold moves down.
    assert rare < balanced


def test_missing_sources_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    with pytest.raises(SystemExit) as raised:
        run._load_program()
    assert raised.value.code == 2
