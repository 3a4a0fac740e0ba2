"""Closed-loop replay through ``repro.runtime.open_session``.

One client polls the simulated flowcell, submits the round's chunks with
``session.submit`` and applies the returned actions before polling again,
so a slower program receives less load (closed loop). A chunk's latency is
the ``submit`` call that carried it; throughput is the raw signal samples
submitted per second of loop wall time, read synthesis excluded.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional

from repro.runtime import open_session

from ledger import Ledger, quantile
from workloads import Inputs, ReadSupply, Tally, score

# A set-up takes about a millisecond, so one follows the host's momentary
# speed: set-ups are repeated this often before the measured window and
# again after it, and setup_s is the median over both.
SETUP_REPEATS = 101


def timed_setup(inputs: Inputs, ledger: Optional[Ledger] = None):
    """Open a session and spawn its classifier; returns (session, seconds).

    The classifier access builds the reference panel (through
    ``RunConfig.resolve_panel``) and spawns the classifier, engine and
    execution backend. With a ledger, the panel build and the spawn are
    recorded as their own spans.
    """
    config = inputs.config
    if ledger is not None:
        # Instance-level wrapper on this one frozen config object only.
        object.__setattr__(
            config, "resolve_panel", ledger.wrap("core.panel_build", config.resolve_panel)
        )
    try:
        start = time.perf_counter()
        session = open_session(config)
        if ledger is None:
            session.classifier
        else:
            ledger.wrap("runtime.spawn", lambda: session.classifier)()
        return session, time.perf_counter() - start
    finally:
        if ledger is not None:
            object.__delattr__(config, "resolve_panel")


def instrument(session, ledger: Ledger) -> List[int]:
    """Wrap each layer's public entry point on this session's objects.

    Returns the list the wrapped ``engine.step`` appends its lane count to.
    """
    classifier = session.classifier
    ledger.instrument(session, "submit", "runtime.submit")
    ledger.instrument(classifier, "on_chunk_batch", "batch.classifier")
    ledger.instrument(classifier.normalizer, "normalize", "core.normalize")
    ledger.instrument(classifier.normalizer, "quantize", "core.quantize")
    engine = classifier.engine
    step = engine.step
    lanes: List[int] = []

    def counted_step(items):
        lanes.append(len(items))
        return step(items)

    engine.step = ledger.wrap("batch.engine.step", counted_step)
    ledger.instrument(engine.backend, "advance", "batch.backend.advance")
    return lanes


class Replay:
    """One closed-loop pass over a fresh simulator of the workload."""

    def __init__(self, inputs: Inputs, ledger: Optional[Ledger] = None) -> None:
        self.ledger = ledger
        self.supply: ReadSupply = inputs.supply()
        self.simulator = inputs.simulator(self.supply)
        self.tally = Tally()
        self.latencies: List[float] = []  # one entry per chunk
        self.rounds = 0
        self.failed_rounds = 0  # in-process, a raising round aborts the run
        self.samples = 0
        self.wall_s = 0.0
        self.round_walls: List[float] = []  # loop wall after each round

    def run(self, session, seconds: float, max_rounds: Optional[int] = None) -> None:
        poll: Callable = self.simulator.get_read_chunks
        apply: Callable = self._apply
        if self.ledger is not None:
            poll = self.ledger.wrap("bench.simulator.poll", poll)
            apply = self.ledger.wrap("bench.simulator.apply", apply)
        start = time.perf_counter()
        idle_polls = 0
        while True:
            elapsed = time.perf_counter() - start - self.supply.generate_s
            if max_rounds is None and elapsed >= seconds and self.rounds:
                break
            if max_rounds is not None and self.rounds >= max_rounds:
                break
            chunks = poll()
            if not chunks:
                idle_polls += 1
                if idle_polls > 10_000:
                    raise RuntimeError("the simulated flowcell stopped delivering chunks")
                continue
            submitted = time.perf_counter()
            actions = session.submit(chunks)
            latency = time.perf_counter() - submitted
            self.rounds += 1
            self.latencies.extend([latency] * len(chunks))
            self.samples += sum(chunk.chunk_length for chunk in chunks)
            apply(chunks, actions)
            self.round_walls.append(time.perf_counter() - start - self.supply.generate_s)
        self.wall_s = time.perf_counter() - start - self.supply.generate_s
        self.tally.settle(self.simulator)

    def _apply(self, chunks, actions) -> None:
        simulator = self.simulator
        for chunk, action in zip(chunks, actions):
            if not action.is_terminal:
                continue
            self.tally.record(chunk.read_id, action.kind, action.cost, action.samples_used)
            if action.kind == "accept":
                simulator.stop_receiving(chunk.channel, chunk.read_id)
            else:
                simulator.unblock(chunk.channel, chunk.read_id)


def run(inputs: Inputs, seconds: float, trace: bool, check_all: bool = False) -> Dict[str, Any]:
    """Measure one session workload; returns metrics and correctness facts."""
    setups = _setups(inputs)
    result = _replays(inputs, seconds, trace, check_all)
    result["setup_s"] = median(setups + _setups(inputs))
    return result


def _setups(inputs: Inputs) -> List[float]:
    """Seconds of ``SETUP_REPEATS`` set-ups, each session closed again."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        session, elapsed = timed_setup(inputs)
        session.close()
        seconds.append(elapsed)
    return seconds


def _replays(inputs: Inputs, seconds: float, trace: bool, check_all: bool) -> Dict[str, Any]:
    result: Dict[str, Any] = {"problems": []}
    session, _elapsed = timed_setup(inputs)
    try:
        if not trace:
            replay = Replay(inputs)
            replay.run(session, seconds)
            result.update(_end_to_end(replay))
            score(result, [replay], inputs, check_all)
            return result
        # Traced runs replay the window with the wrappers on, then the first
        # half of the same rounds without them: the wall ratio over those
        # rounds is the tracing overhead.
        session.close()
        ledger = Ledger()
        session, _elapsed = timed_setup(inputs, ledger)
        before = session.summary()
        lanes = instrument(session, ledger)
        traced = Replay(inputs, ledger)
        traced.run(session, seconds)
        after = session.summary()
        session.close()
        session, _elapsed = timed_setup(inputs)
        plain = Replay(inputs)
        plain.run(session, seconds, max_rounds=max(1, traced.rounds // 2))
        result["per_layer"] = _per_layer(ledger, lanes, traced, plain, before, after)
        # The untraced pass replays a prefix of the traced one, so matching
        # its decisions extends the traced pass's checks to it.
        if any(traced.tally.decisions.get(read_id) != decision
               for read_id, decision in plain.tally.decisions.items()):
            result["problems"].append("traced and untraced passes decided differently")
        score(result, [traced], inputs, check_all)
        return result
    finally:
        session.close()


def _end_to_end(replay: Replay) -> Dict[str, Any]:
    return {
        "samples_per_s": replay.samples / replay.wall_s,
        "chunk_latency_p50_s": quantile(replay.latencies, 0.50),
        "chunk_latency_p90_s": quantile(replay.latencies, 0.90),
        "chunk_latency_p99_s": quantile(replay.latencies, 0.99),
        "chunks": len(replay.latencies),
        "rounds": replay.rounds,
        "decision_f1": replay.tally.f1(replay.supply.labels),
    }


def _per_layer(ledger: Ledger, lanes: List[int], traced: Replay, plain: Replay,
               before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    total, own, calls = ledger.total_s, ledger.self_s, ledger.calls
    advanced = after["cells_advanced"] - before["cells_advanced"]
    pruned = after["cells_pruned"] - before["cells_pruned"]
    lb_cells = after["cells_lb_skipped"] - before["cells_lb_skipped"]
    nominal = advanced + pruned + lb_cells
    advance_s = total.get("batch.backend.advance", 0.0)
    rounds_s = total.get("runtime.submit", 0.0)
    # Read synthesis runs inside the simulator poll but is excluded from the
    # loop wall, so it is excluded from the covered time too.
    generate_s = traced.supply.generate_s
    simulator_s = own.get("bench.simulator.poll", 0.0) + own.get("bench.simulator.apply", 0.0)
    in_loop = ("runtime.submit", "batch.classifier", "core.normalize", "core.quantize",
               "batch.engine.step", "batch.backend.advance")
    covered = sum(own.get(name, 0.0) for name in in_loop) + simulator_s - generate_s
    return {
        "batch.backend.advance_s": advance_s,
        "batch.backend.advance_calls": calls.get("batch.backend.advance", 0),
        "batch.backend.cells_advanced": advanced,
        "batch.backend.cells_per_s": advanced / advance_s if advance_s else 0.0,
        "batch.backend.kernel_share": advance_s / rounds_s if rounds_s else 0.0,
        "batch.engine.step_calls": calls.get("batch.engine.step", 0),
        "batch.engine.step_self_s": own.get("batch.engine.step", 0.0),
        "batch.engine.lanes_per_step": sum(lanes) / len(lanes) if lanes else 0.0,
        "batch.engine.lb_skipped_lanes": after["lanes_lb_skipped"] - before["lanes_lb_skipped"],
        "batch.engine.skipped_cell_share": (pruned + lb_cells) / nominal if nominal else 0.0,
        "batch.classifier.self_s": own.get("batch.classifier", 0.0),
        "batch.classifier.chunks": len(traced.latencies),
        "core.normalize_s": total.get("core.normalize", 0.0) + total.get("core.quantize", 0.0),
        "core.normalize_calls": calls.get("core.normalize", 0),
        "runtime.submit_s": rounds_s,
        "runtime.submit_self_s": own.get("runtime.submit", 0.0),
        "runtime.spawn_s": own.get("runtime.spawn", 0.0),
        "core.panel_build_s": total.get("core.panel_build", 0.0),
        "bench.simulator_s": simulator_s - generate_s,
        "bench.trace_overhead": traced.round_walls[plain.rounds - 1] / plain.wall_s,
        "bench.ledger_residual_share": abs(traced.wall_s - covered) / traced.wall_s,
    }
