"""Closed-loop replay over HTTP against ``repro serve`` in its own process.

The generator (this process, one thread, one keep-alive connection) drives
the tenants in turn: it polls a tenant's simulated flowcell, submits the
round and applies the returned actions before that tenant polls again. One
round is in flight at a time, so no two rounds compete for the host's
cores, and a slower service receives less load. A chunk's latency is its
round's round trip (HTTP, JSON, the service's pool and compute); throughput
is the raw signal samples submitted per second of loop wall time, read
synthesis excluded.

The loop is closed rather than paced at the device's 4 kHz chunk cadence:
at that cadence the service keeps up only with rounds of a few lanes, whose
cost is mostly per-call interpreter overhead, and on a shared 2-vCPU host
their chunk latency p50 and p90 spread 26% and 52% of the median (quartiles,
ten seeds) with the host's state. Rounds of a hundred-odd lanes make the kernel's array work
the bulk of a round.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.serve.client import ServeClient, ServeClientError

from ledger import peak_rss_mb, quantile
from workloads import Inputs, ReadSupply, Tally, score

# Server starts before the measured window (the last one serves it) and
# again after it; setup_s is the median over both, so it samples the host's
# speed on either side of the window.
SETUP_REPEATS = 3
# Rounds per tenant run before the measured window opens: the first rounds
# pay one-off costs (lazy classifier spawn, first-use imports, thread start).
WARMUP_ROUNDS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


# ------------------------------------------------------------ server process
class ServerProcess:
    """``repro serve`` as a child process (started, health-checked, stopped)."""

    def __init__(self, src_dir: str, host: str, port: int) -> None:
        self.host = host
        self.port = port if port else _free_port(host)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", self.host, "--port", str(self.port)],
            env=env,
            stdout=subprocess.DEVNULL,
        )

    def wait_healthy(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with code {self.process.returncode}")
            connection = http.client.HTTPConnection(self.host, self.port, timeout=5.0)
            try:
                connection.request("GET", "/health")
                response = connection.getresponse()
                if response.status == 200 and json.loads(response.read()).get("status") == "ok":
                    return
            except (ConnectionError, OSError, http.client.HTTPException):
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        raise RuntimeError(f"repro serve not healthy within {START_TIMEOUT_S} s")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _free_port(host: str) -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return int(probe.getsockname()[1])


_SERIES = re.compile(r'^(\w+)\{([^}]*)\} (\S+)$')


def scrape(host: str, port: int) -> Dict[str, float]:
    """Sums over sessions of the /metrics series the ledger reads."""
    with ServeClient(host, port) as client:
        text = client.metrics_text()
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        match = _SERIES.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        phase = re.search(r'phase="([^"]*)"', labels)
        key = f"{name}[{phase.group(1)}]" if phase else name
        totals[key] = totals.get(key, 0.0) + float(value)
    return totals


# ----------------------------------------------------------------- generator
@dataclass
class TenantRun:
    """One tenant's closed-loop pass: its session, simulator, tally and timings."""

    session_id: str
    supply: ReadSupply
    simulator: Any
    tally: Tally = field(default_factory=Tally)
    latencies: List[float] = field(default_factory=list)  # per measured chunk
    round_trips: List[float] = field(default_factory=list)  # per measured round
    dropped: Set[str] = field(default_factory=set)  # reads of failed rounds
    rounds: int = 0
    failed_rounds: int = 0
    refused: int = 0
    samples: int = 0

    def step(self, client: ServeClient, measured: bool) -> None:
        """Poll, submit and apply one round."""
        simulator = self.simulator
        chunks = []
        for _ in range(10_000):
            chunks = simulator.get_read_chunks()
            if chunks:
                break
        else:
            raise RuntimeError("the simulated flowcell stopped delivering chunks")
        sent = time.perf_counter()
        try:
            actions, _meta = client.submit_round(self.session_id, chunks)
        except ServeClientError as error:
            # A refused or failed round counts as failed; its reads can no
            # longer be decided consistently, so they are ejected unscored.
            self.failed_rounds += 1
            self.refused += error.status == 429
            for chunk in chunks:
                self.dropped.add(chunk.read_id)
                simulator.unblock(chunk.channel, chunk.read_id)
            return
        round_trip = time.perf_counter() - sent
        self.rounds += 1
        if measured:
            self.round_trips.append(round_trip)
            self.latencies.extend([round_trip] * len(chunks))
            self.samples += sum(chunk.chunk_length for chunk in chunks)
        for chunk, action in zip(chunks, actions):
            if not action.is_terminal:
                continue
            self.tally.record(chunk.read_id, action.kind, action.cost, action.samples_used)
            if action.kind == "accept":
                simulator.stop_receiving(chunk.channel, chunk.read_id)
            else:
                simulator.unblock(chunk.channel, chunk.read_id)


def _drive(client: ServeClient, inputs: Inputs, seconds: float,
           max_rounds: Optional[int] = None) -> Tuple[List[TenantRun], float]:
    """One pass of every tenant; returns the runs and the measured wall.

    The window closes after ``seconds`` of loop wall time, or once each
    tenant made ``max_rounds`` measured rounds.
    """
    runs: List[TenantRun] = []
    try:
        for tenant in range(inputs.spec.tenants):
            supply = inputs.supply(tenant)
            session_id = client.create_session(inputs.tenant_config(tenant))
            runs.append(TenantRun(session_id, supply, inputs.simulator(supply)))
        for _ in range(WARMUP_ROUNDS):
            for run in runs:
                run.step(client, measured=False)

        def synthesis_s() -> float:
            return sum(run.supply.generate_s for run in runs)

        start, synthesized = time.perf_counter(), synthesis_s()
        measured_rounds = 0
        while True:
            wall = time.perf_counter() - start - (synthesis_s() - synthesized)
            if max_rounds is None and wall >= seconds and measured_rounds:
                break
            if max_rounds is not None and measured_rounds >= max_rounds:
                break
            for run in runs:
                run.step(client, measured=True)
            measured_rounds += 1
    finally:
        for run in runs:
            client.close_session(run.session_id)
    for run in runs:
        run.tally.settle(run.simulator, run.dropped)
    return runs, wall


# --------------------------------------------------------------------- run
def timed_start(inputs: Inputs, src_dir: str, host: str, port: int
                ) -> Tuple[ServerProcess, float, float]:
    """Start a server and open every tenant's session on it.

    Returns the running server, the seconds from process start to the last
    session created, and the seconds per session create (the sessions are
    closed again).
    """
    start = time.perf_counter()
    server = ServerProcess(src_dir, host, port)
    try:
        server.wait_healthy()
        created = time.perf_counter()
        with ServeClient(server.host, server.port) as client:
            ids = [client.create_session(inputs.tenant_config(tenant))
                   for tenant in range(inputs.spec.tenants)]
            done = time.perf_counter()
            for session_id in ids:
                client.close_session(session_id)
    except BaseException:
        server.stop()
        raise
    return server, done - start, (done - created) / inputs.spec.tenants


def run(inputs: Inputs, seconds: float, trace: bool, src_dir: str,
        host: str = "127.0.0.1", port: int = 0, check_all: bool = False) -> Dict[str, Any]:
    setups: List[float] = []
    creates: List[float] = []

    def start() -> ServerProcess:
        server, setup_s, create_s = timed_start(inputs, src_dir, host, port)
        setups.append(setup_s)
        creates.append(create_s)
        return server

    for _ in range(SETUP_REPEATS - 1):
        start().stop()
    server = start()
    try:
        result = _replays(server, inputs, seconds, trace, check_all)
    finally:
        server.stop()
    for _ in range(SETUP_REPEATS):
        start().stop()
    result["setup_s"] = median(setups)
    if trace:
        result["per_layer"]["serve.session_create_s"] = median(creates)
    return result


def _replays(server: ServerProcess, inputs: Inputs, seconds: float, trace: bool,
             check_all: bool) -> Dict[str, Any]:
    result: Dict[str, Any] = {"problems": []}
    # No backpressure retries: a refused round counts as failed.
    with ServeClient(server.host, server.port, max_retries=0) as client:
        if not trace:
            runs, wall = _drive(client, inputs, seconds)
            result.update(_end_to_end(runs, wall))
            result["peak_rss_mb"] = peak_rss_mb(str(server.process.pid))
            score(result, runs, inputs, check_all)
            return result
        # The traced pass reads the service's own counters around the window
        # (they include its warm-up rounds); a second, untraced pass over the
        # first half of the same rounds gives the tracing overhead as a
        # round-trip ratio.
        before = scrape(server.host, server.port)
        traced, _wall = _drive(client, inputs, seconds)
        after = scrape(server.host, server.port)
        plain, _wall = _drive(client, inputs, seconds,
                              max_rounds=max(1, len(traced[0].round_trips) // 2))
    result["per_layer"] = _per_layer(before, after, plain, traced)
    if any(traced_run.tally.decisions.get(read_id) != decision
           for plain_run, traced_run in zip(plain, traced)
           for read_id, decision in plain_run.tally.decisions.items()):
        result["problems"].append("traced and untraced passes decided differently")
    score(result, traced, inputs, check_all)
    return result


def _end_to_end(runs: List[TenantRun], wall: float) -> Dict[str, Any]:
    latencies = [value for run in runs for value in run.latencies]
    tally = Tally()
    labels = {}
    for run in runs:
        tally.decisions.update(run.tally.decisions)
        labels.update(run.supply.labels)
    return {
        "samples_per_s": sum(run.samples for run in runs) / wall,
        "chunk_latency_p50_s": quantile(latencies, 0.50),
        "chunk_latency_p90_s": quantile(latencies, 0.90),
        "chunk_latency_p99_s": quantile(latencies, 0.99),
        "chunks": len(latencies),
        "rounds": sum(run.rounds for run in runs),
        "decision_f1": tally.f1(labels),
    }


def _per_layer(before: Dict[str, float], after: Dict[str, float],
               plain: List[TenantRun], traced: List[TenantRun]) -> Dict[str, float]:
    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    rounds = delta("repro_serve_round_latency_seconds_count")
    server_round_s = delta("repro_serve_round_latency_seconds_sum") / rounds
    phases = {
        key[len("repro_serve_round_phase_seconds_sum["):-1]: after[key] - before.get(key, 0.0)
        for key in after
        if key.startswith("repro_serve_round_phase_seconds_sum[")
    }
    compute_s = sum(phases.values())
    advance_s = sum(
        seconds for phase, seconds in phases.items() if phase.startswith("backend.")
        and phase not in ("backend.lb", "backend.prune")
    )
    cells = delta("repro_serve_cells_advanced_total")
    skipped = delta("repro_serve_cells_pruned_total") + delta("repro_serve_cells_lb_skipped_total")
    steps = delta("repro_serve_rounds_total")
    chunks = delta("repro_serve_chunks_total")
    trips = [value for run in traced for value in run.round_trips]
    plain_trips = [value for run in plain for value in run.round_trips]
    # The untraced pass covers the first half of the traced pass's rounds.
    first_half = [value for run, base in zip(traced, plain)
                  for value in run.round_trips[: len(base.round_trips)]]
    return {
        "batch.backend.advance_s": advance_s,
        "batch.backend.cells_advanced": cells,
        "batch.backend.cells_per_s": cells / advance_s if advance_s else 0.0,
        "batch.backend.kernel_share": advance_s / compute_s if compute_s else 0.0,
        "batch.engine.step_calls": steps,
        "batch.engine.step_self_s": phases.get("engine.step", 0.0),
        "batch.engine.lanes_per_step": chunks / steps,
        "batch.engine.skipped_cell_share": skipped / (cells + skipped) if cells else 0.0,
        "batch.classifier.chunks": chunks,
        "serve.server_round_s": server_round_s,
        "serve.transport_s": sum(trips) / len(trips) - server_round_s,
        "serve.pool_wait_s": (delta("repro_serve_round_latency_seconds_sum") - compute_s) / rounds,
        "serve.refused": sum(run.refused for run in traced),
        "bench.trace_overhead": (sum(first_half) / len(first_half))
        / (sum(plain_trips) / len(plain_trips)),
    }
