"""Chunk-in -> action-out Read Until benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flowcell_full --seed 1 --seconds 40 --trace 0

Replays a seeded, pore-model-synthesized flowcell through the public entry
points — ``repro.runtime.open_session`` for ``flowcell_full``, a
``repro serve`` process for ``serve_flowcell`` — and checks every run's
decisions: reads must all be decided, and a seeded sample is re-decided by
brute-force scalar ``sdtw_resume``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``. The
declared latency tail is the chunk p90: a run holds a few dozen to a few
hundred rounds, so the p99 falls on its slowest one or two and is printed
on the details line only.
``--trace 1`` reports its per-layer metrics: the same rounds are replayed
untraced and then with benchmark-side wrappers around each module's public
calls, giving per-layer self times (which must sum to the traced loop wall
within ``LEDGER_TOLERANCE``) and the tracing overhead. Metrics a workload
cannot observe (the serve layers on in-process workloads, the in-process
layers behind HTTP) read 0 and are listed on stderr.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 on an oracle mismatch, an
undecided read or a ledger outside its tolerance, 2 when the program's
sources are missing.

``--serve-host``/``--serve-port`` set where the service listens (port 0:
any free port).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Share of the traced loop wall the per-layer self times may leave
# unexplained (the replay loop's own bookkeeping between wrapped calls).
LEDGER_TOLERANCE = 0.02


def _load_program() -> None:
    """Put the checkout's sources first on the path, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            serve_host: str = "127.0.0.1", serve_port: int = 0,
            check_all: bool = False,
            spec_overrides: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run one workload; returns the raw result of its bench module."""
    import serve_bench
    import session_bench
    from ledger import peak_rss_mb
    from workloads import WORKLOADS, build_inputs, host_calibration

    spec = WORKLOADS[workload]
    if spec_overrides:
        spec = dataclasses.replace(spec, **spec_overrides)
    inputs = build_inputs(spec, seed)
    calib = host_calibration()
    if spec.mode == "serve":
        result = serve_bench.run(
            inputs, seconds, trace, SRC, serve_host, serve_port, check_all=check_all
        )
    else:
        result = session_bench.run(inputs, seconds, trace, check_all=check_all)
        result["peak_rss_mb"] = peak_rss_mb()
    result["threshold"] = inputs.config.threshold
    result["generate_s"] = inputs.generate_s
    if trace:
        result["per_layer"]["host.calib_cells_per_s"] = calib
        residual = result["per_layer"].get("bench.ledger_residual_share")
        if residual is not None and residual > LEDGER_TOLERANCE:
            result["problems"].append(
                f"per-layer self times leave {residual:.2%} of the traced wall "
                f"unexplained (tolerance {LEDGER_TOLERANCE:.0%})"
            )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-host", default="127.0.0.1")
    parser.add_argument("--serve-port", type=int, default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    names = [workload["name"] for workload in declared["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    _load_program()

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.serve_host, args.serve_port)
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        declared_metrics = declared["per_layer"]
        observed = result["per_layer"]
    else:
        declared_metrics = declared["end_to_end"]
        observed = dict(result, success_fraction=1.0 - failed / attempted)
    metrics, unobserved = {}, []
    for metric in declared_metrics:
        name = metric["name"]
        if name not in observed:
            unobserved.append(name)
        metrics[name] = {"value": float(observed.get(name, 0.0)), "unit": metric["unit"]}

    details = {key: value for key, value in result.items() if key not in ("per_layer", "problems")}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          + json.dumps(details, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    if unobserved:
        print(f"perfbench: not observable on {args.workload}, reported as 0: "
              + ", ".join(unobserved), file=sys.stderr)
    for problem in result["problems"]:
        print(f"perfbench: FAILED CHECK {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
