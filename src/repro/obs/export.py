"""Chrome trace-event / Perfetto export for :class:`repro.obs.Tracer`.

The emitted file is the JSON object form of the Chrome trace-event format
(``{"traceEvents": [...]}``) — loadable in Perfetto (https://ui.perfetto.dev)
and ``chrome://tracing``. Spans become complete events (``"ph": "X"``) with
microsecond ``ts``/``dur`` rebased to the earliest record in the trace;
instants become ``"ph": "i"``. Every track (the recording tracer's
``track`` name, e.g. ``session``) gets a thread id plus a ``thread_name``
metadata event so the timeline shows up labelled under one process. The
``numpy`` backend's lane-stripe threads never write spans; their timings
ride on ``backend.wavefront`` as the ``stripes``, ``stripe_max_s`` and
``stripe_min_s`` arguments.

:func:`validate_trace` checks the structural contract CI relies on: required
keys per event, non-negative timings, and — per (track, depth) — spans
sorted by start time must not overlap, which is what "these came from a
LIFO span stack on a monotonic clock" looks like after export.

:func:`phase_table` / :func:`format_phase_table` power the ``repro trace``
subcommand: a per-phase self-time table computed from an exported file, so a
host without a browser still gets the breakdown. :func:`stripe_summary` adds
the striped wavefronts' slowest/fastest stripe totals and their idle tail.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .trace import SpanRecord, Tracer

__all__ = [
    "export_chrome_trace",
    "format_phase_table",
    "load_trace",
    "phase_table",
    "records_to_events",
    "stripe_summary",
    "validate_trace",
    "write_chrome_trace",
]

_PROCESS_ID = 1


def records_to_events(
    records: Sequence[SpanRecord], metadata: Optional[Mapping[str, Any]] = None
) -> List[Dict[str, Any]]:
    """Convert flight-recorder records to Chrome trace events.

    Timestamps are rebased so the earliest record starts at ts=0 — raw
    monotonic readings are meaningless across runs, and Perfetto renders
    small numbers more readably.
    """
    if not records:
        return []
    epoch_s = min(record.start_s for record in records)
    tracks: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for record in records:
        tid = tracks.get(record.track)
        if tid is None:
            tid = tracks[record.track] = len(tracks) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PROCESS_ID,
                    "tid": tid,
                    "args": {"name": record.track},
                }
            )
        args: Dict[str, Any] = {"depth": record.depth}
        if record.kind == "span":
            args["self_us"] = round(record.self_s * 1e6, 3)
        if record.args:
            args.update(record.args)
        event: Dict[str, Any] = {
            "name": record.name,
            "ph": "X" if record.kind == "span" else "i",
            "ts": round((record.start_s - epoch_s) * 1e6, 3),
            "pid": _PROCESS_ID,
            "tid": tid,
            "args": args,
        }
        if record.kind == "span":
            event["dur"] = round(record.duration_s * 1e6, 3)
        else:
            event["s"] = "t"
        events.append(event)
    return events


def export_chrome_trace(
    tracer: Tracer, metadata: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Build the full trace document for one tracer's flight recorder."""
    document: Dict[str, Any] = {
        "traceEvents": records_to_events(tracer.records()),
        "displayTimeUnit": "ms",
    }
    if metadata:
        document["metadata"] = dict(metadata)
    return document


def write_chrome_trace(
    tracer: Tracer, path: str, metadata: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Export ``tracer`` to ``path`` as Chrome trace-event JSON."""
    document = export_chrome_trace(tracer, metadata=metadata)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document


def load_trace(path: str) -> Dict[str, Any]:
    """Load a trace file, accepting both the object and bare-array forms."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, list):
        document = {"traceEvents": document}
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not a Chrome trace-event file (no traceEvents)")
    return document


_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_trace(document: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Validate the Chrome trace-event shape; returns the complete events.

    Raises ``ValueError`` naming the first violation: a missing required
    key, a negative ``ts``/``dur``, or two same-(track, depth) spans that
    overlap in time — spans emitted by one LIFO stack can nest or abut but
    never cross.
    """
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    complete: List[Dict[str, Any]] = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        phase = event.get("ph")
        if phase == "M":
            continue
        for key in _REQUIRED_KEYS:
            if key not in event:
                raise ValueError(f"traceEvents[{index}] missing required key {key!r}")
        if event["ts"] < 0:
            raise ValueError(f"traceEvents[{index}] has negative ts {event['ts']}")
        if phase == "X":
            if "dur" not in event:
                raise ValueError(f"traceEvents[{index}] complete event missing dur")
            if event["dur"] < 0:
                raise ValueError(
                    f"traceEvents[{index}] has negative dur {event['dur']}"
                )
            complete.append(event)
    lanes: Dict[Tuple[Any, Any], List[Tuple[float, float, str]]] = {}
    for event in complete:
        depth = event.get("args", {}).get("depth", 0)
        lanes.setdefault((event["tid"], depth), []).append(
            (float(event["ts"]), float(event["dur"]), str(event["name"]))
        )
    for (tid, depth), spans in lanes.items():
        spans.sort()
        for (ts_a, dur_a, name_a), (ts_b, _, name_b) in zip(spans, spans[1:]):
            # Exported µs values are rounded to 3 decimals; allow that much slop.
            if ts_a + dur_a > ts_b + 1e-3:
                raise ValueError(
                    f"overlapping spans on tid={tid} depth={depth}: "
                    f"{name_a!r} [{ts_a}, {ts_a + dur_a}) overlaps {name_b!r} at {ts_b}"
                )
    return complete


def phase_table(document: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Per-phase aggregate rows from a trace document, self-time descending.

    Each row: ``phase``, ``count``, ``total_us``, ``self_us``, ``share`` —
    share being this phase's self time as a fraction of all self time (self
    times partition wall clock per track, so shares sum to 1.0).
    """
    totals: Dict[str, List[float]] = {}
    for event in validate_trace(document):
        args = event.get("args", {})
        self_us = float(args.get("self_us", event["dur"]))
        stat = totals.setdefault(str(event["name"]), [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += float(event["dur"])
        stat[2] += self_us
    grand_self = sum(stat[2] for stat in totals.values())
    rows = [
        {
            "phase": name,
            "count": int(stat[0]),
            "total_us": stat[1],
            "self_us": stat[2],
            "share": stat[2] / grand_self if grand_self > 0 else 0.0,
        }
        for name, stat in totals.items()
    ]
    rows.sort(key=lambda row: (-row["self_us"], row["phase"]))
    return rows


def stripe_summary(document: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """Stripe timings summed over the striped ``backend.wavefront`` spans.

    Returns ``None`` when no span carries stripe arguments (a serial run).
    Otherwise ``spans``, the most ``stripes`` any round used, the summed
    ``slowest_s`` and ``fastest_s`` stripe wall times, and ``idle_tail_s``
    — their difference, the time the fastest stripe's thread sat idle
    waiting for the slowest.
    """
    striped = [
        event["args"]
        for event in validate_trace(document)
        if "stripes" in event.get("args", {})
    ]
    if not striped:
        return None
    slowest = sum(float(args["stripe_max_s"]) for args in striped)
    fastest = sum(float(args["stripe_min_s"]) for args in striped)
    return {
        "spans": len(striped),
        "stripes": max(int(args["stripes"]) for args in striped),
        "slowest_s": slowest,
        "fastest_s": fastest,
        "idle_tail_s": slowest - fastest,
    }


def format_phase_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render phase_table rows as an aligned terminal table."""
    if not rows:
        return "(empty trace)"
    header = ("phase", "count", "total ms", "self ms", "self %")
    body = [
        (
            str(row["phase"]),
            str(row["count"]),
            f"{row['total_us'] / 1000.0:.3f}",
            f"{row['self_us'] / 1000.0:.3f}",
            f"{row['share'] * 100.0:.1f}",
        )
        for row in rows
    ]
    widths = [
        max(len(header[column]), *(len(line[column]) for line in body))
        for column in range(len(header))
    ]
    lines = [
        "  ".join(
            header[column].ljust(widths[column]) if column == 0
            else header[column].rjust(widths[column])
            for column in range(len(header))
        )
    ]
    for line in body:
        lines.append(
            "  ".join(
                line[column].ljust(widths[column]) if column == 0
                else line[column].rjust(widths[column])
                for column in range(len(header))
            )
        )
    return "\n".join(lines)
