"""repro.obs — cross-cutting observability: tracing, export, metrics.

Three pieces, usable independently:

* :mod:`repro.obs.trace` — :class:`Tracer` with nestable spans, instant
  events, a bounded flight recorder and per-phase self-time accounting
  (``NULL_TRACER`` is the shared disabled instance the hot paths are
  instrumented against).
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON export,
  structural validation, and the per-phase table behind ``repro trace``.
* :mod:`repro.obs.metrics` — the Prometheus-style
  :class:`MetricsRegistry` shared by local sessions, benchmarks and
  ``repro.serve`` (which re-exports it for compatibility).

Enable end to end with ``RunConfig(trace=True)`` for the in-memory
recorder (``session.trace()``, phase breakdown in ``session.summary()``)
or ``RunConfig(trace_path="out.json")`` to also write a Perfetto-loadable
file on close. The CLI equivalents: ``repro read-until --trace out.json``
and ``repro trace out.json``.
"""

from .export import (
    export_chrome_trace,
    format_phase_table,
    load_trace,
    phase_table,
    records_to_events,
    stripe_summary,
    validate_trace,
    write_chrome_trace,
)
from .metrics import MetricsRegistry
from .trace import (
    NULL_TRACER,
    PhaseStat,
    SpanRecord,
    Tracer,
)

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "PhaseStat",
    "SpanRecord",
    "Tracer",
    "export_chrome_trace",
    "format_phase_table",
    "load_trace",
    "phase_table",
    "records_to_events",
    "stripe_summary",
    "validate_trace",
    "write_chrome_trace",
]
