"""Privacy-safe observability: metrics, tracing, guard and exporters.

See :mod:`repro.obs.telemetry` for the kernel-resolved facade,
:mod:`repro.obs.guard` for the privacy guard that keeps telemetry from
becoming a side channel, :mod:`repro.obs.context` /
:mod:`repro.obs.stitch` for cross-node trace propagation and stitching,
:mod:`repro.obs.slo` for the SLO engine, :mod:`repro.obs.profiling` for
the deterministic profiler, :mod:`repro.obs.timeseries` for the windowed
time-series store, :mod:`repro.obs.recorder` for the flight recorder,
:mod:`repro.obs.incident` for automatic incident capture, and
``docs/OBSERVABILITY.md`` for the naming scheme and exporter formats.
"""

from repro.obs.context import TraceContext
from repro.obs.exporters import (
    metric_lines,
    render_latency_table,
    render_metrics_table,
    span_lines,
    write_jsonl,
)
from repro.obs.guard import (
    MODE_HASH,
    MODE_REJECT,
    PrivacyGuard,
    TelemetryPrivacyError,
)
from repro.obs.incident import (
    INCIDENT_SCHEMA,
    IncidentMonitor,
    WatchdogConfig,
    build_bundle,
    merge_events,
    write_bundle,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiling import SamplingProfiler
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import (
    SLO_ALERT_TOPIC,
    SLObjective,
    SLOEngine,
    SLOReport,
    SLOStatus,
    default_objectives,
)
from repro.obs.stitch import (
    StitchedTrace,
    stitch,
    stitch_summary,
    stitched_lines,
)
from repro.obs.telemetry import (
    PIPELINE_DURATION,
    PIPELINE_OUTCOMES,
    STAGE_DURATION,
    InMemoryTelemetry,
)
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracing import Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "INCIDENT_SCHEMA",
    "InMemoryTelemetry",
    "IncidentMonitor",
    "MODE_HASH",
    "MODE_REJECT",
    "MetricsRegistry",
    "PIPELINE_DURATION",
    "PIPELINE_OUTCOMES",
    "PrivacyGuard",
    "SLO_ALERT_TOPIC",
    "SLOEngine",
    "SLOReport",
    "SLOStatus",
    "SLObjective",
    "STAGE_DURATION",
    "SamplingProfiler",
    "Span",
    "StitchedTrace",
    "TelemetryPrivacyError",
    "TimeSeriesStore",
    "TraceContext",
    "Tracer",
    "WatchdogConfig",
    "build_bundle",
    "default_objectives",
    "merge_events",
    "metric_lines",
    "render_latency_table",
    "render_metrics_table",
    "span_lines",
    "stitch",
    "stitch_summary",
    "stitched_lines",
    "write_bundle",
    "write_jsonl",
]
