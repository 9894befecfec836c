"""The ``Telemetry`` service: the kernel-resolved observability facade.

One backend, registered in the service kernel like every other
collaborator (``RuntimeConfig(telemetry="inmemory")``):
:class:`InMemoryTelemetry` — a :class:`~repro.obs.metrics.MetricsRegistry`
plus a :class:`~repro.obs.tracing.Tracer` sharing one
:class:`~repro.obs.guard.PrivacyGuard`, timed against the platform's
simulated clock.  Off (``telemetry: noop``, the default) is no object at
all: ``controller.telemetry`` is ``None``, every instrumented module
checks for that, and the pipeline loop opens no span — an un-instrumented
platform pays nothing.

The facade API is intentionally tiny — ``count``/``gauge``/``observe``,
``span``, ``restrict_keys``, and the bound ``pipeline_span``/``stage_span``
the pipeline loop opens — so instrumented modules (bus broker, XACML PDP,
stage pipelines) depend on nothing but this shape.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.clock import Clock
from repro.obs.context import TraceContext
from repro.obs.exporters import metric_lines, span_lines, write_jsonl
from repro.obs.guard import MODE_HASH, PrivacyGuard
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiling import SECTION_STAGE
from repro.obs.tracing import Tracer

#: Histogram recording per-stage pipeline latency (simulated seconds).
STAGE_DURATION = "pipeline.stage.duration_seconds"
#: Histogram recording whole-pipeline latency (simulated seconds).
PIPELINE_DURATION = "pipeline.duration_seconds"
#: Counter of pipeline executions, labelled by pipeline + outcome.
PIPELINE_OUTCOMES = "pipeline.invocations_total"
#: Sidecar histogram of whole-pipeline latency in *wall* seconds.
PIPELINE_WALL_DURATION = "pipeline.wall_duration_seconds"
#: Its buckets: 10 microseconds to 1 s (a pipeline runs in well under 1 ms).
WALL_BUCKETS: tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class _BoundSpan:
    """One span shape resolved once: name, guard-cleared attributes and
    the histogram its durations feed.

    It is its own context manager and keeps no per-execution state — the
    open span lives on the tracer's stack — so one instance serves every
    execution of its pipeline or stage, nested ones included (a federated
    request runs the same stage on two nodes of one shared telemetry).
    """

    __slots__ = ("_telemetry", "_name", "_labels", "_attributes", "_metric",
                 "_section", "_durations")

    def __init__(self, telemetry: "InMemoryTelemetry", name: str, metric: str,
                 section: str | None, labels: dict[str, str]) -> None:
        self._telemetry = telemetry
        self._name = name
        self._labels = labels
        # Shared by every span of this shape, hence read-only.
        self._attributes = MappingProxyType(telemetry.tracer.cleared(labels))
        self._metric = metric
        self._section = section
        # Resolved by the first span to finish: a series must not show in
        # a snapshot taken before its first sample.
        self._durations: Histogram | None = None

    def __enter__(self):
        return self._telemetry.tracer.open(self._name, self._attributes)

    def __exit__(self, exc_type, exc, tb) -> bool:
        telemetry = self._telemetry
        tracer = telemetry.tracer
        span = tracer.current_span
        tracer.finish(span, exc_type)
        durations = self._durations
        if durations is None:
            durations = self._durations = telemetry.metrics.histogram(
                self._metric, **self._labels)
        duration = span.end - span.start
        durations.observe(duration)
        profiler = telemetry.profiler
        if self._section is not None and profiler is not None:
            profiler.record(self._section, duration, **self._labels)
        return False  # never swallow — pipeline semantics stay intact


class InMemoryTelemetry:
    """Metrics + tracing against the simulated clock, guard-protected."""

    def __init__(
        self,
        clock: Clock | None = None,
        guard: PrivacyGuard | None = None,
        guard_mode: str = MODE_HASH,
        secret: str = "css-telemetry",
        site: str = "",
    ) -> None:
        self.clock = clock or Clock()
        self.guard = guard or PrivacyGuard(mode=guard_mode, secret=secret)
        self.metrics = MetricsRegistry(self.guard)
        #: Wall-clock sidecar: real seconds, so no export, snapshot,
        #: time-series or incident bundle reads it (they stay deterministic).
        self.wall = MetricsRegistry(self.guard)
        self.tracer = Tracer(self.clock, self.guard, site=site)
        #: Pipeline name or ``(pipeline, stage)`` -> its bound span.
        self._bound_spans = self.metrics.memo()
        self.profiler = None
        self.recorder = None

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment counter ``name`` for the given label set."""
        self.metrics.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge ``name`` to ``value`` for the given label set."""
        self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, buckets=None, **labels: object) -> None:
        """Record ``value`` into histogram ``name`` for the given label set."""
        self.metrics.histogram(name, buckets=buckets, **labels).observe(value)

    def observe_wall(self, name: str, seconds: float, **labels: object) -> None:
        """Record wall-clock ``seconds`` into sidecar histogram ``name``."""
        self.wall.histogram(name, buckets=WALL_BUCKETS, **labels).observe(seconds)

    def restrict_keys(self, keys) -> None:
        """Mark additional keys as sensitive (detail-payload field names)."""
        self.guard.restrict_keys(keys)

    # -- tracing -----------------------------------------------------------

    def span(self, name: str, remote_parent: TraceContext | None = None,
             **attributes: object):
        """Open a span (child of the current one, or the root of a trace).

        ``remote_parent`` — a context carried over a federation link —
        joins the caller's trace when no local span is open.
        """
        return self.tracer.span(name, remote_parent=remote_parent, **attributes)

    def current_context(self) -> TraceContext | None:
        """The innermost open span as a wire-portable trace context."""
        return self.tracer.current_context()

    def stage_span(self, pipeline: str, stage: str):
        """A per-pipeline-stage child span plus its duration histogram."""
        bound = self._bound_spans.get((pipeline, stage))
        if bound is None:
            bound = self._bind(
                (pipeline, stage), f"stage.{stage}", STAGE_DURATION,
                SECTION_STAGE, {"pipeline": pipeline, "stage": stage})
        return bound

    def pipeline_span(self, pipeline: str):
        """The root span of one pipeline execution plus its duration histogram."""
        bound = self._bound_spans.get(pipeline)
        if bound is None:
            bound = self._bind(pipeline, f"pipeline.{pipeline}",
                               PIPELINE_DURATION, None, {"pipeline": pipeline})
        return bound

    def _bind(self, key, name: str, metric: str, section: str | None,
              labels: dict[str, str]) -> _BoundSpan:
        bound = _BoundSpan(self, name, metric, section, labels)
        # A restricted label key is re-sanitised per span, never memoised.
        if self.guard.static_key(labels) is not None:
            self._bound_spans[key] = bound
        return bound

    # -- profiling ---------------------------------------------------------

    def attach_profiler(self, profiler) -> None:
        """Set the profiler stage spans and ``profile`` calls sample into."""
        self.profiler = profiler

    def attach_recorder(self, recorder) -> None:
        """Attach a flight recorder; spans mirror into its ring.

        On a federated platform every node controller attaches through one
        shared telemetry, so the first recorder wins — spans mirror into
        exactly one ring and the merged timeline stays duplicate-free.
        """
        if recorder is None or self.recorder is not None:
            return
        self.recorder = recorder
        self.tracer.recorder = recorder

    def profile(self, section: str, seconds: float, **labels: object) -> None:
        """Record one profile sample if a profiler is attached."""
        if self.profiler is not None:
            self.profiler.record(section, seconds, **labels)

    # -- export ------------------------------------------------------------

    def trace_export(self) -> list[str]:
        """Finished spans as canonical JSONL lines (deterministic)."""
        return span_lines(self.tracer.finished_spans())

    def metrics_export(self) -> list[str]:
        """Metric snapshot as canonical JSONL lines (deterministic)."""
        return metric_lines(self.metrics)

    def dump(self, trace_path=None, metrics_path=None) -> None:
        """Write JSONL exports to the given paths (either may be None)."""
        if trace_path is not None:
            write_jsonl(trace_path, self.trace_export())
        if metrics_path is not None:
            write_jsonl(metrics_path, self.metrics_export())
