"""The ``Telemetry`` service: the observability facade.

One backend, built by the controller when its runtime names it
(``RuntimeConfig(telemetry="inmemory")``):
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

from repro.clock import Clock
from repro.obs.context import TraceContext
from repro.obs.exporters import metric_lines, span_lines, write_jsonl
from repro.obs.guard import MODE_HASH, PrivacyGuard
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

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
    """One span shape resolved once: name and guard-cleared attributes.

    It keeps no per-execution state — :meth:`open` hands back the tracer
    row and :meth:`close` takes it — so one instance serves every
    execution of its pipeline or stage, nested ones included (a federated
    request runs the same stage on two nodes of one shared telemetry), and
    a span of it costs no object.  Its simulated duration is the row's
    start and end; nothing else records it.  As a context manager (a
    convenience off the hot path) it yields the row's
    :class:`~repro.obs.tracing.Span`.
    """

    __slots__ = ("_tracer", "_name", "_attributes")

    def __init__(self, tracer: Tracer, name: str, labels: dict[str, str]) -> None:
        self._tracer = tracer
        self._name = name
        # Shared by every span of this shape (read-only).
        self._attributes = tracer.cleared(labels)

    def open(self) -> int:
        """Open one span of this shape; returns its tracer row."""
        return self._tracer.open(self._name, self._attributes)

    def close(self, row: int, exc_type: type | None = None) -> None:
        """Close the span at ``row``."""
        self._tracer.close(row, exc_type)

    def __enter__(self):
        return self._tracer.span_of(self.open())

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(self._tracer.current_row, exc_type)
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
        self._bound_spans = self.guard.memo()
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

    def stage_span(self, pipeline: str, stage: str):
        """A per-pipeline-stage child span."""
        bound = self._bound_spans.get((pipeline, stage))
        if bound is None:
            bound = self._bind((pipeline, stage), f"stage.{stage}",
                               {"pipeline": pipeline, "stage": stage})
        return bound

    def pipeline_span(self, pipeline: str):
        """The root span of one pipeline execution."""
        bound = self._bound_spans.get(pipeline)
        if bound is None:
            bound = self._bind(pipeline, f"pipeline.{pipeline}",
                               {"pipeline": pipeline})
        return bound

    def _bind(self, key, name: str, labels: dict[str, str]) -> _BoundSpan:
        bound = _BoundSpan(self.tracer, name, labels)
        # A restricted label key is re-sanitised per span, never memoised.
        if self.guard.static_key(labels) is not None:
            self._bound_spans[key] = bound
        return bound

    # -- flight recorder ---------------------------------------------------

    def attach_recorder(self, recorder) -> None:
        """Attach a flight recorder; it watches this telemetry's tracer.

        On a federated platform every node controller attaches through one
        shared telemetry, so the first recorder wins — the spans show in
        exactly one recorder and the merged timeline stays duplicate-free.
        """
        if recorder is None or self.recorder is not None:
            return
        self.recorder = recorder
        recorder.watch(self.tracer)

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
