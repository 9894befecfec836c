"""The ``Telemetry`` service: the observability facade.

One backend, built by the controller when its runtime names it
(``RuntimeConfig(telemetry="inmemory")``):
:class:`InMemoryTelemetry` — a :class:`~repro.obs.metrics.MetricsRegistry`
plus a :class:`~repro.obs.tracing.Tracer` sharing one
:class:`~repro.obs.guard.PrivacyGuard`, timed against the platform's
simulated clock.  Off (``telemetry: noop``, the default) is no object at
all: ``controller.telemetry`` is ``None``, every instrumented module
checks for that, and a hot path opens no span — an un-instrumented
platform pays nothing.

The facade: ``count``/``gauge``/``observe`` for values sampled on demand,
``span``, ``restrict_keys`` and a hot path's root ``pipeline_span``.
"""

from __future__ import annotations

from functools import partial

from repro.clock import Clock
from repro.obs.context import TraceContext
from repro.obs.exporters import metric_lines, span_lines, write_jsonl
from repro.obs.guard import MODE_HASH, PrivacyGuard
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SPAN_CAPACITY, Tracer

#: Counter of hot-path executions, labelled by pipeline + outcome.
PIPELINE_OUTCOMES = "pipeline.invocations_total"
#: Histogram of whole-hot-path latency in *wall* seconds (:attr:`InMemoryTelemetry.wall`).
PIPELINE_WALL_DURATION = "pipeline.wall_duration_seconds"
#: Its buckets: 10 microseconds to 1 s (a hot path runs in well under 1 ms).
WALL_BUCKETS: tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class _BoundSpan:
    """A hot path's root span shape, resolved once: ``open()`` is the tracer's
    ``open`` with name and cleared attributes bound, ``close(row, exc_type)``
    its ``close`` — one call per span end.  A context manager too."""

    __slots__ = ("_tracer", "_name", "_labels", "_noted", "open", "close")

    def __init__(self, tracer: Tracer, name: str, labels: dict) -> None:
        self._tracer, self._name, self._labels = tracer, name, labels
        self._noted: dict = {}  # (key, value) -> the attributes with it added
        # The attributes are shared by every span of this shape (read-only).
        self.open = partial(tracer.open, name, tracer.cleared(labels))
        self.close = tracer.close

    def innermost(self) -> int | None:
        """The innermost open span's row when it is one of this shape."""
        stack, names = self._tracer._stack, self._tracer.names
        if stack and names[stack[-1] % SPAN_CAPACITY] == self._name:
            return stack[-1]
        return None

    def note(self, row: int, key: str, value: str) -> None:
        """Add ``key=value`` to the open span of this shape at ``row``."""
        noted = self._noted.get((key, value))
        if noted is None:
            noted = self._noted[key, value] = self._tracer.cleared({**self._labels, key: value})
        if self._tracer.rows - row <= SPAN_CAPACITY:  # still in the ring
            self._tracer.attributes[row % SPAN_CAPACITY] = noted

    def __enter__(self):
        return self._tracer.span_of(self.open())

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(self._tracer.current_row, exc_type)
        return False  # never swallow: the failure stays the caller's


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
        self.tracer = Tracer(self.clock, self.guard, site=site)
        #: Hot-path name -> its bound root span.
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

    @property
    def wall(self) -> MetricsRegistry:
        """Wall-clock sidecar: one ``PIPELINE_WALL_DURATION`` sample per finished
        ``pipeline.*`` span the ring holds (real seconds: no export reads it)."""
        sidecar, tracer = MetricsRegistry(self.guard), self.tracer
        for slot in (row % SPAN_CAPACITY for row in tracer.finished_rows()):
            name = tracer.names[slot]
            if name.startswith("pipeline."):
                sidecar.histogram(PIPELINE_WALL_DURATION, buckets=WALL_BUCKETS,
                                  pipeline=name[len("pipeline."):]).observe(tracer.walls[slot])
        return sidecar

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

    def pipeline_span(self, pipeline: str):
        """The root span of one hot-path execution, ``pipeline.<pipeline>``."""
        bound = self._bound_spans.get(pipeline)
        if bound is None:
            labels = {"pipeline": pipeline}
            bound = _BoundSpan(self.tracer, f"pipeline.{pipeline}", labels)
            # A restricted label key is re-sanitised per span, never memoised.
            if self.guard.static_key(labels) is not None:
                self._bound_spans[pipeline] = bound
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
