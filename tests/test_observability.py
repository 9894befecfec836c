"""Tests for the privacy-safe observability subsystem (``repro.obs``).

Covers the metric instruments, the tracer's context propagation, the
privacy guard's two modes, the exporters, the kernel-resolved telemetry
backends, and the end-to-end instrumentation of both interceptor
pipelines, the bus broker and the XACML PDP.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import (
    AccessDeniedError,
    ConsentScope,
    DataConsumer,
    DataController,
    DataProducer,
)
from repro.clock import Clock
from repro.obs.exporters import (
    render_latency_table,
    render_metrics_table,
    write_jsonl,
)
from repro.obs.guard import (
    MODE_REJECT,
    PrivacyGuard,
    TelemetryPrivacyError,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.telemetry import (
    PIPELINE_OUTCOMES,
    PIPELINE_WALL_DURATION,
    InMemoryTelemetry,
)
from repro.obs.tracing import STATUS_ERROR, Tracer
from repro.runtime.kernel import SWITCHES, RuntimeConfig
from tests.conftest import (
    blood_test_schema,
    with_deleted_latency_row,
    with_parent_pdp_counts,
    with_starvation_row,
)


def telemetry_platform(guard_mode: str = "hash"):
    """A small platform running on the in-memory telemetry backend."""
    runtime = RuntimeConfig(telemetry="inmemory", telemetry_guard=guard_mode)
    controller = DataController(seed="obs", runtime=runtime)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Doctor", "Doctor", role="family-doctor")
    hospital.define_policy(
        event_type="BloodTest",
        fields=["PatientId", "Name", "Hemoglobin"],
        consumers=[("Doctor", "unit")],
        purposes=["healthcare-treatment"],
    )
    doctor.subscribe("BloodTest")
    return controller, hospital, blood, doctor


def publish_one(hospital, blood, subject_id="pat-1"):
    return hospital.publish(
        blood, subject_id=subject_id, subject_name="Mario Bianchi",
        summary="blood test completed",
        details={"PatientId": subject_id, "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 92.0, "HivResult": "negative"},
    )


# ---------------------------------------------------------------------------
# Metric instruments
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge_series_keyed_by_labels(self):
        registry = MetricsRegistry()
        registry.counter("req_total", route="a").inc()
        registry.counter("req_total", route="a").inc(2)
        registry.counter("req_total", route="b").inc()
        registry.gauge("depth").set(7)
        assert registry.counter_value("req_total", route="a") == 3
        assert registry.counter_value("req_total", route="b") == 1
        assert registry.counter_value("req_total", route="missing") == 0.0
        assert registry.gauge("depth").value == 7.0

    def test_counters_only_move_forward(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("n").inc(-1)

    def test_histogram_quantiles_from_buckets(self):
        histogram = Histogram(boundaries=(0.1, 0.5, 1.0))
        for value in (0.05, 0.05, 0.3, 0.3, 0.3, 0.7, 0.7, 0.9, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 10
        assert summary["min"] == 0.05
        assert summary["max"] == 3.0
        # Upper-bound estimates from the fixed buckets:
        assert summary["p50"] == 0.5   # 5th obs lands in the (0.1, 0.5] bucket
        assert summary["p99"] == 3.0   # overflow bucket caps at observed max
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_empty_histogram_summary_is_zeroed(self):
        summary = Histogram().summary()
        assert summary["count"] == 0 and summary["p99"] == 0.0

    def test_snapshot_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total", k="2").inc()
            registry.counter("a_total", k="1").inc()
            registry.histogram("lat", stage="x").observe(0.2)
            return registry.snapshot()

        assert build() == build()
        names = [row["name"] for row in build()]
        assert names == sorted(names)

    def test_reset_drops_every_series(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.reset()
        assert registry.snapshot() == []


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_parent_child_propagation(self):
        clock = Clock()
        tracer = Tracer(clock)
        with tracer.span("root") as root:
            clock.advance(1.0)
            with tracer.span("child") as child:
                clock.advance(0.5)
            assert tracer.span_of(tracer.current_row) is root
        assert tracer.current_row is None
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert child.duration == 0.5
        assert root.duration == 1.5
        # Children finish before parents.
        assert [span.name for span in tracer.finished_spans()] == ["child", "root"]

    def test_sibling_traces_get_distinct_trace_ids(self):
        tracer = Tracer(Clock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.finished_spans()
        assert first.trace_id != second.trace_id

    def test_error_marks_span_without_swallowing(self):
        tracer = Tracer(Clock())
        with pytest.raises(KeyError):
            with tracer.span("failing"):
                raise KeyError("boom")
        (span,) = tracer.finished_spans()
        assert span.status == STATUS_ERROR
        assert span.error == "KeyError"

    def test_attributes_pass_through_the_guard(self):
        tracer = Tracer(Clock(), PrivacyGuard(mode="hash"))
        with tracer.span("op", subject_ref="pat-9", stage="decide") as span:
            pass
        assert span.attributes["stage"] == "decide"
        assert span.attributes["subject_ref"].startswith("h:")
        assert "pat-9" not in span.attributes["subject_ref"]


# ---------------------------------------------------------------------------
# Privacy guard
# ---------------------------------------------------------------------------


class TestPrivacyGuard:
    def test_hash_mode_redacts_identifying_values(self):
        guard = PrivacyGuard(mode="hash")
        cleared = dict(guard.sanitize({"subject_ref": "pat-1", "topic": "t"}))
        assert cleared["topic"] == "t"
        assert cleared["subject_ref"].startswith("h:")
        # Keyed digest: stable within a guard, secret-dependent across guards.
        assert cleared["subject_ref"] == dict(
            guard.sanitize({"subject_ref": "pat-1"})
        )["subject_ref"]
        other = PrivacyGuard(mode="hash", secret="other")
        assert cleared["subject_ref"] != dict(
            other.sanitize({"subject_ref": "pat-1"})
        )["subject_ref"]

    def test_reject_mode_raises(self):
        guard = PrivacyGuard(mode=MODE_REJECT)
        with pytest.raises(TelemetryPrivacyError):
            guard.sanitize({"patient_id": "pat-1"})

    def test_marker_substrings_catch_key_variants(self):
        guard = PrivacyGuard()
        assert guard.is_identifying("Assisted-Person-Ref")
        assert guard.is_identifying("subjectDisplay".lower())
        assert not guard.is_identifying("event_type")

    def test_restricted_keys_cover_detail_payload_fields(self):
        guard = PrivacyGuard(mode=MODE_REJECT)
        assert not guard.is_identifying("Hemoglobin")
        guard.restrict_keys(["Hemoglobin", "HivResult"])
        assert guard.is_identifying("hemoglobin")
        with pytest.raises(TelemetryPrivacyError):
            guard.sanitize({"HivResult": "positive"})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PrivacyGuard(mode="plaintext")


# ---------------------------------------------------------------------------
# Telemetry backends + kernel wiring
# ---------------------------------------------------------------------------


class TestTelemetryBackends:
    def test_noop_is_disabled_and_inert(self):
        """Off is no object: every instrumented module the controller
        builds holds ``None`` and the run goes through un-instrumented."""
        controller = DataController(seed="obs")
        hospital = DataProducer(controller, "Hospital", "Hospital")
        blood = hospital.declare_event_class(blood_test_schema())
        assert publish_one(hospital, blood) is not None
        assert controller.telemetry is None
        for part in (controller.publish_pipeline, controller.details_pipeline,
                     controller.enforcer.pipeline):
            assert part._telemetry is None, part
        # The bus, the backlog bound and the perf layer keep stats that
        # readers read; they hold no telemetry at all.
        for part in (controller.bus, controller.sched, controller.perf,
                     controller.enforcer):
            assert "_telemetry" not in vars(part), part

    def test_kernel_resolves_both_backends(self):
        clock = Clock()
        noop = DataController(clock=clock).telemetry
        inmem = DataController(clock=clock, master_secret="s", runtime=RuntimeConfig(
            telemetry="inmemory", telemetry_guard="reject")).telemetry
        assert noop is None
        assert isinstance(inmem, InMemoryTelemetry)
        assert inmem.clock is clock
        assert inmem.guard.mode == "reject"

    def test_controller_defaults_to_noop(self):
        controller = DataController(seed="obs")
        assert controller.telemetry is None


# ---------------------------------------------------------------------------
# Pipeline / broker / PDP instrumentation (end to end)
# ---------------------------------------------------------------------------


class TestInstrumentation:
    def test_publish_produces_root_and_stage_spans(self):
        """A publish is one root span, ``pipeline.publish``: spans sit at
        operation boundaries, and no step of the path opens its own."""
        controller, hospital, blood, doctor = telemetry_platform()
        publish_one(hospital, blood)
        tracer = controller.telemetry.tracer
        (root,) = tracer.finished_spans()
        assert (root.name, root.parent_id, root.status) == (
            "pipeline.publish", None, "ok")
        assert root.attributes == {"pipeline": "publish"}

    def test_details_request_spans_and_outcome_counters(self):
        controller, hospital, blood, doctor = telemetry_platform()
        notification = publish_one(hospital, blood)
        doctor.request_details(notification, "healthcare-treatment")
        metrics = controller.telemetry.metrics
        tracer = controller.telemetry.tracer
        # One root span: Algorithm 1 runs under the edge's and leaves its
        # outcome there.
        (edge,) = tracer.spans_named("pipeline.request-details-edge")
        assert edge.attributes["enforcement"] == "ok"
        assert not tracer.spans_named("pipeline.request-details")
        assert metrics.counter_value(
            PIPELINE_OUTCOMES, pipeline="publish", outcome="ok") == 1
        assert metrics.counter_value(
            PIPELINE_OUTCOMES, pipeline="request-details", outcome="ok") == 1
        # A span's start and end are its simulated duration; no series
        # restates them.
        assert not metrics.histogram_entries()

    def test_denied_request_counts_as_deny(self):
        controller, hospital, blood, doctor = telemetry_platform()
        notification = publish_one(hospital, blood)
        with pytest.raises(AccessDeniedError):
            doctor.request_details(notification, "statistical-analysis")
        metrics = controller.telemetry.metrics
        assert metrics.counter_value(
            PIPELINE_OUTCOMES, pipeline="request-details", outcome="deny") == 1
        (root,) = controller.telemetry.tracer.spans_named(
            "pipeline.request-details-edge")
        assert root.status == STATUS_ERROR
        assert root.error == "AccessDeniedError"
        assert root.attributes["enforcement"] == "deny"

    def test_bus_counters_and_queue_depth_gauge(self):
        controller, hospital, blood, doctor = telemetry_platform()
        publish_one(hospital, blood)
        metrics = controller.telemetry.metrics
        topic = blood.topic
        assert metrics.counter_value("bus.published_total", topic=topic) == 1
        assert metrics.counter_value("bus.fanout_total", topic=topic) == 1
        # auto_dispatch drained the queues; the gauge reads the single source.
        assert metrics.gauge("bus.queue.depth").value == controller.bus.queue_depth
        assert controller.bus.queue_depth == 0

    def test_pdp_evaluation_counters(self):
        controller, hospital, blood, doctor = telemetry_platform()
        notification = publish_one(hospital, blood)
        doctor.request_details(notification, "healthcare-treatment")
        metrics = controller.telemetry.metrics
        assert metrics.counter_value(
            "xacml.pdp.evaluations_total", decision="permit") == 1
        # How many policies were walked is the PDP's stats, not a series.
        stats = controller.enforcer.pdp_stats
        assert (stats.requests, stats.policies_evaluated) == (1, 1)
        assert not metrics.histogram_summaries("xacml.pdp.policies_per_request")

    def test_pdp_evaluations_count_every_decision_by_verdict(self):
        """One count per decision, repeats included, labelled with the
        decision's verdict; a consent veto never reaches the decision."""
        controller, hospital, blood, doctor = telemetry_platform()
        notification = publish_one(hospital, blood)
        for _ in range(3):
            doctor.request_details(notification, "healthcare-treatment")
        with pytest.raises(AccessDeniedError, match="no matching policy"):
            doctor.request_details(notification, "statistical-analysis")
        hospital.define_restriction("BloodTest", ("Doctor", "unit"),
                                    ["healthcare-treatment"])
        for _ in range(2):
            with pytest.raises(AccessDeniedError, match="mapped Deny to Deny"):
                doctor.request_details(notification, "healthcare-treatment")
        hospital.record_opt_out("pat-1", ConsentScope.DETAILS, "BloodTest")
        with pytest.raises(AccessDeniedError, match="opted out"):
            doctor.request_details(notification, "healthcare-treatment")
        metrics = controller.telemetry.metrics
        assert {decision: metrics.counter_value(
                    "xacml.pdp.evaluations_total", decision=decision)
                for decision in ("permit", "not_applicable", "deny")} == {
            "permit": 3, "not_applicable": 1, "deny": 2}
        assert controller.enforcer.pdp_stats.requests == 6

    def test_noop_platform_records_nothing(self):
        from tests.conftest import build_federation

        deployment = build_federation()
        deployment.publish_blood_test()
        platform = deployment.platform
        assert platform.telemetry is None
        assert platform.trace_exports() == {}
        assert platform.flight_recorders() == {}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        telemetry = InMemoryTelemetry(clock=Clock())
        telemetry.count("n", kind="x")
        with telemetry.span("op"):
            pass
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        telemetry.dump(trace_path=trace_path, metrics_path=metrics_path)
        spans = [json.loads(line) for line in
                 trace_path.read_text().splitlines()]
        rows = [json.loads(line) for line in
                metrics_path.read_text().splitlines()]
        assert spans[0]["name"] == "op" and spans[0]["parent_id"] is None
        assert rows[0] == {"type": "counter", "name": "n",
                           "labels": {"kind": "x"}, "value": 1.0}

    def test_write_jsonl_empty_writes_empty_file(self, tmp_path):
        target = write_jsonl(tmp_path / "empty.jsonl", [])
        assert target.read_text() == ""

    def test_write_jsonl_is_atomic(self, tmp_path):
        target = tmp_path / "rows.jsonl"
        target.write_text('{"stale": true}\n')
        write_jsonl(target, ['{"fresh": 1}', '{"fresh": 2}'])
        assert [json.loads(line) for line in
                target.read_text().splitlines()] \
            == [{"fresh": 1}, {"fresh": 2}]
        # The scratch file is renamed over the target, never left behind;
        # a reader only ever sees the old rows or the complete new ones.
        assert list(tmp_path.iterdir()) == [target]

    def test_write_jsonl_leaves_target_untouched_on_failure(self, tmp_path):
        target = tmp_path / "rows.jsonl"
        target.write_text('{"stale": true}\n')

        def poisoned():
            yield '{"ok": 1}'
            raise RuntimeError("mid-stream failure")

        with pytest.raises(RuntimeError):
            write_jsonl(target, poisoned())
        assert json.loads(target.read_text()) == {"stale": True}

    def test_console_tables_render(self):
        telemetry = InMemoryTelemetry(clock=Clock())
        assert "no counters" in render_metrics_table(telemetry.metrics)
        assert "no observations" in render_latency_table(
            telemetry.wall, PIPELINE_WALL_DURATION)
        telemetry.count("bus.published_total", topic="t")
        with telemetry.pipeline_span("publish"):  # one wall sample
            pass
        metrics_table = render_metrics_table(telemetry.metrics)
        latency_table = render_latency_table(telemetry.wall, PIPELINE_WALL_DURATION)
        assert "bus.published_total{topic=t}" in metrics_table
        assert "p95" in latency_table
        assert "pipeline=publish" in latency_table


# ---------------------------------------------------------------------------
# Histogram edge cases
# ---------------------------------------------------------------------------


class TestHistogramEdgeCases:
    def test_quantile_of_empty_histogram_is_zero(self):
        histogram = Histogram()
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert histogram.quantile(q) == 0.0
        assert histogram.summary()["p95"] == 0.0

    def test_quantile_of_single_observation_is_that_value(self):
        histogram = Histogram(boundaries=(0.1, 0.5, 1.0))
        histogram.observe(0.3)
        # One observation: every quantile is the lone value, not the
        # bucket's upper bound (0.5) the count-based estimate would give.
        for q in (0.5, 0.95, 0.99):
            assert histogram.quantile(q) == 0.3
        summary = histogram.summary()
        assert summary["p50"] == summary["p99"] == 0.3


# ---------------------------------------------------------------------------
# Trace context (wire propagation)
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_remote_parent_joins_the_callers_trace(self):
        from repro.obs.context import TraceContext

        tracer = Tracer(Clock(), site="h:aaa")
        remote = TraceContext(trace_id="h:bbb/tr-000009",
                              span_id="h:bbb/sp-000033")
        with tracer.span("server.op", remote_parent=remote) as span:
            assert span.trace_id == "h:bbb/tr-000009"
            assert span.parent_id == "h:bbb/sp-000033"
            # Children still parent locally, not onto the remote context.
            with tracer.span("inner") as child:
                assert child.parent_id == span.span_id

    def test_open_local_span_wins_over_remote_parent(self):
        from repro.obs.context import TraceContext

        tracer = Tracer(Clock())
        remote = TraceContext(trace_id="tr-x", span_id="sp-x")
        with tracer.span("outer") as outer:
            with tracer.span("inner", remote_parent=remote) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id

    def test_site_prefix_on_ids(self):
        tracer = Tracer(Clock(), site="h:abc")
        with tracer.span("op") as span:
            assert span.trace_id.startswith("h:abc/tr-")
            assert span.span_id.startswith("h:abc/sp-")


# ---------------------------------------------------------------------------
# Profiling: the wall ledger's traced run, not a telemetry collaborator
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_kernel_resolves_profiling_backends(self):
        """There is no ``profiling`` kind and no profiler on a telemetry:
        the name is refused with the how-to, and the how-to exists."""
        from repro.exceptions import ConfigurationError

        assert "profiling" not in SWITCHES
        with pytest.raises(ConfigurationError,
                           match=r"python benchmarks/wall/run\.py --trace"):
            RuntimeConfig(telemetry="inmemory", profiling="sampling")
        controller = DataController(
            seed="prof", runtime=RuntimeConfig(telemetry="inmemory"))
        assert not hasattr(controller, "profiler")
        assert not hasattr(controller.telemetry, "profiler")
        run = Path(__file__).resolve().parent.parent / "benchmarks/wall/run.py"
        assert '"--trace"' in run.read_text()


# ---------------------------------------------------------------------------
# SLO engine
# ---------------------------------------------------------------------------


class TestSLOEngine:
    def make_telemetry(self):
        return InMemoryTelemetry(clock=Clock())

    def test_objective_validation(self):
        from repro.exceptions import ConfigurationError
        from repro.obs.slo import SLObjective

        with pytest.raises(ConfigurationError, match="unknown SLO kind"):
            SLObjective(name="x", kind="nope", metric="m", target=0.9)
        with pytest.raises(ConfigurationError, match="target"):
            SLObjective(name="x", kind="ratio", metric="m", target=1.5,
                        bad_metric="b")
        with pytest.raises(ConfigurationError, match="bad_metric"):
            SLObjective(name="x", kind="ratio", metric="m", target=0.9)

    def test_engine_requires_enabled_telemetry(self):
        from repro.exceptions import ConfigurationError
        from repro.obs.slo import SLOEngine

        with pytest.raises(ConfigurationError, match="hand it a telemetry backend"):
            SLOEngine(None)
        with pytest.raises(ConfigurationError, match="hand it a telemetry backend"):
            SLOEngine(DataController(seed="slo-off").telemetry)

    def test_noop_engine_is_inert(self):
        """No engine is ``None``: an incident monitor handed none still
        polls its other watchdogs and captures without an SLO section."""
        from repro.obs.incident import IncidentMonitor, WatchdogConfig
        from tests.conftest import build_federation

        platform = build_federation().platform
        monitor = IncidentMonitor(platform, slo=None)
        assert monitor.poll() is None
        tripped = IncidentMonitor(
            platform, slo=None, config=WatchdogConfig(queue_depth_ceiling=0))
        bundle = tripped.poll()
        assert bundle["slo"] is None and bundle["burn_rates"] == {}

    def test_ratio_attainment_and_breach(self):
        from repro.obs.slo import KIND_RATIO, SLOEngine, SLObjective

        telemetry = self.make_telemetry()
        telemetry.count("link.attempts_total", 100)
        telemetry.count("link.drops_total", 2)
        objective = SLObjective(
            name="delivery", kind=KIND_RATIO, metric="link.attempts_total",
            bad_metric="link.drops_total", target=0.999,
        )
        status = SLOEngine(telemetry, objectives=(objective,)) \
            .evaluate().statuses[0]
        assert status.attainment == pytest.approx(0.98)
        assert status.breached is True

    def test_level_objective_checks_every_gauge(self):
        from repro.obs.slo import KIND_LEVEL, SLOEngine, SLObjective

        telemetry = self.make_telemetry()
        telemetry.gauge("queue.depth", 0.0, node="a")
        telemetry.gauge("queue.depth", 3.0, node="b")
        objective = SLObjective(name="drained", kind=KIND_LEVEL,
                                metric="queue.depth", target=1.0,
                                threshold=0.0)
        status = SLOEngine(telemetry, objectives=(objective,)) \
            .evaluate().statuses[0]
        assert status.attainment == 0.0 and status.breached is True

    def test_unmeasured_objectives_are_vacuously_met(self):
        from repro.obs.slo import SLOEngine, default_objectives

        telemetry = self.make_telemetry()
        report = SLOEngine(telemetry).evaluate()
        assert len(report.statuses) == len(default_objectives())
        assert report.breaches() == ()
        assert all(s.attainment == 1.0 for s in report.statuses)

    def test_alert_publishes_one_event_per_breach(self):
        from repro.bus.broker import ServiceBus
        from repro.obs.slo import (
            KIND_RATIO,
            SLO_ALERT_TOPIC,
            SLOEngine,
            SLObjective,
        )

        telemetry = self.make_telemetry()
        telemetry.count("total", 10)
        telemetry.count("bad", 5)
        objective = SLObjective(name="half-bad", kind=KIND_RATIO,
                                metric="total", bad_metric="bad", target=0.9)
        engine = SLOEngine(telemetry, objectives=(objective,))
        bus = ServiceBus(clock=telemetry.clock)
        received = []
        bus.declare_topic(SLO_ALERT_TOPIC)
        bus.subscribe("operator", SLO_ALERT_TOPIC,
                      lambda envelope: received.append(envelope))
        assert engine.alert(bus) == 1
        assert len(received) == 1
        body = json.loads(received[0].body)
        assert body["alert"] == "slo-breach"
        assert body["name"] == "half-bad" and body["breached"] is True

    def test_alert_bodies_carry_only_metric_vocabulary(self):
        # The privacy contract of alerting: an alert body is exactly the
        # status row — objective/metric names, thresholds, attainment —
        # never labels, payloads or anything a guard would have to hash.
        from repro.bus.broker import ServiceBus
        from repro.obs.slo import (
            KIND_RATIO,
            SLO_ALERT_TOPIC,
            SLOEngine,
            SLObjective,
        )

        telemetry = self.make_telemetry()
        telemetry.count("total", 4, subject_ref="pat-9")
        telemetry.count("bad", 4, subject_ref="pat-9")
        objective = SLObjective(name="all-bad", kind=KIND_RATIO,
                                metric="total", bad_metric="bad", target=0.5)
        engine = SLOEngine(telemetry, objectives=(objective,))
        bus = ServiceBus(clock=telemetry.clock)
        received = []
        bus.declare_topic(SLO_ALERT_TOPIC)
        bus.subscribe("operator", SLO_ALERT_TOPIC,
                      lambda envelope: received.append(envelope))
        engine.alert(bus)
        body = json.loads(received[0].body)
        assert set(body) == {"alert", "evaluated_at", "name", "kind",
                             "metric", "target", "threshold", "attainment",
                             "observed", "breached", "error_budget",
                             "burn_rate"}
        assert "pat-9" not in received[0].body

    def test_report_text_and_payload_round_trip(self):
        from repro.obs.slo import SLOEngine

        telemetry = self.make_telemetry()
        report = SLOEngine(telemetry).evaluate()
        assert "SLO REPORT" in report.to_text()
        payload = report.to_payload()
        assert payload["breaches"] == 0
        assert len(payload["objectives"]) == len(report.statuses)

    # Both re-pinned when the stock ``request-details-latency`` objective
    # (it read simulated pipeline durations) was deleted: the one byte
    # difference is its status row, first in the report.  ``was`` is the
    # digest before that, ``observed`` the row's request-for-details count;
    # the test puts the row back and gets ``was``.  The telemetry case was
    # re-pinned once before (51f55337… → 7880d363…) when the one-node run
    # became a federation of one: node-0 reports its queue-depth gauge, so
    # ``node-queues-drained`` observes one series.  Both re-pinned again
    # when the decision cache went and ``xacml.pdp.evaluations_total``
    # came to count every decision: ``pdp-deny-rate`` observes one per
    # request for details (58 / 133, the deleted row's counts) where it
    # observed the cache's misses (``evaluated``); put back, that gives
    # ``parent``.  Both re-pinned again when the stock ``tenant-starvation``
    # objective, which read the deleted scheduler model's gauge, went: its
    # constant status row, last in the report, is the one difference, and
    # put back it gives ``scheduled``.  Ids carry no digest: a re-pin is
    # not a rename.
    @pytest.mark.parametrize(
        "argv, pinned, scheduled, parent, evaluated, was, observed", [
        pytest.param(
            ["slo", "--scenario", "federated", "--nodes", "2", "--events",
             "80", "--patients", "12", "--drops", "2"],
            "4262c4f615a82b5eb3c21e47054b8bc86e2decaeced69747c6f9ea93b3bfe3d6",
            "97ae3b1262a13c55477a1d05d48457e42acd6ff7058a4b6ba5537e8483f32adc",
            "999e80b48cc72b64f5e501b27d743560e5e97bb5dc4ff7594fea97ffec5e9c86",
            54.0,
            "90d8c770a6aed59be3dd5cac367060a397590896d2b1a1644b5a0fa6d4e21d11",
            58.0, id="slo-federated-drops"),
        pytest.param(
            ["telemetry", "--scenario", "default"],
            "f784d708f9afef6422559db9855aef3464feb7930a78ffd1315aba6d94477cf0",
            "09ed9a99eb7fe58664a3d9aaff7267c6233c1b721d1ef2ae09c6fcb1ff9db7dc",
            "9a1365338d1f990ad43a41b32cd22fe63bbf5047ce3f67561a5d1b8ba6f7af70",
            114.0,
            "7880d363d711b4c2aacf374b4c86fe4e939cae82ca976f0333fa488fcf68b7d2",
            133.0, id="telemetry-default"),
    ])
    def test_slo_payload_bytes_are_pinned(self, tmp_path, capsys, argv, pinned,
                                          scheduled, parent, evaluated, was,
                                          observed):
        """The SLO engine reads every objective through the registry's
        series accessors; these digests were taken before those became
        callers of one iterator."""
        from repro.cli import main

        def sha(report: dict) -> str:
            return hashlib.sha256(json.dumps(
                report, indent=2, sort_keys=True).encode() + b"\n").hexdigest()

        assert main([*argv, "--slo-out", str(tmp_path / "slo.json")]) == 0
        capsys.readouterr()
        payload = (tmp_path / "slo.json").read_bytes()
        assert hashlib.sha256(payload).hexdigest() == pinned
        before = with_starvation_row(json.loads(payload))
        assert sha(before) == scheduled
        before = with_parent_pdp_counts(before, evaluated)
        assert sha(before) == parent
        assert sha(with_deleted_latency_row(before, observed)) == was

    def test_kernel_resolves_slo_backends(self):
        """There is no ``slo`` kind: the name is refused with the how-to,
        and the how-to works."""
        from repro.exceptions import ConfigurationError
        from repro.obs.slo import SLOEngine

        assert "slo" not in SWITCHES
        with pytest.raises(ConfigurationError,
                           match=r"build SLOEngine\(telemetry\) where the report is read"):
            RuntimeConfig(telemetry="inmemory", slo="default")
        controller = DataController(
            seed="slo", runtime=RuntimeConfig(telemetry="inmemory"))
        assert not hasattr(controller, "slo")
        assert SLOEngine(controller.telemetry).evaluate().breaches() == ()


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------


class TestStitch:
    def spans_for(self, site: str, clock: Clock, guard=None):
        return Tracer(clock, guard, site=site)

    def test_stitch_merges_sites_into_one_trace(self):
        from repro.obs.context import TraceContext
        from repro.obs.exporters import span_lines
        from repro.obs.stitch import stitch, stitch_summary

        clock = Clock()
        client = Tracer(clock, site="h:aaa")
        server = Tracer(clock, site="h:bbb")
        with client.span("client.op") as root:
            clock.advance(0.1)
            context = TraceContext(trace_id=root.trace_id,
                                   span_id=root.span_id)
            with server.span("server.op", remote_parent=context):
                clock.advance(0.1)
        traces = stitch({"a": span_lines(client.finished_spans()),
                         "b": span_lines(server.finished_spans())})
        assert len(traces) == 1
        trace = traces[0]
        assert trace.is_cross_node and trace.sites == ("h:aaa", "h:bbb")
        assert trace.root["name"] == "client.op"
        assert trace.orphan_spans() == ()
        summary = stitch_summary(traces)
        assert summary == {"traces": 1, "spans": 2,
                           "cross_node_traces": 1, "orphan_spans": 0}

    def test_stitched_lines_are_deterministic(self):
        from repro.obs.exporters import span_lines
        from repro.obs.stitch import stitch, stitched_lines

        def build():
            clock = Clock()
            tracer = Tracer(clock, site="h:x")
            with tracer.span("a"):
                clock.advance(0.5)
            with tracer.span("b"):
                clock.advance(0.25)
            return stitched_lines(stitch(span_lines(tracer.finished_spans())))

        assert build() == build()

    def test_orphans_are_counted_not_dropped(self):
        from repro.obs.stitch import stitch

        lines = [json.dumps({"trace_id": "tr-1", "span_id": "sp-2",
                             "parent_id": "sp-unknown", "name": "late",
                             "start": 1.0, "end": 2.0, "duration": 1.0,
                             "status": "ok", "attributes": {}})]
        traces = stitch(lines)
        assert len(traces) == 1
        assert traces[0].orphan_spans()[0]["span_id"] == "sp-2"
