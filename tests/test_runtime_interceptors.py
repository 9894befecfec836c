"""The hot paths: plain functions with typed errors and every outcome kept.

Publish, the controller edge and Algorithm 1 are the plain functions of
:mod:`repro.runtime.interceptors`; these tests pin their contract: a deny
stops Algorithm 1 before the gateway but still leaves its audit record,
failures surface as the platform's typed exceptions, unwrapped, *every*
way a request-for-details can end leaves one audit record and one stats
bucket, and a publish leaves (almost) nothing behind for the garbage
collector: its index entry is one flat row of strings and floats.
"""

import gc

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.audit.log import AuditAction, AuditOutcome
from repro.core import events, gateway
from repro.core.consent import ConsentRegistry, ConsentScope
from repro.core.enforcement import DetailRequest
from repro.exceptions import (
    AccessDeniedError,
    PrivacyError,
    SourceUnavailableError,
    UnknownProducerError,
    ValidationError,
)
from repro.obs.telemetry import PIPELINE_OUTCOMES, PIPELINE_WALL_DURATION
from repro.obs.tracing import SPAN_CAPACITY
from repro.runtime.interceptors import classify
from repro.runtime.kernel import RuntimeConfig
from repro.sim.scenario import CssScenario, ScenarioConfig
from tests.conftest import blood_test_schema


def build_world(runtime=None):
    controller = DataController(seed="pipe", runtime=runtime)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    return controller, hospital, blood, doctor


def publish(hospital, blood, subject="p1"):
    return hospital.publish(
        blood, subject_id=subject, subject_name="Mario Bianchi", summary="done",
        details={"PatientId": subject, "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})


def detail_request_records(controller):
    return [r for r in controller.audit_log.records()
            if r.action is AuditAction.DETAIL_REQUEST]


def test_classification_is_total():
    assert classify("detail", None).label == "ok"
    assert classify(None, None).label == "consent-veto"
    assert classify(None, AccessDeniedError("no")).label == "deny"
    for failure in (PrivacyError("leak"), UnknownProducerError("gone"),
                    RuntimeError("bug"), KeyboardInterrupt()):
        assert classify(None, failure).audit is AuditOutcome.ERROR


class TestHotPaths:
    def test_failures_surface_unwrapped(self):
        controller, hospital, blood, doctor = build_world()
        with pytest.raises(ValidationError) as caught:
            hospital.publish(blood, subject_id="p1", subject_name="Mario",
                             summary="done", details={"PatientId": "p1"})
        assert caught.value.__cause__ is None and caught.value.__context__ is None
        assert controller.publish_stats.failures == 1

    def test_each_path_is_one_root_span_one_count_and_one_wall_sample(self):
        """A request for details is the edge's root span alone: Algorithm 1
        runs under it, counts its own outcome and leaves it on the edge's
        span as ``enforcement``."""
        controller, hospital, blood, doctor = build_world(
            RuntimeConfig(telemetry="inmemory"))
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        doctor.request_details(notification, "healthcare-treatment")
        with pytest.raises(AccessDeniedError):
            doctor.request_details(notification, "administration")
        telemetry = controller.telemetry
        assert [(span.name, span.status, span.attributes.get("enforcement"))
                for span in telemetry.tracer.finished_spans()] == [
            ("pipeline.publish", "ok", None),
            ("pipeline.request-details-edge", "ok", "ok"),
            ("pipeline.request-details-edge", "error", "deny"),
        ]
        counts = {(labels["pipeline"], labels["outcome"]): counter.value
                  for labels, counter
                  in telemetry.metrics.counter_series(PIPELINE_OUTCOMES)}
        assert counts == {("publish", "ok"): 1.0,
                          ("request-details", "ok"): 1.0,
                          ("request-details-edge", "ok"): 1.0,
                          ("request-details", "deny"): 1.0,
                          ("request-details-edge", "deny"): 1.0}
        assert {labels["pipeline"]: summary["count"] for labels, summary in
                telemetry.wall.histogram_summaries(PIPELINE_WALL_DURATION)} == {
            "publish": 1, "request-details-edge": 2}


class TestRetention:
    def test_a_durable_prod_publish_retains_at_most_four_tracked_objects(
            self, tmp_path):
        """What a publish leaves for the cyclic garbage collector to walk,
        on a durable node with the PROD switches: its index entry is one
        dict of strings and floats, which CPython does not track."""
        controller, hospital, blood, doctor = build_world(RuntimeConfig(
            data_dir=tmp_path, batch="on", sched="fair", recorder="ring"))
        for number in range(300):  # warm: rings full, series bound
            publish(hospital, blood, f"w{number}")
        controller.flush_storage()
        gc.collect()
        before = len(gc.get_objects())
        for number in range(2000):
            publish(hospital, blood, f"p{number}")
        controller.flush_storage()
        gc.collect()
        assert (len(gc.get_objects()) - before) / 2000 <= 4


    def test_a_node_keeps_span_capacity_spans_however_many_requests_run(self):
        """Telemetry keeps a node's last spans, not its history: after N and
        again after 2N more requests for details (N = ``SPAN_CAPACITY``,
        every tenth denied, one root span each) the tracer holds exactly
        ``SPAN_CAPACITY`` finished spans, its columns, views and error
        names are the same size, and the wall sidecar holds one sample per
        retained span."""
        controller, hospital, blood, doctor = build_world(
            RuntimeConfig(telemetry="inmemory", recorder="ring"))
        telemetry = controller.telemetry
        tracer = telemetry.tracer
        notification = publish(hospital, blood)

        def run(count: int) -> tuple:
            for number in range(count):
                try:
                    doctor.request_details(notification, "administration" if number % 10 == 0
                                           else "healthcare-treatment")
                except AccessDeniedError:
                    pass
            retained = tracer.finished_spans()
            wall = telemetry.wall.histogram_summaries(PIPELINE_WALL_DURATION)
            failed = sum(span.status == "error" for span in retained)
            containers = tuple(map(len, (
                tracer.names, tracer.attributes, tracer.parents, tracer.traces,
                tracer.starts, tracer.ends, tracer.walls, tracer.errors,
                tracer.finished, tracer.views)))
            return (len(retained), containers, failed,
                    sum(summary["count"] for _, summary in wall),
                    len(controller.recorder.spans()))

        first = run(SPAN_CAPACITY)
        assert run(2 * SPAN_CAPACITY) == first
        assert first == (SPAN_CAPACITY, (SPAN_CAPACITY,) * 10,
                         SPAN_CAPACITY // 10 + 1, SPAN_CAPACITY, 256)
        assert tracer.rows == 3 * SPAN_CAPACITY + 1  # the publish, then one per request


class TestOneValidation:
    """A publish validates its detail once: in the gateway's ``persist``
    when it goes out, before its veto is audited when consent stops it."""

    def test_a_seeded_run_validates_once_per_publish(self, monkeypatch):
        validated = []
        for module in (events, gateway):  # every caller of validate_document
            def counted(document, schema, real=module.validate_document):
                validated.append(document)
                real(document, schema)
            monkeypatch.setattr(module, "validate_document", counted)
        scenario = CssScenario(ScenarioConfig(nodes=2, n_events=60, n_patients=10, seed=11))
        scenario.run()
        publishes = sum(node.controller.publish_stats.requests
                        for node in scenario.platform.nodes())
        assert publishes >= 60 and len(validated) == publishes

    def test_a_malformed_detail_fails_before_the_consent_check(self):
        controller, hospital, blood, doctor = build_world()
        consent = ConsentRegistry("Hospital")
        consent.opt_out("p1", ConsentScope.NOTIFICATIONS)
        controller.attach_consent("Hospital", consent)
        audited = len(controller.audit_log)
        with pytest.raises(ValidationError):
            hospital.publish(blood, subject_id="p1", subject_name="Mario",
                             summary="done", details={"PatientId": "p1"})
        assert len(controller.audit_log) == audited  # no veto minted
        assert (controller.publish_stats.failures,
                controller.publish_stats.consent_blocked) == (1, 0)
        assert len(hospital.gateway) == 0


class TestDenyShortCircuits:
    def test_policy_deny_is_audited_and_gateway_never_called(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        intruder = DataConsumer(controller, "Mallory", "Mallory", role="clerk")
        with pytest.raises(AccessDeniedError):
            controller.request_details(
                "Mallory",
                DetailRequest(actor=intruder.actor, event_type="BloodTest",
                              event_id=notification.event_id,
                              purpose="healthcare-treatment"),
            )
        denies = [r for r in detail_request_records(controller)
                  if r.outcome is AuditOutcome.DENY]
        assert len(denies) == 1
        assert denies[0].actor == "Mallory"
        # the fetch stage was short-circuited: nothing left the producer
        stats = hospital.gateway.stats
        assert stats.served_from_cache == 0 and stats.served_from_source == 0
        assert controller.enforcer.stats.denies == 1

    def test_consent_veto_on_publish_returns_none_but_is_audited(self):
        controller, hospital, blood, doctor = build_world()
        consent = ConsentRegistry("Hospital")
        consent.opt_out("p1", ConsentScope.NOTIFICATIONS)
        controller.attach_consent("Hospital", consent)
        assert publish(hospital, blood, "p1") is None
        assert len(controller.index) == 0  # nothing indexed or routed
        denies = [r for r in controller.audit_log.records()
                  if r.action is AuditAction.PUBLISH
                  and r.outcome is AuditOutcome.DENY]
        assert len(denies) == 1
        assert denies[0].detail == "data subject opted out of event sharing"
        assert controller.publish_stats.consent_blocked == 1
        # the veto fired before the persist stage: no event id was consumed
        ok = publish(hospital, blood, "p2")
        assert ok.event_id.startswith("evt-000001")

    def test_admission_failure_surfaces_as_typed_exception(self):
        controller, hospital, blood, doctor = build_world()
        rival = DataProducer(controller, "Rival", "Rival clinic")
        with pytest.raises(UnknownProducerError):
            publish(rival, blood)
        assert controller.publish_stats.failures == 1

    def test_field_filter_stage_blocks_overreleasing_gateway(self, monkeypatch):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        real_fetch = controller.detail_fetcher.fetch
        crossed_the_wire = []

        def leaky_fetch(producer_id, src_event_id, allowed_fields, event_id):
            # a buggy/hostile gateway ignores the policy's field set
            detail = real_fetch(producer_id, src_event_id,
                                ["PatientId", "Hemoglobin", "HivResult"], event_id)
            crossed_the_wire.append(detail)
            return detail

        # the fetch stage calls ``fetcher.fetch`` at call time
        monkeypatch.setattr(controller.detail_fetcher, "fetch", leaky_fetch)
        with pytest.raises(PrivacyError, match="outside the policy grant"):
            doctor.request_details(notification, "healthcare-treatment")
        assert "HivResult" in crossed_the_wire[0].released_fields
        # fail closed: the over-release is on the trail, exactly once...
        [record] = detail_request_records(controller)
        assert record.outcome is AuditOutcome.ERROR
        assert (record.actor, record.event_id, record.subject_ref) == (
            "Dr-Rossi", notification.event_id, "p1")
        assert record.detail == (
            "gateway released fields outside the policy grant: HivResult")
        # ...and in a stats bucket
        stats = controller.enforcer.stats
        assert (stats.requests, stats.permits, stats.denies,
                stats.gateway_failures) == (1, 0, 0, 1)

    @pytest.mark.parametrize("failure", [
        UnknownProducerError("producer 'Hospital' attached no gateway"),
        RuntimeError("a bug nobody anticipated"),
    ])
    def test_every_other_failure_is_audited_as_an_error_too(self, monkeypatch, failure):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)

        def broken_fetch(*args):
            raise failure

        monkeypatch.setattr(controller.detail_fetcher, "fetch", broken_fetch)
        with pytest.raises(type(failure)) as caught:
            doctor.request_details(notification, "healthcare-treatment")
        assert caught.value is failure  # re-raised unchanged
        [record] = detail_request_records(controller)
        assert (record.outcome, record.detail) == (AuditOutcome.ERROR, str(failure))
        stats = controller.enforcer.stats
        assert stats.requests == stats.permits + stats.denies + stats.gateway_failures == 1


class TestOutcomeEquivalence:
    """The ``pipeline.invocations_total`` rows are read off the stats the
    path functions bucket into, and equal what :func:`classify` answers
    for every execution of each of the three paths — whichever way it
    ended, the edge's failures before the endpoint included."""

    #: What each step provokes: ``(pipeline, outcome)``.
    EXPECTED = {
        ("publish", "ok"), ("publish", "consent-veto"), ("publish", "deny"),
        ("publish", "error"),
        ("request-details", "ok"), ("request-details", "deny"),
        ("request-details", "error"),
        ("request-details-edge", "ok"), ("request-details-edge", "deny"),
        ("request-details-edge", "error"),
    }

    def test_every_outcome_of_every_path_is_classify_s_answer(self, monkeypatch):
        controller, hospital, blood, doctor = build_world(
            RuntimeConfig(telemetry="inmemory"))
        answers: dict[tuple[str, str], int] = {}
        for path in (controller.publish_pipeline, controller.details_pipeline,
                     controller.enforcer.pipeline):
            def execute(*args, real=path.execute, name=path.name):
                result = failure = None
                try:
                    result = real(*args)
                    return result
                except BaseException as exc:
                    failure = exc
                    raise
                finally:
                    key = (name, classify(result, failure).label)
                    answers[key] = answers.get(key, 0) + 1
            monkeypatch.setattr(path, "execute", execute)

        def attempt(step, *args):
            try:
                return step(*args)
            except Exception:  # every failure is counted, whatever it is
                return None

        def refusing(failure):
            def call(*args, **kwargs):
                raise failure
            return call

        consent = ConsentRegistry("Hospital")
        consent.opt_out("vetoed", ConsentScope.NOTIFICATIONS)
        controller.attach_consent("Hospital", consent)
        notification = publish(hospital, blood)                     # ok
        assert attempt(publish, hospital, blood, "vetoed") is None  # veto
        with monkeypatch.context() as patch:                         # deny
            patch.setattr(controller.index, "store",
                          refusing(AccessDeniedError("refused")))
            attempt(publish, hospital, blood, "p2")
        attempt(hospital.publish, blood, "p3", "M", "s", {})        # error
        doctor.request_details(notification, "healthcare-treatment")   # ok
        attempt(doctor.request_details, notification, "administration")  # deny
        with monkeypatch.context() as patch:                          # error
            patch.setattr(controller.detail_fetcher, "fetch",
                          refusing(SourceUnavailableError("down")))
            attempt(doctor.request_details, notification, "healthcare-treatment")
        mallory = DataConsumer(controller, "Mallory", "Mallory", role="family-doctor")
        attempt(controller.request_details, "Mallory", DetailRequest(  # actor mismatch
            actor=doctor.actor, event_type="BloodTest",
            event_id=notification.event_id, purpose="healthcare-treatment"))
        controller.contracts.suspend("Mallory")                       # inactive
        attempt(mallory.request_details, notification, "healthcare-treatment")

        telemetry = controller.telemetry
        rows = {(labels["pipeline"], labels["outcome"]): counter.value
                for labels, counter in telemetry.metrics.counter_series(PIPELINE_OUTCOMES)}
        assert set(answers) == self.EXPECTED
        assert rows == {key: float(count) for key, count in answers.items()}
        assert answers["request-details-edge", "deny"] == 2  # policy; actor mismatch
        assert answers["request-details-edge", "error"] == 2  # gateway; contract
        spans, enforced = {}, {}
        for span in telemetry.tracer.finished_spans():
            spans[span.name] = spans.get(span.name, 0) + 1
            outcome = span.attributes.get("enforcement")
            if outcome is not None:
                enforced[outcome] = enforced.get(outcome, 0) + 1
        wall = {labels["pipeline"]: summary["count"] for labels, summary
                in telemetry.wall.histogram_summaries(PIPELINE_WALL_DURATION)}
        for pipeline in ("publish", "request-details-edge"):
            executions = sum(count for (name, _), count in answers.items()
                             if name == pipeline)
            assert spans[f"pipeline.{pipeline}"] == wall[pipeline] == executions
        # Algorithm 1 ran under the edge's span each time, and left its
        # outcome there.
        assert "pipeline.request-details" not in spans and "request-details" not in wall
        assert enforced == {outcome: count for (name, outcome), count in answers.items()
                            if name == "request-details"}
        stats = (controller.publish_stats, controller.enforcer.stats,
                 controller.edge_stats)
        assert [s.requests for s in stats] == [
            sum(count for (name, _), count in answers.items() if name == pipeline)
            for pipeline in ("publish", "request-details", "request-details-edge")]
