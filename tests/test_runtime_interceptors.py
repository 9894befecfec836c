"""Stage-pipeline semantics: ordering, short-circuits, typed errors.

Both hot paths run through :mod:`repro.runtime.interceptors`; these tests
pin the contract: stage order is deterministic and inspectable, a deny
short-circuits the rows but the audit stage still records the attempt,
stage failures surface as the platform's typed exceptions, never as
pipeline-internal wrappers, and *every* way a request-for-details can end
leaves one audit record and one stats bucket.  The loop itself is checked
against the nested-closure chain it replaced, kept here as the reference.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataConsumer, DataController, DataProducer
from repro.audit.log import AuditAction, AuditOutcome
from repro.clock import Clock
from repro.core.consent import ConsentRegistry, ConsentScope
from repro.core.enforcement import DetailRequest
from repro.exceptions import (
    AccessDeniedError,
    PrivacyError,
    UnknownProducerError,
    ValidationError,
)
from repro.obs.telemetry import PIPELINE_OUTCOMES, InMemoryTelemetry
from repro.runtime.interceptors import Done, Invocation, Pipeline, Stage, classify
from tests.conftest import blood_test_schema


def build_world():
    controller = DataController(seed="pipe")
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


def tag(name):
    """A stub row that records its passage and goes on."""

    def enter(context):
        context.setdefault("seen", []).append(name)

    return Stage(name, enter)


class TestPipelineMachinery:
    def test_stages_execute_in_declared_order(self):
        pipeline = Pipeline(
            "demo", (tag("a"), tag("b"), tag("c")),
            terminal=lambda context: tuple(context["seen"]),
        )
        invocation = Invocation("demo")
        assert pipeline.execute(invocation) == ("a", "b", "c")
        assert invocation.trace == ["a", "b", "c"]
        assert pipeline.stage_names == ("a", "b", "c")

    def test_short_circuit_skips_downstream_stages(self):
        left = []
        outer = Stage("a", tag("a").enter,
                      lambda context, result, failure: left.append(result))
        pipeline = Pipeline(
            "demo",
            (outer, Stage("stop", lambda context: Done("stopped")), tag("never")),
            terminal=lambda context: "terminal",
        )
        invocation = Invocation("demo")
        assert pipeline.execute(invocation) == "stopped"
        assert invocation.trace == ["a", "stop"]
        assert invocation.context["seen"] == ["a"]
        assert left == ["stopped"]  # the entered stages still unwind

    def test_stage_exceptions_surface_unwrapped(self):
        def boom(context):
            raise ValidationError("malformed payload")

        pipeline = Pipeline("demo", (tag("a"), Stage("boom", boom)),
                            terminal=lambda context: None)
        with pytest.raises(ValidationError, match="malformed payload") as caught:
            pipeline.execute(Invocation("demo"))
        assert caught.value.__cause__ is None and caught.value.__context__ is None

    def test_stub_stages_satisfy_the_interceptor_protocol(self):
        # The protocol is the row: a name, an enter, optionally a leave.
        row = tag("a")
        assert isinstance(row, Stage) and row.leave is None
        assert row.enter({}) is None  # None means "go on"

    def test_call_depth_does_not_grow_with_the_number_of_stages(self):
        def depth_at_terminal(stage_count):
            def terminal(context):
                frame, depth = sys._getframe(), 0
                while frame is not None:
                    frame, depth = frame.f_back, depth + 1
                return depth

            rows = tuple(tag(f"s{index}") for index in range(stage_count))
            return Pipeline("demo", rows, terminal).execute(Invocation("demo"))

        assert depth_at_terminal(9) == depth_at_terminal(1)


# ---------------------------------------------------------------------------
# The loop against the onion it replaced
# ---------------------------------------------------------------------------


class ReferenceOnion:
    """The parent commit's mechanism: each stage wraps the rest of the chain
    in a closure, a ``with`` block brackets it in its span, and the call
    stack does the unwinding."""

    def __init__(self, name, stages, terminal, telemetry=None):
        self.name, self._telemetry = name, telemetry

        def chain(invocation):
            return terminal(invocation.context)

        for stage in reversed(stages):
            chain = self._wrap(stage, chain)
        self._chain = chain

    def _wrap(self, stage, nxt):
        telemetry, pipeline = self._telemetry, self.name

        def intercept(invocation):
            done = stage.enter(invocation.context)
            try:
                result = done.value if done is not None else nxt(invocation)
            except Exception as exc:
                if stage.leave is not None:
                    stage.leave(invocation.context, None, exc)
                raise
            if stage.leave is not None:
                stage.leave(invocation.context, result, None)
            return result

        def step(invocation):
            invocation.trace.append(stage.name)
            if telemetry is None:
                return intercept(invocation)
            with telemetry.stage_span(pipeline, stage.name):
                return intercept(invocation)

        return step

    def execute(self, invocation):
        if self._telemetry is None:
            return self._chain(invocation)
        with self._telemetry.pipeline_span(self.name):
            return self._chain(invocation)


def scripted(script, terminal_raises, calls):
    """Stage rows acting out ``script``: per stage ``(enter, leave)`` with
    enter in go/done/raise and leave in None/ok/raise; every raise is its
    own exception type + message, every leave call lands in ``calls``."""

    def row(index, on_enter, on_leave):
        def enter(context):
            if on_enter == "raise":
                raise ValidationError(f"enter {index}")
            return Done(f"done {index}") if on_enter == "done" else None

        def leave(context, result, failure):
            calls.append((index, result, type(failure), str(failure)))
            if on_leave == "raise":
                raise AccessDeniedError(f"leave {index}")

        return Stage(f"s{index}", enter, leave if on_leave else None)

    def terminal(context):
        if terminal_raises:
            raise RuntimeError("terminal")
        return "terminal"

    return tuple(row(i, *acts) for i, acts in enumerate(script)), terminal


def run(factory, script, terminal_raises, observed):
    calls = []
    telemetry = InMemoryTelemetry(clock=Clock()) if observed else None
    stages, terminal = scripted(script, terminal_raises, calls)
    invocation = Invocation("demo")
    try:
        ending = ("returned", factory("demo", stages, terminal, telemetry)
                  .execute(invocation))
    except Exception as exc:
        ending = ("raised", type(exc), str(exc))
    spans = [] if telemetry is None else [
        (span.name, span.span_id, span.parent_id, span.status, span.error)
        for span in telemetry.tracer.finished_spans()]
    return ending, invocation.trace, calls, spans, telemetry


@settings(max_examples=300, deadline=None)
@given(
    script=st.lists(st.tuples(st.sampled_from(["go", "go", "done", "raise"]),
                              st.sampled_from([None, "ok", "ok", "raise"])),
                    max_size=6),
    terminal_raises=st.booleans(),
    observed=st.booleans(),
)
def test_the_loop_agrees_with_the_reference_onion(script, terminal_raises, observed):
    *loop, telemetry = run(Pipeline, script, terminal_raises, observed)
    *onion, _ = run(ReferenceOnion, script, terminal_raises, observed)
    assert loop == onion  # result or exception, trace, leave order, spans
    ending, _, calls, spans = loop
    assert [index for index, *_ in calls] == sorted(
        (index for index, *_ in calls), reverse=True)  # innermost first
    if observed:
        assert telemetry.tracer.current_span is None  # nothing left open
        assert spans[-1][0] == "pipeline.demo" and spans[-1][2] is None
        outcome = {"returned": "ok", "raised": "error"}[ending[0]]
        if ending[0] == "raised" and ending[1] is AccessDeniedError:
            outcome = "deny"
        assert telemetry.metrics.counter_value(
            PIPELINE_OUTCOMES, pipeline="demo", outcome=outcome) == 1.0


def test_classification_is_total():
    assert classify("detail", None).label == "ok"
    assert classify(None, None).label == "consent-veto"
    assert classify(None, AccessDeniedError("no")).label == "deny"
    for failure in (PrivacyError("leak"), UnknownProducerError("gone"),
                    RuntimeError("bug"), KeyboardInterrupt()):
        assert classify(None, failure).audit is AuditOutcome.ERROR


class TestControllerWiring:
    def test_publish_pipeline_stage_order_is_deterministic(self):
        controller = DataController(seed="wire")
        assert controller.publish_pipeline.stage_names == (
            "stats", "contract", "admission", "audit", "consent",
            "persist", "crypto", "index", "route",
        )

    def test_enforcement_pipeline_stage_order_is_deterministic(self):
        controller = DataController(seed="wire")
        assert controller.enforcer.pipeline.stage_names == (
            "stats", "audit", "resolve", "consent", "decide", "fetch", "filter",
        )

    def test_details_edge_pipeline_stage_order(self):
        controller = DataController(seed="wire")
        assert controller.details_pipeline.stage_names == (
            "contract", "authenticate",
        )


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
