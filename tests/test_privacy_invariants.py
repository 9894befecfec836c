"""Property-based tests of the platform's privacy invariants.

Hypothesis drives randomized policy configurations and request mixes
through a real platform instance and checks the paper's core guarantees:

1. **Never-leak** (Def. 4 / Algorithm 2): a released detail message never
   exposes a field outside the union of the matching policies' field sets.
2. **Deny-by-default** (§5.1): requests with no matching policy always
   raise :class:`AccessDeniedError`.
3. **Total traceability** (§4): every detail request — permitted or not —
   appends exactly one audit record, and the chain stays verifiable.
4. **No telemetry side channel**: metric labels and span attributes never
   carry plaintext assisted-person identifiers or detail-payload values —
   the observability layer cannot re-leak what enforcement protects.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccessDeniedError,
    DataConsumer,
    DataController,
    DataProducer,
)
from repro.audit.log import AuditAction
from repro.audit.query import AuditQuery
from repro.clock import Clock
from repro.core.policy import DetailRequestSpec
from repro.obs.guard import TelemetryPrivacyError
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.kernel import RuntimeConfig
from repro.sim.scenario import CssScenario, ScenarioConfig
from tests.conftest import blood_test_schema

FIELDS = ("PatientId", "Name", "Hemoglobin", "Glucose", "HivResult")
PURPOSES = ("healthcare-treatment", "statistical-analysis", "administration")
CONSUMER_IDS = ("Consumer-A", "Consumer-B", "Consumer-C")

policy_strategy = st.lists(
    st.tuples(
        st.sampled_from(CONSUMER_IDS),
        st.frozensets(st.sampled_from(FIELDS), min_size=1),
        st.frozensets(st.sampled_from(PURPOSES), min_size=1),
    ),
    max_size=6,
)

request_strategy = st.lists(
    st.tuples(
        st.sampled_from(CONSUMER_IDS),
        st.sampled_from(PURPOSES),
    ),
    min_size=1,
    max_size=10,
)


def build_platform(policies):
    controller = DataController(seed="prop")
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    consumers = {
        consumer_id: DataConsumer(controller, consumer_id, consumer_id)
        for consumer_id in CONSUMER_IDS
    }
    for consumer_id, fields, purposes in policies:
        hospital.define_policy(
            event_type="BloodTest",
            fields=sorted(fields),
            consumers=[(consumer_id, "unit")],
            purposes=sorted(purposes),
        )
    notification = hospital.publish(
        blood, subject_id="pat-1", subject_name="Mario Bianchi",
        summary="blood test",
        details={"PatientId": "pat-1", "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"},
    )
    return controller, consumers, notification


@given(policies=policy_strategy, requests=request_strategy)
@settings(max_examples=40, deadline=None)
def test_never_leak_and_deny_by_default(policies, requests):
    controller, consumers, notification = build_platform(policies)
    for consumer_id, purpose in requests:
        consumer = consumers[consumer_id]
        matching = [
            (fields, purposes)
            for pid, fields, purposes in policies
            if pid == consumer_id and purpose in purposes
        ]
        allowed_union = frozenset().union(*(f for f, _ in matching)) if matching else frozenset()
        try:
            detail = consumer.request_details(notification, purpose)
        except AccessDeniedError:
            # Deny-by-default: a deny is only acceptable when no policy matches.
            assert not matching
            continue
        # Never-leak: every exposed field was granted by some matching policy.
        exposed = set(detail.exposed_values())
        assert exposed <= allowed_union
        # And a matching policy must have existed for the permit.
        assert matching


@given(policies=policy_strategy, requests=request_strategy)
@settings(max_examples=25, deadline=None)
def test_every_request_is_audited_exactly_once(policies, requests):
    controller, consumers, notification = build_platform(policies)
    before = (AuditQuery().by_action(AuditAction.DETAIL_REQUEST)
              .count(controller.audit_log))
    for consumer_id, purpose in requests:
        try:
            consumers[consumer_id].request_details(notification, purpose)
        except AccessDeniedError:
            pass
    after = (AuditQuery().by_action(AuditAction.DETAIL_REQUEST)
             .count(controller.audit_log))
    assert after - before == len(requests)
    controller.audit_log.verify_integrity()


@given(
    fields=st.frozensets(st.sampled_from(FIELDS), min_size=1),
    purposes=st.frozensets(st.sampled_from(PURPOSES), min_size=1),
    probe_purpose=st.sampled_from(PURPOSES),
    probe_actor=st.sampled_from(CONSUMER_IDS + ("Stranger",)),
)
@settings(max_examples=60, deadline=None)
def test_matching_agrees_between_def3_and_enforcement(fields, purposes,
                                                      probe_purpose, probe_actor):
    """Def. 3 matching and the full XACML enforcement path always agree."""
    policies = [("Consumer-A", fields, purposes)]
    controller, consumers, notification = build_platform(policies)
    spec = DetailRequestSpec(
        actor_id=probe_actor, event_type="BloodTest", purpose=probe_purpose,
    )
    should_permit = (probe_actor == "Consumer-A") and (probe_purpose in purposes)
    if probe_actor == "Stranger":
        return  # not a registered consumer; contract layer rejects earlier
    consumer = consumers[probe_actor]
    try:
        consumer.request_details(notification, probe_purpose)
        permitted = True
    except AccessDeniedError:
        permitted = False
    assert permitted == should_permit


# ---------------------------------------------------------------------------
# Invariant 4: telemetry is not a side channel
# ---------------------------------------------------------------------------


IDENTIFYING_LABELS = (
    {"subject_ref": "pat-17"},
    {"patient_id": "pat-17"},
    {"subject_display": "Mario Bianchi"},
    {"assisted_person": "pat-17"},
)


@pytest.mark.parametrize("labels", IDENTIFYING_LABELS,
                         ids=lambda labels: next(iter(labels)))
def test_identifying_metric_label_is_rejected_in_strict_mode(labels):
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="reject")
    with pytest.raises(TelemetryPrivacyError):
        telemetry.count("detail_requests_total", **labels)
    with pytest.raises(TelemetryPrivacyError):
        with telemetry.span("request", **labels):
            pass
    assert telemetry.metrics.snapshot() == []


@pytest.mark.parametrize("labels", IDENTIFYING_LABELS,
                         ids=lambda labels: next(iter(labels)))
def test_identifying_metric_label_is_hashed_in_hash_mode(labels):
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="hash")
    telemetry.count("detail_requests_total", **labels)
    key, value = next(iter(labels.items()))
    (row,) = telemetry.metrics.snapshot()
    assert row["labels"][key].startswith("h:")
    assert str(value) not in row["labels"][key]


def test_detail_payload_field_labels_are_guarded():
    """Field names registered at class declaration become restricted keys."""
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="reject")
    telemetry.restrict_keys(["Hemoglobin", "HivResult"])
    with pytest.raises(TelemetryPrivacyError):
        telemetry.count("field_released_total", HivResult="positive")


def test_controller_registers_declared_fields_with_the_guard():
    runtime = RuntimeConfig(telemetry="inmemory", telemetry_guard="reject")
    controller = DataController(seed="prop", runtime=runtime)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    hospital.declare_event_class(blood_test_schema())
    with pytest.raises(TelemetryPrivacyError):
        controller.telemetry.count("x_total", Hemoglobin=14.0)


def test_scenario_telemetry_exports_contain_no_plaintext_identifiers():
    """Full scenario: trace + metric exports are free of patient identity."""
    config = ScenarioConfig(
        n_patients=6, n_events=40, detail_request_rate=0.5, seed=2010,
        runtime=RuntimeConfig(telemetry="inmemory", telemetry_guard="hash"),
    )
    scenario = CssScenario(config)
    scenario.run(scenario.generate_workload())
    telemetry = scenario.controller.telemetry
    exported = "\n".join(telemetry.trace_export() + telemetry.metrics_export())
    for patient in scenario.population:
        assert patient.patient_id not in exported
        for name_part in patient.name.split():
            assert name_part not in exported


def test_no_telemetry_memo_retains_a_plaintext_identifying_value():
    """The static-label memos never key on what the guard has to hash.

    After a federated run, samples, spans and recorder events carrying
    every assisted person's id and name under identifying keys (and a
    restricted payload field) are emitted repeatedly; each is hashed on
    the way in, and no memo the guard hands out — series, span
    attributes, bound spans, on either registry — nor any series key, nor
    the tracer's span rows, nor what a flight recorder retains or shows
    holds one of the raw values.
    """
    scenario = CssScenario(ScenarioConfig(
        nodes=2, n_patients=6, n_events=40, seed=2010,
        runtime=RuntimeConfig(telemetry="inmemory", telemetry_guard="hash",
                              recorder="ring")))
    scenario.run()
    telemetry = scenario.telemetry
    recorders = scenario.platform.flight_recorders().values()
    secrets: set[str] = set()
    for _ in range(2):
        for patient in scenario.population:
            secrets.update((patient.patient_id, *patient.name.split()))
            telemetry.count("probe_total", subject_ref=patient.patient_id,
                            stage="probe")
            telemetry.gauge("probe_level", 1.0, patient_id=patient.patient_id)
            telemetry.observe("probe_seconds", 0.1, Name=patient.name,
                              pipeline="probe")
            with telemetry.span("probe", subject_display=patient.name,
                                pipeline="probe"):
                pass
            telemetry.recorder.record("probe", subject_ref=patient.patient_id,
                                      subject_display=patient.name)

    memos = telemetry.guard._memos
    assert sum(map(len, memos)) > 20  # the run did bind its static series
    retained = repr([list(memo) for memo in memos])
    retained += repr(telemetry.metrics.counter_entries()
                     + telemetry.metrics.gauge_entries()
                     + telemetry.metrics.histogram_entries()
                     + telemetry.wall.histogram_entries())
    tracer = telemetry.tracer
    retained += repr((tracer.names, tracer.attributes, tracer.parents,
                      tracer.traces, tracer.starts, tracer.ends, tracer.errors))
    for recorder in recorders:
        retained += repr(vars(recorder)) + repr(recorder.timeline())
    assert "probe" in retained and "h:" in retained
    assert "subject_display" in repr(tracer.attributes)  # the probe spans' rows
    assert "subject_ref" in repr(telemetry.recorder.events())
    for secret in secrets:
        assert secret not in retained
