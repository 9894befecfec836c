"""The per-tenant backlog bound at fan-out.

The acceptance-critical invariants: a subscriber queue stops growing at
``MAX_PENDING`` and the excess is dead-lettered, then replayed in bulk;
another tenant's deliveries all land; platform-internal subscribers are
never shed; and shedding changes no decision and no audit record.
"""

import pytest

from repro import (
    DataConsumer,
    DataProducer,
    ElementDecl,
    MessageSchema,
    StringType,
)
from repro.bus.broker import ServiceBus
from repro.core.controller import DataController
from repro.exceptions import AccessDeniedError
from repro.sched import MAX_PENDING, SYSTEM_TENANT, BacklogBound, tenant_of
from tests.conftest import blood_test_schema

#: Deliveries the abuser's queue is driven past the bound.
EXCESS = 20


class TestTenantIdentity:
    def test_organizations_are_their_own_tenant(self):
        assert tenant_of("Municipality-Trento/SocialWorkers") == \
            "Municipality-Trento/SocialWorkers"

    def test_platform_traffic_collapses_onto_the_system_tenant(self):
        assert tenant_of("federation:node-1") == SYSTEM_TENANT
        assert tenant_of("") == SYSTEM_TENANT


def home_visit_schema() -> MessageSchema:
    return MessageSchema("HomeVisit", [
        ElementDecl("PatientId", StringType(min_length=1), identifying=True),
        ElementDecl("Name", StringType(min_length=1), identifying=True),
        ElementDecl("Notes", StringType(), sensitive=True),
    ])


def backlog_run(abuser_backlog: bool) -> dict:
    """One controller that dispatches only when told to.  The abuser
    ("Lab") is subscribed to a flood of blood tests, the victim
    ("Dr-Rossi") to a trickle of home visits, and a platform-internal
    subscriber to the flood as well.  With ``abuser_backlog`` nothing is
    dispatched until the flood is over, so the abuser's queue runs
    ``EXCESS`` past the bound; without it every publish is dispatched at
    once and no queue ever holds more than one message."""
    controller = DataController(seed="backlog", auto_dispatch=False)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    clinic = DataProducer(controller, "Clinic", "Clinic")
    blood = hospital.declare_event_class(blood_test_schema())
    visit = clinic.declare_event_class(home_visit_schema())
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("lab", "role"), ("family-doctor", "role")],
        purposes=["healthcare-treatment"])
    clinic.define_policy(
        "HomeVisit", fields=["PatientId", "Notes"],
        consumers=[("family-doctor", "role")],
        purposes=["healthcare-treatment"])
    abuser = DataConsumer(controller, "Lab", "Lab", role="lab")
    victim = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    abuser.subscribe("BloodTest")
    victim.subscribe("HomeVisit")
    archived = []
    controller.bus.subscribe("platform.archive", blood.topic, archived.append)

    visits = []
    for index in range(MAX_PENDING + EXCESS):
        hospital.publish(
            blood, subject_id=f"p{index}", subject_name="Mario", summary="done",
            details={"PatientId": f"p{index}", "Name": "Mario",
                     "Hemoglobin": 14.0, "Glucose": 90.0,
                     "HivResult": "negative"})
        if index % 50 == 49:  # the victim's trickle, behind the abuser's backlog
            visits.append(clinic.publish(
                visit, subject_id=f"v{index}", subject_name="Anna",
                summary="visit",
                details={"PatientId": f"v{index}", "Name": "Anna",
                         "Notes": "stable"}))
        if not abuser_backlog:
            controller.bus.dispatch()
    bus = controller.bus
    run = {"dead_lettered": bus.dead_letter_depth,
           "shed": dict(controller.sched.shed_by_tenant)}
    bus.dispatch()
    run["abuser_before_replay"] = len(abuser.inbox)
    run["replayed"] = bus.replay_all_dead_letters()
    bus.dispatch()
    run.update(abuser=len(abuser.inbox), archived=len(archived),
               victim=[n.event_id for n in victim.inbox],
               visits=[n.event_id for n in visits],
               dead_letter_depth=bus.dead_letter_depth)

    decisions = []
    for consumer, notification in ((abuser, abuser.inbox[0]), (abuser, abuser.inbox[-1]),
                                   (victim, victim.inbox[0]), (victim, victim.inbox[-1])):
        decisions.append(consumer.request_details(
            notification, "healthcare-treatment").released_fields)
    try:
        abuser.request_details_by_id("HomeVisit", visits[0].event_id,
                                     "healthcare-treatment")
    except AccessDeniedError:
        decisions.append("deny")
    run["decisions"] = decisions
    run["audit"] = sorted(
        tuple(value for key, value in record.to_payload().items() if key != "record_id")
        for record in controller.audit_log.logical())
    return run


class TestBackpressure:
    @pytest.fixture(scope="class")
    def runs(self):
        return backlog_run(abuser_backlog=True), backlog_run(abuser_backlog=False)

    def test_overflow_sheds_to_dead_letter_and_replays_in_bulk(self, runs):
        flooded, drained = runs
        # The abuser's queue stops at the bound; the excess is parked...
        assert flooded["dead_lettered"] == EXCESS
        assert flooded["shed"] == {"Lab": EXCESS}
        assert flooded["abuser_before_replay"] == MAX_PENDING
        # ...and replayed in bulk, so nothing is lost.
        assert flooded["replayed"] == EXCESS
        assert flooded["dead_letter_depth"] == 0
        assert flooded["abuser"] == MAX_PENDING + EXCESS
        # Every delivery to the victim lands, in order, without a replay.
        assert flooded["victim"] == flooded["visits"] and len(flooded["visits"]) == 5
        # The platform-internal subscriber is never shed.
        assert flooded["archived"] == MAX_PENDING + EXCESS
        # Shedding decides nothing: same decisions, same audit records.
        assert drained["dead_lettered"] == 0 and drained["shed"] == {}
        assert flooded["decisions"][-1] == "deny"
        assert flooded["decisions"] == drained["decisions"]
        assert flooded["audit"] == drained["audit"]

    def test_dead_letter_counts_accumulate_per_topic_across_replay(self):
        bus = ServiceBus(auto_dispatch=False, sched=BacklogBound())
        bus.declare_topic("events.t")
        bus.declare_topic("events.u")
        bus.subscribe("consumer-org", "events.t", lambda e: None)
        bus.subscribe("consumer-org", "events.u", lambda e: None)
        for _ in range(MAX_PENDING + 2):
            bus.publish("events.t", "p", "x")
        for _ in range(MAX_PENDING + 1):
            bus.publish("events.u", "p", "x")
        assert bus.dead_letter_counts() == {"events.t": 2, "events.u": 1}
        bus.replay_all_dead_letters()
        # Cumulative arrivals survive replay — they are a counter, not a depth.
        assert bus.dead_letter_counts() == {"events.t": 2, "events.u": 1}
        assert bus.dead_letter_depth == 0


class TestBusStatsResetContract:
    def test_reset_zeroes_counters_but_keeps_high_water_marks(self):
        bus = ServiceBus(auto_dispatch=False)
        bus.declare_topic("events.t")
        bus.subscribe("c", "events.t", lambda e: None)
        bus.publish("events.t", "s", "x")
        assert bus.stats.published == 1
        assert bus.queue_high_water() == 1

        bus.stats.reset()
        assert bus.stats.published == 0
        # High-water marks live on the bus, cleared only by the bus.
        assert bus.queue_high_water() == 1
        bus.reset_high_water()
        assert bus.queue_high_water() == 0

    def test_reset_docstring_pins_the_division_of_labour(self):
        from repro.bus.broker import BusStats

        assert "reset_high_water" in BusStats.reset.__doc__
