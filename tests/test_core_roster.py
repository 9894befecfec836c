"""Unit and integration tests for patient-roster scoping."""

import dataclasses

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.core.roster import PatientRoster
from repro.exceptions import ConfigurationError
from tests.conftest import blood_test_schema


class TestPatientRoster:
    def test_assign_and_check(self):
        roster = PatientRoster()
        roster.assign("Dr-Rossi", "p1")
        assert roster.is_assigned("Dr-Rossi", "p1")
        assert not roster.is_assigned("Dr-Rossi", "p2")
        assert not roster.is_assigned("Dr-Verdi", "p1")

    def test_assign_many(self):
        roster = PatientRoster()
        roster.assign_many("Dr-Rossi", ["p1", "p2", "p3"])
        assert roster.subjects_of("Dr-Rossi") == {"p1", "p2", "p3"}

    def test_unassign(self):
        roster = PatientRoster()
        roster.assign("Dr-Rossi", "p1")
        roster.unassign("Dr-Rossi", "p1")
        assert not roster.is_assigned("Dr-Rossi", "p1")
        roster.unassign("Dr-Rossi", "never-assigned")  # no-op

    def test_consumers_of(self):
        roster = PatientRoster()
        roster.assign("Dr-Rossi", "p1")
        roster.assign("SocialServices", "p1")
        roster.assign("Dr-Verdi", "p2")
        assert set(roster.consumers_of("p1")) == {"Dr-Rossi", "SocialServices"}
        assert roster.consumers_of("p9") == []

    def test_empty_ids_rejected(self):
        roster = PatientRoster()
        with pytest.raises(ConfigurationError):
            roster.assign("", "p1")
        with pytest.raises(ConfigurationError):
            roster.assign("Dr-Rossi", "")


@pytest.fixture()
def roster_world():
    controller = DataController(seed="roster")
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    rossi = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    verdi = DataConsumer(controller, "Dr-Verdi", "Dr. Verdi", role="family-doctor")
    statistics = DataConsumer(controller, "Statistics", "Statistics",
                              role="statistician")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    hospital.define_policy(
        "BloodTest", fields=["Hemoglobin"],
        consumers=[("statistician", "role")], purposes=["statistical-analysis"])
    controller.roster.assign_many("Dr-Rossi", ["p1", "p2"])
    controller.roster.assign("Dr-Verdi", "p3")
    rossi.subscribe("BloodTest", roster_scoped=True)
    verdi.subscribe("BloodTest", roster_scoped=True)
    statistics.subscribe("BloodTest")  # class-wide: monitors everything

    def publish(subject):
        return hospital.publish(
            blood, subject_id=subject, subject_name=f"Patient {subject}",
            summary=f"blood test for {subject}",
            details={"PatientId": subject, "Name": f"Patient {subject}",
                     "Hemoglobin": 14.0, "Glucose": 90.0, "HivResult": "negative"})

    return controller, hospital, rossi, verdi, statistics, publish


class TestRosterScopedDelivery:
    def test_each_doctor_sees_only_own_patients(self, roster_world):
        controller, hospital, rossi, verdi, statistics, publish = roster_world
        publish("p1")
        publish("p2")
        publish("p3")
        publish("p4")  # nobody's patient
        assert {n.subject_ref for n in rossi.inbox} == {"p1", "p2"}
        assert {n.subject_ref for n in verdi.inbox} == {"p3"}

    def test_subscribers_share_one_frozen_notification_filtered_per_consumer(
            self, roster_world):
        """The envelope is decoded once; the roster filter still runs for
        each consumer against that one object."""
        controller, hospital, rossi, verdi, statistics, publish = roster_world
        publish("p1")
        assert rossi.inbox[0] is statistics.inbox[0]
        assert verdi.inbox == []
        with pytest.raises(dataclasses.FrozenInstanceError):
            rossi.inbox[0].subject_ref = "p3"

    def test_class_wide_subscription_unaffected(self, roster_world):
        controller, hospital, rossi, verdi, statistics, publish = roster_world
        for subject in ("p1", "p2", "p3", "p4"):
            publish(subject)
        assert len(statistics.inbox) == 4

    def test_roster_change_takes_effect_immediately(self, roster_world):
        controller, hospital, rossi, verdi, statistics, publish = roster_world
        publish("p9")
        assert rossi.inbox == []
        controller.roster.assign("Dr-Rossi", "p9")
        publish("p9")
        assert len(rossi.inbox) == 1
        controller.roster.unassign("Dr-Rossi", "p9")
        publish("p9")
        assert len(rossi.inbox) == 1  # no new delivery

    def test_filtered_notifications_are_not_audited_as_delivered(self, roster_world):
        controller, hospital, rossi, verdi, statistics, publish = roster_world
        publish("p4")  # reaches only the statistics office
        from repro.audit.log import AuditAction
        from repro.audit.query import AuditQuery

        notified = (AuditQuery().by_action(AuditAction.NOTIFY)
                    .run(controller.audit_log))
        assert {record.actor for record in notified} == {"Statistics"}

    def test_index_inquiry_scoped_for_rostered_consumers(self, roster_world):
        controller, hospital, rossi, verdi, statistics, publish = roster_world
        for subject in ("p1", "p2", "p3", "p4"):
            publish(subject)
        rossi_view = rossi.inquire_index(["BloodTest"])
        assert {n.subject_ref for n in rossi_view} == {"p1", "p2"}
        # Consumers without a roster keep the class-wide view.
        stats_view = statistics.inquire_index(["BloodTest"])
        assert len(stats_view) == 4

    def test_catch_up_respects_roster(self, roster_world):
        controller, hospital, rossi, verdi, statistics, publish = roster_world
        for subject in ("p1", "p3", "p4"):
            publish(subject)
        rossi.clear_inbox()
        assert rossi.catch_up("BloodTest") == 1
        assert rossi.inbox[0].subject_ref == "p1"

    def test_detail_requests_still_policy_gated(self, roster_world):
        """The roster scopes delivery; field access stays with policies."""
        controller, hospital, rossi, verdi, statistics, publish = roster_world
        publish("p1")
        detail = rossi.request_details(rossi.inbox[0], "healthcare-treatment")
        assert set(detail.exposed_values()) == {"PatientId", "Hemoglobin"}
