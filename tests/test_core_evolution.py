"""Unit and integration tests for event-class schema evolution."""

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.core.evolution import check_backward_compatible
from repro.exceptions import SchemaError, UnknownEventClassError
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import DecimalType, IntegerType, StringType
from tests.conftest import blood_test_schema


def v1() -> MessageSchema:
    return MessageSchema("Rec", [
        ElementDecl("id", StringType(min_length=1)),
        ElementDecl("score", IntegerType(0, 100), sensitive=True),
        ElementDecl("note", StringType(), occurs=Occurs.OPTIONAL),
    ])


class TestCompatibilityRules:
    def test_identical_schema_compatible(self):
        assert check_backward_compatible(v1(), v1()) == []

    def test_adding_optional_field_compatible(self):
        new = v1().add(ElementDecl("extra", StringType(), occurs=Occurs.OPTIONAL))
        assert check_backward_compatible(v1(), new) == []

    def test_adding_repeated_field_compatible(self):
        new = v1().add(ElementDecl("tags", StringType(), occurs=Occurs.REPEATED))
        assert check_backward_compatible(v1(), new) == []

    def test_adding_required_field_incompatible(self):
        new = v1().add(ElementDecl("must", StringType()))
        violations = check_backward_compatible(v1(), new)
        assert any("required" in v for v in violations)

    def test_removing_field_incompatible(self):
        new = MessageSchema("Rec", [decl for decl in v1().elements
                                    if decl.name != "score"])
        violations = check_backward_compatible(v1(), new)
        assert any("removed" in v for v in violations)

    def test_changing_type_incompatible(self):
        new = MessageSchema("Rec", [
            ElementDecl("id", StringType(min_length=1)),
            ElementDecl("score", DecimalType(0, 100), sensitive=True),
            ElementDecl("note", StringType(), occurs=Occurs.OPTIONAL),
        ])
        violations = check_backward_compatible(v1(), new)
        assert any("changed type" in v for v in violations)

    def test_tightening_occurrence_incompatible(self):
        new = MessageSchema("Rec", [
            ElementDecl("id", StringType(min_length=1)),
            ElementDecl("score", IntegerType(0, 100), sensitive=True),
            ElementDecl("note", StringType()),  # OPTIONAL -> REQUIRED
        ])
        violations = check_backward_compatible(v1(), new)
        assert any("tightened" in v for v in violations)

    def test_loosening_occurrence_compatible(self):
        new = MessageSchema("Rec", [
            ElementDecl("id", StringType(min_length=1), occurs=Occurs.OPTIONAL),
            ElementDecl("score", IntegerType(0, 100), sensitive=True),
            ElementDecl("note", StringType(), occurs=Occurs.OPTIONAL),
        ])
        assert check_backward_compatible(v1(), new) == []

    def test_dropping_sensitive_flag_incompatible(self):
        new = MessageSchema("Rec", [
            ElementDecl("id", StringType(min_length=1)),
            ElementDecl("score", IntegerType(0, 100)),  # no longer sensitive
            ElementDecl("note", StringType(), occurs=Occurs.OPTIONAL),
        ])
        violations = check_backward_compatible(v1(), new)
        assert any("sensitive" in v for v in violations)

    def test_renamed_schema_incompatible(self):
        new = MessageSchema("Other", list(v1().elements))
        violations = check_backward_compatible(v1(), new)
        assert any("name changed" in v for v in violations)


class TestCatalogUpgradeIntegration:
    @pytest.fixture()
    def world(self):
        controller = DataController(seed="evo")
        hospital = DataProducer(controller, "Hospital", "Hospital")
        blood = hospital.declare_event_class(blood_test_schema())
        doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi",
                              role="family-doctor")
        hospital.define_policy(
            "BloodTest", fields=["PatientId", "Hemoglobin"],
            consumers=[("family-doctor", "role")],
            purposes=["healthcare-treatment"])
        doctor.subscribe("BloodTest")
        return controller, hospital, blood, doctor

    def upgraded_schema(self) -> MessageSchema:
        schema = blood_test_schema()
        schema.add(ElementDecl("Ferritin", DecimalType(0, 1000),
                               occurs=Occurs.OPTIONAL, sensitive=True))
        return schema

    def test_upgrade_bumps_version(self, world):
        controller, hospital, blood, doctor = world
        upgraded = hospital.upgrade_event_class(self.upgraded_schema())
        assert upgraded.version == 2
        assert controller.catalog.get("BloodTest").version == 2
        assert controller.catalog.get_version("BloodTest", 1).version == 1
        assert len(controller.catalog.history("BloodTest")) == 2

    def test_incompatible_upgrade_rejected(self, world):
        controller, hospital, blood, doctor = world
        bad = MessageSchema("BloodTest", [
            decl for decl in blood_test_schema().elements if decl.name != "Glucose"
        ])
        with pytest.raises(SchemaError, match="incompatible"):
            hospital.upgrade_event_class(bad)
        assert controller.catalog.get("BloodTest").version == 1

    def test_foreign_producer_cannot_upgrade(self, world):
        controller, hospital, blood, doctor = world
        other = DataProducer(controller, "OtherLab", "Other Lab")
        with pytest.raises(Exception):
            other.upgrade_event_class(self.upgraded_schema())

    def test_old_events_survive_upgrade(self, world):
        controller, hospital, blood, doctor = world
        old_note = hospital.publish(
            blood, subject_id="p1", subject_name="M B", summary="v1 event",
            details={"PatientId": "p1", "Name": "M", "Hemoglobin": 14.0,
                     "Glucose": 90.0, "HivResult": "negative"})
        hospital.upgrade_event_class(self.upgraded_schema())
        detail = doctor.request_details(old_note, "healthcare-treatment")
        assert detail.exposed_values() == {"PatientId": "p1", "Hemoglobin": 14.0}

    def test_new_events_can_use_new_field(self, world):
        controller, hospital, blood, doctor = world
        upgraded = hospital.upgrade_event_class(self.upgraded_schema())
        new_note = hospital.publish(
            upgraded, subject_id="p2", subject_name="L V", summary="v2 event",
            details={"PatientId": "p2", "Name": "L", "Hemoglobin": 12.0,
                     "Glucose": 85.0, "HivResult": "negative", "Ferritin": 55.0})
        # The old policy does not grant the new field — it stays hidden.
        detail = doctor.request_details(new_note, "healthcare-treatment")
        assert "Ferritin" not in detail.exposed_values()

    def test_policy_can_be_extended_to_new_field(self, world):
        controller, hospital, blood, doctor = world
        upgraded = hospital.upgrade_event_class(self.upgraded_schema())
        hospital.define_policy(
            "BloodTest", fields=["Ferritin"],
            consumers=[("family-doctor", "role")],
            purposes=["healthcare-treatment"])
        new_note = hospital.publish(
            upgraded, subject_id="p3", subject_name="A C", summary="v2 event",
            details={"PatientId": "p3", "Name": "A", "Hemoglobin": 11.0,
                     "Glucose": 80.0, "HivResult": "negative", "Ferritin": 40.0})
        detail = doctor.request_details(new_note, "healthcare-treatment")
        # Union of the two grants: old fields + the new one.
        assert detail.exposed_values() == {"PatientId": "p3", "Hemoglobin": 11.0,
                                           "Ferritin": 40.0}

    def test_subscriptions_survive_upgrade(self, world):
        controller, hospital, blood, doctor = world
        upgraded = hospital.upgrade_event_class(self.upgraded_schema())
        hospital.publish(
            upgraded, subject_id="p4", subject_name="F R", summary="v2 event",
            details={"PatientId": "p4", "Name": "F", "Hemoglobin": 13.0,
                     "Glucose": 88.0, "HivResult": "negative", "Ferritin": 30.0})
        assert len(doctor.inbox) == 1

    def test_upgrade_is_audited(self, world):
        controller, hospital, blood, doctor = world
        hospital.upgrade_event_class(self.upgraded_schema())
        from repro.audit.log import AuditAction
        from repro.audit.query import AuditQuery

        records = (AuditQuery().by_action(AuditAction.DECLARE_EVENT_CLASS)
                   .run(controller.audit_log))
        assert any("version 2" in record.detail for record in records)

    def test_unknown_version_rejected(self, world):
        controller, hospital, blood, doctor = world
        with pytest.raises(UnknownEventClassError):
            controller.catalog.get_version("BloodTest", 9)
