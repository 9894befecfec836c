"""Unit and integration tests for the PHR extension (§7 future work)."""

import pytest

from repro import ConsentScope, DataConsumer, DataController, DataProducer
from repro.clock import DAY
from repro.exceptions import AccessDeniedError, ConfigurationError
from repro.phr import PersonalHealthRecord
from repro.sim.generators import standard_event_templates


@pytest.fixture()
def phr_world():
    controller = DataController(seed="phr")
    templates = standard_event_templates()
    hospital = DataProducer(controller, "Hospital", "Hospital")
    telecare = DataProducer(controller, "TelecareSpA", "Telecare")
    blood = hospital.declare_event_class(templates["BloodTest"].build_schema())
    alarm = telecare.declare_event_class(
        templates["TelecareAlarm"].build_schema(), category="social")
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Name", "Surname", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    telecare.define_policy(
        "TelecareAlarm", fields=["PatientId", "AlarmType"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    doctor.subscribe("BloodTest")
    doctor.subscribe("TelecareAlarm")

    def publish_blood(subject="pat-1", name=("Mario", "Bianchi")):
        return hospital.publish(
            blood, subject_id=subject, subject_name=" ".join(name),
            summary=f"blood test completed for {' '.join(name)}",
            details={"PatientId": subject, "Name": name[0], "Surname": name[1],
                     "Hemoglobin": 14.0, "Glucose": 90.0, "Cholesterol": 180.0,
                     "HivResult": "negative"})

    def publish_alarm(subject="pat-1", name=("Mario", "Bianchi")):
        return telecare.publish(
            alarm, subject_id=subject, subject_name=" ".join(name),
            summary=f"telecare alarm raised for {' '.join(name)}",
            details={"PatientId": subject, "Name": name[0], "Surname": name[1],
                     "AlarmType": "fall", "Severity": 3, "ResponseMinutes": 10,
                     "HealthContext": "none recorded"})

    phr = PersonalHealthRecord(controller, "pat-1", producers=[hospital, telecare])
    return controller, hospital, telecare, doctor, phr, publish_blood, publish_alarm


class TestTimeline:
    def test_timeline_collects_own_events_across_producers(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        blood()
        controller.clock.advance(DAY)
        alarm()
        entries = phr.timeline()
        assert [e.event_type for e in entries] == ["BloodTest", "TelecareAlarm"]
        assert entries[0].producer_id == "Hospital"
        assert entries[1].producer_id == "TelecareSpA"

    def test_timeline_excludes_other_subjects(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        blood()
        blood(subject="pat-2", name=("Luisa", "Verdi"))
        assert len(phr.timeline()) == 1

    def test_timeline_time_window(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        blood()
        controller.clock.advance(10 * DAY)
        alarm()
        assert len(phr.timeline(since=5 * DAY)) == 1
        assert len(phr.timeline(until=5 * DAY)) == 1

    def test_render_timeline(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        blood()
        text = phr.render_timeline()
        assert "pat-1" in text
        assert "BloodTest" in text

    def test_render_empty_timeline(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        assert "(no events)" in phr.render_timeline()

    def test_needs_subject_id(self, phr_world):
        controller = phr_world[0]
        with pytest.raises(ConfigurationError):
            PersonalHealthRecord(controller, "")


class TestConsentFromPhr:
    def test_opt_out_blocks_future_publications(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        phr.opt_out("Hospital", ConsentScope.NOTIFICATIONS, "BloodTest")
        assert blood() is None
        assert alarm() is not None  # other producer unaffected

    def test_detail_opt_out_from_phr(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        phr.opt_out("Hospital", ConsentScope.DETAILS, "BloodTest")
        notification = blood()
        with pytest.raises(AccessDeniedError):
            doctor.request_details(notification, "healthcare-treatment")

    def test_consent_status(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        assert phr.consent_status("Hospital", "BloodTest") == {
            "notifications": True, "details": True}
        phr.opt_out("Hospital", ConsentScope.DETAILS, "BloodTest")
        assert phr.consent_status("Hospital", "BloodTest") == {
            "notifications": True, "details": False}

    def test_opt_back_in(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        phr.opt_out("Hospital", ConsentScope.DETAILS, "BloodTest")
        phr.opt_in("Hospital", ConsentScope.DETAILS, "BloodTest")
        notification = blood()
        assert doctor.request_details(notification, "healthcare-treatment")

    def test_unregistered_producer_rejected(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        with pytest.raises(ConfigurationError, match="not registered"):
            phr.opt_out("Unknown", ConsentScope.DETAILS)


class TestAccessTransparency:
    def test_access_report_shows_who_and_why(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        notification = blood()
        doctor.request_details(notification, "healthcare-treatment")
        report = phr.access_report()
        assert report.by_actor["Dr-Rossi"] >= 1
        assert report.by_purpose["healthcare-treatment"] == 1
        assert report.chain_verified

    def test_report_includes_denials(self, phr_world):
        controller, hospital, telecare, doctor, phr, blood, alarm = phr_world
        notification = blood()
        with pytest.raises(AccessDeniedError):
            doctor.request_details(notification, "administration")
        report = phr.access_report()
        assert report.by_outcome["deny"] >= 1
