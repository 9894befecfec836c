"""Tests for the persistence substrate: JSONL files and platform archiving."""

import json

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.clock import DAY
from repro.exceptions import (
    AccessDeniedError,
    ConfigurationError,
    CorruptRecordError,
    StorageError,
    TamperedLogError,
)
from repro.storage import JsonlFile, PlatformArchive
from repro.storage.schemas import schema_from_dict, schema_to_dict
from repro.sim.generators import standard_event_templates
from tests.conftest import blood_test_schema


class TestJsonlFile:
    def test_append_and_read(self, tmp_path):
        file = JsonlFile(tmp_path / "x.jsonl")
        file.append({"a": 1})
        file.append_many([{"b": 2}, {"c": 3}])
        assert file.read_all() == [{"a": 1}, {"b": 2}, {"c": 3}]
        assert len(file) == 3

    def test_missing_file_reads_empty(self, tmp_path):
        assert JsonlFile(tmp_path / "missing.jsonl").read_all() == []

    def test_corrupt_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(CorruptRecordError, match="corrupt"):
            JsonlFile(path).read_all()

    def test_corrupt_record_is_a_storage_error_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n{"ok": 2}\nnot json\n')
        with pytest.raises(StorageError, match=":3"):
            list(JsonlFile(path).iter_records())

    def test_iter_records_streams_good_prefix(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        records = JsonlFile(path).iter_records()
        assert next(records) == {"ok": 1}
        with pytest.raises(CorruptRecordError):
            next(records)

    def test_creates_parent_directories(self, tmp_path):
        file = JsonlFile(tmp_path / "deep" / "nested" / "x.jsonl")
        file.append({"a": 1})
        assert file.exists()


class TestSchemaCodec:
    def test_every_standard_template_round_trips(self):
        for template in standard_event_templates().values():
            schema = template.build_schema()
            rebuilt = schema_from_dict(schema_to_dict(schema))
            assert rebuilt.field_names == schema.field_names
            assert rebuilt.sensitive_fields == schema.sensitive_fields
            assert rebuilt.identifying_fields == schema.identifying_fields
            for decl in schema.elements:
                twin = rebuilt.element(decl.name)
                assert type(twin.type_) is type(decl.type_)
                assert twin.occurs is decl.occurs

    def test_unknown_kind_rejected(self):
        from repro.storage.schemas import type_from_dict

        with pytest.raises(ConfigurationError):
            type_from_dict({"kind": "quaternion"})


def build_busy_platform():
    """A platform with events, policies, consent, denials and an upgrade."""
    controller = DataController(seed="archive", master_secret="archive-secret")
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    doctor.subscribe("BloodTest")
    notifications = []
    for index in range(5):
        notifications.append(hospital.publish(
            blood, subject_id=f"p{index}", subject_name=f"Patient {index}",
            summary=f"blood test #{index}",
            details={"PatientId": f"p{index}", "Name": f"Patient {index}",
                     "Hemoglobin": 12.0 + index, "Glucose": 90.0,
                     "HivResult": "negative"}))
        controller.clock.advance(DAY)
    doctor.request_details(notifications[0], "healthcare-treatment")
    with pytest.raises(AccessDeniedError):
        doctor.request_details(notifications[1], "administration")
    from repro.core.consent import ConsentScope

    hospital.record_opt_out("p3", ConsentScope.DETAILS, "BloodTest")
    return controller, hospital, doctor, notifications


class TestArchiveRoundTrip:
    def test_save_then_restore_preserves_everything(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        restored = archive.restore("archive-secret")

        assert restored.clock.now() == controller.clock.now()
        assert len(restored.audit_log) == len(controller.audit_log)
        assert restored.audit_log.head_digest == controller.audit_log.head_digest
        assert len(restored.index) == len(controller.index)
        assert len(restored.id_map) == len(controller.id_map)
        assert len(restored.policies) == len(controller.policies)
        assert "BloodTest" in restored.catalog

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_a_federation_node_archives_and_restores(self, tmp_path, nodes):
        """``save`` used to die on ``controller.index.registry``: only the
        bare index had one.  A node's archive is that node's shard."""
        from repro.sim.scenario import CssScenario, ScenarioConfig

        scenario = CssScenario(ScenarioConfig(
            nodes=nodes, n_patients=10, n_events=40, seed=5))
        scenario.run()
        for node in scenario.platform.nodes():
            archive = PlatformArchive(tmp_path / node.node_id)
            archive.save(node.controller)
            restored = archive.restore("css-platform-secret")
            restored.audit_log.verify_integrity()
            assert len(restored.index) == len(node.controller.index) > 0
            assert (restored.audit_log.head_digest
                    == node.controller.audit_log.head_digest)
            assert len(restored.policies) == len(node.controller.policies)
        assert sum(len(node.controller.index)
                   for node in scenario.platform.nodes()) == 40

    def test_restored_index_identity_still_decrypts(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        restored = archive.restore("archive-secret")
        fetched = restored.index.get(notifications[0].event_id)
        assert fetched.subject_ref == "p0"
        assert fetched.subject_display == "Patient 0"

    def test_archive_never_contains_plaintext_identity(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        index_text = (tmp_path / "snap" / "index.jsonl").read_text()
        assert "Patient 0" not in index_text  # identity slots stay sealed

    def test_detail_requests_work_after_restore(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        restored = archive.restore("archive-secret")
        # The consumer reconnects its client (no re-join: the actor and
        # contract were restored) and requests months-old details.
        from repro.core.enforcement import DetailRequest

        request = DetailRequest(
            actor=restored.actors.get("Dr-Rossi"),
            event_type="BloodTest",
            event_id=notifications[2].event_id,
            purpose="healthcare-treatment",
        )
        detail = restored.request_details("Dr-Rossi", request)
        assert detail.exposed_values() == {"PatientId": "p2", "Hemoglobin": 14.0}

    def test_consent_survives_restore(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        restored = archive.restore("archive-secret")
        from repro.core.enforcement import DetailRequest

        request = DetailRequest(
            actor=restored.actors.get("Dr-Rossi"),
            event_type="BloodTest",
            event_id=notifications[3].event_id,  # p3 opted out of details
            purpose="healthcare-treatment",
        )
        with pytest.raises(AccessDeniedError, match="opted out"):
            restored.request_details("Dr-Rossi", request)

    def test_new_events_after_restore_do_not_collide(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        restored = archive.restore("archive-secret")
        # A producer client reconnects on the restored platform and publishes.
        gateway = restored.gateway_of("Hospital")
        from repro.core.events import EventOccurrence
        from repro.xmlmsg.document import XmlDocument

        occurrence = EventOccurrence(
            event_class=restored.catalog.get("BloodTest"),
            src_event_id="Hospital:src-post-restore",
            subject_id="p9", subject_name="Patient 9",
            occurred_at=restored.clock.now(), summary="post-restore event",
            details=XmlDocument("BloodTest", {
                "PatientId": "p9", "Name": "Patient 9", "Hemoglobin": 13.0,
                "Glucose": 91.0, "HivResult": "negative"}),
        )
        notification = restored.publish("Hospital", occurrence)
        assert notification is not None
        archived_ids = {n.event_id for n in notifications}
        assert notification.event_id not in archived_ids

    def test_wrong_master_secret_fails_identity_decryption(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        restored = archive.restore("a-different-secret")
        from repro.exceptions import TokenError

        with pytest.raises(TokenError):
            restored.index.get(notifications[0].event_id)

    def test_restriction_policies_survive_restore(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        hospital.define_restriction(
            "BloodTest", consumer=("Hospital/Psychiatry", "unit"),
            purposes=["healthcare-treatment"],
        )
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        restored = archive.restore("archive-secret")
        restrictions = [p for p in restored.policies.policies_of_producer("Hospital")
                        if p.deny]
        assert len(restrictions) == 1
        assert not restored.policies.has_policy_for(
            "Hospital", "BloodTest", "Hospital/Psychiatry")

    def test_schema_upgrade_history_survives(self, tmp_path):
        controller, hospital, doctor, notifications = build_busy_platform()
        from repro.xmlmsg.schema import ElementDecl, Occurs
        from repro.xmlmsg.types import DecimalType

        upgraded_schema = blood_test_schema()
        upgraded_schema.add(ElementDecl("Ferritin", DecimalType(0, 1000),
                                        occurs=Occurs.OPTIONAL, sensitive=True))
        hospital.upgrade_event_class(upgraded_schema)
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        restored = archive.restore("archive-secret")
        assert restored.catalog.get("BloodTest").version == 2
        assert len(restored.catalog.history("BloodTest")) == 2


ARCHIVE_FILES = ("actors", "contracts", "catalog", "policies", "idmap",
                 "index", "gateways", "consent", "audit")


def _edit_one_value(path):
    lines = path.read_text().splitlines()
    row = json.loads(lines[0])
    key = sorted(row)[0]
    row[key] = [row[key], "edited"]
    lines[0] = json.dumps(row, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


TAMPERINGS = {
    "edited": _edit_one_value,
    "emptied": lambda path: path.write_text(""),
    "deleted": lambda path: path.unlink(),
}


class TestArchiveIntegrity:
    def test_double_save_rejected(self, tmp_path):
        controller, *_ = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        with pytest.raises(ConfigurationError, match="already holds"):
            archive.save(controller)

    def test_restore_without_snapshot_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no snapshot"):
            PlatformArchive(tmp_path / "empty").restore("secret")

    def test_tampered_audit_file_detected(self, tmp_path):
        controller, *_ = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        audit_path = tmp_path / "snap" / "audit.jsonl"
        lines = audit_path.read_text().splitlines()
        record = json.loads(lines[2])
        record["outcome"] = "permit"  # rewrite a denial into a permit
        record["actor"] = "evil"
        lines[2] = json.dumps(record, sort_keys=True)
        audit_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TamperedLogError):
            archive.restore("archive-secret")

    def test_truncated_audit_file_detected(self, tmp_path):
        controller, *_ = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        audit_path = tmp_path / "snap" / "audit.jsonl"
        lines = audit_path.read_text().splitlines()
        audit_path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(TamperedLogError):
            archive.restore("archive-secret")

    # -- every row file is vouched for, not just the audit chain ----------

    @pytest.mark.parametrize("how", sorted(TAMPERINGS))
    @pytest.mark.parametrize("name", ARCHIVE_FILES)
    def test_any_tampered_file_fails_restore_before_anything_is_built(
            self, tmp_path, monkeypatch, name, how):
        controller, *_ = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        TAMPERINGS[how](tmp_path / "snap" / f"{name}.jsonl")
        monkeypatch.setattr(
            "repro.storage.archive.DataController",
            lambda *args, **kwargs: pytest.fail(
                "a controller was constructed from a tampered archive"))
        with pytest.raises(TamperedLogError, match=rf"{name}\.jsonl"):
            archive.restore("archive-secret")

    def test_every_mismatch_is_listed(self, tmp_path):
        controller, *_ = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        (tmp_path / "snap" / "consent.jsonl").write_text("")
        (tmp_path / "snap" / "idmap.jsonl").unlink()
        with pytest.raises(TamperedLogError) as excinfo:
            archive.restore("archive-secret")
        assert "consent.jsonl" in str(excinfo.value)
        assert "idmap.jsonl" in str(excinfo.value)

    def _doctor_request(self, restored, notification):
        from repro.core.enforcement import DetailRequest

        return restored.request_details("Dr-Rossi", DetailRequest(
            actor=restored.actors.get("Dr-Rossi"), event_type="BloodTest",
            event_id=notification.event_id, purpose="healthcare-treatment",
        )).exposed_values()

    def test_widened_policy_row_is_never_served(self, tmp_path):
        """The policy grants PatientId + Hemoglobin; a row edited to add
        HivResult and Name must not decide what a restored platform
        releases."""
        controller, _, _, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        path = tmp_path / "snap" / "policies.jsonl"
        [row] = [json.loads(line) for line in path.read_text().splitlines()]
        row["fields"] = sorted(set(row["fields"]) | {"HivResult", "Name"})
        path.write_text(json.dumps(row, sort_keys=True) + "\n")
        served = None
        with pytest.raises(TamperedLogError, match=r"policies\.jsonl"):
            restored = archive.restore("archive-secret")
            served = self._doctor_request(restored, notifications[2])
        assert served is None

    def test_emptied_consent_file_is_never_served(self, tmp_path):
        """p3 opted out of details; dropping the decision from the archive
        must not restore a platform that releases them."""
        controller, _, _, notifications = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        (tmp_path / "snap" / "consent.jsonl").write_text("")
        served = None
        with pytest.raises(TamperedLogError, match=r"consent\.jsonl"):
            restored = archive.restore("archive-secret")
            served = self._doctor_request(restored, notifications[3])
        assert served is None

    @pytest.mark.parametrize("drop", [
        lambda manifest: manifest.pop("files"),  # written before manifests had one
        lambda manifest: manifest["files"].pop("policies.jsonl"),
    ], ids=["no-files", "one-name-missing"])
    def test_file_the_manifest_does_not_vouch_for_is_refused(self, tmp_path,
                                                             drop):
        controller, *_ = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        manifest = json.loads(archive.manifest_path.read_text())
        drop(manifest)
        archive.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(TamperedLogError,
                           match=r"policies\.jsonl: not vouched for"):
            archive.restore("archive-secret")

    def test_recomputed_file_digests_do_not_hide_a_broken_chain(self, tmp_path):
        """The manifest is unkeyed: whoever edits a row can re-hash the
        file.  The audit chain is still replayed link by link."""
        from repro.storage.snapshot import describe

        controller, *_ = build_busy_platform()
        archive = PlatformArchive(tmp_path / "snap")
        archive.save(controller)
        audit_path = tmp_path / "snap" / "audit.jsonl"
        lines = audit_path.read_text().splitlines()
        record = json.loads(lines[2])
        record["actor"] = "evil"
        lines[2] = json.dumps(record, sort_keys=True)
        audit_path.write_text("\n".join(lines) + "\n")
        manifest = json.loads(archive.manifest_path.read_text())
        manifest["files"] = describe(tmp_path / "snap", list(manifest["files"]))
        archive.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(TamperedLogError):
            archive.restore("archive-secret")
