"""Service kernel and durable-backend tests.

Pins the composition-root contract: collaborators resolve by name through
the kernel, unknown names fail with the platform's configuration error,
the in-memory implementations satisfy the runtime protocols, and the
JSONL index/audit pair survives a restart (with tamper detection on the
audit chain).
"""

import json
from dataclasses import fields

import pytest

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig, default_kernel
from repro.crypto.keystore import KeyStore
from repro.exceptions import ConfigurationError, TamperedLogError
from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore
from repro.runtime.interfaces import (
    AuditSink,
    CipherProvider,
    CooperationGateway,
    DetailFetcher,
    IndexStore,
    NotificationTransport,
    PolicyDecisionPoint,
)
from repro.runtime.kernel import WIRING, ServiceKernel
from tests.conftest import blood_test_schema


def build_world(runtime=None):
    controller = DataController(seed="kern", runtime=runtime)
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


class TestKernelRegistry:
    def test_default_wiring_table(self):
        kernel = default_kernel()
        wiring = kernel.wiring()
        assert wiring["index"] == ("federated", "jsonl", "memory")
        assert wiring["audit"] == ("jsonl", "memory")
        assert wiring["telemetry"] == ("inmemory", "noop", "shared")
        assert wiring["slo"] == ("default", "noop")
        assert wiring["profiling"] == ("noop", "sampling")
        assert wiring["perf"] == ("indexed", "none")
        assert wiring["store"] == ("jsonl", "segmented")
        assert wiring["sched"] == ("fair", "none")
        assert wiring["recorder"] == ("noop", "ring")
        assert wiring["batch"] == ("off", "on")
        # Only collaborators with a real choice are kernel kinds; the
        # design-size CI step fails past these two numbers.
        assert set(wiring) == {"audit", "batch", "index", "perf",
                               "profiling", "recorder", "sched", "slo",
                               "store", "telemetry"}
        assert len(wiring) == 10
        assert len(fields(RuntimeConfig)) == 13

    def test_unknown_kind_and_name_are_configuration_errors(self):
        kernel = default_kernel()
        with pytest.raises(ConfigurationError, match="unknown service kind"):
            kernel.create("blockchain", "memory")
        with pytest.raises(ConfigurationError, match="no 'index' implementation"):
            kernel.create("index", "postgres")

    def test_unknown_name_error_lists_implementations_and_suggests(self):
        kernel = default_kernel()
        with pytest.raises(ConfigurationError,
                           match=r"available: federated, jsonl, memory") as excinfo:
            kernel.create("index", "jsonll")
        assert "did you mean 'jsonl'?" in str(excinfo.value)
        with pytest.raises(ConfigurationError,
                           match="did you mean 'telemetry'"):
            kernel.create("telemetryy", "noop")

    def test_jsonl_backend_without_data_dir_fails_fast(self):
        with pytest.raises(ConfigurationError, match="data_dir"):
            DataController(runtime=RuntimeConfig(index_store="jsonl"))

    def test_custom_registration_overrides(self):
        kernel = default_kernel()
        sentinel = object()
        kernel.register("audit", "null", lambda **ctx: sentinel)
        assert kernel.create("audit", "null") is sentinel
        assert "null" in kernel.implementations("audit")

    def test_controller_collaborators_satisfy_the_protocols(self):
        controller, hospital, blood, doctor = build_world()
        assert isinstance(controller.keystore, CipherProvider)
        assert isinstance(controller.index, IndexStore)
        assert isinstance(controller.audit_log, AuditSink)
        assert isinstance(controller.bus, NotificationTransport)
        assert isinstance(controller.detail_fetcher, DetailFetcher)
        assert isinstance(controller.enforcer, PolicyDecisionPoint)
        assert isinstance(hospital.gateway, CooperationGateway)


class RecordingKernel(ServiceKernel):
    """Hands every request to the default kernel, remembering what it was
    asked for, with which context, and what it gave."""

    def __init__(self):
        super().__init__()
        self.inner = default_kernel()
        self.asked: list[tuple[str, str]] = []
        self.contexts: list[dict] = []
        self.made: dict[str, object] = {}

    def create(self, kind, name, **context):
        self.asked.append((kind, name))
        self.contexts.append(context)
        self.made[kind] = self.inner.create(kind, name, **context)
        return self.made[kind]


class TestControllerWiring:
    """``DataController`` builds its kernel collaborators in one loop over
    ``WIRING``; the rows are the only statement of kind -> field -> attribute."""

    def test_each_row_is_asked_for_once_in_order_by_its_configured_name(
            self, tmp_path):
        runtime = RuntimeConfig(
            index_store="jsonl", audit_sink="jsonl", telemetry="inmemory",
            slo="default", profiling="sampling", perf="none",
            store="segmented", sched="fair", batch="on", recorder="ring",
            data_dir=tmp_path)
        kernel = RecordingKernel()
        controller = DataController(seed="rows", runtime=runtime, kernel=kernel)
        assert kernel.asked == [(kind, getattr(runtime, config_field))
                                for kind, config_field, _ in WIRING]
        for kind, _, attribute in WIRING:
            assert getattr(controller, attribute) is kernel.made[kind], kind

    def test_rows_cover_every_kind_and_name_real_config_fields(self):
        assert sorted(kind for kind, _, _ in WIRING) == list(
            default_kernel().kinds())
        assert {config_field for _, config_field, _ in WIRING} <= {
            field.name for field in fields(RuntimeConfig)}

    def test_a_later_factory_reads_an_earlier_service_under_its_kind(self):
        kernel = RecordingKernel()
        DataController(seed="rows", kernel=kernel)
        for position, (kind, _, _) in enumerate(WIRING):
            for later in kernel.contexts[position + 1:]:
                assert later[kind] is kernel.made[kind]

    def test_services_context_reaches_every_factory_under_explicit_keys(self):
        marker = object()
        kernel = RecordingKernel()
        controller = DataController(
            seed="rows", kernel=kernel,
            services_context={"marker": marker, "clock": "not the clock"})
        assert len(kernel.contexts) == len(WIRING)
        for context in kernel.contexts:
            assert context["marker"] is marker
            assert context["clock"] is controller.clock


class TestJsonlBackends:
    def test_full_flow_on_jsonl_backends(self, tmp_path):
        runtime = RuntimeConfig(index_store="jsonl", audit_sink="jsonl",
                                data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        detail = doctor.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values()
        assert (tmp_path / "index.jsonl").exists()
        assert (tmp_path / "audit.jsonl").exists()
        assert isinstance(controller.index, JsonlIndexStore)
        assert isinstance(controller.audit_log, JsonlAuditSink)

    def test_identity_slots_are_sealed_on_disk(self, tmp_path):
        runtime = RuntimeConfig(index_store="jsonl", data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        publish(hospital, blood, "secret-patient")
        rows = [json.loads(line) for line in
                (tmp_path / "index.jsonl").read_text().splitlines()]
        assert len(rows) == 1
        blob = json.dumps(rows[0])
        assert "secret-patient" not in blob
        assert "Mario Bianchi" not in blob

    def test_index_replay_restores_notifications_and_nonce_sequence(self, tmp_path):
        runtime = RuntimeConfig(index_store="jsonl", audit_sink="jsonl",
                                data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        first = publish(hospital, blood, "p1")
        publish(hospital, blood, "p2")
        old_sequence = controller.index.sequence

        reloaded = JsonlIndexStore(tmp_path / "index.jsonl",
                                   KeyStore("css-platform-secret"))
        assert len(reloaded) == 2
        assert reloaded.sequence == old_sequence  # no keystream reuse
        replayed = reloaded.get(first.event_id)
        assert replayed.subject_ref == "p1"
        assert replayed.subject_display == "Mario Bianchi"

    def test_audit_replay_verifies_the_hash_chain(self, tmp_path):
        runtime = RuntimeConfig(audit_sink="jsonl", data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        publish(hospital, blood)
        head = controller.audit_log.head_digest
        stored = (tmp_path / "audit.jsonl").read_bytes()

        reloaded = JsonlAuditSink(tmp_path / "audit.jsonl")
        reloaded.verify_integrity()
        assert len(reloaded) == len(controller.audit_log)
        assert reloaded.head_digest == head
        # Replay chains the stored rows; it does not write them again.
        assert (tmp_path / "audit.jsonl").read_bytes() == stored
        rows = [json.loads(line) for line in stored.splitlines()]
        assert rows == [
            {**record.to_payload(), "digest": reloaded._chain.digest_at(index)}
            for index, record in enumerate(reloaded.records())]

    def test_tampered_audit_file_is_rejected_on_replay(self, tmp_path):
        runtime = RuntimeConfig(audit_sink="jsonl", data_dir=tmp_path)
        controller, hospital, blood, doctor = build_world(runtime)
        publish(hospital, blood)
        path = tmp_path / "audit.jsonl"
        lines = path.read_text().splitlines()
        doctored = json.loads(lines[0])
        doctored["actor"] = "someone-else"
        lines[0] = json.dumps(doctored)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TamperedLogError):
            JsonlAuditSink(path)
