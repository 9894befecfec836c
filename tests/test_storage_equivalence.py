"""Store-kind equivalence: jsonl vs segmented must be indistinguishable.

The ``store`` kernel kind swaps the durable substrate under the JSONL
index/audit backends.  These tests pin the ablation contract: decisions,
reports and audit trails are byte-identical across kinds, restarts
replay to the same chain head, and compaction of the index log never
disturbs the audit chain.
"""

import json

import pytest

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.crypto.keystore import KeyStore
from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore
from repro.storage import SegmentedLog, StorageEngine
from tests.conftest import blood_test_schema


def build_world(tmp_path, store):
    runtime = RuntimeConfig(store=store, data_dir=tmp_path / store)
    controller = DataController(seed="equiv", runtime=runtime)
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


def publish(hospital, blood, subject):
    return hospital.publish(
        blood, subject_id=subject, subject_name="Mario Bianchi",
        summary=f"blood test {subject}",
        details={"PatientId": subject, "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})


class TestControllerEquivalence:
    def run_both(self, tmp_path):
        worlds = {}
        for store in ("jsonl", "segmented"):
            controller, hospital, blood, doctor = build_world(tmp_path, store)
            notifications = [publish(hospital, blood, f"p{i}")
                             for i in range(4)]
            details = doctor.request_details(notifications[0],
                                             "healthcare-treatment")
            worlds[store] = (controller, notifications, details)
        return worlds

    def test_audit_trails_byte_identical(self, tmp_path):
        worlds = self.run_both(tmp_path)
        jsonl_controller = worlds["jsonl"][0]
        seg_controller = worlds["segmented"][0]
        assert (jsonl_controller.audit_log.head_digest
                == seg_controller.audit_log.head_digest)
        flat_rows = [json.loads(line) for line in
                     (tmp_path / "jsonl" / "audit.jsonl")
                     .read_text().splitlines()]
        seg_rows = SegmentedLog(tmp_path / "segmented" / "audit").read_all()
        assert flat_rows == seg_rows

    def test_decisions_identical(self, tmp_path):
        worlds = self.run_both(tmp_path)
        assert (worlds["jsonl"][2].exposed_values()
                == worlds["segmented"][2].exposed_values())
        jsonl_ids = [n.event_id for n in worlds["jsonl"][1]]
        seg_ids = [n.event_id for n in worlds["segmented"][1]]
        assert jsonl_ids == seg_ids

    def test_segmented_layout_on_disk(self, tmp_path):
        self.run_both(tmp_path)
        base = tmp_path / "segmented"
        assert list((base / "index").glob("*.seg"))
        assert list((base / "audit").glob("*.seg"))
        assert not (base / "index.jsonl").exists()


class TestSegmentedRestart:
    def test_audit_chain_replays_to_the_same_head(self, tmp_path):
        controller, hospital, blood, doctor = build_world(tmp_path, "segmented")
        for i in range(3):
            publish(hospital, blood, f"p{i}")
        head = controller.audit_log.head_digest

        reloaded = JsonlAuditSink(SegmentedLog(tmp_path / "segmented" / "audit"))
        reloaded.verify_integrity()
        assert reloaded.head_digest == head
        assert len(reloaded) == len(controller.audit_log)

    def test_index_replays_and_still_decrypts(self, tmp_path):
        controller, hospital, blood, doctor = build_world(tmp_path, "segmented")
        first = publish(hospital, blood, "p0")
        publish(hospital, blood, "p1")

        reloaded = JsonlIndexStore(
            SegmentedLog(tmp_path / "segmented" / "index"),
            KeyStore("css-platform-secret"))
        assert len(reloaded) == 2
        assert reloaded.sequence == controller.index.sequence
        assert reloaded.get(first.event_id).subject_ref == "p0"

    def test_withdraw_tombstone_survives_restart(self, tmp_path):
        controller, hospital, blood, doctor = build_world(tmp_path, "segmented")
        kept = publish(hospital, blood, "p0")
        gone = publish(hospital, blood, "p1")
        controller.index.withdraw(gone.event_id)

        reloaded = JsonlIndexStore(
            SegmentedLog(tmp_path / "segmented" / "index"),
            KeyStore("css-platform-secret"))
        listed = {n.event_id for n in reloaded.inquire(["BloodTest"])}
        assert kept.event_id in listed
        assert gone.event_id not in listed

    def test_index_compaction_preserves_the_audit_chain(self, tmp_path):
        controller, hospital, blood, doctor = build_world(tmp_path, "segmented")
        for i in range(4):
            publish(hospital, blood, f"p{i}")
        victim = publish(hospital, blood, "p-gone")
        controller.index.withdraw(victim.event_id)
        head = controller.audit_log.head_digest
        audit_len = len(controller.audit_log)

        engine = StorageEngine(tmp_path / "segmented")
        report = engine.compact("index")
        assert report.records_dropped == 2  # the victim row + its tombstone
        assert report.bytes_reclaimed > 0

        audit = JsonlAuditSink(SegmentedLog(tmp_path / "segmented" / "audit"))
        audit.verify_integrity()
        assert audit.head_digest == head
        assert len(audit) == audit_len
        index = JsonlIndexStore(
            SegmentedLog(tmp_path / "segmented" / "index"),
            KeyStore("css-platform-secret"))
        assert len(index) == 4


class TestScenarioEquivalence:
    @staticmethod
    def identical_across_store_kinds(tmp_path, nodes: int, seed: int) -> None:
        from repro.sim.scenario import CssScenario, ScenarioConfig

        node_heads, reports = {}, {}
        for store in ("jsonl", "segmented"):
            runtime = RuntimeConfig(store=store, data_dir=tmp_path / store)
            scenario = CssScenario(ScenarioConfig(
                nodes=nodes, n_patients=8, n_events=40, seed=seed,
                runtime=runtime))
            report = scenario.run()
            node_heads[store] = {
                node.node_id: node.controller.audit_log.head_digest
                for node in scenario.platform.nodes()}
            reports[store] = report.to_text()
        assert node_heads["jsonl"] == node_heads["segmented"]
        assert reports["jsonl"] == reports["segmented"]
        # Each node kept its own durable subdirectory, segmented on disk.
        assert len(node_heads["segmented"]) == nodes
        for node_id in node_heads["segmented"]:
            assert list((tmp_path / "segmented" / node_id / "audit")
                        .glob("*.seg"))

    def test_css_scenario_identical_across_store_kinds(self, tmp_path):
        self.identical_across_store_kinds(tmp_path, nodes=1, seed=5)

    def test_federated_scenario_identical_across_store_kinds(self, tmp_path):
        self.identical_across_store_kinds(tmp_path, nodes=2, seed=7)

    def test_federated_rehome_tombstones_are_durable(self, tmp_path):
        from repro.sim.scenario import CssScenario, ScenarioConfig

        runtime = RuntimeConfig(store="segmented", data_dir=tmp_path / "fed")
        scenario = CssScenario(ScenarioConfig(
            nodes=2, n_patients=8, n_events=40, seed=7, runtime=runtime))
        scenario.run()
        rebalance = scenario.platform.add_node()
        if rebalance.entries_moved == 0:
            pytest.skip("seeded workload moved no entries on this topology")
        tombstones = 0
        for node_dir in sorted((tmp_path / "fed").iterdir()):
            index_dir = node_dir / "index"
            if not index_dir.is_dir():
                continue
            tombstones += sum(
                1 for record in SegmentedLog(index_dir).iter_records()
                if record.get("tombstone"))
        assert tombstones == rebalance.entries_moved
