"""Durable equivalence: a node with a data directory decides as one without.

Every ``data_dir`` is the segmented storage engine's, and the in-memory
pair (no ``data_dir``, the product default) is the reference it is held
to: decisions, released fields, event ids and audit heads of a durable
run equal those of the in-memory run of the same seed — on a bare
controller and on 1 / 2 / 4 node scenarios, batched and not — and what
the durable run wrote is the in-memory chain, row for row.  Restarts
replay to the same head, also over a torn final line, compaction of the
index log never disturbs the audit chain, and two identical durable runs
export identical metrics.
"""

import pytest

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.audit.log import AuditAction
from repro.crypto.keystore import KeyStore
from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore
from repro.sim.scenario import CssScenario, ScenarioConfig
from repro.storage import SegmentedLog, StorageEngine
from tests.conftest import blood_test_schema


def build_world(data_dir):
    controller = DataController(
        seed="equiv", runtime=RuntimeConfig(data_dir=data_dir))
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
        for arm, data_dir in (("memory", None), ("durable", tmp_path)):
            controller, hospital, blood, doctor = build_world(data_dir)
            notifications = [publish(hospital, blood, f"p{i}")
                             for i in range(4)]
            details = doctor.request_details(notifications[0],
                                             "healthcare-treatment")
            worlds[arm] = (controller, notifications, details)
        return worlds

    def test_audit_trails_byte_identical(self, tmp_path):
        worlds = self.run_both(tmp_path)
        memory, durable = worlds["memory"][0], worlds["durable"][0]
        assert durable.audit_log.head_digest == memory.audit_log.head_digest
        rows = list(SegmentedLog(tmp_path / "audit").iter_records())
        assert [{key: value for key, value in row.items() if key != "digest"}
                for row in rows] == [
            record.to_payload() for record in memory.audit_log.records()]

    def test_decisions_identical(self, tmp_path):
        worlds = self.run_both(tmp_path)
        assert (worlds["memory"][2].exposed_values()
                == worlds["durable"][2].exposed_values())
        assert ([n.event_id for n in worlds["memory"][1]]
                == [n.event_id for n in worlds["durable"][1]])

    def test_segmented_layout_on_disk(self, tmp_path):
        self.run_both(tmp_path)
        assert list((tmp_path / "index").glob("*.seg"))
        assert list((tmp_path / "audit").glob("*.seg"))
        assert not list(tmp_path.rglob("*.jsonl"))


class TestSegmentedRestart:
    def test_audit_chain_replays_to_the_same_head(self, tmp_path):
        controller, hospital, blood, doctor = build_world(tmp_path)
        for i in range(3):
            publish(hospital, blood, f"p{i}")
        head = controller.audit_log.head_digest

        reloaded = JsonlAuditSink(SegmentedLog(tmp_path / "audit"))
        reloaded.verify_integrity()
        assert reloaded.head_digest == head
        assert len(reloaded) == len(controller.audit_log)

    def test_index_replays_and_still_decrypts(self, tmp_path):
        controller, hospital, blood, doctor = build_world(tmp_path)
        first = publish(hospital, blood, "p0")
        publish(hospital, blood, "p1")

        reloaded = JsonlIndexStore(SegmentedLog(tmp_path / "index"),
                                   KeyStore("css-platform-secret"))
        assert len(reloaded) == 2
        assert reloaded.sequence == controller.index.sequence
        assert reloaded.get(first.event_id).subject_ref == "p0"

    def test_withdraw_tombstone_survives_restart(self, tmp_path):
        controller, hospital, blood, doctor = build_world(tmp_path)
        kept = publish(hospital, blood, "p0")
        gone = publish(hospital, blood, "p1")
        controller.index.withdraw(gone.event_id)

        reloaded = JsonlIndexStore(SegmentedLog(tmp_path / "index"),
                                   KeyStore("css-platform-secret"))
        listed = {n.event_id for n in reloaded.inquire(["BloodTest"])}
        assert kept.event_id in listed
        assert gone.event_id not in listed

    def test_index_compaction_preserves_the_audit_chain(self, tmp_path):
        controller, hospital, blood, doctor = build_world(tmp_path)
        for i in range(4):
            publish(hospital, blood, f"p{i}")
        victim = publish(hospital, blood, "p-gone")
        controller.index.withdraw(victim.event_id)
        head = controller.audit_log.head_digest
        audit_len = len(controller.audit_log)

        report = StorageEngine(tmp_path).compact("index")
        assert report.records_before - report.records_after == 2  # the victim row + its tombstone
        assert report.bytes_reclaimed > 0

        audit = JsonlAuditSink(SegmentedLog(tmp_path / "audit"))
        audit.verify_integrity()
        assert audit.head_digest == head
        assert len(audit) == audit_len
        index = JsonlIndexStore(SegmentedLog(tmp_path / "index"),
                                KeyStore("css-platform-secret"))
        assert len(index) == 4


def scenario_outcome(nodes: int, seed: int, batch: str, data_dir=None) -> dict:
    """One settled scenario run, reduced to what durability must not
    change: per-node audit heads, event ids, request decisions, released
    fields and the report."""
    scenario = CssScenario(ScenarioConfig(
        nodes=nodes, n_patients=8, n_events=40, seed=seed,
        runtime=RuntimeConfig(batch=batch, data_dir=data_dir)))
    event_ids = [notification.event_id for _, notification in scenario.steps()]
    report = scenario.run([])  # settle and report what the steps counted
    members = scenario.platform.nodes()
    return {
        "heads": {node.node_id: node.controller.audit_log.head_digest
                  for node in members},
        "event_ids": event_ids,
        "decisions": [(node.node_id, record.actor, record.event_id,
                       record.purpose, record.outcome)
                      for node in members
                      for record in node.controller.audit_log.logical()
                      if record.action is AuditAction.DETAIL_REQUEST],
        "released": scenario.ledger.disclosures(),
        "report": report.to_text(),
    }


class TestScenarioEquivalence:
    @staticmethod
    def identical_to_memory(tmp_path, nodes: int, seed: int,
                            batch: str = "off") -> None:
        memory = scenario_outcome(nodes, seed, batch)
        durable = scenario_outcome(nodes, seed, batch, data_dir=tmp_path)
        assert durable == memory
        assert memory["decisions"] and memory["released"]
        # Each node kept its own durable subdirectory, segmented on disk.
        assert len(durable["heads"]) == nodes
        for node_id in durable["heads"]:
            assert list((tmp_path / node_id / "audit").glob("*.seg"))

    def test_css_scenario_identical_across_store_kinds(self, tmp_path):
        self.identical_to_memory(tmp_path, nodes=1, seed=5)

    def test_federated_scenario_identical_across_store_kinds(self, tmp_path):
        self.identical_to_memory(tmp_path, nodes=2, seed=7)

    @pytest.mark.parametrize("nodes, batch",
                             [(1, "on"), (2, "on"), (4, "off"), (4, "on")])
    def test_every_node_count_and_batch_setting_matches_memory(
            self, tmp_path, nodes, batch):
        # With the two tests above: 1 / 2 / 4 nodes, batch off and on.
        self.identical_to_memory(tmp_path, nodes=nodes, seed=11, batch=batch)

    def test_federated_rehome_tombstones_are_durable(self, tmp_path):
        runtime = RuntimeConfig(data_dir=tmp_path / "fed")
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


class TestDefaultDurableNode:
    """``RuntimeConfig(data_dir=D)`` and nothing else: at the parent this
    was the flat-file store, which neither restarts over a torn write nor
    reports a storage metric."""

    def test_a_torn_final_line_in_audit_and_index_is_cut_on_restart(
            self, tmp_path):
        scenario = CssScenario(ScenarioConfig(
            n_patients=10, n_events=10, seed=5,
            runtime=RuntimeConfig(data_dir=tmp_path)))
        scenario.run()
        live = scenario.controller
        node_dir = tmp_path / "node-0"
        for name in ("audit", "index"):
            tail = max((node_dir / name).glob("*.seg"))
            last_line = tail.read_bytes().splitlines()[-1]
            with tail.open("ab") as handle:  # a crash mid-way through a write
                handle.write(last_line[: len(last_line) // 2])

        restarted = DataController(runtime=RuntimeConfig(data_dir=node_dir))
        restarted.audit_log.verify_integrity()
        assert len(restarted.audit_log) == len(live.audit_log) > 0
        assert restarted.audit_log.head_digest == live.audit_log.head_digest
        assert len(restarted.index) == len(live.index.local) > 0
        for name in ("audit", "index"):
            assert restarted.store.log(name).last_replay.truncated_bytes > 0

    def test_two_same_seed_durable_runs_export_identical_metrics(self, tmp_path):
        exports = []
        for run in ("first", "second"):
            scenario = CssScenario(ScenarioConfig(
                n_patients=10, n_events=10, seed=5,
                runtime=RuntimeConfig(telemetry="inmemory",
                                      data_dir=tmp_path / run)))
            scenario.run()
            exports.append(scenario.telemetry.metrics_export())
        assert exports[0] == exports[1]
        assert any('"storage.segments_total"' in line for line in exports[0])
