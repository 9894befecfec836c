"""Tests for the capacity harness, its schema gate, CLI, and privacy.

The acceptance criteria of the workload engine land here: a real (small)
run at several node counts validates against ``css-bench-capacity/1``,
two same-seed runs reproduce identical payloads *and* identical audit
digests, and neither the payload nor the run's telemetry exports carry a
plaintext assisted-person identifier.
"""

import io
import json
import re

import pytest
from benchmarks.check_bench import main, validate

from repro.cli import main as cli_main
from repro.clock import Clock
from repro.obs.benchreport import write_summary
from repro.obs.telemetry import InMemoryTelemetry
from repro.sched.fairness import run_arm
from repro.workload import (
    CapacityConfig,
    WorkloadEngine,
    run_capacity,
    run_point,
    workload_config,
)
from repro.workload.capacity import SCHEMA_ID

SUBJECT_ID = re.compile(r"ap-\d{8}")


def small_config(**overrides):
    defaults = dict(population=300, ops=120, seed=9)
    defaults.update(overrides)
    scenario = defaults.pop("scenario", "steady")
    return workload_config(scenario, **defaults)


@pytest.fixture(scope="module")
def trajectory():
    config = CapacityConfig(workload=small_config(), node_counts=(1, 2, 4))
    return run_capacity(config, source="pytest")


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestCapacityHarness:
    def test_payload_passes_the_schema_gate(self, trajectory):
        assert validate(trajectory) == []
        assert trajectory["schema"] == SCHEMA_ID

    def test_points_cover_the_requested_node_counts(self, trajectory):
        assert [point["nodes"] for point in trajectory["nodes"]] == [1, 2, 4]

    def test_work_actually_flowed(self, trajectory):
        for point in trajectory["nodes"]:
            assert point["published"] > 0
            assert point["detail_permits"] > 0
            assert point["events_per_second"] > 0
            assert point["audit_records"] > 0
        single, multi = trajectory["nodes"][0], trajectory["nodes"][-1]
        assert single["cross_node_hops"] == 0
        assert multi["cross_node_hops"] > 0

    def test_latency_read_from_pipeline_histograms(self, trajectory):
        multi = trajectory["nodes"][-1]
        publish = multi["latency_seconds"]["publish"]
        assert publish["p95"] > 0  # cross-node links cost simulated time
        assert publish["p50"] <= publish["p95"] <= publish["p99"]

    def test_saturation_marks_are_reported(self, trajectory):
        for point in trajectory["nodes"]:
            assert point["queue_depth_high_water"] > 0  # fanout queued
            assert point["dead_letter_high_water"] == 0  # nothing poisoned


class TestReproducibility:
    def test_same_seed_runs_are_identical(self):
        config = CapacityConfig(workload=small_config(), node_counts=(1, 2))
        first = run_capacity(config, source="pytest")
        second = run_capacity(config, source="pytest")
        assert first == second

    def test_same_seed_audit_trails_are_identical(self):
        workload = small_config()
        first = run_point(workload, nodes=2)
        second = run_point(workload, nodes=2)
        assert first["audit_digest"] == second["audit_digest"]
        assert first["audit_records"] == second["audit_records"]

    def test_different_seeds_diverge(self):
        first = run_point(small_config(seed=1), nodes=2)
        second = run_point(small_config(seed=2), nodes=2)
        assert first["audit_digest"] != second["audit_digest"]


class TestPinnedDigests:
    """Seed-2010 witnesses pinned as literals before the harness merge.

    One small ``run_point`` at 1 and 2 nodes and the two ``run_arm``
    arms: any refactor of the shared run harness must reproduce these
    audit-chain and PDP-decision digests bit-for-bit.

    The audit digests and record counts (chain links) were re-pinned on
    purpose when a fan-out became one chained NOTIFY record and id suffixes
    widened (369 / 393 / 1710 links before); the decision digest did not
    move, and the logical trail is pinned in ``tests/test_audit_fanout.py``.
    """

    DECISIONS = ("sha256:f4f2dd7a650ed0538b35cd2c2d68fe78"
                 "544d56bcc2fc23d4324a3a0f27629eb2")
    POINTS = {
        1: ("sha256:ac62c63544b77bc8a4fe82ef5153bcc1"
            "b60cf6bead974d0f4268685454455724", 254),
        2: ("sha256:937a3adbeb13637832c46722996ae2a3"
            "50cfdb1c02b5540f026b946d02b78f46", 330),
    }
    ARM_AUDIT = ("sha256:04819dfc4cfdacc32392b0935c26ff93"
                 "7aa44938a3012fd040f9d17f8843fcd8")
    ARM_JAIN = {"none": 0.9394146028290821, "fair": 0.9894328983278449}

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_run_point_digests(self, nodes):
        workload = workload_config("steady", population=300, ops=120,
                                   seed=2010)
        point = run_point(workload, nodes, collect_decisions=True)
        digest, records = self.POINTS[nodes]
        assert point["audit_digest"] == digest
        assert point["audit_records"] == records
        assert point["decision_digest"] == self.DECISIONS

    @pytest.mark.parametrize("sched", ["none", "fair"])
    def test_run_arm_digests(self, sched):
        workload = workload_config("anomaly", population=4000, ops=600,
                                   seed=2010)
        arm = run_arm(workload, sched)
        assert arm["audit_digest"] == self.ARM_AUDIT
        assert arm["audit_records"] == 1327
        assert arm["jain_index"] == pytest.approx(self.ARM_JAIN[sched],
                                                  abs=1e-12)


class TestPrivacyInvariants:
    def test_payload_carries_no_subject_identifier(self, trajectory):
        serialized = json.dumps(trajectory, sort_keys=True)
        assert not SUBJECT_ID.search(serialized)

    def test_payload_carries_no_subject_name(self, trajectory):
        names = {
            op.subject_name
            for op in WorkloadEngine(small_config()).plan()
            if op.subject_name
        }
        serialized = json.dumps(trajectory, sort_keys=True)
        assert names
        assert all(name not in serialized for name in names)

    def test_telemetry_exports_carry_no_subject_identifier(self):
        telemetry = InMemoryTelemetry(
            clock=Clock(), guard_mode="hash", secret="pytest-workload"
        )
        run_point(small_config(), nodes=2, telemetry=telemetry)
        exported = "\n".join(
            telemetry.trace_export() + telemetry.metrics_export()
        )
        assert exported
        assert not SUBJECT_ID.search(exported)


class TestSchemaChecker:
    def test_rejects_wrong_schema_id(self, trajectory):
        broken = dict(trajectory, schema="css-bench-capacity/0")
        assert any("schema" in problem for problem in validate(broken))

    def test_rejects_leaked_subject_id(self, trajectory):
        leaked = json.loads(json.dumps(trajectory))
        leaked["nodes"][0]["hot_subject"] = "ap-00000017"
        assert any("privacy" in problem for problem in validate(leaked))

    def test_rejects_missing_points_and_bad_ordering(self, trajectory):
        assert any("nodes" in p for p in validate(dict(trajectory, nodes=[])))
        reordered = json.loads(json.dumps(trajectory))
        reordered["nodes"].reverse()
        assert any("ascending" in p for p in validate(reordered))

    def test_rejects_unverified_audit_digest(self, trajectory):
        broken = json.loads(json.dumps(trajectory))
        del broken["nodes"][0]["audit_digest"]
        assert any("audit_digest" in p for p in validate(broken))

    def test_not_a_dict(self):
        assert validate([]) == ["top level must be a JSON object"]

    def test_cli_entrypoint(self, tmp_path, trajectory):
        target = tmp_path / "BENCH_capacity.json"
        write_summary(target, trajectory)
        assert main([str(target)]) == 0
        assert main([str(tmp_path / "missing.json")]) == 1
        assert main([]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([str(bad)]) == 1


class TestWorkloadCli:
    def test_runs_and_writes_schema_valid_payload(self, tmp_path):
        target = tmp_path / "BENCH_capacity.json"
        code, output = run_cli(
            "workload", "--scenario", "steady", "--population", "200",
            "--ops", "60", "--nodes", "1,2", "--seed", "4",
            "--out", str(target),
        )
        assert code == 0
        assert "capacity trajectory" in output
        assert "nodes=1" in output and "nodes=2" in output
        payload = json.loads(target.read_text())
        assert validate(payload) == []
        assert payload["seed"] == 4

    def test_list_scenarios(self):
        code, output = run_cli("workload", "--list")
        assert code == 0
        for name in ("steady", "stress", "surge", "anomaly"):
            assert name in output

    def test_unknown_scenario_suggests(self):
        with pytest.raises(SystemExit, match="steady"):
            run_cli("workload", "--scenario", "stedy")

    def test_bad_node_list_rejected(self):
        with pytest.raises(SystemExit, match="node count"):
            run_cli("workload", "--nodes", "0,2")
        with pytest.raises(SystemExit, match="comma-separated"):
            run_cli("workload", "--nodes", "two")

    def test_batched_run_carries_the_knob_in_the_payload(self, tmp_path):
        target = tmp_path / "BENCH_capacity.json"
        code, output = run_cli(
            "workload", "--scenario", "steady", "--population", "200",
            "--ops", "60", "--nodes", "1", "--batch", "on",
            "--batch-size", "64", "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["batch"] == "on"
        assert payload["batch_size"] == 64
        assert "--batch on --batch-size 64" in payload["source"]

    def test_unknown_batch_name_suggests_the_nearest(self):
        with pytest.raises(SystemExit, match="did you mean 'off'"):
            run_cli("workload", "--batch", "of")

    def test_bad_batch_size_rejected(self):
        with pytest.raises(SystemExit, match="batch_size"):
            run_cli("workload", "--batch", "on", "--batch-size", "0")
