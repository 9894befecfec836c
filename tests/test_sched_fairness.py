"""The fairness harness, its schema gate, CLI, and privacy invariants.

The PR's acceptance criteria land here: a real (small) anomaly run shows
Jain's index and the victim tenant's share strictly higher under
``sched=fair`` than ``sched=none`` while the same-seed audit digests are
identical; payloads are reproducible; and neither the payload nor the
run's telemetry exports carry a plaintext tenant / organization id or an
assisted-person identifier.
"""

import io
import json
import re

import pytest
from benchmarks.check_bench import main, validate

from repro.cli import main as cli_main
from repro.clock import Clock
from repro.obs.telemetry import InMemoryTelemetry
from repro.sched.fairness import (
    SCHEMA_ID,
    fairness_gate,
    run_arm,
    run_fairness,
    victim_of,
    weighted_maxmin,
)
from repro.workload import (
    MULTI_TENANT_ROLES,
    WorkloadEngine,
    multi_tenant_abuser,
    multi_tenant_roster,
    workload_config,
)

SUBJECT_ID = re.compile(r"ap-\d{8}")


def small_workload(**overrides):
    defaults = dict(population=2000, ops=300)
    defaults.update(overrides)
    scenario = defaults.pop("scenario", "anomaly")
    return workload_config(scenario, **defaults)


@pytest.fixture(scope="module")
def payload():
    return run_fairness(small_workload(), source="pytest")


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestWeightedMaxmin:
    def test_unconstrained_demands_split_by_weight(self):
        assert weighted_maxmin([10.0, 10.0], [3.0, 1.0], 4.0) == \
            pytest.approx([3.0, 1.0])

    def test_small_demands_are_capped_and_surplus_redistributed(self):
        # Tenant 0 only wants 1.0; the freed capacity flows to tenant 1.
        assert weighted_maxmin([1.0, 10.0], [1.0, 1.0], 6.0) == \
            pytest.approx([1.0, 5.0])

    def test_capacity_beyond_total_demand_is_not_allocated(self):
        assert weighted_maxmin([2.0, 3.0], [1.0, 1.0], 100.0) == \
            pytest.approx([2.0, 3.0])

    def test_zero_demand_tenants_get_nothing(self):
        assert weighted_maxmin([0.0, 4.0], [5.0, 1.0], 2.0) == \
            pytest.approx([0.0, 2.0])


class TestAcceptanceGate:
    def test_fair_beats_none_on_jain_and_victim_share(self, payload):
        none_arm, fair_arm = payload["arms"]["none"], payload["arms"]["fair"]
        assert fair_arm["jain_index"] > none_arm["jain_index"]
        assert fair_arm["victim_share"] > none_arm["victim_share"]
        assert fairness_gate(payload) == []

    def test_audit_digests_identical_across_schedulers(self, payload):
        assert payload["audit_digest_match"] is True
        assert payload["arms"]["none"]["audit_digest"] == \
            payload["arms"]["fair"]["audit_digest"]
        assert payload["arms"]["none"]["audit_records"] == \
            payload["arms"]["fair"]["audit_records"] > 0

    def test_only_fair_throttles_and_penalizes(self, payload):
        assert payload["arms"]["none"]["throttled_total"] == 0
        assert payload["arms"]["none"]["penalized_tenants"] == 0
        assert payload["arms"]["fair"]["throttled_total"] > 0

    def test_payload_passes_the_schema_gate(self, payload):
        assert validate(payload) == []
        assert payload["schema"] == SCHEMA_ID

    def test_same_seed_payloads_are_identical(self):
        first = run_fairness(small_workload(ops=120), source="pytest")
        second = run_fairness(small_workload(ops=120), source="pytest")
        assert first == second

    def test_victim_is_the_lowest_weight_roster_tenant(self):
        workload = small_workload()
        victim = victim_of(workload)
        weights = {t.tenant_id: t.weight for t in workload.tenants}
        assert weights[victim] == min(weights.values())


class TestPrivacyInvariants:
    def test_payload_carries_no_plaintext_tenant_or_subject_id(self, payload):
        serialized = json.dumps(payload, sort_keys=True)
        assert not SUBJECT_ID.search(serialized)
        for tenant in small_workload().tenants:
            assert tenant.tenant_id not in serialized
        abuser = small_workload().abusive_tenant
        assert abuser and abuser not in serialized

    def test_tenant_keys_and_references_are_guard_hashed(self, payload):
        assert payload["victim_tenant"].startswith("h:")
        assert payload["abusive_tenant"].startswith("h:")
        for arm in payload["arms"].values():
            assert arm["tenants"]
            assert all(key.startswith("h:") for key in arm["tenants"])

    def test_telemetry_exports_carry_no_plaintext_tenant_id(self):
        workload = small_workload(ops=120)
        telemetry = InMemoryTelemetry(
            clock=Clock(), guard_mode="hash", secret="pytest-sched"
        )
        run_arm(workload, "fair", telemetry=telemetry)
        exported = "\n".join(
            telemetry.trace_export() + telemetry.metrics_export()
        )
        assert exported
        assert "sched.tenant.share" in exported
        assert not SUBJECT_ID.search(exported)
        for tenant in workload.tenants:
            assert tenant.tenant_id not in exported


class TestMultiTenantScenario:
    def test_preset_uses_the_extended_roster(self):
        workload = small_workload(scenario="multi_tenant")
        assert workload.tenants == multi_tenant_roster()
        assert workload.abusive_tenant == multi_tenant_abuser()
        assert len(workload.tenants) > len(small_workload().tenants)
        assert {t.role for t in workload.tenants} <= set(MULTI_TENANT_ROLES)

    def test_published_ops_carry_their_producing_tenant(self):
        engine = WorkloadEngine(small_workload(scenario="multi_tenant"))
        publishes = [op for op in engine.plan() if op.kind == "publish"]
        assert publishes
        assert all(op.tenant_id for op in publishes)
        for op in publishes:
            assert json.loads(op.to_line())["tenant_id"] == op.tenant_id

    def test_same_seed_streams_are_byte_identical(self):
        workload = small_workload(scenario="multi_tenant")
        first = "\n".join(op.to_line() for op in WorkloadEngine(workload).plan())
        second = "\n".join(op.to_line() for op in WorkloadEngine(workload).plan())
        assert first == second

    def test_unknown_scenario_suggests_multi_tenant(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="multi_tenant"):
            workload_config("multitenant")


class TestSchemaChecker:
    def test_rejects_wrong_schema_id(self, payload):
        broken = dict(payload, schema="css-bench-fairness/0")
        assert any("schema" in problem for problem in validate(broken))

    def test_rejects_plaintext_tenant_leak(self, payload):
        leaked = json.loads(json.dumps(payload))
        leaked["note"] = "worst offender: Province-Trentino/SocialWelfare"
        assert any("privacy" in problem for problem in validate(leaked))

    def test_rejects_plaintext_subject_leak(self, payload):
        leaked = json.loads(json.dumps(payload))
        leaked["hot_subject"] = "ap-00000017"
        assert any("privacy" in problem for problem in validate(leaked))

    def test_rejects_unhashed_victim_reference(self, payload):
        broken = dict(payload, victim_tenant="Province-X/Statistics-Y")
        assert any("victim_tenant" in problem for problem in validate(broken))

    def test_rejects_non_improving_fair_arm(self, payload):
        broken = json.loads(json.dumps(payload))
        broken["arms"]["fair"]["jain_index"] = \
            broken["arms"]["none"]["jain_index"]
        assert any("jain_index" in problem for problem in validate(broken))

    def test_rejects_diverging_audit_digests(self, payload):
        broken = json.loads(json.dumps(payload))
        broken["arms"]["fair"]["audit_digest"] = "sha256:deadbeef"
        broken["audit_digest_match"] = False
        problems = validate(broken)
        assert any("digest" in problem for problem in problems)

    def test_rejects_missing_arm(self, payload):
        broken = {key: value for key, value in payload.items()}
        broken["arms"] = {"none": payload["arms"]["none"]}
        assert any("arms" in problem for problem in validate(broken))

    def test_not_a_dict(self):
        assert validate([]) == ["top level must be a JSON object"]

    def test_cli_entrypoint(self, tmp_path, payload):
        target = tmp_path / "BENCH_fairness.json"
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert main([str(target)]) == 0
        assert main([str(tmp_path / "missing.json")]) == 1
        assert main([]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([str(bad)]) == 1


class TestSchedCli:
    def test_runs_and_writes_schema_valid_payload(self, tmp_path):
        target = tmp_path / "BENCH_fairness.json"
        code, output = run_cli(
            "sched", "--scenario", "anomaly", "--population", "2000",
            "--ops", "300", "--out", str(target),
        )
        assert code == 0
        assert "fairness comparison" in output
        assert "audit digests match" in output
        payload = json.loads(target.read_text())
        assert validate(payload) == []
        assert payload["scenario"] == "anomaly"

    def test_list_scenarios(self):
        code, output = run_cli("sched", "--list")
        assert code == 0
        assert "anomaly" in output and "multi_tenant" in output

    def test_unknown_scenario_suggests(self):
        with pytest.raises(SystemExit, match="anomaly"):
            run_cli("sched", "--scenario", "anomly")

    def test_bad_node_count_rejected(self):
        with pytest.raises(SystemExit, match="positive"):
            run_cli("sched", "--nodes", "0")

    def test_workload_cli_accepts_sched_flag(self, tmp_path):
        code, output = run_cli(
            "workload", "--scenario", "steady", "--population", "200",
            "--ops", "60", "--nodes", "1", "--seed", "4", "--sched", "fair",
        )
        assert code == 0
        assert "capacity trajectory" in output
