"""The multi-tenant workload preset, and the privacy of shed counts.

The ``multi_tenant`` preset's roster and streams are deterministic, and
the backlog bound's per-tenant shed counts reach the telemetry exports
only under guard-hashed tenant labels.
"""

import json
import re

import pytest

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.sched import MAX_PENDING
from repro.workload import (
    MULTI_TENANT_ROLES,
    WorkloadEngine,
    multi_tenant_abuser,
    multi_tenant_roster,
    workload_config,
)
from tests.conftest import blood_test_schema

SUBJECT_ID = re.compile(r"ap-\d{8}")


def small_workload(**overrides):
    defaults = dict(population=2000, ops=300)
    defaults.update(overrides)
    scenario = defaults.pop("scenario", "anomaly")
    return workload_config(scenario, **defaults)


class TestPrivacyInvariants:
    def test_telemetry_exports_carry_no_plaintext_tenant_id(self):
        tenant = "Province-Trentino/SocialWelfare"
        controller = DataController(seed="shed", auto_dispatch=False,
                                    runtime=RuntimeConfig(telemetry="inmemory"))
        hospital = DataProducer(controller, "Hospital", "Hospital")
        blood = hospital.declare_event_class(blood_test_schema())
        hospital.define_policy(
            "BloodTest", fields=["PatientId"], consumers=[("family-doctor", "role")],
            purposes=["healthcare-treatment"])
        DataConsumer(controller, tenant, "Social welfare",
                     role="family-doctor").subscribe("BloodTest")
        for index in range(MAX_PENDING + 3):
            subject = f"ap-{index:08d}"
            hospital.publish(
                blood, subject_id=subject, subject_name="Mario", summary="done",
                details={"PatientId": subject, "Name": "Mario", "Hemoglobin": 14.0,
                         "Glucose": 90.0, "HivResult": "negative"})
        telemetry = controller.telemetry
        exported = "\n".join(telemetry.trace_export() + telemetry.metrics_export())
        shed = [json.loads(line) for line in telemetry.metrics_export()
                if '"sched.tenant.shed"' in line]
        assert [row["value"] for row in shed] == [3]
        assert shed[0]["labels"]["tenant"].startswith("h:")
        assert '"sched.shed_total"' in exported
        assert not SUBJECT_ID.search(exported)
        assert tenant not in exported


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
