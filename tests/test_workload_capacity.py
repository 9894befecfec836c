"""Tests for the workload run harness: reproducibility, pins, privacy.

Two same-seed runs reproduce identical ``run_point`` payloads *and*
identical audit digests, seed-2010 digests are pinned, no payload reports
a simulated speed, and neither a payload nor the run's telemetry exports
carry a plaintext assisted-person identifier.
"""

import json
import re
from dataclasses import asdict
from fnmatch import fnmatch

import pytest

from repro.clock import Clock
from repro.obs.telemetry import InMemoryTelemetry
from repro.sched import BacklogBound
from repro.sim.scenario import CssScenario, ScenarioConfig
from repro.workload import WorkloadEngine, run_point, workload_config
from repro.workload.capacity import run_workload

SUBJECT_ID = re.compile(r"ap-\d{8}")


def small_config(**overrides):
    defaults = dict(population=300, ops=120, seed=9)
    defaults.update(overrides)
    scenario = defaults.pop("scenario", "steady")
    return workload_config(scenario, **defaults)


@pytest.fixture(scope="module")
def points():
    """One ``run_point`` payload per node count, 1, 2 and 4."""
    return [run_point(small_config(), nodes, collect_decisions=True)
            for nodes in (1, 2, 4)]


OUTCOMES = ("published", "publish_blocked", "detail_permits", "detail_denies",
            "subscribe_ops")


class TestCapacityHarness:
    def test_points_cover_the_requested_node_counts(self, points):
        assert [point["nodes"] for point in points] == [1, 2, 4]

    def test_work_actually_flowed(self, points):
        for point in points:
            assert point["published"] > 0
            assert point["detail_permits"] > 0
            assert point["subscribe_ops"] > 0
            assert sum(point[name] for name in OUTCOMES) <= point["ops"]
            assert point["audit_records"] > 0
        # Sharding changes where the work runs, never what it decides.
        outcomes = {(tuple(point[name] for name in OUTCOMES),
                     point["decision_digest"]) for point in points}
        assert len(outcomes) == 1
        single, multi = points[0], points[-1]
        assert single["cross_node_hops"] == 0
        assert multi["cross_node_hops"] > 0

    def test_saturation_marks_are_reported(self, points):
        for point in points:
            assert point["queue_depth_high_water"] > 0  # fanout queued
            assert point["dead_letter_high_water"] == 0  # nothing poisoned


#: Key shapes of a speed figure.  Speed is measured on the wall clock
#: (``benchmarks/wall``); no simulated-clock artifact reports one.
SPEED_KEYS = ("*_per_second", "makespan*", "*latency*", "busy_seconds")


def keys_of(value):
    """Every key of every object nested in ``value``."""
    if isinstance(value, dict):
        for key, entry in value.items():
            yield key
            yield from keys_of(entry)
    elif isinstance(value, list):
        for entry in value:
            yield from keys_of(entry)


def test_no_simulated_speed_is_reported(points):
    report = CssScenario(ScenarioConfig(nodes=2, n_events=20, n_patients=6,
                                        seed=7)).run()
    walked = {"points": points, "scenario": asdict(report)}
    assert [point["nodes"] for point in points] == [1, 2, 4]
    assert report.node_reports
    speed = [(name, key) for name, payload in walked.items()
             for key in keys_of(payload)
             if any(fnmatch(key, shape) for shape in SPEED_KEYS)]
    assert speed == []


class TestReproducibility:
    def test_same_seed_runs_are_identical(self):
        for nodes in (1, 2):
            first = run_point(small_config(), nodes, collect_decisions=True)
            second = run_point(small_config(), nodes, collect_decisions=True)
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

    One small ``run_point`` at 1 and 2 nodes and the two-node anomaly
    run with its end-of-run drain (the run both fairness-bench arms made
    while the scheduler had a switch): any refactor of the shared run
    harness must reproduce these audit-chain and PDP-decision digests
    bit-for-bit.

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
    def test_run_arm_digests(self, sched, monkeypatch):
        # "none" runs with the backlog bound switched off, as the old
        # unshaped arm did; "fair" with the bound as shipped.  The bound
        # writes no audit record, so both arms pin the same chain.
        if sched == "none":
            monkeypatch.setattr(BacklogBound, "should_shed",
                                lambda self, subscriber, pending: False)
        workload = workload_config("anomaly", population=4000, ops=600,
                                   seed=2010)
        run = run_workload(workload, 2, drain_seconds=2.0)
        assert run.audit_digest == self.ARM_AUDIT
        assert run.audit_records == 1327
        if sched == "none":
            assert all(node.controller.sched.shed_total == 0
                       for node in run.platform.nodes())


class TestPrivacyInvariants:
    def test_payload_carries_no_subject_identifier(self, points):
        serialized = json.dumps(points, sort_keys=True)
        assert not SUBJECT_ID.search(serialized)

    def test_payload_carries_no_subject_name(self, points):
        names = {
            op.subject_name
            for op in WorkloadEngine(small_config()).plan()
            if op.subject_name
        }
        serialized = json.dumps(points, sort_keys=True)
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
