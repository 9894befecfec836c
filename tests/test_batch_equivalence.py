"""Batched execution is a pure performance knob — the equivalence gate.

``batch: on`` may change when bytes hit disk and how many wire frames
cross, never what the platform decides or what its audit trail says.
These tests pin that contract: identical audit digests and PDP decision
streams batched vs unbatched — durable, on one node and two, at batch
sizes 1/16/256 (including under ``sched: fair``) — and per-entry
delivery accounting on coalesced link frames.
"""

import pytest

from repro import RuntimeConfig
from repro.bus.delivery import MAX_ATTEMPTS
from repro.exceptions import LinkFailureError
from repro.federation.link import BATCH_ENTRY_COST
from repro.workload.capacity import run_point
from repro.workload.config import workload_config
from tests.conftest import build_federation


def small_workload(scenario="steady", seed=77):
    return workload_config(scenario, population=24, ops=90, seed=seed)


def point(workload, nodes=2, **knobs):
    return run_point(workload, nodes, RuntimeConfig(**knobs),
                     collect_decisions=True)


class TestCapacityEquivalence:
    def test_digests_identical_across_batch_sizes(self, tmp_path):
        """The equivalence matrix: every node durable (its logs in the
        segmented storage engine), on one node and two, each batch size
        against the unbatched run, on the verified audit heads and the
        decision stream."""
        workload = workload_config("steady", population=60, ops=240,
                                   seed=2010)
        for nodes in (1, 2):
            baseline = point(workload, nodes=nodes,
                             data_dir=str(tmp_path / f"{nodes}-off"))
            for batch_size in (1, 16, 256):
                batched = point(
                    workload, nodes=nodes, batch="on", batch_size=batch_size,
                    data_dir=str(tmp_path / f"{nodes}-on-{batch_size}"))
                cell = (nodes, batch_size)
                assert batched["audit_digest"] == baseline["audit_digest"], cell
                assert (batched["decision_digest"]
                        == baseline["decision_digest"]), cell
                assert (batched["audit_records"]
                        == baseline["audit_records"]), cell

    def test_outcome_counters_identical(self):
        workload = small_workload()
        baseline = point(workload)
        batched = point(workload, batch="on", batch_size=16)
        for counter in ("published", "publish_blocked", "detail_permits",
                        "detail_denies", "subscribe_ops", "audit_records"):
            assert batched[counter] == baseline[counter]


class TestSchedFairEquivalence:
    """The two knobs compose: fair scheduling + batching stays equivalent."""

    def test_digests_identical_under_fair_scheduling(self):
        workload = small_workload("multi_tenant", seed=31)
        baseline = point(workload, sched="fair")
        batched = point(workload, sched="fair", batch="on", batch_size=16)
        assert batched["audit_digest"] == baseline["audit_digest"]
        assert batched["decision_digest"] == baseline["decision_digest"]

    def test_admission_metrics_identical_under_fair_scheduling(self):
        # Intra-drain *order* may differ (tenant-batch metering), so the
        # comparison is the order-insensitive admission totals.
        workload = small_workload("multi_tenant", seed=31)
        baseline = point(workload, sched="fair")
        batched = point(workload, sched="fair", batch="on", batch_size=64)
        for counter in ("published", "publish_blocked", "detail_permits",
                        "detail_denies", "queue_depth_high_water",
                        "dead_letter_high_water"):
            assert batched[counter] == baseline[counter]


class TestCallBatchAccounting:
    def link_pair(self):
        deployment = build_federation()
        platform = deployment.platform
        return platform, platform.membership.link("node-0", "node-1")

    def test_delivery_counts_per_entry_not_per_frame(self, wire):
        _platform, link = self.link_pair()
        calls, delivered = link.stats.calls, link.stats.delivered
        frames = len(wire)
        response = link.call_batch("no.such.op", {"x": 1}, count=5)
        assert response["error"] == "unknown-operation"  # a response, not a drop
        assert link.stats.calls == calls + 1
        assert link.stats.delivered == delivered + 5
        assert len(wire) == frames + 2  # one request, one response

    def test_drop_fails_every_entry_in_the_frame(self):
        _platform, link = self.link_pair()
        failed = link.stats.failed_attempts
        link.fail_next(MAX_ATTEMPTS)
        with pytest.raises(LinkFailureError):
            link.call_batch("no.such.op", {"x": 1}, count=4)
        assert (link.stats.failed_attempts
                == failed + 4 * MAX_ATTEMPTS)

    def test_coalesced_clock_cost(self):
        platform, link = self.link_pair()
        clock = platform.membership.clock
        before = clock.now()
        link.call_batch("no.such.op", {"x": 1}, count=8)
        assert clock.now() - before == \
            pytest.approx(link.latency + 8 * BATCH_ENTRY_COST)
        # Pre-charged shippers flush with advance=0.0: no clock movement.
        before = clock.now()
        link.call_batch("no.such.op", {"x": 1}, count=8, advance=0.0)
        assert clock.now() == before

    def test_empty_frame_rejected(self):
        _platform, link = self.link_pair()
        with pytest.raises(LinkFailureError):
            link.call_batch("index.store", {}, count=0)


def remote_subjects(platform, owner, count):
    subjects = []
    for i in range(500):
        subject = f"pat-{i}"
        if platform.membership.owner_of_subject(subject) == owner:
            subjects.append(subject)
            if len(subjects) == count:
                return subjects
    raise AssertionError(f"not enough probe subjects hashed onto {owner}")


class TestCoalescedShardFrames:
    def test_pending_adoptions_ship_as_one_frame(self):
        deployment = build_federation(
            runtime=RuntimeConfig(batch="on", batch_size=256))
        platform = deployment.platform
        link = platform.membership.link("node-0", "node-1")
        calls, delivered = link.stats.calls, link.stats.delivered
        for subject in remote_subjects(platform, "node-1", 3):
            deployment.publish_blood_test(subject_id=subject)
        # Buffered: nothing crossed the wire yet.
        assert link.stats.delivered == delivered
        platform.membership.flush_shippers()
        assert link.stats.calls == calls + 1  # one coalesced frame
        assert link.stats.delivered == delivered + 3  # per-entry accounting

    def test_buffer_auto_ships_at_batch_size(self):
        deployment = build_federation(
            runtime=RuntimeConfig(batch="on", batch_size=2))
        platform = deployment.platform
        link = platform.membership.link("node-0", "node-1")
        delivered = link.stats.delivered
        for subject in remote_subjects(platform, "node-1", 2):
            deployment.publish_blood_test(subject_id=subject)
        assert link.stats.delivered == delivered + 2  # no barrier needed

    def test_hop_totals_identical_batched_vs_unbatched(self):
        totals = {}
        for batch in ("off", "on"):
            deployment = build_federation(
                runtime=RuntimeConfig(batch=batch, batch_size=256))
            platform = deployment.platform
            for subject in remote_subjects(platform, "node-1", 3):
                deployment.publish_blood_test(subject_id=subject)
            platform.flush_batches()
            totals[batch] = platform.total_hops()
        assert totals["on"] == totals["off"]
