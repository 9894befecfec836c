"""Batched execution is a pure performance knob — the equivalence gate.

``batch: on`` may change when bytes hit disk and how many wire frames
cross, never what the platform decides or what its audit trail says.
These tests pin the contract the ``BENCH_batch.json`` gate enforces at
scale: identical audit digests and PDP decision streams batched vs
unbatched (including under ``sched: fair``), vectorized bus fanout that
delivers exactly what sequential publishes deliver, and per-entry
delivery accounting on coalesced link frames.
"""

import pytest

from repro import RuntimeConfig
from repro.bus.broker import ServiceBus
from repro.exceptions import LinkFailureError, UnknownTopicError
from repro.federation.link import BATCH_ENTRY_COST
from repro.workload.capacity import run_point
from repro.workload.config import workload_config
from tests.conftest import build_federation


def small_workload(scenario="steady", seed=77):
    return workload_config(scenario, population=24, ops=90, seed=seed)


def point(workload, **knobs):
    return run_point(workload, 2, RuntimeConfig(**knobs),
                     collect_decisions=True)


class TestCapacityEquivalence:
    def test_digests_identical_across_batch_sizes(self):
        workload = small_workload()
        baseline = point(workload)
        for batch_size in (1, 16, 256):
            batched = point(workload, batch="on", batch_size=batch_size)
            assert batched["audit_digest"] == baseline["audit_digest"]
            assert batched["decision_digest"] == baseline["decision_digest"]

    def test_outcome_counters_identical(self):
        workload = small_workload()
        baseline = point(workload)
        batched = point(workload, batch="on", batch_size=16)
        for counter in ("published", "publish_blocked", "detail_permits",
                        "detail_denies", "subscribe_ops", "audit_records"):
            assert batched[counter] == baseline[counter]

    def test_batch_size_one_reproduces_the_unbatched_cost_model(self):
        workload = small_workload()
        baseline = point(workload)
        batched = point(workload, batch="on", batch_size=1)
        assert batched["makespan_seconds"] == \
            pytest.approx(baseline["makespan_seconds"])
        assert batched["events_per_second"] == \
            pytest.approx(baseline["events_per_second"])

    def test_batching_amortizes_the_makespan(self):
        workload = small_workload()
        baseline = point(workload)
        batched = point(workload, batch="on", batch_size=256)
        assert batched["makespan_seconds"] < baseline["makespan_seconds"]


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


def fanout_bus():
    bus = ServiceBus()
    bus.declare_topic("events.health.BloodTest")
    bus.declare_topic("events.social.HomeCare")
    boxes = {"doctor": [], "monitor": []}
    bus.subscribe("doctor", "events.health.BloodTest",
                  boxes["doctor"].append)
    bus.subscribe("monitor", "events.#", boxes["monitor"].append)
    return bus, boxes


ITEMS = [
    ("events.health.BloodTest", "hospital", "b1"),
    ("events.health.BloodTest", "hospital", "b2"),
    ("events.social.HomeCare", "municipality", "h1"),
    ("events.health.BloodTest", "hospital", "b3"),
]


class TestPublishManyEquivalence:
    def test_vectorized_fanout_matches_sequential_publishes(self):
        sequential, seq_boxes = fanout_bus()
        for topic, sender, body in ITEMS:
            sequential.publish(topic, sender, body)
        vectorized, vec_boxes = fanout_bus()
        envelopes = vectorized.publish_many(ITEMS)

        assert len(envelopes) == len(ITEMS)
        for subscriber in seq_boxes:
            assert ([e.body for e in vec_boxes[subscriber]]
                    == [e.body for e in seq_boxes[subscriber]])
        assert vectorized.stats.published == sequential.stats.published
        assert vectorized.stats.fanned_out == sequential.stats.fanned_out

    def test_strict_topics_validated_up_front(self):
        bus, boxes = fanout_bus()
        with pytest.raises(UnknownTopicError):
            bus.publish_many([
                ("events.health.BloodTest", "hospital", "ok"),
                ("events.health.Undeclared", "hospital", "bad"),
            ])
        # All-or-nothing: the valid head of the batch was not published.
        assert bus.stats.published == 0
        assert boxes["doctor"] == []

    def test_empty_batch_is_a_noop(self):
        bus, _boxes = fanout_bus()
        assert bus.publish_many([]) == []
        assert bus.stats.published == 0


class TestCallBatchAccounting:
    def link_pair(self):
        deployment = build_federation()
        platform = deployment.platform
        return platform, platform.membership.link("node-0", "node-1")

    def test_delivery_counts_per_entry_not_per_frame(self):
        _platform, link = self.link_pair()
        calls, delivered = link.stats.calls, link.stats.delivered
        frames = len(link.transcript)
        response = link.call_batch("no.such.op", {"x": 1}, count=5)
        assert response["error"] == "unknown-operation"  # a response, not a drop
        assert link.stats.calls == calls + 1
        assert link.stats.delivered == delivered + 5
        assert len(link.transcript) == frames + 2  # one request, one response

    def test_drop_fails_every_entry_in_the_frame(self):
        _platform, link = self.link_pair()
        failed = link.stats.failed_attempts
        link.fail_next(link.policy.max_attempts)
        with pytest.raises(LinkFailureError):
            link.call_batch("no.such.op", {"x": 1}, count=4)
        assert (link.stats.failed_attempts
                == failed + 4 * link.policy.max_attempts)

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


def batch_payload(min_speedup=1.5, identical=True):
    check = {
        "nodes": 1, "store": "jsonl", "batch_size": 1,
        "audit_identical": identical, "decisions_identical": identical,
        "audit_digest": "sha256:" + "a" * 64,
        "decision_digest": "sha256:" + "b" * 64,
    }
    checks = [dict(check, batch_size=size, store=store)
              for size in (1, 16, 256) for store in ("jsonl", "segmented")]
    return {
        "schema": "css-bench-batch/1",
        "source": "tests",
        "quick": True,
        "equivalence": {"identical": identical, "checks": checks},
        "speedup": {
            "floor": 1.3,
            "min_speedup_at_256": min_speedup,
            "nodes": [{"nodes": 1, "baseline_events_per_second": 100.0,
                       "batched_events_per_second": 100.0 * min_speedup,
                       "speedup": min_speedup}],
            "batch_sweep": [{"batch_size": 256, "events_per_second": 150.0,
                             "speedup": min_speedup}],
        },
    }


class TestBatchSchemaChecker:
    def test_accepts_a_well_formed_payload(self):
        from benchmarks.check_bench import validate

        assert validate(batch_payload()) == []

    def test_rejects_a_broken_equivalence(self):
        from benchmarks.check_bench import validate

        problems = validate(batch_payload(identical=False))
        assert any("identical" in problem for problem in problems)

    def test_rejects_a_speedup_below_the_floor(self):
        from benchmarks.check_bench import validate

        problems = validate(batch_payload(min_speedup=1.1))
        assert any("floor" in problem for problem in problems)

    def test_rejects_missing_matrix_coverage(self):
        from benchmarks.check_bench import validate

        payload = batch_payload()
        payload["equivalence"]["checks"] = [
            entry for entry in payload["equivalence"]["checks"]
            if entry["batch_size"] != 256
        ]
        assert any("batch_size=256" in problem
                   for problem in validate(payload))

    def test_main_handles_missing_and_malformed_files(self, tmp_path):
        from benchmarks.check_bench import main

        assert main([]) == 2
        assert main([str(tmp_path / "absent.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([str(bad)]) == 1

    def test_main_accepts_the_real_artifact_shape(self, tmp_path):
        import json

        from benchmarks.check_bench import main

        good = tmp_path / "BENCH_batch.json"
        good.write_text(json.dumps(batch_payload()))
        assert main([str(good)]) == 0
