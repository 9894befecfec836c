"""Group-commit batching: the writer, the logs, the barriers, the knob.

The ``batch`` kernel kind buffers durable appends into group commits
(``RecordLog.append_many``).  These tests pin the mechanics: the
:class:`~repro.runtime.batching.BatchWriter` buffering/flush contract,
``append_many``'s sequence-range and segment-roll behaviour (including
torn-tail repair after a group commit), byte-level durable equivalence
between batched and unbatched runs over both store kinds, and the flush
barriers that keep snapshots and guarantor inquiries complete.
"""

import errno
import json
from pathlib import Path

import pytest

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.audit.log import AuditAction, AuditOutcome, AuditRecord
from repro.exceptions import (
    ConfigurationError,
    DuplicateObjectError,
    LinkFailureError,
)
from repro.runtime.batching import BatchPolicy, BatchWriter
from repro.storage import JsonlRecordLog, SegmentedLog
from tests.conftest import blood_test_schema, build_federation


class TestBatchWriter:
    def test_buffers_until_the_batch_boundary(self, tmp_path):
        log = JsonlRecordLog(tmp_path / "log.jsonl")
        writer = BatchWriter(log, batch_size=3)
        writer.append({"n": 1})
        writer.append({"n": 2})
        assert writer.pending == 2
        assert len(log) == 0  # nothing durable yet
        writer.append({"n": 3})  # boundary: auto group commit
        assert writer.pending == 0
        assert len(log) == 3
        assert writer.stats.flushes == 1
        assert writer.stats.flushed_records == 3

    def test_len_counts_durable_plus_pending(self, tmp_path):
        writer = BatchWriter(JsonlRecordLog(tmp_path / "log.jsonl"),
                             batch_size=10)
        assert writer.append({"n": 1}) == 1
        assert writer.append({"n": 2}) == 2
        assert len(writer) == 2

    def test_iter_records_is_a_flush_barrier(self, tmp_path):
        log = JsonlRecordLog(tmp_path / "log.jsonl")
        writer = BatchWriter(log, batch_size=10)
        writer.append({"n": 1})
        writer.append({"n": 2})
        assert [r["n"] for r in writer.iter_records()] == [1, 2]
        assert writer.pending == 0
        assert len(log) == 2

    def test_append_many_returns_the_projected_range(self, tmp_path):
        log = JsonlRecordLog(tmp_path / "log.jsonl")
        writer = BatchWriter(log, batch_size=2)
        writer.append({"n": 1})
        assert writer.append_many([{"n": 2}, {"n": 3}, {"n": 4}]) == (2, 4)
        assert writer.append_many([]) is None
        writer.flush()
        assert [r["n"] for r in log.iter_records()] == [1, 2, 3, 4]

    def test_a_failed_commit_keeps_the_batch_pending_in_order(self, tmp_path):
        log = JsonlRecordLog(tmp_path / "log.jsonl")
        fail_next_commit(log)
        writer = BatchWriter(log, batch_size=2)
        writer.append({"n": 1})
        with pytest.raises(OSError):
            writer.append({"n": 2})  # boundary: the group commit fails
        assert (writer.pending, len(log), writer.stats.flushes) == (2, 0, 0)
        writer.append({"n": 3})  # the next boundary commits all three
        assert writer.pending == 0
        assert [r["n"] for r in log.iter_records()] == [1, 2, 3]

    def test_flush_on_empty_buffer_is_a_noop(self, tmp_path):
        writer = BatchWriter(JsonlRecordLog(tmp_path / "log.jsonl"),
                             batch_size=2)
        writer.flush()
        assert writer.stats.flushes == 0

    def test_batch_size_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BatchWriter(JsonlRecordLog(tmp_path / "log.jsonl"), batch_size=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(batch_size=0)


def fail_next_commit(log):
    """Make ``log``'s next ``append_many`` fail as a full disk would."""
    real = log.append_many

    def append_many(records):
        log.append_many = real
        raise OSError(errno.ENOSPC, "No space left on device")

    log.append_many = append_many


class TestAppendMany:
    """Satellite: the group-commit primitive on both record logs."""

    def test_jsonl_append_many_returns_the_sequence_range(self, tmp_path):
        log = JsonlRecordLog(tmp_path / "log.jsonl")
        log.append({"n": 1})
        assert log.append_many([{"n": 2}, {"n": 3}]) == (2, 3)
        assert log.append_many([]) is None
        assert [r["n"] for r in log.iter_records()] == [1, 2, 3]

    def test_segmented_append_many_matches_single_appends(self, tmp_path):
        records = [{"n": i, "pad": "x" * 40} for i in range(12)]
        one = SegmentedLog(tmp_path / "one", segment_bytes=256)
        for record in records:
            one.append(record)
        many = SegmentedLog(tmp_path / "many", segment_bytes=256)
        assert many.append_many(records) == (1, 12)
        # Identical layout: same segment file names, same bytes in each.
        one_segments = sorted(p.name for p in (tmp_path / "one").glob("*.seg"))
        many_segments = sorted(p.name for p in (tmp_path / "many").glob("*.seg"))
        assert many_segments == one_segments
        for name in one_segments:
            assert ((tmp_path / "many" / name).read_bytes()
                    == (tmp_path / "one" / name).read_bytes())

    def test_segment_roll_happens_mid_batch(self, tmp_path):
        log = SegmentedLog(tmp_path / "rolled", segment_bytes=256)
        log.append_many([{"n": i, "pad": "x" * 40} for i in range(12)])
        segments = list((tmp_path / "rolled").glob("*.seg"))
        assert len(segments) > 1  # one group commit still rolled over
        reloaded = SegmentedLog(tmp_path / "rolled", segment_bytes=256)
        assert [r["n"] for r in reloaded.iter_records()] == list(range(12))

    def test_torn_tail_after_a_group_commit_is_repaired(self, tmp_path):
        log = SegmentedLog(tmp_path / "torn", segment_bytes=4096)
        log.append_many([{"n": i} for i in range(6)])
        tail = max((tmp_path / "torn").glob("*.seg"))
        raw = tail.read_bytes()
        tail.write_bytes(raw[:-5])  # crash mid-write of the final frame

        reloaded = SegmentedLog(tmp_path / "torn", segment_bytes=4096)
        assert reloaded.last_replay.truncated_bytes > 0
        assert [r["n"] for r in reloaded.iter_records()] == list(range(5))
        # The repaired log keeps accepting group commits.
        assert reloaded.append_many([{"n": 5}, {"n": 6}]) is not None
        assert len(reloaded) == 7


def build_world(tmp_path, store, batch, batch_size=256):
    runtime = RuntimeConfig(store=store, data_dir=tmp_path,
                            batch=batch, batch_size=batch_size)
    controller = DataController(seed="batchequiv", runtime=runtime)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi",
                          role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")],
        purposes=["healthcare-treatment"])
    doctor.subscribe("BloodTest")
    for i in range(5):
        hospital.publish(
            blood, subject_id=f"p{i}", subject_name="Mario Bianchi",
            summary=f"blood test {i}",
            details={"PatientId": f"p{i}", "Name": "Mario",
                     "Hemoglobin": 14.0, "Glucose": 90.0,
                     "HivResult": "negative"})
    return controller


def read_rows(base, store, name):
    if store == "segmented":
        return SegmentedLog(base / name).read_all()
    flat = base / f"{name}.jsonl"
    if not flat.exists():
        return []
    return [json.loads(line) for line in flat.read_text().splitlines()]


class TestGroupCommitDurability:
    @pytest.mark.parametrize("store", ["jsonl", "segmented"])
    def test_batched_files_match_unbatched_after_flush(self, tmp_path, store):
        plain = build_world(tmp_path / "off", store, batch="off")
        batched = build_world(tmp_path / "on", store, batch="on")
        assert (batched.audit_log.head_digest == plain.audit_log.head_digest)

        batched.flush_storage()
        # Audit trails are byte-identical row for row; the index holds the
        # same row *set* (deferred adoptions may reorder rows, see
        # PERFORMANCE.md §4 — a single controller has none, so even the
        # order survives here).
        for name in ("audit", "index"):
            assert (read_rows(tmp_path / "on", store, name)
                    == read_rows(tmp_path / "off", store, name))

    @pytest.mark.parametrize("store", ["jsonl", "segmented"])
    def test_snapshot_without_flush_would_miss_rows(self, tmp_path, store):
        controller = build_world(tmp_path, store, batch="on", batch_size=256)
        in_memory = len(controller.audit_log)
        durable_before = len(read_rows(tmp_path, store, "audit"))
        assert durable_before < in_memory  # buffered: the barrier matters
        controller.flush_storage()
        assert len(read_rows(tmp_path, store, "audit")) == in_memory

    def test_restart_after_flush_replays_the_same_chain(self, tmp_path):
        controller = build_world(tmp_path, "segmented", batch="on",
                                 batch_size=64)
        head = controller.audit_log.head_digest
        controller.flush_storage()

        from repro.crypto.keystore import KeyStore
        from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore

        audit = JsonlAuditSink(SegmentedLog(tmp_path / "audit"))
        audit.verify_integrity()
        assert audit.head_digest == head
        index = JsonlIndexStore(SegmentedLog(tmp_path / "index"),
                                KeyStore("css-platform-secret"))
        assert len(index) == len(controller.index)


    def test_restart_after_one_failed_commit_replays_and_verifies(self, tmp_path):
        """Records accepted after a failed write used to land past the
        hole, and the next start refused the chain as tampered."""
        controller = build_world(tmp_path, "segmented", batch="on",
                                 batch_size=4)
        fail_next_commit(controller.store.log("audit"))
        failed = 0
        for i in range(6):
            try:
                controller.record_audit("Hospital", AuditAction.PUBLISH,
                                        AuditOutcome.PERMIT, detail=f"row {i}")
            except OSError:
                failed += 1
        assert failed == 1
        controller.flush_storage()

        restarted = DataController(seed="batchequiv", runtime=RuntimeConfig(
            store="segmented", data_dir=tmp_path, batch="on", batch_size=4))
        restarted.audit_log.verify_integrity()
        assert len(restarted.audit_log) == len(controller.audit_log)
        assert restarted.audit_log.head_digest == controller.audit_log.head_digest

    def test_a_group_commit_that_fails_at_its_roll_over_is_retried_whole(
            self, tmp_path, monkeypatch):
        """A batch cut short at a segment roll used to leave its first
        frames on disk while the writer kept all of it pending: the retry
        wrote them twice and the next start refused the chain as tampered."""
        from repro.runtime.backends import JsonlAuditSink

        def audit_log():
            return SegmentedLog(tmp_path / "audit", segment_bytes=700)

        sink = JsonlAuditSink(BatchWriter(audit_log(), batch_size=8))
        real_open, opened = Path.open, []

        def open_(path, mode="r", *args, **kwargs):
            if mode == "ab":
                opened.append(path.name)
                if len(opened) == 2:  # the batch's second segment
                    raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_)
        with pytest.raises(OSError):
            for i in range(8):  # the eighth append is the group commit
                sink.append(AuditRecord(
                    f"aud-{i:06d}", float(i), "Hospital", AuditAction.PUBLISH,
                    AuditOutcome.PERMIT, detail=f"row {i}"))
        assert len(opened) == 2 and opened[0] != opened[1]
        assert len(audit_log()) == 0  # the three frames that landed are gone
        sink.flush()

        restarted = JsonlAuditSink(audit_log())
        restarted.verify_integrity()
        assert len(restarted) == 8
        assert restarted.head_digest == sink.head_digest


def remote_subject(platform, owner: str) -> str:
    for i in range(200):
        subject = f"pat-{i}"
        if platform.membership.owner_of_subject(subject) == owner:
            return subject
    raise AssertionError(f"no probe subject hashed onto {owner}")


class TestFlushBarriers:
    def batched_federation(self, batch_size=256, **runtime_kwargs):
        runtime = RuntimeConfig(batch="on", batch_size=batch_size,
                                **runtime_kwargs)
        return build_federation(runtime=runtime)

    def test_guarantor_inquiry_sees_every_buffered_record(self):
        plain = build_federation()
        batched = self.batched_federation()
        for deployment in (plain, batched):
            for i in range(4):
                deployment.publish_blood_test(subject_id=f"pat-{i}")
        plain_trail = plain.platform.guarantor_inquiry()
        batched_trail = batched.platform.guarantor_inquiry()
        assert len(batched_trail) == len(plain_trail)
        assert batched_trail.heads == plain_trail.heads

    def test_federated_read_barrier_flushes_pending_frames(self):
        deployment = self.batched_federation()
        platform = deployment.platform
        subject = remote_subject(platform, "node-1")
        notification = deployment.publish_blood_test(subject_id=subject)
        # The coalesced frame is still pending, yet the read path must
        # observe the entry — get() runs the cluster-wide barrier first.
        found = platform.controller_of("node-1").index.get(
            notification.event_id)
        assert found.event_id == notification.event_id

    def test_a_dropped_frame_goes_out_with_the_next_flush(self):
        """The link spent its retry budget on a coalesced frame: the
        publishes were acknowledged, so the frame must still be pending."""
        deployment = self.batched_federation()
        platform = deployment.platform
        published = [deployment.publish_blood_test(subject_id=f"pat-{i}")
                     for i in range(12)]
        link = platform.membership.link("node-0", "node-1")
        link.fail_next(link.policy.max_attempts)
        with pytest.raises(LinkFailureError):
            platform.flush_batches()
        shipped_before = len(platform.controller_of("node-1").index)

        platform.flush_batches()
        remote = [n.event_id for n in published
                  if platform.membership.owner_of_subject(n.subject_ref) == "node-1"]
        assert remote and shipped_before == 0
        for notification in published:
            assert any(notification.event_id in node.controller.index
                       for node in platform.nodes())
        # The retried frame carries the entries in publish order.
        adopted = platform.controller_of("node-1").index.local.registry
        assert [obj.object_id for obj in adopted.by_type("Notification")] == remote

    def test_a_frame_the_owner_rejected_is_not_retried(self):
        deployment = self.batched_federation()
        platform = deployment.platform
        subject = remote_subject(platform, "node-1")
        notification = deployment.publish_blood_test(subject_id=subject)
        platform.flush_batches()
        link = platform.membership.link("node-0", "node-1")
        calls, delivered = link.stats.calls, link.stats.delivered

        platform.controller_of("node-0").index.store(notification)  # again
        with pytest.raises(DuplicateObjectError):
            platform.flush_batches()
        # Answered, not dropped: a response crossed and nothing is pending.
        assert json.loads(link.transcript[-1])["error"] == "DuplicateObjectError"
        assert (link.stats.calls, link.stats.delivered) == (calls + 1, delivered + 1)
        platform.flush_batches()
        assert link.stats.calls == calls + 1

    def test_flush_batches_drains_durable_buffers(self, tmp_path):
        deployment = self.batched_federation(store="jsonl", data_dir=tmp_path)
        platform = deployment.platform
        for i in range(4):
            deployment.publish_blood_test(subject_id=f"pat-{i}")
        platform.flush_batches()
        for node in platform.nodes():
            durable = (tmp_path / node.node_id / "audit.jsonl")
            rows = durable.read_text().splitlines()
            assert len(rows) == len(node.controller.audit_log)


class TestBatchKernelKnob:
    def test_on_produces_a_policy_off_produces_none(self):
        on = DataController(
            seed="k", runtime=RuntimeConfig(batch="on", batch_size=8))
        assert isinstance(on.batch, BatchPolicy)
        assert on.batch.batch_size == 8
        off = DataController(seed="k", runtime=RuntimeConfig())
        assert off.batch is None

    def test_unknown_batch_name_suggests_the_nearest(self):
        with pytest.raises(ConfigurationError) as excinfo:
            DataController(seed="k", runtime=RuntimeConfig(batch="onn"))
        assert "did you mean 'on'?" in str(excinfo.value)

    def test_batch_size_validated_at_construction(self):
        with pytest.raises(ConfigurationError):
            DataController(
                seed="k", runtime=RuntimeConfig(batch="on", batch_size=0))
