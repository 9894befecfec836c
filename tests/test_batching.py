"""Group-commit batching: the log's commits, the barriers, the knob.

The ``batch`` kernel kind buffers durable appends into group commits
(``SegmentedLog.append_many``).  These tests pin the mechanics: a
``SegmentedLog(..., batch_size=n)``'s pending/commit contract,
``append_many``'s sequence-range and segment-roll behaviour (including
torn-tail repair after a group commit), byte-level durable equivalence
between batched and unbatched runs, and the flush barriers that keep
snapshots and guarantor inquiries complete.
"""

import errno
import json
from pathlib import Path

import pytest

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.audit.log import AuditAction, AuditOutcome, AuditRecord
from repro.bus.delivery import MAX_ATTEMPTS
from repro.exceptions import (
    ConfigurationError,
    DuplicateObjectError,
    LinkFailureError,
    StorageError,
)
from repro.storage import SegmentedLog, StorageEngine
from repro.storage.segment import encode_frame
from tests.conftest import (
    blood_test_schema,
    build_federation,
    encode_entry,
    framed,
    index_row,
    tombstone,
)


class TestBatchWriter:
    """A log group-commits every ``batch_size`` records it is handed."""

    def test_buffers_until_the_batch_boundary(self, tmp_path):
        log = SegmentedLog(tmp_path / "log", batch_size=3)
        log.append(encode_entry({"n": 1}))
        log.append(encode_entry({"n": 2}))
        assert log.pending == 2
        assert len(log) == 0  # nothing durable yet
        log.append(encode_entry({"n": 3}))  # boundary: auto group commit
        assert log.pending == 0
        assert len(log) == 3

    def test_len_counts_durable_plus_pending(self, tmp_path):
        log = SegmentedLog(tmp_path / "log", batch_size=10)
        assert log.append(encode_entry({"n": 1})) == 1
        assert log.append(encode_entry({"n": 2})) == 2
        assert len(log) + log.pending == 2

    def test_iter_records_is_a_flush_barrier(self, tmp_path):
        log = SegmentedLog(tmp_path / "log", batch_size=10)
        log.append(encode_entry({"n": 1}))
        log.append(encode_entry({"n": 2}))
        assert [r["n"] for r in log.iter_records()] == [1, 2]
        assert log.pending == 0
        assert len(log) == 2

    def test_a_failed_commit_keeps_the_batch_pending_in_order(self, tmp_path):
        log = SegmentedLog(tmp_path / "log", batch_size=2)
        fail_next_commit(log)
        log.append(encode_entry({"n": 1}))
        with pytest.raises(OSError):
            log.append(encode_entry({"n": 2}))  # boundary: the group commit fails
        # The failed append did not happen; what was acknowledged stays pending.
        assert (log.pending, len(log), log.sequence) == (1, 0, 0)
        assert log.append(encode_entry({"n": 3})) == 2  # the next boundary commits the batch
        assert log.pending == 0
        assert [r["n"] for r in log.iter_records()] == [1, 3]

    def test_flush_on_empty_buffer_is_a_noop(self, tmp_path):
        log = SegmentedLog(tmp_path / "log", batch_size=2)
        log.flush()
        assert (log.pending, len(log), segment_bytes(tmp_path / "log")) == (0, 0, [])

    def test_batch_size_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SegmentedLog(tmp_path / "log", batch_size=0)
        with pytest.raises(ConfigurationError):
            StorageEngine(tmp_path / "data", batch_size=0).log("index")

    def test_append_returns_the_sequence_its_record_commits_under(self, tmp_path):
        """After a compaction the log holds fewer records than its
        high-water: an append answers the sequence on disk, not a count."""
        engine = StorageEngine(tmp_path, batch_size=2)
        log = engine.log("index")
        for row in (index_row(1), index_row(2), tombstone(2)):
            log.append(encode_entry(row))
        engine.compact("index")
        assert (len(log), log.pending, log.sequence) == (1, 0, 3)
        returned = [log.append(encode_entry(index_row(n))) for n in (4, 5, 6)]
        on_disk = [sequence for sequence, _ in log.iter_texts()]
        assert returned == on_disk[-3:] == [4, 5, 6]


def fail_next_commit(log):
    """Make ``log``'s next ``append_many`` fail as a full disk would."""
    real = log.append_many

    def append_many(records):
        log.append_many = real
        raise OSError(errno.ENOSPC, "No space left on device")

    log.append_many = append_many


class TestAppendMany:
    """Satellite: the group-commit primitive on the segmented log."""

    def test_segmented_append_many_matches_single_appends(self, tmp_path):
        records = [{"n": i, "pad": "x" * 40} for i in range(12)]
        one = SegmentedLog(tmp_path / "one", segment_bytes=256)
        for record in records:
            one.append(encode_entry(record))
        many = SegmentedLog(tmp_path / "many", segment_bytes=256)
        assert many.append_many(framed(records)) == (1, 12)
        # Identical layout: same segment file names, same bytes in each.
        one_segments = sorted(p.name for p in (tmp_path / "one").glob("*.seg"))
        many_segments = sorted(p.name for p in (tmp_path / "many").glob("*.seg"))
        assert many_segments == one_segments
        for name in one_segments:
            assert ((tmp_path / "many" / name).read_bytes()
                    == (tmp_path / "one" / name).read_bytes())

    def test_segment_roll_happens_mid_batch(self, tmp_path):
        log = SegmentedLog(tmp_path / "rolled", segment_bytes=256)
        log.append_many(framed([{"n": i, "pad": "x" * 40} for i in range(12)]))
        segments = list((tmp_path / "rolled").glob("*.seg"))
        assert len(segments) > 1  # one group commit still rolled over
        reloaded = SegmentedLog(tmp_path / "rolled", segment_bytes=256)
        assert [r["n"] for r in reloaded.iter_records()] == list(range(12))

    def test_torn_tail_after_a_group_commit_is_repaired(self, tmp_path):
        log = SegmentedLog(tmp_path / "torn", segment_bytes=4096)
        log.append_many(framed([{"n": i} for i in range(6)]))
        tail = max((tmp_path / "torn").glob("*.seg"))
        raw = tail.read_bytes()
        tail.write_bytes(raw[:-5])  # crash mid-write of the final frame

        reloaded = SegmentedLog(tmp_path / "torn", segment_bytes=4096)
        assert reloaded.last_replay.truncated_bytes > 0
        assert [r["n"] for r in reloaded.iter_records()] == list(range(5))
        # The repaired log keeps accepting group commits.
        assert reloaded.append_many(framed([{"n": 5}, {"n": 6}], 6)) is not None
        assert len(reloaded) == 7


def segment_bytes(directory) -> list[tuple[str, bytes]]:
    return [(path.name, path.read_bytes()) for path in sorted(directory.glob("*.seg"))]


class TestOneWritePerSegment:
    """A group commit writes frames built at append, one write per segment."""

    def test_a_commit_across_roll_overs_matches_single_appends(self, tmp_path, monkeypatch):
        records = [{"n": i, "pad": "x" * 40} for i in range(12)]
        one = SegmentedLog(tmp_path / "one", segment_bytes=256)
        for record in records:
            one.append(encode_entry(record))
        log = SegmentedLog(tmp_path / "many", segment_bytes=256)
        for record in records[:3]:  # the commit starts in a part-filled segment
            log.append(encode_entry(record))
        log = SegmentedLog(tmp_path / "many", segment_bytes=256, batch_size=9)
        for record in records[3:-1]:
            log.append(encode_entry(record))
        real_open, opened = Path.open, []

        def open_(path, mode="r", *args, **kwargs):
            if mode == "ab":
                opened.append(path.name)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_)
        log.append(encode_entry(records[-1]))  # the boundary: one group commit
        monkeypatch.undo()
        assert log.pending == 0 and len(log) == 12
        assert segment_bytes(tmp_path / "many") == segment_bytes(tmp_path / "one")
        names = [name for name, _ in segment_bytes(tmp_path / "one")]
        assert len(opened) > 2 and opened == names[-len(opened):]  # each once, in order

    def test_frames_that_do_not_follow_the_high_water_write_nothing(self, tmp_path):
        fresh = SegmentedLog(tmp_path / "fresh")
        with pytest.raises(StorageError):
            fresh.append_many([encode_frame(2, "{}"), encode_frame(3, "{}")])
        assert (segment_bytes(tmp_path / "fresh"), fresh.sequence) == ([], 0)


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


def read_rows(base, name):
    return list(SegmentedLog(base / name).iter_records())


class TestGroupCommitDurability:
    @pytest.mark.parametrize("store", ["segmented"])
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
            assert (read_rows(tmp_path / "on", name)
                    == read_rows(tmp_path / "off", name))

    @pytest.mark.parametrize("store", ["segmented"])
    def test_snapshot_without_flush_would_miss_rows(self, tmp_path, store):
        controller = build_world(tmp_path, store, batch="on", batch_size=256)
        in_memory = len(controller.audit_log)
        durable_before = len(read_rows(tmp_path, "audit"))
        assert durable_before < in_memory  # buffered: the barrier matters
        controller.flush_storage()
        assert len(read_rows(tmp_path, "audit")) == in_memory

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
            data_dir=tmp_path, batch="on", batch_size=4))
        restarted.audit_log.verify_integrity()
        assert len(restarted.audit_log) == len(controller.audit_log)
        assert restarted.audit_log.head_digest == controller.audit_log.head_digest

    def test_a_group_commit_that_fails_at_its_roll_over_is_retried_whole(
            self, tmp_path, monkeypatch):
        """A batch cut short at a segment roll used to leave its first
        frames on disk while the writer kept all of it pending: the retry
        wrote them twice and the next start refused the chain as tampered."""
        from repro.runtime.backends import JsonlAuditSink

        def audit_log(batch_size=1):
            return SegmentedLog(tmp_path / "audit", segment_bytes=700,
                                batch_size=batch_size)

        sink = JsonlAuditSink(audit_log(batch_size=8))
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
        # The eighth append raised, so it did not happen: the chain and the
        # disk both hold the seven before it.
        assert len(restarted) == len(sink) == 7
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
        link.fail_next(MAX_ATTEMPTS)
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
        adopted = platform.controller_of("node-1").index.local.entries()
        assert [row["event_id"] for row in adopted] == remote

    def test_a_frame_the_owner_rejected_is_not_retried(self, wire):
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
        assert json.loads(wire[-1])["error"] == "DuplicateObjectError"
        assert (link.stats.calls, link.stats.delivered) == (calls + 1, delivered + 1)
        platform.flush_batches()
        assert link.stats.calls == calls + 1

    def test_flush_batches_drains_durable_buffers(self, tmp_path):
        deployment = self.batched_federation(data_dir=tmp_path)
        platform = deployment.platform
        for i in range(4):
            deployment.publish_blood_test(subject_id=f"pat-{i}")
        platform.flush_batches()
        for node in platform.nodes():
            rows = read_rows(tmp_path / node.node_id, "audit")
            assert len(rows) == len(node.controller.audit_log)


class TestBatchKernelKnob:
    def test_on_produces_a_policy_off_produces_none(self):
        on = DataController(
            seed="k", runtime=RuntimeConfig(batch="on", batch_size=8))
        assert on.batch_size == 8
        off = DataController(seed="k", runtime=RuntimeConfig())
        assert off.batch_size is None

    def test_unknown_batch_name_suggests_the_nearest(self):
        with pytest.raises(ConfigurationError) as excinfo:
            RuntimeConfig(batch="onn")
        assert "did you mean 'on'?" in str(excinfo.value)

    def test_batch_size_validated_at_construction(self):
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            RuntimeConfig(batch="on", batch_size=0)
