"""Tests for the segmented storage engine.

Segment framing and crash repair, sparse-index seeks, point-in-time
truncation, compaction (and the audit-immutability rule), snapshots with
corruption detection and restore-to-sequence, the engine as every durable
node's store, privacy-guarded storage telemetry, and the ``repro store``
CLI.
"""

import io
import json
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    ConfigurationError,
    CorruptRecordError,
    RecoveryError,
    SnapshotError,
    StorageError,
)
from repro.storage import (
    SegmentedLog,
    SegmentedStore,
    SnapshotManager,
    StorageEngine,
    compact,
)
from repro.storage.segment import decode_entry, decode_frame, encode_entry, encode_frame


def small_log(directory, n=40, segment_bytes=512):
    log = SegmentedLog(directory, segment_bytes=segment_bytes, sparse_every=4)
    for i in range(n):
        log.append({"object_id": f"ev-{i % 5}", "status": "submitted", "n": i})
    return log


class TestSegmentFraming:
    def test_frame_round_trips(self):
        frame = encode_frame(7, encode_entry({"b": 2, "a": 1}))
        assert frame.endswith(b' 7 {"a":1,"b":2}\n')  # canonical: sorted, compact
        sequence, entry = decode_frame(frame.rstrip(b"\n"))
        assert sequence == 7
        assert decode_entry(entry) == {"a": 1, "b": 2}

    def test_bad_checksum_rejected(self):
        frame = encode_frame(7, encode_entry({"a": 1})).rstrip(b"\n")
        tampered = (b"0" * 8) + frame[8:]
        with pytest.raises(ValueError):
            decode_frame(tampered)


class TestSegmentedLog:
    def test_append_iterate_round_trip(self, tmp_path):
        log = small_log(tmp_path / "log")
        assert len(log) == 40
        assert log.sequence == 40
        entries = list(log.iter_entries())
        assert [sequence for sequence, _ in entries] == list(range(1, 41))
        assert entries[0][1]["n"] == 0

    def test_size_bound_rolls_segments(self, tmp_path):
        log = small_log(tmp_path / "log")
        assert len(log.segments()) > 1
        assert sum(info.records for info in log.segments()) == 40

    def test_reopen_replays_identically(self, tmp_path):
        log = small_log(tmp_path / "log")
        reopened = SegmentedLog(tmp_path / "log", segment_bytes=512,
                                sparse_every=4)
        assert reopened.read_all() == log.read_all()
        assert reopened.sequence == 40
        assert reopened.last_replay.truncated_bytes == 0

    def test_sparse_seek_skips_earlier_records(self, tmp_path):
        log = small_log(tmp_path / "log")
        assert [s for s, _ in log.iter_entries(start=37)] == [37, 38, 39, 40]
        # A start that is not a sparse-index point still lands exactly.
        assert next(log.iter_entries(start=6))[0] == 6

    def test_torn_tail_is_truncated_on_replay(self, tmp_path):
        small_log(tmp_path / "log")
        last = sorted((tmp_path / "log").glob("*.seg"))[-1]
        with last.open("ab") as handle:
            handle.write(b'00000000 41 {"torn": tr')  # no newline: uncommitted
        reopened = SegmentedLog(tmp_path / "log", segment_bytes=512,
                                sparse_every=4)
        assert len(reopened) == 40
        assert reopened.last_replay.truncated_bytes > 0
        # The repaired log accepts new appends at the next sequence.
        assert reopened.append({"after": "repair"}) == 41

    def test_mid_log_damage_is_corruption_not_torn_tail(self, tmp_path):
        small_log(tmp_path / "log")
        first = sorted((tmp_path / "log").glob("*.seg"))[0]
        data = bytearray(first.read_bytes())
        data[12] ^= 0xFF
        first.write_bytes(bytes(data))
        with pytest.raises(CorruptRecordError):
            SegmentedLog(tmp_path / "log", segment_bytes=512, sparse_every=4)

    @pytest.mark.parametrize("read", [
        lambda log: list(log.iter_records()),
        lambda log: log.segments(),
        lambda log: log.truncate_to(5),
    ], ids=["iter_records", "segments", "truncate_to"])
    def test_damage_after_open_is_corruption_whoever_reads_it(self, tmp_path, read):
        log = small_log(tmp_path / "log")
        first = sorted((tmp_path / "log").glob("*.seg"))[0]
        data = bytearray(first.read_bytes())
        data[12] ^= 0xFF
        first.write_bytes(bytes(data))
        with pytest.raises(CorruptRecordError, match=first.name):
            read(log)

    def test_truncate_to_removes_later_records(self, tmp_path):
        log = small_log(tmp_path / "log")
        removed = log.truncate_to(25)
        assert removed == 15
        assert log.sequence == 25
        assert [s for s, _ in log.iter_entries()][-1] == 25
        # And the truncation is durable.
        reopened = SegmentedLog(tmp_path / "log", segment_bytes=512,
                                sparse_every=4)
        assert reopened.sequence == 25

    def test_truncate_above_high_water_is_a_no_op(self, tmp_path):
        log = small_log(tmp_path / "log")
        assert log.truncate_to(99) == 0
        assert log.sequence == 40


def reference_segments(entries, segment_bytes):
    """The list-based reference of the four readers: the segments a list
    of ``(sequence, record)`` entries lands in, as lists of entries."""
    segments, size = [], None
    for entry in entries:
        if size is None or size >= segment_bytes:
            segments.append([])
            size = 0
        segments[-1].append(entry)
        size += len(frame_of(entry))
    return segments


def frame_of(entry):
    """The frame of one ``(sequence, record)`` entry."""
    sequence, record = entry
    return encode_frame(sequence, encode_entry(record))


class TestReadersAgree:
    """``iter_entries``, ``segments`` and ``truncate_to`` against one
    reference, over one drawn log (each had only its own examples)."""

    @staticmethod
    def check(log, segments, high_water, start=1):
        entries = [entry for segment in segments for entry in segment]
        assert (len(log), log.sequence) == (len(entries), high_water)
        assert list(log.iter_entries(start)) == [
            entry for entry in entries if entry[0] >= start]
        assert [(info.first_sequence, info.records, info.size_bytes)
                for info in log.segments()] == [
            (segment[0][0], len(segment),
             sum(len(frame_of(entry)) for entry in segment))
            for segment in segments if segment]

    @given(
        batches=st.lists(st.lists(st.integers(0, 999), max_size=6), max_size=8),
        compacted_away=st.none() | st.sets(st.integers(1, 48)),
        segment_bytes=st.integers(1, 300),
        sparse_every=st.integers(1, 5),
        start=st.integers(0, 50),
        target=st.integers(0, 50),
    )
    @settings(max_examples=120, deadline=None)
    def test_against_the_list_reference(self, batches, compacted_away,
                                        segment_bytes, sparse_every, start,
                                        target):
        with tempfile.TemporaryDirectory() as directory:
            log = SegmentedLog(directory, segment_bytes=segment_bytes,
                               sparse_every=sparse_every)
            entries = []
            for batch in batches:
                records = [{"n": n} for n in batch]
                if len(records) == 1:
                    log.append(records[0])
                else:
                    log.append_many(records)
                entries += enumerate(records, len(entries) + 1)
            high_water = len(entries)
            if compacted_away is not None:
                compact(log, keep=lambda sequence, _:
                        sequence not in compacted_away)
                entries = [e for e in entries if e[0] not in compacted_away]
            segments = reference_segments(entries, segment_bytes)
            self.check(log, segments, high_water, start)

            dropped = log.truncate_to(target)
            assert dropped == (target < high_water) * len(
                [e for e in entries if e[0] > target])
            segments = [[e for e in segment if e[0] <= target]
                        for segment in segments]
            self.check(log, segments, min(target, high_water), start)
            self.check(SegmentedLog(directory, segment_bytes=segment_bytes,
                                    sparse_every=sparse_every),
                       segments, min(target, high_water))


class TestCompaction:
    def test_superseded_and_withdrawn_rows_reclaimed(self, tmp_path):
        log = small_log(tmp_path / "log")  # 40 rows over 5 object ids
        report = compact(log)
        assert report.records_after == 5
        assert report.records_dropped == 35
        assert report.bytes_reclaimed > 0
        # Survivors keep their original sequence numbers (the latest rows).
        assert [s for s, _ in log.iter_entries()] == [36, 37, 38, 39, 40]

    def test_tombstone_reclaims_object_and_itself(self, tmp_path):
        log = SegmentedLog(tmp_path / "log", segment_bytes=512, sparse_every=4)
        log.append({"object_id": "keep", "status": "submitted"})
        log.append({"object_id": "gone", "status": "submitted"})
        log.append({"tombstone": True, "object_id": "gone"})
        compact(log)
        records = log.read_all()
        assert records == [{"object_id": "keep", "status": "submitted"}]

    def test_sequence_counter_never_rewinds(self, tmp_path):
        log = small_log(tmp_path / "log")
        compact(log)
        assert log.append({"object_id": "new", "status": "submitted"}) == 41

    def test_rows_without_object_id_always_survive(self, tmp_path):
        log = SegmentedLog(tmp_path / "log")
        log.append({"marker": "not an index row"})
        log.append({"object_id": "a", "status": "withdrawn"})
        report = compact(log)
        assert report.records_after == 1
        assert log.read_all() == [{"marker": "not an index row"}]

    def test_audit_log_is_immutable(self, tmp_path):
        engine = StorageEngine(tmp_path)
        engine.log("audit").append({"record_id": "aud-1"})
        with pytest.raises(StorageError, match="immutable"):
            engine.compact("audit")


class TestSnapshots:
    def make_engine(self, tmp_path):
        engine = StorageEngine(tmp_path / "data", segment_bytes=512)
        log = engine.log("index")
        for i in range(30):
            log.append({"object_id": f"ev-{i}", "status": "submitted"})
        return engine

    def test_create_verify_list(self, tmp_path):
        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        assert info.snapshot_id == "snap-0001"
        assert info.sequences == {"index": 30}
        manager = SnapshotManager(tmp_path / "snaps")
        assert manager.verify(info.snapshot_id) == []
        assert [s.snapshot_id for s in manager.list()] == ["snap-0001"]

    def test_corrupted_live_segment_detected(self, tmp_path):
        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        manager = SnapshotManager(tmp_path / "snaps")
        segment = sorted((tmp_path / "data" / "index").glob("*.seg"))[0]
        data = bytearray(segment.read_bytes())
        data[3] ^= 0xFF
        segment.write_bytes(bytes(data))
        problems = manager.verify_against(info.snapshot_id, tmp_path / "data")
        assert problems and "sha256 mismatch" in problems[0]

    def test_appends_after_snapshot_are_not_corruption(self, tmp_path):
        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        engine.log("index").append({"object_id": "later", "status": "submitted"})
        manager = SnapshotManager(tmp_path / "snaps")
        assert manager.verify_against(info.snapshot_id, tmp_path / "data") == []

    def test_tampered_payload_fails_verify(self, tmp_path):
        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        manifest_path = info.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        first = sorted(manifest["files"])[0]
        manifest["files"][first]["sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        manager = SnapshotManager(tmp_path / "snaps")
        assert manager.verify(info.snapshot_id)

    def test_restore_into_nonempty_target_refused(self, tmp_path):
        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        target = tmp_path / "restore"
        target.mkdir()
        (target / "leftover.txt").write_text("x")
        manager = SnapshotManager(tmp_path / "snaps")
        with pytest.raises(SnapshotError, match="not empty"):
            manager.restore(info.snapshot_id, target)

    def test_point_in_time_restore(self, tmp_path):
        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        manager = SnapshotManager(tmp_path / "snaps")
        report = manager.restore(info.snapshot_id, tmp_path / "restore",
                                 to_sequence=12)
        assert report.sequences == {"index": 12}
        assert report.truncated_records == 18
        restored = SegmentedLog(tmp_path / "restore" / "index")
        assert len(restored) == 12
        assert restored.sequence == 12

    def test_restore_beyond_committed_sequence_fails(self, tmp_path):
        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        manager = SnapshotManager(tmp_path / "snaps")
        with pytest.raises(RecoveryError, match="never committed"):
            manager.restore(info.snapshot_id, tmp_path / "restore",
                            to_sequence=99)

    def test_full_restore_is_byte_identical(self, tmp_path):
        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        manager = SnapshotManager(tmp_path / "snaps")
        manager.restore(info.snapshot_id, tmp_path / "restore")
        for segment in sorted((tmp_path / "data" / "index").glob("*.seg")):
            twin = tmp_path / "restore" / "index" / segment.name
            assert twin.read_bytes() == segment.read_bytes()


    # -- the file manifest snapshots, archives and incident bundles share --

    DAMAGE = {
        "grown": lambda path: path.write_bytes(path.read_bytes() + b"more"),
        "truncated": lambda path: path.write_bytes(path.read_bytes()[:-1]),
        "flipped": lambda path: path.write_bytes(
            bytes([path.read_bytes()[0] ^ 0xFF]) + path.read_bytes()[1:]),
        "deleted": lambda path: path.unlink(),
    }

    @pytest.mark.parametrize("damage, live, sealed", [
        ("grown", None, "sha256 mismatch"),   # drift on a live log only
        ("truncated", "truncated", "truncated"),
        ("flipped", "sha256 mismatch", "sha256 mismatch"),
        ("deleted", "missing", "missing"),
    ])
    def test_verify_against_and_problems_agree_on_damage(
            self, tmp_path, damage, live, sealed):
        from repro.storage.snapshot import describe, problems

        engine = self.make_engine(tmp_path)
        info = engine.snapshot(tmp_path / "snaps")
        manager = SnapshotManager(tmp_path / "snaps")
        files = describe(tmp_path / "data")
        assert files == json.loads(
            (info.directory / "manifest.json").read_text())["files"]
        first = sorted(files)[0]
        self.DAMAGE[damage](tmp_path / "data" / first)
        as_live = manager.verify_against(info.snapshot_id, tmp_path / "data")
        assert as_live == problems(tmp_path / "data", files, grown_ok=True)
        if live is None:
            assert as_live == []
        else:
            [only] = as_live
            assert only.startswith(f"{first}: {live}")
        [as_sealed] = problems(tmp_path / "data", files)
        assert as_sealed.startswith(f"{first}: {sealed}")

    def test_incident_bundle_manifest_is_the_same_manifest(self, tmp_path):
        from repro.obs.incident import write_bundle
        from repro.storage.snapshot import describe, problems

        root = write_bundle(tmp_path, {
            "incident_id": "incident-0001", "events": [{"seq": 1}],
            "series": [],
        })
        files = json.loads((root / "manifest.json").read_text())["files"]
        assert files == describe(
            root, ("incident.json", "events.jsonl", "series.jsonl"))
        assert files["series.jsonl"]["size"] == 0
        assert problems(root, files) == []
        (root / "events.jsonl").write_text('{"seq":2}\n')
        assert problems(root, files) == ["events.jsonl: sha256 mismatch"]


class TestStoreKind:
    def test_store_without_data_dir_fails_fast_on_first_log(self):
        with pytest.raises(TypeError, match="data_dir"):
            SegmentedStore()

    @pytest.mark.parametrize("name", ["audit", "index"])
    def test_a_flat_file_data_dir_is_refused_not_emptied(self, name,
                                                          tmp_path):
        from repro import DataController
        from repro.audit.log import AuditAction, AuditOutcome
        from repro.cli import main
        from repro.runtime.backends import JsonlAuditSink
        from repro.runtime.kernel import RuntimeConfig
        from repro.storage.jsonl import JsonlFile

        live = DataController(runtime=RuntimeConfig(data_dir=tmp_path / "new"))
        for n in range(3):
            live.record_audit("Hospital", AuditAction.PUBLISH,
                              AuditOutcome.PERMIT, detail=f"n={n}")
        # The flat-file layout: the same rows, one JSON line each.
        old = tmp_path / "old"
        JsonlFile(old / "audit.jsonl").append_many(
            list(live.store.log("audit").iter_records()))
        if name == "index":
            (old / "audit.jsonl").rename(old / "index.jsonl")
        with pytest.raises(ConfigurationError,
                           match=rf"flat-file logs \({name}\.jsonl\)"):
            DataController(runtime=RuntimeConfig(data_dir=old))
        with pytest.raises(SystemExit, match="flat-file logs"):
            main(["store", "stats", "--data", str(old)], out=io.StringIO())
        assert sorted(path.name for path in old.iterdir()) == [f"{name}.jsonl"]
        if name == "audit":  # the refusal's how-to reads the trail back
            trail = JsonlAuditSink(JsonlFile(old / "audit.jsonl"))
            trail.verify_integrity()
            assert trail.head_digest == live.audit_log.head_digest
            assert len(trail) == len(live.audit_log) == 3

    def test_the_engine_is_its_own_provider(self, tmp_path):
        assert SegmentedStore is StorageEngine
        store = SegmentedStore(tmp_path)
        assert store.log("index") is store.log("index")  # what the wall
        # driver's shims lean on: the log it wraps is the log the backend got
        assert store.log("index") is not store.log("audit")

    def test_appends_alternated_between_two_handles_count_as_one_log(
            self, tmp_path):
        store = SegmentedStore(tmp_path)
        first, second = store.log("index"), store.log("index")
        assert [handle.append({"n": n}) for n, handle in
                enumerate((first, second, first, second))] == [1, 2, 3, 4]
        assert len(first) == len(second) == 4
        assert [row["n"] for row in
                SegmentedStore(tmp_path).log("index").iter_records()] == [
            0, 1, 2, 3]

    def test_controller_exposes_its_store(self, tmp_path):
        from repro import DataController
        from repro.runtime.kernel import RuntimeConfig

        controller = DataController(runtime=RuntimeConfig(data_dir=tmp_path))
        assert isinstance(controller.store, SegmentedStore)
        assert (tmp_path / "index").is_dir()
        assert (tmp_path / "audit").is_dir()
        assert controller.store.log("audit") is controller.store.log("audit")
        assert DataController().store is None

    def test_unknown_store_name_suggests(self, tmp_path):
        from repro import DataController
        from repro.runtime.kernel import RuntimeConfig

        # The one value ``store`` accepts is the one the refusal names.
        with pytest.raises(ConfigurationError, match="segmented"):
            DataController(runtime=RuntimeConfig(
                store="segmnted", data_dir=tmp_path))


class TestStorageTelemetry:
    def reject_telemetry(self):
        from repro.clock import Clock
        from repro.obs.telemetry import InMemoryTelemetry

        return InMemoryTelemetry(clock=Clock(), guard_mode="reject",
                                 secret="storage-test")

    def test_engine_metrics_pass_the_reject_guard(self, tmp_path):
        telemetry = self.reject_telemetry()
        engine = StorageEngine(tmp_path, segment_bytes=512,
                               telemetry=telemetry)
        log = engine.log("index")
        for i in range(20):
            log.append({"object_id": f"ev-{i % 3}", "status": "submitted"})
        engine.compact("index")
        StorageEngine(tmp_path, segment_bytes=512,
                      telemetry=telemetry).log("index")
        export = "\n".join(telemetry.metrics_export())
        assert "storage.segments_total" in export
        assert "storage.compaction.reclaimed" in export
        # A wall-clock replay time in the simulated-clock registry made two
        # identical runs export different bytes; the metric is gone.
        assert "storage.recovery" not in export

    def test_labels_never_carry_identifiers(self, tmp_path):
        telemetry = self.reject_telemetry()
        engine = StorageEngine(tmp_path, telemetry=telemetry)
        log = engine.log("index")
        log.append({"object_id": "ev-secret-1", "subjectRef": "sealed",
                    "status": "submitted"})
        engine.compact("index")
        for line in telemetry.metrics_export():
            entry = json.loads(line)
            if not entry["name"].startswith("storage."):
                continue
            assert set(entry["labels"]) == {"log"}
            assert entry["labels"]["log"] in {"index", "audit"}
            assert "ev-secret" not in line


class TestStoreCli:
    def run_cli(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def seeded_data(self, tmp_path):
        engine = StorageEngine(tmp_path / "data", segment_bytes=512)
        log = engine.log("index")
        for i in range(25):
            log.append({"object_id": f"ev-{i % 4}", "status": "submitted"})
        return tmp_path / "data"

    def test_unknown_action_did_you_mean(self):
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli("store", "snapsot")
        message = str(excinfo.value)
        assert "unknown action" in message
        assert "did you mean 'snapshot'?" in message
        assert "available:" in message

    def test_stats(self, tmp_path):
        data = self.seeded_data(tmp_path)
        code, output = self.run_cli("store", "stats", "--data", str(data))
        assert code == 0
        assert "index" in output and "records=25" in output

    def test_snapshot_verify_restore_roundtrip(self, tmp_path):
        data = self.seeded_data(tmp_path)
        snaps = tmp_path / "snaps"
        code, output = self.run_cli(
            "store", "snapshot", "--data", str(data),
            "--snapshots", str(snaps))
        assert code == 0 and "snap-0001" in output

        code, output = self.run_cli(
            "store", "verify", "--data", str(data), "--snapshots", str(snaps))
        assert code == 0 and "verified" in output

        code, output = self.run_cli(
            "store", "restore", "--snapshots", str(snaps),
            "--target", str(tmp_path / "restored"), "--to-sequence", "10")
        assert code == 0 and "truncated 15 records" in output
        assert SegmentedLog(tmp_path / "restored" / "index").sequence == 10

    def test_verify_reports_corruption_nonzero(self, tmp_path):
        data = self.seeded_data(tmp_path)
        snaps = tmp_path / "snaps"
        self.run_cli("store", "snapshot", "--data", str(data),
                     "--snapshots", str(snaps))
        segment = sorted((data / "index").glob("*.seg"))[0]
        raw = bytearray(segment.read_bytes())
        raw[2] ^= 0xFF
        segment.write_bytes(bytes(raw))
        code, output = self.run_cli(
            "store", "verify", "--data", str(data), "--snapshots", str(snaps))
        assert code == 1
        assert "sha256 mismatch" in output

    def test_compact_reports_and_audit_refuses(self, tmp_path):
        data = self.seeded_data(tmp_path)
        code, output = self.run_cli("store", "compact", "--data", str(data))
        assert code == 0 and "reclaimed" in output
        StorageEngine(data).log("audit").append({"record_id": "aud-1"})
        with pytest.raises(SystemExit, match="immutable"):
            self.run_cli("store", "compact", "--data", str(data),
                         "--log", "audit")

    def test_missing_data_dir_is_an_error(self):
        with pytest.raises(SystemExit, match="--data"):
            self.run_cli("store", "stats")
