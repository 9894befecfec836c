"""Tests for the segmented storage engine.

Segment framing and crash repair, streaming replay, point-in-time
truncation, compaction (and the audit-immutability rule), snapshots with corruption detection and
restore-to-sequence, the engine as every durable node's store,
privacy-guarded storage telemetry, and the ``repro store`` CLI.
"""

import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

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
from repro.storage.segment import decode_entry, decode_frame, encode_frame
from tests.conftest import encode_entry, framed, index_row, tombstone
from tests.faults import DiskFaults


def small_log(directory, n=40, segment_bytes=512):
    log = SegmentedLog(directory, segment_bytes=segment_bytes)
    for i in range(n):
        log.append(encode_entry({"n": i}))
    return log


def index_log(directory, rows, withdrawn=(), segment_bytes=512):
    """An events-index log: ``rows`` entries, then a tombstone for each of
    ``withdrawn`` (the entries a rehome moved away)."""
    log = SegmentedLog(directory, segment_bytes=segment_bytes)
    for n in range(rows):
        log.append(encode_entry(index_row(n)))
    for n in withdrawn:
        log.append(encode_entry(tombstone(n)))
    return log


def entries_of(log):
    """Every ``(sequence, record)`` of ``log``, oldest first."""
    return [(sequence, decode_entry(text)) for sequence, text in log.iter_texts()]


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
        entries = entries_of(log)
        assert [sequence for sequence, _ in entries] == list(range(1, 41))
        assert entries[0][1]["n"] == 0

    def test_size_bound_rolls_segments(self, tmp_path):
        log = small_log(tmp_path / "log")
        assert len(log.segments()) > 1
        assert sum(info.records for info in log.segments()) == 40

    def test_reopen_replays_identically(self, tmp_path):
        log = small_log(tmp_path / "log")
        reopened = SegmentedLog(tmp_path / "log", segment_bytes=512)
        assert list(reopened.iter_records()) == list(log.iter_records())
        assert reopened.sequence == 40
        assert reopened.last_replay.truncated_bytes == 0

    def test_torn_tail_is_truncated_on_replay(self, tmp_path):
        small_log(tmp_path / "log")
        last = sorted((tmp_path / "log").glob("*.seg"))[-1]
        with last.open("ab") as handle:
            handle.write(b'00000000 41 {"torn": tr')  # no newline: uncommitted
        reopened = SegmentedLog(tmp_path / "log", segment_bytes=512)
        assert len(reopened) == 40
        assert reopened.last_replay.truncated_bytes > 0
        # The repaired log accepts new appends at the next sequence.
        assert reopened.append(encode_entry({"after": "repair"})) == 41

    def test_mid_log_damage_is_corruption_not_torn_tail(self, tmp_path):
        small_log(tmp_path / "log")
        first = sorted((tmp_path / "log").glob("*.seg"))[0]
        data = bytearray(first.read_bytes())
        data[12] ^= 0xFF
        first.write_bytes(bytes(data))
        with pytest.raises(CorruptRecordError):
            SegmentedLog(tmp_path / "log", segment_bytes=512)

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
        assert [s for s, _ in log.iter_texts()][-1] == 25
        # And the truncation is durable.
        reopened = SegmentedLog(tmp_path / "log", segment_bytes=512)
        assert reopened.sequence == 25

    def test_truncate_above_high_water_is_a_no_op(self, tmp_path):
        log = small_log(tmp_path / "log")
        assert log.truncate_to(99) == 0
        assert log.sequence == 40

    @pytest.mark.parametrize("crash", [False, True], ids=["once", "for good"])
    def test_a_failed_cut_leaves_the_counters_a_reopen_reads(self, tmp_path, crash,
                                                             monkeypatch):
        """Whichever filesystem call of ``truncate_to(1)`` fails, the live
        log counts what is on disk: its ``len``, ``sequence`` and next
        append's sequence are a cold reopen's."""
        log = small_log(tmp_path / "count")
        with monkeypatch.context() as patch:
            counted = DiskFaults(patch, tmp_path / "count")
            log.truncate_to(1)
        assert counted.calls >= 3  # unlinks, the cut, the sidecar
        for fail_at in range(1, counted.calls + 1):
            directory = tmp_path / f"fail-{fail_at}"
            log = small_log(directory)
            with monkeypatch.context() as patch:
                DiskFaults(patch, directory, fail_at=fail_at, crash=crash)
                with pytest.raises(OSError):
                    log.truncate_to(1)
            reopened = SegmentedLog(directory, segment_bytes=512)
            assert (len(log), log.sequence) == (len(reopened), reopened.sequence), fail_at
            assert log.append(encode_entry({"n": "probe"})) == reopened.sequence + 1

    def test_replay_peak_does_not_grow_with_the_log(self, tmp_path):
        """Reopening a log and streaming its records holds one record at a
        time: a replay of 4N index rows peaks (under ``tracemalloc``) less
        than 16 bytes per extra row above a replay of N rows — anything
        kept per record, even one int in a list, costs more than that."""
        def replay_peak(rows):
            directory = tmp_path / f"index-{rows}"
            SegmentedLog(directory).append_many(
                framed(index_row(n) for n in range(rows)))
            tracemalloc.start()
            try:
                log = SegmentedLog(directory)
                assert sum(1 for _ in log.iter_records()) == rows
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = 1_000
        small, large = replay_peak(rows), replay_peak(4 * rows)
        assert large - small < 3 * rows * 16, (small, large)


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
    """``iter_texts``, ``segments`` and ``truncate_to`` against one
    reference, over one drawn log (each had only its own examples)."""

    @staticmethod
    def check(log, segments, high_water):
        entries = [entry for segment in segments for entry in segment]
        assert (len(log), log.sequence) == (len(entries), high_water)
        assert entries_of(log) == entries
        assert [(info.first_sequence, info.records, info.size_bytes)
                for info in log.segments()] == [
            (segment[0][0], len(segment),
             sum(len(frame_of(entry)) for entry in segment))
            for segment in segments if segment]

    @given(
        batches=st.lists(st.lists(st.integers(0, 999), max_size=6), max_size=8),
        compacted_away=st.none() | st.sets(st.integers(1, 48)),
        segment_bytes=st.integers(1, 300),
        target=st.integers(0, 50),
    )
    @settings(max_examples=120, deadline=None)
    def test_against_the_list_reference(self, batches, compacted_away,
                                        segment_bytes, target):
        with tempfile.TemporaryDirectory() as directory:
            log = SegmentedLog(directory, segment_bytes=segment_bytes)
            entries = []
            for batch in batches:
                records = [{"n": n} for n in batch]
                if len(records) == 1:
                    log.append(encode_entry(records[0]))
                else:
                    log.append_many(framed(records, log.sequence + 1))
                entries += enumerate(records, len(entries) + 1)
            high_water = len(entries)
            if compacted_away is not None:
                compact(log, keep=lambda sequence, _:
                        sequence not in compacted_away)
                entries = [e for e in entries if e[0] not in compacted_away]
            segments = reference_segments(entries, segment_bytes)
            self.check(log, segments, high_water)

            dropped = log.truncate_to(target)
            assert dropped == (target < high_water) * len(
                [e for e in entries if e[0] > target])
            segments = [[e for e in segment if e[0] <= target]
                        for segment in segments]
            self.check(log, segments, min(target, high_water))
            self.check(SegmentedLog(directory, segment_bytes=segment_bytes),
                       segments, min(target, high_water))


def open_files_under(*directories):
    """The files under ``directories`` this process holds open."""
    paths = (Path(os.readlink(fd)) for fd in Path("/proc/self/fd").iterdir()
             if fd.is_symlink())
    return [path for path in paths
            if any(Path(directory) in path.parents for directory in directories)]


class TestAppendHandle:
    """A log keeps one append handle on its active segment: opened at the
    first write after an open or a roll-over, closed at the roll-over and
    by ``close()``."""

    def test_a_long_run_opens_each_segment_once(self, tmp_path, monkeypatch):
        real_open, opened = Path.open, []

        def open_(path, mode="r", *args, **kwargs):
            if "a" in mode:
                opened.append(path.name)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_)
        log = SegmentedLog(tmp_path, segment_bytes=64 * 1024, batch_size=1)
        for n in range(2_000):
            log.append(encode_entry(index_row(n)))
        names = [path.name for path in sorted(tmp_path.glob("*.seg"))]
        assert len(log) == 2_000 and len(names) >= 3
        assert opened == names  # one handle per segment, not one per commit

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc")
    def test_closing_a_hundred_durable_nodes_leaves_no_file_open(self, tmp_path):
        from repro.runtime.kernel import RuntimeConfig
        from tests.test_runtime_kernel import build_world, publish

        controllers = []
        for node in range(100):
            controller, hospital, blood, _ = build_world(
                RuntimeConfig(data_dir=tmp_path / f"node-{node}"))
            publish(hospital, blood)
            controllers.append(controller)
        assert len(open_files_under(tmp_path)) >= 100  # the handles are kept
        for controller in controllers:
            controller.store.close()
        assert open_files_under(tmp_path) == []

    def test_close_commits_what_is_pending_and_a_later_append_reopens(self, tmp_path):
        log = SegmentedLog(tmp_path, batch_size=2)
        log.append(encode_entry({"n": 0}))
        log.close()
        assert [row["n"] for row in SegmentedLog(tmp_path).iter_records()] == [0]
        log.append(encode_entry({"n": 1}))
        log.append(encode_entry({"n": 2}))  # the boundary: a commit after close()
        assert [row["n"] for row in SegmentedLog(tmp_path).iter_records()] == [0, 1, 2]

    @pytest.mark.parametrize("cut", ["inside the active segment", "unlinking it"])
    def test_an_append_after_a_cut_that_failed_at_its_sidecar_lands(
            self, cut, tmp_path, monkeypatch):
        log = small_log(tmp_path / "log", n=40, segment_bytes=128)
        *_, active = log.segments()
        target = active.first_sequence if cut == "inside the active segment" else 1
        later = sum(info.first_sequence > target for info in log.segments())
        with monkeypatch.context() as patch:
            # The cut unlinks the later segments and truncates one, then
            # writes the sidecar: fail that write before any byte lands.
            faults = DiskFaults(patch, tmp_path / "log", fail_at=later + 2)
            with pytest.raises(OSError):
                log.truncate_to(target)
            assert faults.calls == later + 2
        probe = log.append(encode_entry({"n": "probe"}))
        reopened = SegmentedLog(tmp_path / "log", segment_bytes=128)
        assert entries_of(reopened)[-1] == (probe, {"n": "probe"})


class TestCompaction:
    def test_superseded_and_withdrawn_rows_reclaimed(self, tmp_path):
        # 40 entries, 35 of them moved to another shard (superseded there).
        log = index_log(tmp_path / "log", 40,
                        withdrawn=[n for n in range(40) if n % 8])
        report = compact(log)
        assert report.records_before == 75
        assert report.records_after == 5
        assert report.bytes_reclaimed > 0
        # Survivors keep their original sequence numbers.
        assert [s for s, _ in log.iter_texts()] == [1, 9, 17, 25, 33]

    def test_tombstone_reclaims_object_and_itself(self, tmp_path):
        log = index_log(tmp_path / "log", 2, withdrawn=[1])
        compact(log)
        assert list(log.iter_records()) == [index_row(0)]

    def test_sequence_counter_never_rewinds(self, tmp_path):
        log = index_log(tmp_path / "log", 20, withdrawn=range(20))
        compact(log)
        assert len(log) == 0
        assert log.append(encode_entry(index_row(20))) == 41

    def test_rows_without_object_id_always_survive(self, tmp_path):
        """Only a tombstone and the row it names go: a row no tombstone
        names stays, whatever it holds."""
        log = index_log(tmp_path / "log", 2, withdrawn=[0])
        log.append(encode_entry({"marker": "not an index row"}))
        report = compact(log)
        assert report.records_after == 2
        assert list(log.iter_records()) == [
            index_row(1), {"marker": "not an index row"}]

    def test_audit_log_is_immutable(self, tmp_path):
        engine = StorageEngine(tmp_path)
        engine.log("audit").append(encode_entry({"record_id": "aud-1"}))
        with pytest.raises(StorageError, match="immutable"):
            engine.compact("audit")


class TestSnapshots:
    def make_engine(self, tmp_path):
        engine = StorageEngine(tmp_path / "data", segment_bytes=512)
        log = engine.log("index")
        for i in range(30):
            log.append(encode_entry(index_row(i)))
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
        engine.log("index").append(encode_entry(index_row(30)))
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
        from repro.cli import main
        from repro.runtime.kernel import RuntimeConfig

        # The flat-file layout: one JSON line per row, the audit log's
        # digest inside it; index rows and tombstones in the index log.
        old = tmp_path / "old"
        old.mkdir()
        rows = ([{"digest": f"{n:064x}", "record_id": f"aud-{n}"} for n in range(3)]
                if name == "audit" else [index_row(0), index_row(1), tombstone(1)])
        flat = old / f"{name}.jsonl"
        flat.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        stored = flat.read_bytes()
        with pytest.raises(ConfigurationError,
                           match=rf"flat-file logs \({name}\.jsonl\), which the storage "
                                 r"engine does not read; use a new data_dir$"):
            DataController(runtime=RuntimeConfig(data_dir=old))
        with pytest.raises(SystemExit, match="flat-file logs"):
            main(["store", "stats", "--data", str(old)], out=io.StringIO())
        assert [path.name for path in old.iterdir()] == [f"{name}.jsonl"]
        assert flat.read_bytes() == stored

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
        assert [handle.append(encode_entry({"n": n})) for n, handle in
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
        index_log(tmp_path / "index", 17, withdrawn=[0, 5, 10])
        assert engine.compact("index").bytes_reclaimed > 0
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
        log.append(encode_entry({**index_row(1), "event_id": "ev-secret-1"}))
        log.append(encode_entry({"tombstone": True, "object_id": "ev-secret-1"}))
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
        # 25 records: 20 entries, 5 of them since moved to another shard.
        index_log(tmp_path / "data" / "index", 20, withdrawn=range(0, 20, 4))
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
        StorageEngine(data).log("audit").append(encode_entry({"record_id": "aud-1"}))
        with pytest.raises(SystemExit, match="immutable"):
            self.run_cli("store", "compact", "--data", str(data),
                         "--log", "audit")

    def test_every_engine_command_closes_its_engine(self, tmp_path, monkeypatch):
        data = self.seeded_data(tmp_path)
        real_close, closed = StorageEngine.close, []

        def close(engine):
            closed.append(engine.directory)
            real_close(engine)

        monkeypatch.setattr(StorageEngine, "close", close)
        for action in ("stats", "compact", "snapshot"):
            code, _ = self.run_cli("store", action, "--data", str(data),
                                   "--snapshots", str(tmp_path / "snaps"))
            assert code == 0
        with pytest.raises(SystemExit, match="immutable"):
            self.run_cli("store", "compact", "--data", str(data), "--log", "audit")
        assert closed == [data] * 4

    def test_missing_data_dir_is_an_error(self):
        with pytest.raises(SystemExit, match="--data"):
            self.run_cli("store", "stats")
