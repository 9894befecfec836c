"""A durable audit trail is its stored bytes.

An audit link is rendered once, as it is appended: the canonical JSON text
the chain hashes is the body the segment stores, beside its digest
(``<crc> <seq> <digest> <body>``).  A durable trail keeps digests, not
records.  Held to account here:

* tampering with the stored trail *after* it was loaded — a body byte or a
  digest byte, re-framed under a valid checksum or not — fails
  ``verify_integrity``, which re-walks the stored bytes;
* one JSON render per durable append (``batch`` off and on), none and no
  ``AuditRecord`` per replayed link, no JSON parse while a log opens;
* the durable sink reads exactly like the in-memory reference
  (``records``, ``logical``, ``record_at``, ``len``, ``head_digest``) over
  drawn appends and fan-out runs, across a reopen, with ``batch`` off and
  on, and a stored body decodes to the record that rendered it.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.log import AuditAction, AuditLog, AuditOutcome, AuditRecord
from repro.core.messages import NotificationMessage
from repro.crypto.hashing import canonical_json
from repro.exceptions import TamperedLogError
from repro.ids import IdFactory
from repro.runtime.backends import JsonlAuditSink
from repro.runtime.batching import BatchWriter
from repro.storage.segment import SegmentedLog, decode_frame, encode_frame

optional_text = st.none() | st.text(max_size=10)
records = st.builds(
    AuditRecord,
    record_id=st.text(min_size=1, max_size=10),
    timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    actor=st.text(max_size=10),
    action=st.sampled_from(AuditAction),
    outcome=st.sampled_from(AuditOutcome),
    event_id=optional_text, event_type=optional_text,
    subject_ref=optional_text, purpose=optional_text,
    detail=st.text(max_size=16),  # non-ASCII included
    recipients=st.lists(st.text(min_size=1, max_size=6), max_size=4).map(tuple),
)


def notification(event: int) -> NotificationMessage:
    return NotificationMessage(
        event_id=f"evt-{event}", event_type="BloodTest", producer_id="Hospital",
        occurred_at=0.0, summary="done", subject_ref=f"pat-{event}")


def durable(directory, batch_size: int | None = None) -> JsonlAuditSink:
    log = SegmentedLog(directory)
    return JsonlAuditSink(log if batch_size is None else BatchWriter(log, batch_size))


def filled(directory, batch_size: int | None = None) -> JsonlAuditSink:
    """A trail of three plain links and one fan-out link, flushed."""
    sink, ids = durable(directory, batch_size), IdFactory(seed="stored")
    for n in range(3):
        sink.append(AuditRecord(ids.next("aud"), float(n), "Hospital",
                                AuditAction.PUBLISH, AuditOutcome.PERMIT,
                                detail=f"n={n}"))
    for recipient in ("Dr-0", "Dr-1"):
        sink.delivered(recipient, notification(1), 3.0, ids)
    sink.flush()
    return sink


def rewrite(directory, index: int, edit, reframe: bool = True) -> None:
    """Apply ``edit`` to the entry text of frame ``index`` of the one segment;
    ``reframe`` recomputes its checksum, otherwise the frame's bytes are
    edited in place."""
    (segment,) = directory.glob("*.seg")
    frames = segment.read_bytes().splitlines(keepends=True)
    sequence, entry = decode_frame(frames[index].rstrip(b"\n"))
    if reframe:
        frames[index] = encode_frame(sequence, edit(entry))
    else:
        head = frames[index][:-len(entry) - 1]
        frames[index] = head + edit(entry).encode() + b"\n"
    segment.write_bytes(b"".join(frames))


def flip_body(entry: str) -> str:
    digest, body = entry.split(" ", 1)
    return f"{digest} {body.replace('n=1', 'n=7')}"


def flip_digest(entry: str) -> str:
    return ("0" if entry[0] != "0" else "1") + entry[1:]


# -- tampering after the load ---------------------------------------------------

class TestTamperAfterLoad:
    @pytest.mark.parametrize("edit", [flip_body, flip_digest],
                             ids=["body", "digest"])
    @pytest.mark.parametrize("reframe", [True, False],
                             ids=["valid-crc", "broken-crc"])
    def test_a_byte_changed_under_a_loaded_trail_fails_verify(
            self, tmp_path, edit, reframe):
        filled(tmp_path / "audit")
        loaded = durable(tmp_path / "audit")
        loaded.verify_integrity()
        rewrite(tmp_path / "audit", 1, edit, reframe)
        with pytest.raises(TamperedLogError):
            loaded.verify_integrity()

    @pytest.mark.parametrize("edit", [flip_body, flip_digest],
                             ids=["body", "digest"])
    def test_the_live_trail_is_checked_on_disk_too(self, tmp_path, edit):
        live = filled(tmp_path / "audit", batch_size=2)
        rewrite(tmp_path / "audit", 1, edit)
        with pytest.raises(TamperedLogError):
            live.verify_integrity()

    def test_a_dropped_or_appended_link_fails_verify(self, tmp_path):
        live = filled(tmp_path / "audit")
        (segment,) = (tmp_path / "audit").glob("*.seg")
        intact = segment.read_bytes()
        segment.write_bytes(b"".join(intact.splitlines(keepends=True)[:-1]))
        with pytest.raises(TamperedLogError, match="does not end at"):
            live.verify_integrity()
        segment.write_bytes(intact)
        durable(tmp_path / "audit").append(live.record_at(0))
        with pytest.raises(TamperedLogError, match="does not end at"):
            live.verify_integrity()

    @pytest.mark.parametrize("edit", [flip_body, flip_digest],
                             ids=["body", "digest"])
    def test_a_byte_changed_before_the_load_still_fails_the_load(
            self, tmp_path, edit):
        filled(tmp_path / "audit")
        rewrite(tmp_path / "audit", 1, edit)
        with pytest.raises(TamperedLogError):
            durable(tmp_path / "audit")


# -- what a record costs ----------------------------------------------------------

class Counted:
    """Counts calls of ``json.dumps``, ``json.loads`` and ``AuditRecord``
    construction while active."""

    def __init__(self, monkeypatch):
        self.dumps = self.loads = self.records = 0
        dumps, loads, init = json.dumps, json.loads, AuditRecord.__init__

        def counted_dumps(*args, **kwargs):
            self.dumps += 1
            return dumps(*args, **kwargs)

        def counted_loads(*args, **kwargs):
            self.loads += 1
            return loads(*args, **kwargs)

        def counted_init(record, *args, **kwargs):
            self.records += 1
            init(record, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted_dumps)
        monkeypatch.setattr(json, "loads", counted_loads)
        monkeypatch.setattr(AuditRecord, "__init__", counted_init)


class TestRenderCounts:
    @pytest.mark.parametrize("batch_size", [None, 4], ids=["batch-off", "batch-on"])
    def test_one_render_per_durable_append(self, tmp_path, monkeypatch, batch_size):
        sink, ids = durable(tmp_path / "audit", batch_size), IdFactory(seed="count")
        appended = [AuditRecord(ids.next("aud"), float(n), "Hospital",
                                AuditAction.DETAIL_REQUEST, AuditOutcome.DENY,
                                event_id=f"evt-{n}", detail="no policy")
                    for n in range(10)]
        counts = Counted(monkeypatch)
        for record in appended:
            sink.append(record)
        for recipient in ("Dr-0", "Dr-1", "Dr-2"):  # one fan-out link
            sink.delivered(recipient, notification(1), 11.0, ids)
        sink.flush()
        assert len(sink) == 11
        assert counts.dumps == 11
        assert counts.loads == 0
        assert sink._records == []  # digests, not records

    @pytest.mark.parametrize("batch_size", [None, 4], ids=["batch-off", "batch-on"])
    def test_replay_renders_and_builds_nothing(self, tmp_path, monkeypatch, batch_size):
        live = filled(tmp_path / "audit", batch_size)
        counts = Counted(monkeypatch)
        log = SegmentedLog(tmp_path / "audit")
        assert (counts.dumps, counts.loads, counts.records) == (0, 0, 0)
        replayed = JsonlAuditSink(log if batch_size is None else BatchWriter(log, batch_size))
        replayed.verify_integrity()
        assert (len(replayed), replayed.head_digest) == (len(live), live.head_digest)
        assert (counts.dumps, counts.loads, counts.records) == (0, 0, 0)

    def test_the_in_memory_reference_renders_once_per_append_too(self, monkeypatch):
        log, ids = AuditLog(), IdFactory(seed="count")
        counts = Counted(monkeypatch)
        for n in range(5):
            log.append(AuditRecord(ids.next("aud"), float(n), "Hospital",
                                   AuditAction.PUBLISH, AuditOutcome.PERMIT))
        assert counts.dumps == 5


# -- the durable sink reads like the reference -------------------------------------

steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), records),
        st.tuples(st.just("deliver"), st.sampled_from(["Dr-0", "Dr-1", "Dr-Ü"]),
                  st.integers(0, 2), st.sampled_from([1.0, 2.5])),
        st.tuples(st.just("reopen")),
    ),
    max_size=25,
)


def same_reads(durable_log: JsonlAuditSink, reference: AuditLog) -> None:
    assert durable_log.records() == reference.records()
    assert list(durable_log.logical()) == list(reference.logical())
    assert len(durable_log) == len(reference)
    assert durable_log.head_digest == reference.head_digest
    for index in range(-len(reference), len(reference)):
        assert durable_log.record_at(index) == reference.record_at(index)


class TestDurableEqualsReference:
    @given(script=steps, batch_size=st.none() | st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_reads_agree_across_reopens(self, tmp_path_factory, script, batch_size):
        directory = tmp_path_factory.mktemp("audit")
        sink, reference = durable(directory, batch_size), AuditLog()
        ids_durable, ids_reference = IdFactory(seed="eq"), IdFactory(seed="eq")
        for step in script:
            if step[0] == "append":
                assert sink.append(step[1]) == reference.append(step[1])
            elif step[0] == "deliver":
                _, recipient, event, timestamp = step
                sink.delivered(recipient, notification(event), timestamp, ids_durable)
                reference.delivered(recipient, notification(event), timestamp,
                                    ids_reference)
            else:  # a restart: the barrier, then the trail from its bytes alone
                sink.flush()
                reference.flush()
                sink = durable(directory, batch_size)
        same_reads(sink, reference)
        sink.verify_integrity()
        reference.verify_integrity()
        sink.flush()
        same_reads(durable(directory, batch_size), reference)

    @given(record=records)
    @settings(max_examples=80, deadline=None)
    def test_a_stored_body_decodes_to_its_record(self, record):
        body = canonical_json(record.to_payload())
        assert body.isascii() and body.startswith("{")  # never read as a digest
        decoded = AuditRecord.from_payload(json.loads(body))
        assert canonical_json(decoded.to_payload()) == body
        assert decoded == record == AuditRecord.from_json(body)
