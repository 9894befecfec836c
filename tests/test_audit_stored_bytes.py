"""A durable audit trail is its stored bytes.

An audit link is rendered once, as it is appended: the canonical JSON text
the chain hashes is the body the segment stores, beside its digest
(``<crc> <seq> <digest> <body>``).  A durable trail keeps digests, not
records.  Held to account here:

* tampering with the stored trail *after* it was loaded — a body byte or a
  digest byte, re-framed under a valid checksum or not — fails
  ``verify_integrity``, which re-walks the stored bytes;
* one render and one frame per durable append (``batch`` off and on),
  none in a group commit, none and no ``AuditRecord`` per replayed link,
  no JSON parse while a log opens;
* an audit link (:meth:`AuditRecord.to_json`) and an events-index row
  (:func:`repro.core.index.row_json`) are rendered by their shape, byte
  for byte as ``canonical_json`` of the same payload: drawn over escapes
  (non-ASCII, non-BMP, control characters, ``"`` and ``\\``), float
  spellings (``-0.0``, ``1e-07``, ``1e+22``, integral floats), ``None`` in
  every optional slot, empty and repeated recipients, and the values that
  fall back to the generic encoder (an ``int`` or non-finite timestamp, a
  non-string in a string slot);
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
from repro.core.index import ROW_KEYS, row_json
from repro.core.messages import NotificationMessage
from repro.crypto import hashing
from repro.crypto.hashing import canonical_json
from repro.exceptions import TamperedLogError
from repro.ids import IdFactory
from repro.runtime.backends import JsonlAuditSink
from repro.storage import segment
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
    return JsonlAuditSink(SegmentedLog(directory, batch_size=batch_size or 1))


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
    """Counts renders (:meth:`AuditRecord.to_json`), generic JSON encodes
    (the shared canonical encoder's ``encode``, which ``canonical_json``
    calls, and ``json.dumps``), frames built (``encode_frame``, as the log
    calls it at append),
    ``json.loads`` calls and ``AuditRecord`` construction while active."""

    def __init__(self, monkeypatch):
        self.renders = self.encodes = self.frames = self.loads = self.records = 0
        render, encode, dumps = AuditRecord.to_json, hashing._CANONICAL.encode, json.dumps
        loads, init, frame = json.loads, AuditRecord.__init__, segment.encode_frame

        def counted(name, real):
            def call(*args, **kwargs):
                setattr(self, name, getattr(self, name) + 1)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(AuditRecord, "to_json", counted("renders", render))
        monkeypatch.setattr(hashing._CANONICAL, "encode", counted("encodes", encode))
        monkeypatch.setattr(json, "dumps", counted("encodes", dumps))
        monkeypatch.setattr(json, "loads", counted("loads", loads))
        monkeypatch.setattr(AuditRecord, "__init__", counted("records", init))
        monkeypatch.setattr(segment, "encode_frame", counted("frames", frame))

    def work(self) -> tuple[int, int, int]:
        """``(renders, generic encodes, frames)`` so far."""
        return self.renders, self.encodes, self.frames


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
        assert len(sink) == 11  # chains the fan-out link
        assert counts.work() == (11, 0, 11)  # rendered and framed at append
        sink.flush()  # a commit writes bytes built at append
        assert counts.work() == (11, 0, 11)
        assert counts.loads == 0
        assert sink._records == []  # digests, not records
        assert len(SegmentedLog(tmp_path / "audit")) == 11

    @pytest.mark.parametrize("batch_size", [None, 4], ids=["batch-off", "batch-on"])
    def test_replay_renders_and_builds_nothing(self, tmp_path, monkeypatch, batch_size):
        live = filled(tmp_path / "audit", batch_size)
        counts = Counted(monkeypatch)
        log = SegmentedLog(tmp_path / "audit", batch_size=batch_size or 1)
        assert (counts.work(), counts.loads, counts.records) == ((0, 0, 0), 0, 0)
        replayed = JsonlAuditSink(log)
        replayed.verify_integrity()
        assert (len(replayed), replayed.head_digest) == (len(live), live.head_digest)
        assert (counts.work(), counts.loads, counts.records) == ((0, 0, 0), 0, 0)

    def test_the_in_memory_reference_renders_once_per_append_too(self, monkeypatch):
        log, ids = AuditLog(), IdFactory(seed="count")
        counts = Counted(monkeypatch)
        for n in range(5):
            log.append(AuditRecord(ids.next("aud"), float(n), "Hospital",
                                   AuditAction.PUBLISH, AuditOutcome.PERMIT))
        assert counts.work() == (5, 0, 0)


# -- a record is rendered by its shape ----------------------------------------------

awkward_text = st.text(st.sampled_from('"\\\x00\x1f\x7fé \U0001f600') | st.characters(),
                       max_size=8)
float_spellings = st.sampled_from([-0.0, 0.0, 1e-7, 1e22, 3.0, 1e16, 5e-324, 1.5, float("nan"),
                                   float("inf"), -float("inf")]) | st.floats()
any_optional = st.none() | awkward_text | st.integers(0, 9)
shaped_records = st.builds(
    AuditRecord,
    record_id=awkward_text, actor=awkward_text,
    timestamp=float_spellings | st.integers(-3, 10**20) | st.booleans(),
    action=st.sampled_from(AuditAction), outcome=st.sampled_from(AuditOutcome),
    event_id=any_optional, event_type=any_optional, subject_ref=any_optional,
    purpose=any_optional, detail=awkward_text | st.none(),
    recipients=st.lists(st.sampled_from(["Dr-0", "Dr-Ü"]) | awkward_text, max_size=4).map(tuple),
)
index_rows = st.fixed_dictionaries(
    {key: float_spellings | st.integers(0, 9) if key == "occurred_at" else awkward_text
     for key in sorted(ROW_KEYS)},
) | st.builds(lambda row, display: {**row, "subject_display": display},
              st.fixed_dictionaries({key: awkward_text for key in ROW_KEYS}), any_optional)
tombstone_rows = st.fixed_dictionaries({"tombstone": st.just(True), "object_id": awkward_text})


class TestRenderByShape:
    @given(record=shaped_records)
    @settings(max_examples=400, deadline=None)
    def test_an_audit_record_renders_as_canonical_json(self, record):
        assert record.to_json() == canonical_json(record.to_payload())

    @given(row=index_rows | tombstone_rows | st.builds(lambda row: {**row, "extra": 1}, index_rows))
    @settings(max_examples=300, deadline=None)
    def test_an_index_row_renders_as_canonical_json(self, row):
        assert row_json(row) == canonical_json(row)

    def test_the_fixed_spellings(self):
        record = AuditRecord("aud-1", -0.0, "Dr-Ü", AuditAction.NOTIFY,
                             AuditOutcome.PERMIT, purpose=None, detail='"\\\n',
                             recipients=("a", "a"))
        assert record.to_json() == (
            '{"action":"notify","actor":"Dr-\\u00dc","detail":"\\"\\\\\\n",'
            '"event_id":null,"event_type":null,"outcome":"permit","purpose":null,'
            '"recipients":["a","a"],"record_id":"aud-1","subject_ref":null,'
            '"timestamp":-0.0}')
        for at in (1e-7, 1e22, float("inf"), 7):
            shifted = AuditRecord("aud-1", at, "a", AuditAction.PUBLISH, AuditOutcome.DENY)
            assert shifted.to_json() == canonical_json(shifted.to_payload())


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
