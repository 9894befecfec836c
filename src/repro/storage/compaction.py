"""Log compaction: reclaim space without touching what must stay immutable.

:func:`compact` rewrites a :class:`~repro.storage.segment.SegmentedLog`
keeping the records a *keep predicate* selects, each with its sequence
number (gaps are fine) and its stored text.  The next generation is staged
by the log's own writer and committed by one rename of the sidecar
(:meth:`~repro.storage.segment.SegmentedLog.swap_segments`), so an
interrupted compaction re-opens as the old generation or the new one.

:func:`index_keep_predicate` is the events index's one retention rule: drop
the tombstones (``EventsIndex.withdraw``) and the rows they hide, found in
a first streaming pass, so memory grows with the number of withdrawn
entries, not the log.  An index never stores a second row for one entry
(``EventsIndex._keep`` refuses it), so nothing else is superseded.  The
audit log is never compacted (:meth:`~repro.storage.engine.StorageEngine.compact`
refuses): its chain commits to every record.  See docs/STORAGE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable

from repro.storage.segment import STAGING_DIR, SegmentedLog, decode_entry, encode_frame

#: A keep predicate: ``(sequence, record) -> bool``.
KeepPredicate = Callable[[int, dict], bool]


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one compaction run."""

    records_before: int
    records_after: int
    segments_before: int
    segments_after: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        """Disk space returned to the operator."""
        return self.bytes_before - self.bytes_after


def index_keep_predicate(log: SegmentedLog) -> KeepPredicate:
    """Build the events-index retention predicate for ``log``: keep every
    record but a tombstone and the row whose ``event_id`` one names."""
    tombstoned = {record["object_id"] for record in log.iter_records()
                  if record.get("tombstone")}

    def keep(sequence: int, record: dict) -> bool:
        return not record.get("tombstone") and record.get("event_id") not in tombstoned

    return keep


def compact(log: SegmentedLog, keep: KeepPredicate | None = None) -> CompactionReport:
    """Rewrite ``log`` keeping only records selected by ``keep``.

    Sequence numbers of kept records are preserved; the high-water
    sequence is pinned through the meta sidecar so appends never reuse a
    reclaimed sequence number.
    """
    # Re-open first: that finishes a swap interrupted past its commit point
    # and drops whatever else was left staged, before anything is read.
    before = log.reload()
    if keep is None:
        keep = index_keep_predicate(log)
    bytes_before = log.size_bytes()

    staging = SegmentedLog(log.directory / STAGING_DIR,
                           segment_bytes=log.segment_bytes)
    kept = ((sequence, encode_frame(sequence, entry)) for sequence, entry in log.iter_texts()
            if keep(sequence, decode_entry(entry)))  # copied as stored
    while chunk := list(islice(kept, 1024)):  # streamed: one chunk held at a time
        staging.write_entries(*zip(*chunk))
    staging.close()  # its handle would follow the segment the swap moves in
    log.swap_segments(before.sequence)
    return CompactionReport(
        records_before=before.records,
        records_after=len(log),
        segments_before=before.segments,
        segments_after=log.last_replay.segments,
        bytes_before=bytes_before,
        bytes_after=log.size_bytes(),
    )
