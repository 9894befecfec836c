"""Log compaction: reclaim space without touching what must stay immutable.

:func:`compact` rewrites a :class:`~repro.storage.segment.SegmentedLog`
keeping the records a *keep predicate* selects, each with its sequence
number (gaps are fine) and its stored text.  The next generation is staged
by the log's own writer and committed by one rename of the sidecar
(:meth:`~repro.storage.segment.SegmentedLog.swap_segments`), so an
interrupted compaction re-opens as the old generation or the new one.

:func:`index_keep_predicate` is the events index's retention rule — drop
tombstones (``JsonlIndexStore.withdraw``) with the rows they hide,
``withdrawn`` / ``deprecated`` rows and superseded rows of one
``object_id`` — found in a first streaming pass, so memory grows with the
number of objects, not the log.  The audit log is never compacted
(:meth:`~repro.storage.engine.StorageEngine.compact` refuses): its chain
commits to every record.  See docs/STORAGE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.storage.segment import STAGING_DIR, SegmentedLog, decode_entry

#: Statuses whose rows compaction may reclaim.
DROPPABLE_STATUSES = frozenset({"withdrawn", "deprecated"})

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
    def records_dropped(self) -> int:
        """How many records the predicate reclaimed."""
        return self.records_before - self.records_after

    @property
    def bytes_reclaimed(self) -> int:
        """Disk space returned to the operator."""
        return self.bytes_before - self.bytes_after


def index_keep_predicate(log: SegmentedLog) -> KeepPredicate:
    """Build the events-index retention predicate for ``log``.

    First streaming pass: find tombstoned object ids and the last
    sequence number per object id.
    """
    tombstoned: set[str] = set()
    last_sequence: dict[str, int] = {}
    for sequence, record in log.iter_entries():
        object_id = record.get("object_id")
        if object_id is None:
            continue
        if record.get("tombstone"):
            tombstoned.add(object_id)
        last_sequence[object_id] = sequence

    def keep(sequence: int, record: dict) -> bool:
        object_id = record.get("object_id")
        if object_id is None:
            return True  # never drop what we don't understand
        if record.get("tombstone") or object_id in tombstoned:
            return False
        if record.get("status") in DROPPABLE_STATUSES:
            return False
        return sequence == last_sequence.get(object_id)

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
    staging.write_entries((sequence, entry) for sequence, entry in log.iter_texts()
                          if keep(sequence, decode_entry(entry)))  # copied as stored
    log.swap_segments(before.sequence)
    return CompactionReport(
        records_before=before.records,
        records_after=len(log),
        segments_before=before.segments,
        segments_after=log.last_replay.segments,
        bytes_before=bytes_before,
        bytes_after=log.size_bytes(),
    )
