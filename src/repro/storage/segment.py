"""Size-segmented append logs with checksummed commit framing.

One :class:`SegmentedLog` is a directory of segment files, each named
after the first sequence number it holds.  Every record is one line::

    <crc32:08x> <sequence> <entry>\n

The entry is text rendered once (a dict by :func:`encode_entry` as it is
appended): canonical JSON, an audit link's chain digest stored beside it
as ``<digest> <body>``.  So :func:`encode_frame` renders nothing, and
opening a log parses no JSON: it checks every CRC and reads sequence
numbers.  The CRC covers ``"<sequence> <entry>"`` and the trailing newline
is the commit point: a damaged final frame of the final segment is a torn
tail, cut away on open; damage anywhere else raises
:class:`~repro.exceptions.CorruptRecordError`.

:meth:`SegmentedLog._walk` is the only loop over a segment file's lines and
:meth:`SegmentedLog.write_entries` the only code that opens one for append
— all or nothing; a sparse offset index lets :meth:`SegmentedLog.iter_texts`
seek, a ``meta.json`` sidecar pins the high-water sequence across
compaction, and a compacted generation is committed by one rename
(:meth:`SegmentedLog.swap_segments`).  Nothing here calls ``fsync``.
The whole contract is docs/STORAGE.md.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.crypto.hashing import canonical_json
from repro.exceptions import CorruptRecordError, RecoveryError, StorageError
from repro.storage.jsonl import write_atomic

#: Default rollover threshold for one segment file.
DEFAULT_SEGMENT_BYTES = 256 * 1024
#: Default sparse-index stride (one offset kept every N records).
DEFAULT_SPARSE_EVERY = 64

#: Segment file suffix.
SEGMENT_SUFFIX = ".seg"
#: Sidecar pinning the high-water sequence across compactions.
META_FILE = "meta.json"
#: Where a compaction stages the next generation, inside the log directory.
STAGING_DIR = ".compacting"


def encode_entry(record: dict) -> str:
    """``record`` as stored: canonical JSON, a ``digest`` key moved beside the body."""
    if "digest" not in record:
        return canonical_json(record)
    body = {key: value for key, value in record.items() if key != "digest"}
    return f"{record['digest']} {canonical_json(body)}"


def decode_entry(text: str) -> dict:
    """The dictionary :func:`encode_entry` stored (also the older digest-inside rows)."""
    if text[:1] == "{":
        return json.loads(text)
    digest, _, body = text.partition(" ")
    return {**json.loads(body), "digest": digest}


def encode_frame(sequence: int, entry: str) -> bytes:
    """The on-disk frame of one committed entry (already rendered text)."""
    body = f"{sequence} {entry}".encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def decode_frame(line: bytes) -> tuple[int, str]:
    """``(sequence, entry)`` of one frame (without trailing newline); raises
    ``ValueError``.  Checks the CRC, parses no JSON."""
    crc_hex, _, body = line.partition(b" ")
    if len(crc_hex) != 8 or int(crc_hex, 16) != zlib.crc32(body):
        raise ValueError("malformed frame or checksum mismatch")
    seq_text, _, entry = body.partition(b" ")
    return int(seq_text), entry.decode("utf-8")


def segment_name(first_sequence: int) -> str:
    """Segment filename for the segment opening at ``first_sequence``."""
    return f"{first_sequence:012d}{SEGMENT_SUFFIX}"


@dataclass(frozen=True)
class SegmentInfo:
    """One segment file's vital statistics."""

    path: Path
    first_sequence: int
    records: int
    size_bytes: int


@dataclass(frozen=True)
class ReplayReport:
    """What one replay (log open) found on disk."""

    records: int
    segments: int
    truncated_bytes: int  # torn tail repaired, 0 on a clean shutdown
    sequence: int


class SegmentedLog:
    """A size-segmented, checksum-framed, crash-recoverable append log."""

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sparse_every: int = DEFAULT_SPARSE_EVERY,
    ) -> None:
        if segment_bytes < 1 or sparse_every < 1:
            raise StorageError("segment_bytes and sparse_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.sparse_every = sparse_every
        self.last_replay = self._replay()

    # -- replay / recovery -------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"*{SEGMENT_SUFFIX}"))

    def _walk(self, paths: list[Path],
              offset: int = 0) -> Iterator[tuple[Path, int, int, int, str]]:
        """Yield ``(path, start, end, sequence, entry)`` per committed frame.

        Oldest first over ``paths`` (the segment list or a tail of it),
        from byte ``offset`` of the first.  The one torn-tail rule,
        whoever reads: a damaged or unterminated *last line of the last
        segment* is the interrupted final write and ends the walk; damage
        anywhere else is a :class:`~repro.exceptions.CorruptRecordError`
        naming the file.
        """
        for path in paths:
            with path.open("rb") as handle:
                handle.seek(offset)
                end = offset
                for raw in handle:
                    start, end = end, end + len(raw)
                    try:
                        if not raw.endswith(b"\n"):
                            raise ValueError("unterminated frame")
                        sequence, entry = decode_frame(raw[:-1])
                    except ValueError as exc:
                        if path is paths[-1] and not handle.read(1):
                            return
                        raise CorruptRecordError(
                            f"{path}: damaged frame at byte {start} is not "
                            f"a torn tail — refusing to read a corrupt segment"
                        ) from exc
                    yield path, start, end, sequence, entry
            offset = 0

    def _settle(self) -> int:
        """Bring the directory to one generation; returns the pinned sequence.

        A sidecar naming a ``swap`` is a compaction past its commit point
        (:meth:`swap_segments`): roll it forward — idempotently, an open
        interrupted here is finished by the next.  Anything else staged
        never committed and is dropped.
        """
        meta_path, meta = self.directory / META_FILE, {"sequence": 0}
        try:
            if meta_path.exists():
                meta = json.loads(meta_path.read_text())
            sequence, swap = int(meta["sequence"]), meta.get("swap")
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageError(f"{meta_path}: unreadable log metadata") from exc
        staging = self.directory / STAGING_DIR
        if swap is not None:
            for path in self._segment_paths():
                if path.name not in swap:
                    path.unlink()
            for name in swap:
                if (staging / name).exists():
                    os.replace(staging / name, self.directory / name)
            self._write_meta(sequence)
        if staging.exists():
            shutil.rmtree(staging)
        return sequence

    def _replay(self) -> ReplayReport:
        """Stream every segment, repair a torn tail, build the sparse index."""
        self._sequence = self._settle()
        self._records = 0
        #: Sparse index: (sequence, segment path, byte offset), ascending.
        self._sparse: list[tuple[int, Path, int]] = []
        paths = self._segment_paths()
        self._active: Path | None = paths[-1] if paths else None
        head, end = None, 0
        for path, start, end, sequence, _ in self._walk(paths):
            self._note_record(sequence, path, start, force=path is not head)
            head = path
        self._active_size = end if head is self._active else 0
        truncated = self._active.stat().st_size - self._active_size if paths else 0
        if truncated:  # the interrupted final write: cut it off and go on
            os.truncate(self._active, self._active_size)
        return ReplayReport(
            records=self._records, segments=len(paths),
            truncated_bytes=truncated, sequence=self._sequence,
        )

    def _note_record(self, sequence: int, path: Path, offset: int,
                     force: bool = False) -> None:
        self._records += 1
        self._sequence = max(self._sequence, sequence)
        if force or self._records % self.sparse_every == 1 \
                or self.sparse_every == 1:
            self._sparse.append((sequence, path, offset))

    def _write_meta(self, sequence: int, **swap: list[str]) -> None:
        write_atomic(self.directory / META_FILE,
                     canonical_json({"sequence": sequence, **swap}))

    def reload(self) -> ReplayReport:
        """Re-open the log from disk (after compaction or external edits)."""
        self.last_replay = self._replay()
        return self.last_replay

    # -- append ------------------------------------------------------------

    @property
    def sequence(self) -> int:
        """The high-water committed sequence number."""
        return self._sequence

    def __len__(self) -> int:
        return self._records

    def append(self, record: str | dict) -> int:
        """Commit one record (its entry text, or a dict); returns its sequence number."""
        sequence = self._sequence + 1
        self.write_entries([(sequence, _text(record))])
        return sequence

    def append_many(self, records: list[str | dict]) -> tuple[int, int] | None:
        """Commit several records in one write; returns the sequence range.

        The group-commit primitive: every frame is written through one
        file handle (rolling to fresh segments mid-batch exactly as
        per-record appends would), so the on-disk layout is identical to
        ``len(records)`` single appends.  Returns ``(first, last)`` — the
        sequence numbers assigned to the first and last record, mirroring
        :meth:`append` — or ``None`` for an empty batch.
        """
        if not records:
            return None
        first = self._sequence + 1
        self.write_entries(enumerate(map(_text, records), first))
        return first, first + len(records) - 1

    def flush(self) -> None:
        """Every append already wrote through; nothing is buffered."""

    def write_entries(self, entries: Iterable[tuple[int, str]]) -> None:
        """Commit ``(sequence, entry)`` pairs, all of them or none.

        The one writer: the only code that opens a segment for append,
        frames an entry and decides roll-over.  If anything raises — the
        open at a roll-over, a write, the close that flushes the buffer —
        the segments this call created are unlinked, the active segment is
        cut back to the size it had and the counters are restored before
        the error is re-raised, so a caller that retries writes each
        record once and no frame ever lands behind half of another.
        """
        before = (self._active, self._active_size, self._sequence,
                  self._records, len(self._sparse))
        handle = None
        try:
            for sequence, entry in entries:
                frame = encode_frame(sequence, entry)
                if self._active is None \
                        or self._active_size >= self.segment_bytes:
                    if handle is not None:
                        handle.close()
                        handle = None
                    self._active = self.directory / segment_name(sequence)
                    self._active_size = 0
                if handle is None:
                    handle = self._active.open("ab")
                offset = self._active_size
                handle.write(frame)
                self._active_size = offset + len(frame)
                self._note_record(sequence, self._active, offset,
                                  force=offset == 0)
            if handle is not None:
                handle.close()
        except BaseException:
            if handle is not None:
                with suppress(OSError):
                    handle.close()
            (self._active, self._active_size, self._sequence,
             self._records, sparse) = before
            del self._sparse[sparse:]
            for path in self._segment_paths():
                if self._active is None or path > self._active:
                    path.unlink()
            if self._active is not None:
                os.truncate(self._active, self._active_size)
            raise

    # -- reading -----------------------------------------------------------

    def iter_texts(self, start: int = 1) -> Iterator[tuple[int, str]]:
        """Stream ``(sequence, entry)`` with ``sequence >= start``, unparsed.

        Seeks via the sparse index: at most ``sparse_every`` records are
        scanned before the first hit, regardless of log size.
        """
        paths = self._segment_paths()
        seek_path, seek_offset = None, 0
        for sequence, path, offset in self._sparse:
            if sequence > start:
                break
            seek_path, seek_offset = path, offset
        try:
            begin = paths.index(seek_path)
        except ValueError:  # no sparse entry, or one for a compacted-away file
            begin, seek_offset = 0, 0
        for _, _, _, sequence, entry in self._walk(paths[begin:], seek_offset):
            if sequence >= start:
                yield sequence, entry

    def iter_entries(self, start: int = 1) -> Iterator[tuple[int, dict]]:
        """Stream ``(sequence, record)`` pairs, each entry parsed."""
        return ((sequence, decode_entry(entry)) for sequence, entry in self.iter_texts(start))

    def iter_records(self, start: int = 1) -> Iterator[dict]:
        """Stream records only (the :class:`RecordLog` read surface)."""
        return (record for _, record in self.iter_entries(start))

    def read_all(self) -> list[dict]:
        """Every record, oldest first (tests and small tools only)."""
        return list(self.iter_records())

    def segments(self) -> list[SegmentInfo]:
        """Per-segment statistics, oldest first."""
        paths = self._segment_paths()
        found = {path: [0, 0] for path in paths}  # first sequence, records
        for path, _, _, sequence, _ in self._walk(paths):
            entry = found[path]
            if not entry[1]:
                entry[0] = sequence
            entry[1] += 1
        return [
            SegmentInfo(path=path, first_sequence=first, records=records,
                        size_bytes=path.stat().st_size)
            for path, (first, records) in found.items()
        ]

    def size_bytes(self) -> int:
        """Total bytes across all segment files."""
        return sum(path.stat().st_size for path in self._segment_paths())

    # -- point-in-time recovery --------------------------------------------

    def truncate_to(self, sequence: int) -> int:
        """Drop every record with a sequence number above ``sequence``.

        The point-in-time recovery primitive: after ``truncate_to(n)`` the
        log replays exactly the records committed up to sequence ``n``,
        and the next append is assigned ``n + 1``.  Returns the number of
        records dropped.  Raises :class:`~repro.exceptions.RecoveryError`
        for a negative target (0 empties the log).

        Sequence numbers only grow along a log (compaction preserves
        them), so this is one cut after the last frame at or below the
        target: that segment is shortened, every later one unlinked.
        """
        if sequence < 0:
            raise RecoveryError(f"cannot recover to sequence {sequence}")
        if sequence >= self._sequence:
            return 0  # nothing above the target is committed
        paths = self._segment_paths()
        last, keep_until, dropped = None, 0, 0
        for path, _, end, frame_sequence, _ in self._walk(paths):
            if frame_sequence <= sequence:
                last, keep_until = path, end
            else:
                dropped += 1
        for path in paths[paths.index(last) + 1 if last else 0:]:
            path.unlink()
        if last is not None:
            os.truncate(last, keep_until)
        self._write_meta(sequence)
        self.reload()
        return dropped

    # -- compaction support -------------------------------------------------

    def swap_segments(self, sequence: int) -> None:
        """Replace every segment with the generation staged in ``STAGING_DIR``.

        One commit point: the sidecar is replaced (temp file, one rename)
        by one that pins the high-water ``sequence`` — so the counter
        survives even if the newest records were compacted away — and
        names the staged files.  Before that rename the log is the old
        generation; after it, this open or the next (:meth:`_settle`)
        moves the named files in and unlinks the rest.
        """
        staged = (self.directory / STAGING_DIR).glob(f"*{SEGMENT_SUFFIX}")
        self._write_meta(sequence, swap=sorted(path.name for path in staged))
        self.reload()


def _text(record: str | dict) -> str:
    return record if isinstance(record, str) else encode_entry(record)
