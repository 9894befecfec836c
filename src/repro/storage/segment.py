"""Size-segmented append logs with checksummed commit framing.

One :class:`SegmentedLog` is a directory of segment files.  Every record
is one framed line::

    <crc32:08x> <sequence> <canonical-json>\n

The CRC covers ``"<sequence> <json>"``, so the trailing newline acts as
the commit point of a write-ahead discipline: a record is committed iff
its full frame (checksum verified) reached the file.  On replay the log
distinguishes the two failure modes a real engine must separate:

* a **torn tail** — the *final* frame of the *final* segment is partial
  or fails its checksum (the process died mid-write).  The tail is
  truncated away and replay continues; the log reports how many bytes it
  repaired;
* **corruption** — any earlier frame is damaged.  That is not a crash
  artifact but tampering or media failure, and replay raises
  :class:`~repro.exceptions.CorruptRecordError`.

Segments roll over once the active file exceeds ``segment_bytes``; each
file is named after the first sequence number it holds.  Replay builds a
**sparse offset index** (every ``sparse_every``-th record plus each
segment head), so :meth:`iter_entries` can seek near any sequence number
without scanning from the start, and memory stays proportional to
``records / sparse_every`` — never to the log itself.

Sequence numbers are assigned at append time, survive compaction (which
may leave gaps) and are the coordinates of point-in-time recovery
(:meth:`truncate_to`).  A tiny ``meta.json`` sidecar pins the high-water
sequence so compacting away the newest record can never rewind the
counter and reuse a sequence number.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.exceptions import CorruptRecordError, RecoveryError, StorageError

#: Default rollover threshold for one segment file.
DEFAULT_SEGMENT_BYTES = 256 * 1024
#: Default sparse-index stride (one offset kept every N records).
DEFAULT_SPARSE_EVERY = 64

#: Segment file suffix.
SEGMENT_SUFFIX = ".seg"
#: Sidecar pinning the high-water sequence across compactions.
META_FILE = "meta.json"


def encode_frame(sequence: int, record: dict) -> bytes:
    """The on-disk frame of one committed record."""
    payload = json.dumps(record, sort_keys=True, default=str)
    body = f"{sequence} {payload}"
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n".encode("utf-8")


def decode_frame(line: bytes) -> tuple[int, dict]:
    """Parse one frame (without trailing newline); raises ``ValueError``."""
    text = line.decode("utf-8")
    crc_hex, _, body = text.partition(" ")
    if len(crc_hex) != 8 or not body:
        raise ValueError("malformed frame header")
    if int(crc_hex, 16) != zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF:
        raise ValueError("checksum mismatch")
    seq_text, _, payload = body.partition(" ")
    return int(seq_text), json.loads(payload)


def read_frame(path: Path, raw: bytes) -> tuple[int, dict]:
    """Decode one complete line of segment ``path``; a damaged frame is a
    :class:`~repro.exceptions.CorruptRecordError` naming the file, whoever
    reads it."""
    try:
        return decode_frame(raw[:-1])
    except (ValueError, json.JSONDecodeError) as exc:
        raise CorruptRecordError(
            f"{path}: damaged frame while streaming"
        ) from exc


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
        self._sequence = 0
        self._records = 0
        #: Sparse index: (sequence, segment path, byte offset), ascending.
        self._sparse: list[tuple[int, Path, int]] = []
        self._active: Path | None = None
        self._active_size = 0
        self.last_replay = self._replay()

    # -- replay / recovery -------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"*{SEGMENT_SUFFIX}"))

    def _replay(self) -> ReplayReport:
        """Stream every segment, repair a torn tail, build the sparse index."""
        self._sequence = self._read_meta()
        self._records = 0
        self._sparse = []
        truncated = 0
        paths = self._segment_paths()
        for position, path in enumerate(paths):
            last_segment = position == len(paths) - 1
            truncated += self._replay_segment(path, repair_tail=last_segment)
        if paths:
            self._active = paths[-1]
            self._active_size = self._active.stat().st_size
        else:
            self._active = None
            self._active_size = 0
        return ReplayReport(
            records=self._records, segments=len(paths),
            truncated_bytes=truncated, sequence=self._sequence,
        )

    def _replay_segment(self, path: Path, repair_tail: bool) -> int:
        """Validate one segment; returns torn-tail bytes truncated away."""
        file_size = path.stat().st_size
        with path.open("rb") as handle:
            offset = 0
            first_in_segment = True
            for raw in handle:
                line_start = offset
                offset += len(raw)
                torn = not raw.endswith(b"\n")
                if not torn:
                    try:
                        sequence, _ = decode_frame(raw[:-1])
                    except (ValueError, json.JSONDecodeError):
                        torn = True
                        sequence = -1
                if torn:
                    if repair_tail and offset >= file_size:
                        # The interrupted final write: cut it off and go on.
                        with path.open("rb+") as repair:
                            repair.truncate(line_start)
                        return file_size - line_start
                    raise CorruptRecordError(
                        f"{path}: damaged frame at byte {line_start} is not "
                        f"a torn tail — refusing to replay a corrupt segment"
                    )
                self._note_record(sequence, path, line_start,
                                  force=first_in_segment)
                first_in_segment = False
        return 0

    def _note_record(self, sequence: int, path: Path, offset: int,
                     force: bool = False) -> None:
        self._records += 1
        self._sequence = max(self._sequence, sequence)
        if force or self._records % self.sparse_every == 1 \
                or self.sparse_every == 1:
            self._sparse.append((sequence, path, offset))

    def _read_meta(self) -> int:
        meta_path = self.directory / META_FILE
        if not meta_path.exists():
            return 0
        try:
            return int(json.loads(meta_path.read_text())["sequence"])
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise StorageError(f"{meta_path}: unreadable log metadata") from exc

    def _write_meta(self, sequence: int) -> None:
        (self.directory / META_FILE).write_text(
            json.dumps({"sequence": sequence}))

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

    def append(self, record: dict) -> int:
        """Commit one record; returns its sequence number."""
        sequence = self._sequence + 1
        self._write_frames([(sequence, encode_frame(sequence, record))])
        return sequence

    def append_many(self, records: list[dict]) -> tuple[int, int] | None:
        """Commit several records in one write; returns the sequence range.

        The group-commit primitive: every frame is encoded up front and
        written through one file handle (rolling to fresh segments
        mid-batch exactly as per-record appends would), so the on-disk
        layout is identical to ``len(records)`` single appends.  Returns
        ``(first, last)`` — the sequence numbers assigned to the first and
        last record, mirroring :meth:`append` — or ``None`` for an empty
        batch.
        """
        frames = []
        sequence = self._sequence
        for record in records:
            sequence += 1
            frames.append((sequence, encode_frame(sequence, record)))
        if not frames:
            return None
        self._write_frames(frames)
        return frames[0][0], frames[-1][0]

    def flush(self) -> None:
        """Every append already wrote through; nothing is buffered."""

    def _write_frames(self, frames: list[tuple[int, bytes]]) -> None:
        """Append frames to the active segment, rolling over as it fills."""
        handle = None
        try:
            for sequence, frame in frames:
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
        finally:
            if handle is not None:
                handle.close()

    # -- reading -----------------------------------------------------------

    def iter_entries(self, start: int = 1) -> Iterator[tuple[int, dict]]:
        """Stream ``(sequence, record)`` pairs with ``sequence >= start``.

        Seeks via the sparse index: at most ``sparse_every`` records are
        scanned before the first hit, regardless of log size.
        """
        paths = self._segment_paths()
        if not paths:
            return
        seek_path, seek_offset = paths[0], 0
        for sequence, path, offset in self._sparse:
            if sequence <= start:
                seek_path, seek_offset = path, offset
            else:
                break
        try:
            begin = paths.index(seek_path)
        except ValueError:  # sparse entry for a compacted-away file
            begin, seek_offset = 0, 0
        for position in range(begin, len(paths)):
            path = paths[position]
            offset = seek_offset if position == begin else 0
            with path.open("rb") as handle:
                handle.seek(offset)
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        return  # a torn tail appeared after open; stop cleanly
                    sequence, record = read_frame(path, raw)
                    if sequence >= start:
                        yield sequence, record

    def iter_records(self, start: int = 1) -> Iterator[dict]:
        """Stream records only (the :class:`RecordLog` read surface)."""
        for _, record in self.iter_entries(start):
            yield record

    def read_all(self) -> list[dict]:
        """Every record, oldest first (tests and small tools only)."""
        return list(self.iter_records())

    def segments(self) -> list[SegmentInfo]:
        """Per-segment statistics, oldest first."""
        infos: list[SegmentInfo] = []
        for path in self._segment_paths():
            records = 0
            first_sequence = 0
            with path.open("rb") as handle:
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break
                    sequence, _ = read_frame(path, raw)
                    if records == 0:
                        first_sequence = sequence
                    records += 1
            infos.append(SegmentInfo(
                path=path, first_sequence=first_sequence,
                records=records, size_bytes=path.stat().st_size,
            ))
        return infos

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
        """
        if sequence < 0:
            raise RecoveryError(f"cannot recover to sequence {sequence}")
        if sequence >= self._sequence:
            return 0  # nothing above the target is committed
        dropped = 0
        for path in reversed(self._segment_paths()):
            keep_until = None  # byte offset after the last kept frame
            seen_any = False
            with path.open("rb") as handle:
                offset = 0
                for raw in handle:
                    line_start = offset
                    offset += len(raw)
                    if not raw.endswith(b"\n"):
                        break
                    frame_sequence, _ = read_frame(path, raw)
                    seen_any = True
                    if frame_sequence <= sequence:
                        keep_until = offset
                    else:
                        dropped += 1
            if keep_until is None:
                if seen_any or path.stat().st_size == 0:
                    path.unlink()
                continue
            if keep_until < path.stat().st_size:
                with path.open("rb+") as handle:
                    handle.truncate(keep_until)
        self._write_meta(sequence)
        self.reload()
        return dropped

    # -- compaction support -------------------------------------------------

    def swap_segments(self, staged: list[Path], sequence: int) -> None:
        """Atomically replace all segments with ``staged`` files.

        The compactor stages fully-written replacement segments, then this
        swap unlinks the old generation and moves the new one in.  The
        high-water ``sequence`` is pinned in the meta sidecar so the
        counter survives even if the newest records were compacted away.
        """
        for path in self._segment_paths():
            path.unlink()
        for path in staged:
            path.rename(self.directory / path.name)
        self._write_meta(sequence)
        self.reload()
