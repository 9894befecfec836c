"""Size-segmented append logs with checksummed commit framing.

One :class:`SegmentedLog` is a directory of segment files, each named
after the first sequence number it holds.  Every record is one line::

    <crc32:08x> <sequence> <entry>\n

The entry is text its appender rendered once, canonical JSON (an audit
link's chain digest stored beside it as ``<digest> <body>``), and framed
once, by :func:`encode_frame` as it is appended under the sequence it
commits at.  A log holds up to ``batch_size`` such frames pending and
commits them as one group (:meth:`SegmentedLog.flush`, through
:meth:`SegmentedLog.append_many`); ``batch_size=1`` writes each record
through as it is appended.  Opening a log parses no JSON:
it checks every CRC and reads sequence numbers.  The CRC covers
``"<sequence> <entry>"`` and the trailing newline is the commit point: a
damaged final frame of the final segment is a torn tail, cut away on
open; damage anywhere else raises
:class:`~repro.exceptions.CorruptRecordError`.

:meth:`SegmentedLog._walk` is the only loop over a segment file's lines and
:meth:`SegmentedLog.write_entries` the only code that opens one for append,
kept open until the segment rolls over or :meth:`SegmentedLog.close` — one
write per segment a commit touches, all or nothing; a ``meta.json`` sidecar
pins the high-water sequence across compaction, and a compacted generation
is committed by one rename (:meth:`SegmentedLog.swap_segments`).  Nothing
here calls ``fsync``.  The whole contract is docs/STORAGE.md.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Sequence

from repro.crypto.hashing import canonical_json
from repro.exceptions import ConfigurationError, CorruptRecordError, RecoveryError, StorageError
from repro.storage.jsonl import write_atomic

#: Default rollover threshold for one segment file.
DEFAULT_SEGMENT_BYTES = 256 * 1024

#: Segment file suffix.
SEGMENT_SUFFIX = ".seg"
#: Sidecar pinning the high-water sequence across compactions.
META_FILE = "meta.json"
#: Where a compaction stages the next generation, inside the log directory.
STAGING_DIR = ".compacting"


def decode_entry(text: str) -> dict:
    """The dictionary an entry stores: its JSON, an audit link's digest as ``digest``."""
    if text[:1] == "{":
        return json.loads(text)
    digest, _, body = text.partition(" ")
    return {**json.loads(body), "digest": digest}


def encode_frame(sequence: int, entry: str) -> bytes:
    """The on-disk frame of one entry's text."""
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
    """A size-segmented, checksum-framed, crash-recoverable append log
    that group-commits every ``batch_size`` records."""

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        batch_size: int = 1,
    ) -> None:
        if segment_bytes < 1:
            raise StorageError("segment_bytes must be >= 1")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        #: Records framed before an automatic group commit.
        self.batch_size = batch_size
        self._frames: list[bytes] = []  # framed, not yet committed
        self._handle = None  # unbuffered append handle on the active segment
        self.last_replay = self._replay()

    # -- replay / recovery -------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"*{SEGMENT_SUFFIX}"))

    def _walk(self, paths: list[Path]) -> Iterator[tuple[Path, int, int, int, str]]:
        """Yield ``(path, start, end, sequence, entry)`` per committed frame.

        Oldest first over ``paths`` (the segment list).  The one torn-tail
        rule, whoever reads: a damaged or unterminated *last line of the
        last segment* is the interrupted final write and ends the walk;
        damage anywhere else is a :class:`~repro.exceptions.CorruptRecordError`
        naming the file.
        """
        for path in paths:
            with path.open("rb") as handle:
                end = 0
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
        """Stream every segment, repair a torn tail, count the records."""
        self._sequence = self._settle()
        self._records = 0
        paths = self._segment_paths()
        self._active: Path | None = paths[-1] if paths else None
        head, end = None, 0
        for head, _, end, sequence, _ in self._walk(paths):
            self._records += 1
            self._sequence = max(self._sequence, sequence)
        self._active_size = end if head is self._active else 0
        truncated = self._active.stat().st_size - self._active_size if paths else 0
        if truncated:  # the interrupted final write: cut it off and go on
            os.truncate(self._active, self._active_size)
        return ReplayReport(
            records=self._records, segments=len(paths),
            truncated_bytes=truncated, sequence=self._sequence,
        )

    def _write_meta(self, sequence: int, **swap: list[str]) -> None:
        write_atomic(self.directory / META_FILE,
                     canonical_json({"sequence": sequence, **swap}))

    def reload(self) -> ReplayReport:
        """Commit what is pending, then re-open the log from disk (after
        compaction or external edits)."""
        self.close()
        self.last_replay = self._replay()
        return self.last_replay

    # -- append ------------------------------------------------------------

    @property
    def sequence(self) -> int:
        """The high-water committed sequence number."""
        return self._sequence

    @property
    def pending(self) -> int:
        """Records appended but not yet committed."""
        return len(self._frames)

    def __len__(self) -> int:
        """Committed records (:attr:`pending` not counted)."""
        return self._records

    def append(self, text: str) -> int:
        """Frame one entry under the sequence it commits at; returns that sequence.

        The ``batch_size``-th pending frame commits the batch (:meth:`flush`).
        A commit that raises takes this record back out — its append did
        not happen, so its caller changes nothing — and leaves the rest
        pending, in order, for the next commit.
        """
        frames = self._frames
        sequence = self._sequence + len(frames) + 1
        frames.append(encode_frame(sequence, text))
        if len(frames) >= self.batch_size:
            try:
                self.flush()
            except BaseException:
                frames.pop()
                raise
        return sequence

    def append_many(self, frames: list[bytes]) -> tuple[int, int] | None:
        """Commit frames built (:func:`encode_frame`) for the sequences after
        the high-water; returns the sequence range.

        The group-commit primitive: one write per segment touched, rolling
        mid-batch exactly as per-record appends would, so the layout is
        identical to ``len(frames)`` single commits.  A batch whose first
        frame does not follow the high-water is refused
        (:class:`~repro.exceptions.StorageError`), unwritten.  Returns
        ``(first, last)``, or ``None`` for an empty batch.
        """
        if not frames:
            return None
        first = self._sequence + 1
        if (found := int(frames[0][9:frames[0].index(b" ", 9)])) != first:
            raise StorageError(f"{self.directory}: a batch framed from sequence "
                               f"{found} cannot follow high-water {first - 1}")
        self.write_entries(range(first, first + len(frames)), frames)
        return first, first + len(frames) - 1

    def flush(self) -> None:
        """Commit every pending frame through :meth:`append_many`.

        The frames are released only once the write returned: if it
        raises, every record is still pending for the next commit.
        """
        if self._frames:
            self.append_many(self._frames)
            self._frames = []

    def close(self) -> None:
        """Commit what is pending and close the append handle (the next commit reopens it)."""
        self.flush()
        self._drop_handle()

    def _drop_handle(self) -> None:
        if self._handle is not None:
            self._handle, handle = None, self._handle
            handle.close()

    def write_entries(self, sequences: Sequence[int], frames: Sequence[bytes]) -> None:
        """Commit ``frames`` under their ascending ``sequences``, all or none.

        The one writer: the only code that decides roll-over, frame by
        frame, and opens a segment for append — once, not once per commit —
        with one write per segment a commit touches.  If anything raises,
        the handle is dropped, the segments this call created are unlinked,
        the active segment is cut back to the size it had and the counters
        are restored before the error is re-raised, so a caller that
        retries writes each record once and no frame lands behind half of
        another.
        """
        before = (self._active, self._active_size, self._sequence,
                  self._records)
        try:
            ends = list(accumulate(map(len, frames), initial=0))  # bytes before each frame
            start = 0
            while start < len(frames):
                if self._active is None or self._active_size >= self.segment_bytes:
                    self._drop_handle()
                    self._active = self.directory / segment_name(sequences[start])
                    self._active_size = 0
                # The segment takes frames up to and with the one that fills it.
                stop = min(len(frames), bisect_left(
                    ends, ends[start] + self.segment_bytes - self._active_size, start + 1))
                if self._handle is None:
                    self._handle = self._active.open("ab", buffering=0)
                data, written = b"".join(frames[start:stop]), 0
                while written < len(data):  # a raw handle may write short
                    written += self._handle.write(data[written:])
                self._active_size += ends[stop] - ends[start]
                start = stop
            self._records += len(frames)
            self._sequence = max((self._sequence, *sequences[-1:]))
        except BaseException:
            self._drop_handle()
            (self._active, self._active_size, self._sequence,
             self._records) = before
            for path in self._segment_paths():
                if self._active is None or path > self._active:
                    path.unlink()
            if self._active is not None:
                os.truncate(self._active, self._active_size)
            raise

    # -- reading -----------------------------------------------------------

    def iter_texts(self) -> Iterator[tuple[int, str]]:
        """Stream ``(sequence, entry)`` oldest first, unparsed — a read, so
        what is pending commits first."""
        self.flush()
        return ((sequence, entry)
                for _, _, _, sequence, entry in self._walk(self._segment_paths()))

    def iter_records(self) -> Iterator[dict]:
        """Stream records oldest first, each entry parsed."""
        return (decode_entry(entry) for _, entry in self.iter_texts())

    def segments(self) -> list[SegmentInfo]:
        """Per-segment statistics, oldest first."""
        paths = self._segment_paths()
        found = {path: [0, 0] for path in paths}  # first sequence, records
        for path, _, _, sequence, _ in self._walk(paths):
            found[path][0] = found[path][0] or sequence  # sequences start at 1
            found[path][1] += 1
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

        Point-in-time recovery: afterwards the log replays the records up
        to ``sequence`` and the next append is ``sequence + 1``.  Returns
        the records dropped (0 empties the log; a negative target is a
        :class:`RecoveryError`).  Sequences only grow along a log, so this
        is one cut after the last frame at or below the target: that
        segment is shortened, every later one unlinked, and the log re-read
        from disk even when a step of the cut raised.
        """
        if sequence < 0:
            raise RecoveryError(f"cannot recover to sequence {sequence}")
        self.close()  # nothing may write to a segment this cuts or unlinks
        if sequence >= self._sequence:
            return 0  # nothing above the target is committed
        paths = self._segment_paths()
        last, keep_until, dropped = None, 0, 0
        for path, _, end, frame_sequence, _ in self._walk(paths):
            if frame_sequence <= sequence:
                last, keep_until = path, end
            else:
                dropped += 1
        try:
            for path in paths[paths.index(last) + 1 if last else 0:]:
                path.unlink()
            if last is not None:
                os.truncate(last, keep_until)
            self._write_meta(sequence)
        finally:
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
        self.flush()
        staged = (self.directory / STAGING_DIR).glob(f"*{SEGMENT_SUFFIX}")
        self._write_meta(sequence, swap=sorted(path.name for path in staged))
        self.reload()

