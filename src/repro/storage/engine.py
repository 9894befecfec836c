"""The storage engine: named record logs behind one data directory.

A node with a ``data_dir`` stores its events index and audit log here:
:class:`StorageEngine` (also exported as ``SegmentedStore``) hands out
named record logs — the durable backends ask for
``log("index")`` and ``log("audit")`` — each a size-segmented,
checksum-framed, crash-recoverable :class:`~repro.storage.segment.SegmentedLog`
that group-commits every ``batch_size`` records (1: write-through),
with compaction and snapshot/point-in-time-restore support on top.
A directory holding flat ``<log>.jsonl`` files is refused at
construction and left as it is, never replaced by empty segmented logs.

Telemetry is privacy-guarded like everywhere else in the platform: the
engine's readers serve ``storage.segments_total`` and
``storage.compaction.reclaimed`` labelled only by log name — never by
event, subject or object identifiers.
"""

from __future__ import annotations

from pathlib import Path

from repro.exceptions import ConfigurationError, StorageError
from repro.storage.compaction import CompactionReport, compact
from repro.storage.segment import (
    DEFAULT_SEGMENT_BYTES,
    SEGMENT_SUFFIX,
    SegmentedLog,
)
from repro.storage.snapshot import SnapshotInfo, SnapshotManager

#: Gauge: segment count per log.
METRIC_SEGMENTS = "storage.segments_total"
#: Counter: bytes reclaimed by compaction.
METRIC_COMPACTION_RECLAIMED = "storage.compaction.reclaimed"

#: Logs whose records may never be compacted away (hash-chained history).
IMMUTABLE_LOGS = frozenset({"audit"})


class StorageEngine:
    """A directory of named segmented logs, compactable and snapshotable."""

    def __init__(
        self,
        data_dir: str | Path,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        telemetry=None,
        batch_size: int = 1,
    ) -> None:
        self.directory = Path(data_dir)
        # Fail closed on the flat-file layout: opening its logs here would
        # start an empty audit chain and an empty index beside the rows
        # already written.
        flat = sorted(path.name for path in self.directory.glob("*.jsonl"))
        if flat:
            raise ConfigurationError(
                f"{self.directory} holds flat-file logs ({', '.join(flat)}), "
                f"which the storage engine does not read; use a new data_dir")
        self.segment_bytes = segment_bytes
        #: Records each log frames before a group commit.
        self.batch_size = batch_size
        self._logs: dict[str, SegmentedLog] = {}
        #: Log name -> bytes its compactions reclaimed.
        self.reclaimed: dict[str, int] = {}
        if telemetry is not None:
            logs, metrics = self._logs, telemetry.metrics
            metrics.reader("gauge", METRIC_SEGMENTS, lambda: (
                ({"log": name}, log.last_replay.segments) for name, log in logs.items()))
            metrics.reader("counter", METRIC_COMPACTION_RECLAIMED, lambda: (
                ({"log": name}, reclaimed) for name, reclaimed in self.reclaimed.items()))

    # -- logs --------------------------------------------------------------

    def log(self, name: str) -> SegmentedLog:
        """Open (replaying and crash-repairing) the named log."""
        if name not in self._logs:
            self._logs[name] = SegmentedLog(
                self.directory / name, segment_bytes=self.segment_bytes,
                batch_size=self.batch_size)
        return self._logs[name]

    def close(self) -> None:
        """Commit and close every log this engine opened (:meth:`SegmentedLog.close`)."""
        for log in self._logs.values():
            log.close()

    def log_names(self) -> list[str]:
        """Every log on disk or opened this session, sorted."""
        on_disk = self.directory.glob(f"*/*{SEGMENT_SUFFIX}")
        return sorted(set(self._logs) | {path.parent.name for path in on_disk})

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-log figures: records, segments, bytes, high-water sequence."""
        figures: dict[str, dict[str, int]] = {}
        for name in self.log_names():
            log = self.log(name)
            figures[name] = {
                "records": len(log),
                "segments": len(log.segments()),
                "size_bytes": log.size_bytes(),
                "sequence": log.sequence,
            }
        return figures

    # -- compaction ----------------------------------------------------------

    def compact(self, name: str = "index", keep=None) -> CompactionReport:
        """Compact the named log; the audit chain is off limits.

        Raises :class:`~repro.exceptions.StorageError` for an immutable
        log — compacting a hash-chained history would be tampering, not
        retention.
        """
        if name in IMMUTABLE_LOGS:
            raise StorageError(
                f"log {name!r} is immutable: its hash chain commits to every "
                f"record ever written, so compaction is forbidden"
            )
        report = compact(self.log(name), keep=keep)
        self.reclaimed[name] = self.reclaimed.get(name, 0) + report.bytes_reclaimed
        return report

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, snapshots_root: str | Path,
                 label: str | None = None) -> SnapshotInfo:
        """Archive the whole data directory (manifest + sha256 + tar)."""
        sequences = {name: self.log(name).sequence
                     for name in self.log_names()}
        return SnapshotManager(snapshots_root).create(
            self.directory, sequences, label=label)


#: The name the wall driver and the tests build the engine under.
SegmentedStore = StorageEngine
