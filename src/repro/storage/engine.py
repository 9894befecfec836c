"""The storage engine: named record logs behind one data directory.

A node with a ``data_dir`` stores its events index and audit log here:
:class:`StorageEngine` (also exported as ``SegmentedStore``) hands out
named :class:`RecordLog` streams — the durable backends ask for
``log("index")`` and ``log("audit")`` — each a size-segmented,
checksum-framed, crash-recoverable :class:`~repro.storage.segment.SegmentedLog`,
with compaction and snapshot/point-in-time-restore support on top.
A directory holding flat ``<log>.jsonl`` files is refused at
construction: those logs are read by handing a
:class:`~repro.storage.jsonl.JsonlFile` to the backend, never replaced
by empty segmented ones.

Telemetry is privacy-guarded like everywhere else in the platform: the
engine emits ``storage.segments_total`` and ``storage.compaction.reclaimed``
labelled only by log name — never by event, subject or object
identifiers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from repro.exceptions import ConfigurationError, StorageError
from repro.storage.compaction import CompactionReport, compact
from repro.storage.segment import (
    DEFAULT_SEGMENT_BYTES,
    DEFAULT_SPARSE_EVERY,
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


@runtime_checkable
class RecordLog(Protocol):
    """What a durable backend needs from its log.

    ``append`` / ``append_many`` commit records — text the backend
    rendered, or dicts the log renders — and return the sequence number /
    the ``(first, last)`` range (``None`` for an empty batch);
    ``iter_records`` streams them parsed and ``iter_texts`` as ``(position,
    text)`` pairs, oldest first, bounded memory; ``flush`` makes every
    accepted record durable.
    """

    def append(self, record: str | dict) -> int: ...

    def append_many(self, records: list[str | dict]) -> tuple[int, int] | None: ...

    def iter_records(self) -> Iterator[dict]: ...

    def iter_texts(self) -> Iterator[tuple[int, str]]: ...

    def flush(self) -> None: ...

    def __len__(self) -> int: ...


class StorageEngine:
    """A directory of named segmented logs, compactable and snapshotable."""

    def __init__(
        self,
        data_dir: str | Path,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sparse_every: int = DEFAULT_SPARSE_EVERY,
        telemetry=None,
    ) -> None:
        self.directory = Path(data_dir)
        # Fail closed on the flat-file layout: opening its logs here would
        # start an empty audit chain and an empty index beside the rows
        # already written.
        flat = sorted(path.name for path in self.directory.glob("*.jsonl"))
        if flat:
            raise ConfigurationError(
                f"{self.directory} holds flat-file logs ({', '.join(flat)}), "
                f"which the storage engine does not read; replay one with "
                f"JsonlAuditSink(JsonlFile(path)) or JsonlIndexStore("
                f"JsonlFile(path), keystore), and use a new data_dir")
        self.segment_bytes = segment_bytes
        self.sparse_every = sparse_every
        self._telemetry = telemetry
        self._logs: dict[str, SegmentedLog] = {}

    # -- telemetry ---------------------------------------------------------

    def _emit(self, method: str, name: str, value: float, **labels) -> None:
        telemetry = self._telemetry
        if telemetry is None:
            return
        getattr(telemetry, method)(name, value, **labels)

    def _refresh_segment_gauge(self, log_name: str) -> None:
        # Both callers have just replayed the log, so the report is exact.
        self._emit("gauge", METRIC_SEGMENTS,
                   float(self._logs[log_name].last_replay.segments),
                   log=log_name)

    # -- logs --------------------------------------------------------------

    def log(self, name: str) -> SegmentedLog:
        """Open (replaying and crash-repairing) the named log."""
        if name not in self._logs:
            self._logs[name] = SegmentedLog(
                self.directory / name,
                segment_bytes=self.segment_bytes,
                sparse_every=self.sparse_every,
            )
            self._refresh_segment_gauge(name)
        return self._logs[name]

    def log_names(self) -> list[str]:
        """Every log on disk or opened this session, sorted."""
        names = set(self._logs)
        if self.directory.is_dir():
            for child in self.directory.iterdir():
                if child.is_dir() and any(child.glob(f"*{SEGMENT_SUFFIX}")):
                    names.add(child.name)
        return sorted(names)

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
        self._emit("count", METRIC_COMPACTION_RECLAIMED,
                   float(report.bytes_reclaimed), log=name)
        self._refresh_segment_gauge(name)
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
