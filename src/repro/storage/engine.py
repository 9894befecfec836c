"""The storage engine: named record logs behind one data directory.

This module is the seam the service kernel's ``store`` kind plugs into.
A *store provider* hands out named :class:`RecordLog` streams — the
durable backends ask for ``log("index")`` and ``log("audit")`` and never
care what sits underneath:

* :class:`JsonlStore` (kind ``jsonl``) — one flat ``<name>.jsonl`` per
  log, the pre-engine baseline kept for the storage ablation;
* :class:`StorageEngine` (kind ``segmented``; ``SegmentedStore`` is the
  same class, the engine is its own provider) — size-segmented,
  checksum-framed, crash-recoverable logs with compaction and
  snapshot/point-in-time-restore support.

Either can be built without a data directory and raises the one "needs
``RuntimeConfig.data_dir``" error when first asked for a log.

Decisions and audit trails are byte-identical across the two kinds; only
durability, recovery and space behavior differ (that equivalence is
pinned by tests and the ``BENCH_storage`` gate).

Telemetry is privacy-guarded like everywhere else in the platform: the
engine emits ``storage.segments_total``, ``storage.compaction.reclaimed``
and ``storage.recovery.ms`` labelled only by store kind and log name —
never by event, subject or object identifiers.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from repro.exceptions import ConfigurationError, StorageError
from repro.storage.compaction import CompactionReport, compact
from repro.storage.jsonl import JsonlFile
from repro.storage.segment import (
    DEFAULT_SEGMENT_BYTES,
    DEFAULT_SPARSE_EVERY,
    SEGMENT_SUFFIX,
    SegmentedLog,
)
from repro.storage.snapshot import SnapshotInfo, SnapshotManager

#: Gauge: segment (or file) count per log.
METRIC_SEGMENTS = "storage.segments_total"
#: Counter: bytes reclaimed by compaction.
METRIC_COMPACTION_RECLAIMED = "storage.compaction.reclaimed"
#: Histogram: wall-clock milliseconds spent replaying a log on open.
METRIC_RECOVERY_MS = "storage.recovery.ms"

#: Logs whose records may never be compacted away (hash-chained history).
IMMUTABLE_LOGS = frozenset({"audit"})


@runtime_checkable
class RecordLog(Protocol):
    """What a durable backend needs from its log: append and stream."""

    def append(self, record: dict) -> int:
        """Commit one record; returns its sequence number."""
        ...

    def append_many(self, records: list[dict]) -> tuple[int, int] | None:
        """Commit several records in one write; returns the assigned
        ``(first, last)`` sequence range, or ``None`` for an empty batch."""
        ...

    def iter_records(self) -> Iterator[dict]:
        """Stream records oldest first, bounded memory."""
        ...

    def flush(self) -> None:
        """Make every accepted record durable (no-op unless buffering)."""
        ...

    def __len__(self) -> int: ...


class JsonlRecordLog(JsonlFile):
    """A flat JSONL file speaking the :class:`RecordLog` surface: a
    :class:`~repro.storage.jsonl.JsonlFile` that counts its records."""

    _count: int | None = None  # unknown until the first ``len`` scans the file

    def append(self, record: dict) -> int:
        count = len(self)  # resolve before the write: len scans the file
        super().append(record)
        self._count = count + 1
        return self._count

    def append_many(self, records: list[dict]) -> tuple[int, int] | None:
        if not records:
            return None
        first = len(self) + 1
        super().append_many(records)
        self._count = first + len(records) - 1
        return first, self._count

    def flush(self) -> None:
        """Every append already wrote through; nothing is buffered."""

    def __len__(self) -> int:
        if self._count is None:
            self._count = super().__len__()
        return self._count


class StorageEngine:
    """Store provider ``segmented``: a directory of named segmented logs,
    compactable and snapshotable."""

    kind = "segmented"

    def __init__(
        self,
        data_dir: str | Path | None = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sparse_every: int = DEFAULT_SPARSE_EVERY,
        telemetry=None,
    ) -> None:
        self._data_dir = data_dir
        self.segment_bytes = segment_bytes
        self.sparse_every = sparse_every
        self._telemetry = telemetry
        self._logs: dict[str, SegmentedLog] = {}

    @property
    def directory(self) -> Path:
        """The data directory (a ``ConfigurationError`` when none was given)."""
        return _require_data_dir(self._data_dir, self.kind)

    # -- telemetry ---------------------------------------------------------

    def _emit(self, method: str, name: str, value: float, **labels) -> None:
        telemetry = self._telemetry
        if telemetry is None:
            return
        getattr(telemetry, method)(name, value, store="segmented", **labels)

    def _refresh_segment_gauge(self, log_name: str) -> None:
        # Both callers have just replayed the log, so the report is exact.
        self._emit("gauge", METRIC_SEGMENTS,
                   float(self._logs[log_name].last_replay.segments),
                   log=log_name)

    # -- logs --------------------------------------------------------------

    def log(self, name: str) -> SegmentedLog:
        """Open (replaying and crash-repairing) the named log."""
        if name not in self._logs:
            started = time.perf_counter()
            self._logs[name] = SegmentedLog(
                self.directory / name,
                segment_bytes=self.segment_bytes,
                sparse_every=self.sparse_every,
            )
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._emit("observe", METRIC_RECOVERY_MS, elapsed_ms, log=name)
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


def _require_data_dir(data_dir, kind: str) -> Path:
    if data_dir is None:
        raise ConfigurationError(
            f"the {kind!r} store kind needs RuntimeConfig.data_dir"
        )
    return Path(data_dir)


class JsonlStore:
    """Store provider ``jsonl``: one flat file per log (ablation baseline)."""

    kind = "jsonl"

    def __init__(self, data_dir: str | Path | None = None) -> None:
        self._data_dir = data_dir
        self._logs: dict[str, JsonlRecordLog] = {}

    def log(self, name: str) -> JsonlRecordLog:
        """The named log as ``<data_dir>/<name>.jsonl`` — one object per
        name, so every holder of the log shares its record count."""
        if name not in self._logs:
            base = _require_data_dir(self._data_dir, self.kind)
            self._logs[name] = JsonlRecordLog(base / f"{name}.jsonl")
        return self._logs[name]


#: The name the kernel, the wall driver and the tests build the provider under.
SegmentedStore = StorageEngine
