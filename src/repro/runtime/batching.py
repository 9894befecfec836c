"""Group-commit batching for durable record logs (the ``batch`` switch).

The durable backends (:class:`~repro.runtime.backends.JsonlIndexStore`,
:class:`~repro.runtime.backends.JsonlAuditSink`) write one record per
append — one open/write/flush per event, the fixed per-event toll the
batched execution engine amortizes.  A :class:`BatchWriter` sits between
a backend and its :class:`~repro.storage.engine.RecordLog` and buffers
appends until ``batch_size`` records are pending (or :meth:`flush` is
called), then commits them all through the log's ``append_many`` — one
write+flush per batch.

Visibility semantics are unchanged: the backends keep their in-memory
structures (events index, audit chain) current on every append, so local
queries never see stale data; only the *durable* write-through lags, and
streaming the durable log (:meth:`iter_records`) is a flush barrier.
``__len__`` is not: it counts durable + pending records and flushes
nothing.  Callers that hand the underlying files to someone else —
snapshots, crash-recovery tests, guarantor exports — must call
:meth:`flush` first (see ``DataController.flush_storage``).

A commit the log could not write loses nothing: the batch stays pending,
in arrival order, and goes down with the next flush, so records accepted
after a failed write never land past a hole in the log.  A segmented log
also undoes the part of a batch it did write before failing
(``SegmentedLog.write_entries``), so the retry writes each record once;
the flat-file baseline has no such undo.

``BatchPolicy`` is what the controller builds for the ``batch`` switch:
``off`` is ``None`` (no wrapping anywhere), ``on`` a policy carrying
the configured ``batch_size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class BatchPolicy:
    """The platform-wide batching knob (``batch: on``)."""

    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


@dataclass
class BatchWriterStats:
    """Group-commit counters (benchmarks and the flush-barrier tests)."""

    appended: int = 0
    flushes: int = 0
    flushed_records: int = 0


class BatchWriter:
    """A :class:`~repro.storage.engine.RecordLog` that group-commits.

    Buffered records are committed in arrival order, so after a flush the
    underlying log is byte-identical to what per-record appends would
    have produced — group commit changes *when* durability happens, never
    *what* is durable.
    """

    def __init__(self, log, batch_size: int = 256) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self._log = log
        self._batch_size = batch_size
        self._buffer: list[dict] = []
        self.stats = BatchWriterStats()

    @property
    def batch_size(self) -> int:
        """Records buffered before an automatic group commit."""
        return self._batch_size

    @property
    def pending(self) -> int:
        """Records buffered but not yet durable."""
        return len(self._buffer)

    def append(self, record: dict) -> int:
        """Buffer one record; auto-flush at the batch boundary.

        Returns the projected count after this record (mirroring the
        per-record append contract); the durable sequence is assigned at
        flush time, in the same order.
        """
        self._buffer.append(record)
        self.stats.appended += 1
        projected = len(self)
        if len(self._buffer) >= self._batch_size:
            self.flush()
        return projected

    def append_many(self, records: list[dict]) -> tuple[int, int] | None:
        """Buffer several records at once (still one flush per batch)."""
        if not records:
            return None
        first = len(self._log) + len(self._buffer) + 1
        for record in records:
            self.append(record)
        return first, first + len(records) - 1

    def flush(self) -> None:
        """Commit every buffered record in one ``append_many`` write.

        The buffer is released only once the write returned: if the log
        raises, every record is still pending for the next flush.
        """
        if not self._buffer:
            return
        batch = self._buffer
        self._log.append_many(batch)
        self._buffer = []
        self.stats.flushes += 1
        self.stats.flushed_records += len(batch)

    def iter_records(self) -> Iterator[dict]:
        """Stream the durable log — a read, so the flush barrier runs."""
        self.flush()
        return self._log.iter_records()

    def __len__(self) -> int:
        return len(self._log) + len(self._buffer)
