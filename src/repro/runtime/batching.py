"""Group-commit batching for durable record logs (the ``batch`` switch).

A :class:`BatchWriter` sits between a durable backend
(:mod:`repro.runtime.backends`) and its
:class:`~repro.storage.engine.RecordLog` and buffers appends — an audit
link's rendered text, an index row's dict, which the log renders as it
commits — until ``batch_size`` records are pending (or :meth:`flush` is
called), then commits them through the log's ``append_many``: one write
per batch instead of one per record.

The backends keep their in-memory state (events index, audit chain)
current on every append; only the *durable* write-through lags.  Reading
the durable log (``iter_records`` / ``iter_texts``) is a flush barrier;
``__len__`` is not (durable + pending).  Callers that hand the files to
someone else — snapshots, crash-recovery tests, guarantor exports — flush
first (``DataController.flush_storage``).

A commit the log could not write loses nothing: the batch stays pending,
in arrival order, and goes down with the next flush, so records accepted
after a failed write never land past a hole in the log
(``SegmentedLog.write_entries`` undoes the part it wrote, so the retry
writes each record once).

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
        #: Records buffered before an automatic group commit.
        self.batch_size = batch_size
        self._buffer: list[str | dict] = []
        self.stats = BatchWriterStats()

    @property
    def pending(self) -> int:
        """Records buffered but not yet durable."""
        return len(self._buffer)

    def append(self, record: str | dict) -> int:
        """Buffer one record; auto-flush at the batch boundary.

        Returns the projected count after this record (mirroring the
        per-record append contract); the durable sequence is assigned at
        flush time, in the same order.
        """
        self._buffer.append(record)
        projected = len(self)
        if len(self._buffer) >= self.batch_size:
            self.flush()
        return projected

    def append_many(self, records: list[str | dict]) -> tuple[int, int] | None:
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

    def iter_texts(self) -> Iterator[tuple[int, str]]:
        """Stream the durable log unparsed — a read, so the flush barrier runs."""
        self.flush()
        return self._log.iter_texts()

    def __len__(self) -> int:
        return len(self._log) + len(self._buffer)
