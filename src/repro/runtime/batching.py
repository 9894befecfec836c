"""Group-commit batching for durable record logs (the ``batch`` switch).

A :class:`BatchWriter` sits between a durable backend
(:mod:`repro.runtime.backends`) and its
:class:`~repro.storage.segment.SegmentedLog`.  An append frames its
record under the sequence it will be committed at (the log's high-water
plus the records pending plus one) and buffers the bytes; once
``batch_size`` are pending (or :meth:`flush` is called) the frames go to
the log's ``append_many``: one write per segment, nothing rendered there.

The backends keep their in-memory state (events index, audit chain)
current on every append; only the *durable* write-through lags.  Reading
the durable log (``iter_records`` / ``iter_texts``) is a flush barrier;
``__len__`` is not (durable + pending).  Callers that hand the files to
someone else — snapshots, crash-recovery tests, guarantor exports — flush
first (``DataController.flush_storage``).

A commit the log could not write loses nothing accepted: the append whose
boundary flush raised is taken back (it did not happen, so its caller
changes nothing), the rest stays pending in arrival order for the next
flush, and no later record lands past a hole in the log
(``SegmentedLog.write_entries`` undoes what it wrote: the frames pending
still follow the high-water, and a retry writes each record once).

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


class BatchWriter:
    """A record log that group-commits into a
    :class:`~repro.storage.segment.SegmentedLog`.

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
        self._frames: list[bytes] = []
        self.stats = BatchWriterStats()

    @property
    def pending(self) -> int:
        """Records buffered but not yet durable."""
        return len(self._frames)

    def append(self, record: str | dict) -> int:
        """Frame one record and buffer it; auto-flush at the batch boundary.

        The frame carries the sequence the record will be committed under.
        Returns the projected count after this record (mirroring the
        per-record append contract).  A boundary flush that raises takes
        this record back out (its append did not happen), the rest pending.
        """
        self._frames.append(self._log.frame(self._log.sequence + len(self._frames) + 1, record))
        projected = len(self)
        if len(self._frames) >= self.batch_size:
            try:
                self.flush()
            except BaseException:
                self._frames.pop()
                raise
        return projected

    def append_many(self, records: list[str | dict]) -> tuple[int, int] | None:
        """Buffer several records at once (still one flush per batch)."""
        if not records:
            return None
        first = len(self) + 1
        for record in records:
            self.append(record)
        return first, first + len(records) - 1

    def flush(self) -> None:
        """Commit every buffered frame through the log's ``append_many``.

        The buffer is released only once the write returned: if the log
        raises, every record is still pending for the next flush.
        """
        if not self._frames:
            return
        self._log.append_many(self._frames)
        self._frames = []
        self.stats.flushes += 1

    def iter_records(self) -> Iterator[dict]:
        """Stream the durable log — a read, so the flush barrier runs."""
        self.flush()
        return self._log.iter_records()

    def iter_texts(self) -> Iterator[tuple[int, str]]:
        """Stream the durable log unparsed — a read, so the flush barrier runs."""
        self.flush()
        return self._log.iter_texts()

    def __len__(self) -> int:
        return len(self._log) + len(self._frames)
