"""The durable events index and audit log.

The in-memory :class:`~repro.core.index.EventsIndex` and
:class:`~repro.audit.log.AuditLog` are the references; the pair here
extends them with write-through to a durable
:class:`~repro.storage.segment.SegmentedLog`, which group-commits them
``batch_size`` at a time — each record stored once as
canonical JSON, identity slots still sealed, an audit link as the very
text its digest hashed — and replay on start.  A controller whose
``RuntimeConfig`` has a ``data_dir`` builds the pair over the ``index`` /
``audit`` logs of its :class:`~repro.storage.engine.StorageEngine`; a
restart is the same construction.  Replay streams one record at a time:
the index keeps its rows, the audit trail one digest per link, never its
records (docs/STORAGE.md).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from repro.audit.log import AuditLog, AuditRecord
from repro.core.index import EventsIndex, row_json
from repro.crypto.hashing import HashChain
from repro.exceptions import CorruptRecordError, TamperedLogError
from repro.storage.segment import SegmentedLog


class JsonlAuditSink(AuditLog):
    """Hash-chained audit log with durable write-through persistence.

    A link is stored as ``<digest> <body>``: the body is the very text its
    chain digest hashes, so the sink keeps digests, not records.  Loading
    re-hashes the stored bodies against the stored digests, so tampering
    with the stored trail is detected at load time, not at the next
    guarantor review; :meth:`verify_integrity` re-walks the stored trail.
    Reads decode records from the log.
    """

    def __init__(self, log: SegmentedLog) -> None:
        super().__init__()
        self._store = log
        self._chain = self._rechain()

    def _stored(self) -> Iterator[tuple[str, str]]:
        """``(stored digest, body)`` per link, oldest first."""
        for _, text in self._store.iter_texts():
            digest, _, body = text.partition(" ")
            yield digest, body

    def _rechain(self) -> HashChain:
        """Chain the stored bodies; each must give the digest stored beside it."""
        chain = HashChain()
        try:
            for stored, body in self._stored():
                if chain.append(body) != stored:
                    raise TamperedLogError(f"audit link {len(chain) - 1} does not replay")
        except (CorruptRecordError, ValueError) as exc:
            raise TamperedLogError(f"audit link {len(chain)} is unreadable: {exc}") from exc
        return chain

    def _keep(self, record: AuditRecord, body: str, digest: str) -> None:
        self._store.append(f"{digest} {body}")

    def _physical(self) -> Iterator[AuditRecord]:
        self._close_run()
        return (AuditRecord.from_json(body) for _, body in islice(self._stored(), len(self)))

    def verify_integrity(self) -> None:
        """Re-hash the stored trail after a flush barrier: every stored digest
        must be its body's link, the last one this chain's head."""
        self.flush()
        stored = self._rechain()
        if (len(stored), stored.head) != (len(self._chain), self._chain.head):
            raise TamperedLogError(f"stored trail ({len(stored)} links) does not end at "
                                   f"the chain's head ({len(self._chain)} links)")

    def flush(self) -> None:
        """Group-commit barrier: chain the open run, commit every pending link."""
        super().flush()
        self._store.flush()


class JsonlIndexStore(EventsIndex):
    """Events index with durable write-through persistence.

    Appends every stored row — identity fields sealed — to the ``index``
    log before the index holds it (an append that raises changes
    nothing), and replays the log on construction (:meth:`EventsIndex.replay`).
    Withdrawals persist as tombstone rows, which compaction later reclaims
    together with the rows they hide.
    """

    def __init__(self, log: SegmentedLog, keystore,
                 encrypt_identity: bool = True) -> None:
        super().__init__(keystore, encrypt_identity=encrypt_identity)
        self._store = log
        self.replay(log.iter_records())

    def _persist(self, row: dict) -> None:
        self._store.append(row_json(row))

    def flush(self) -> None:
        """Group-commit barrier: commit every pending row (queries read memory)."""
        self._store.flush()
