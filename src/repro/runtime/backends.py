"""Durable backend implementations of the runtime interfaces.

The in-memory :class:`~repro.core.index.EventsIndex` and
:class:`~repro.audit.log.AuditLog` are the references; the pair here
extends them with write-through to a durable
:class:`~repro.storage.engine.RecordLog` — each record stored once as
canonical JSON, identity slots still sealed, an audit link as the very
text its digest hashed — and replay on start.  A controller whose
``RuntimeConfig`` has a ``data_dir`` builds the pair over the ``index`` /
``audit`` logs of its :class:`~repro.storage.engine.StorageEngine`; a
restart is the same construction.  Replay streams one record at a time:
the index keeps its registry, the audit trail one digest per link, never
its records (docs/STORAGE.md).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import islice

from repro.audit.log import AuditLog, AuditRecord
from repro.core.index import EventsIndex, SealedIdentity
from repro.core.messages import NotificationMessage
from repro.crypto.hashing import HashChain
from repro.exceptions import CorruptRecordError, ObjectNotFoundError, TamperedLogError
from repro.registry.objects import RegistryObject
from repro.storage.engine import RecordLog
from repro.storage.segment import encode_entry


class JsonlAuditSink(AuditLog):
    """Hash-chained audit log with durable write-through persistence.

    A link is stored as ``<digest> <body>``: the body is the very text its
    chain digest hashes, so the sink keeps digests, not records.  Loading
    re-hashes the stored bodies against the stored digests, so tampering
    with the stored trail is detected at load time, not at the next
    guarantor review; :meth:`verify_integrity` re-walks the stored trail.
    Reads decode records from the log.
    """

    def __init__(self, log: RecordLog) -> None:
        super().__init__()
        self._store = log
        self._chain = self._rechain()

    def _stored(self) -> Iterator[tuple[str, str]]:
        """``(stored digest, body)`` per link, oldest first."""
        for _, text in self._store.iter_texts():
            if text[:1] == "{":  # digest inside the row: a flat file or an older segment
                text = encode_entry(json.loads(text))
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
        """Group-commit barrier: chain the open run, make every append durable."""
        super().flush()
        self._store.flush()


class JsonlIndexStore(EventsIndex):
    """Events index with durable write-through persistence.

    Appends every stored registry object — identity slots sealed — to the
    ``index`` log.  On construction an existing log is replayed via the
    raw-restore path; sealing keeps no nonce counter to restore (an older
    row's ``"sequence"`` is ignored).  Withdrawals persist as tombstone
    rows, which compaction later reclaims together with the rows they hide.
    """

    def __init__(self, log: RecordLog, keystore,
                 encrypt_identity: bool = True) -> None:
        super().__init__(keystore, encrypt_identity=encrypt_identity)
        self._store = log
        self._replay()

    def _replay(self) -> None:
        withdrawn: list[str] = []
        for row in self._store.iter_records():
            if row.get("tombstone"):
                withdrawn.append(row["object_id"])
                continue
            obj = RegistryObject.from_row(row)
            status = obj.status
            self.restore_raw(obj)  # approves; the stored status wins
            obj.status = status
        for object_id in withdrawn:
            try:
                super().withdraw(object_id)
            except ObjectNotFoundError:  # its row was already compacted away
                pass

    def _persist(self, obj: RegistryObject) -> None:
        self._store.append(obj.to_row())

    def store(self, notification: NotificationMessage,
              sealed: SealedIdentity | None = None) -> RegistryObject:
        """Index a notification and append its sealed row to disk."""
        obj = super().store(notification, sealed=sealed)
        self._persist(obj)
        return obj

    def flush(self) -> None:
        """Group-commit barrier: make every buffered row durable (queries read memory)."""
        self._store.flush()

    def withdraw(self, event_id: str) -> None:
        """Hide an indexed entry and persist the withdrawal as a tombstone.

        Registry object ids *are* event ids, so the entry stays hidden
        across restarts, and compaction may reclaim it and its tombstone.
        """
        super().withdraw(event_id)
        self._store.append({"tombstone": True, "object_id": event_id})

    def adopt_raw(self, obj: RegistryObject) -> None:
        """Index a raw registry object *and* persist its row.

        The federated shard-transfer path: entries shipped by a peer
        (identity slots still sealed) must survive this node's restarts,
        unlike archive restores which replay from their own snapshot.
        """
        super().adopt_raw(obj)
        self._persist(obj)
