"""Durable backend implementations of the runtime interfaces.

The in-memory classes (:class:`~repro.core.index.EventsIndex`,
:class:`~repro.audit.log.AuditLog`) are the reference implementations; the
pair here *extends* them — same queries, sealing and hash chain, inherited
unchanged — with write-through to a durable
:class:`~repro.storage.engine.RecordLog` and replay on start, so a
platform restarted over the same data directory sees its indexed
notifications (identity slots still sealed — the logs never hold
plaintext identities) and its hash-chained audit trail.

Which log implementation sits underneath is the kernel's ``store`` kind:
``jsonl`` (flat files, the ablation baseline) or ``segmented`` (the
crash-recoverable storage engine, which is its own provider).  The kernel
always takes the log from that provider — there is no flat-file fallback
beside it; a bare path is accepted only by the constructors here, for
callers that build a backend by hand.  Decisions and audit trails are
byte-identical across both — rows are serialized by
``AuditRecord.to_payload`` / ``RegistryObject.to_row`` whatever log they
land in.

A controller whose runtime has a data directory builds the pair itself::

    RuntimeConfig(data_dir="...", store="segmented")

Replay streams (:meth:`RecordLog.iter_records`), so restart memory is
bounded by one record, not by the log.
"""

from __future__ import annotations

from pathlib import Path

from repro.audit.log import AuditLog, AuditRecord
from repro.core.index import EventsIndex, SealedIdentity
from repro.core.messages import NotificationMessage
from repro.exceptions import ObjectNotFoundError, TamperedLogError
from repro.registry.objects import RegistryObject
from repro.storage.engine import JsonlRecordLog, RecordLog


def _as_log(log_or_path: str | Path | RecordLog) -> RecordLog:
    """Accept either a ready log or a path to a flat JSONL file."""
    if isinstance(log_or_path, (str, Path)):
        return JsonlRecordLog(log_or_path)
    return log_or_path


class JsonlAuditSink(AuditLog):
    """Hash-chained audit log with durable write-through persistence.

    Every appended record lands in the ``audit`` log together with its
    chain digest.  On construction an existing log is replayed into a
    fresh chain and the stored head digest re-verified, so tampering with
    the stored trail is detected at load time, not at the next guarantor
    review.  Accepts a path (flat JSONL, the historical constructor) or
    any :class:`~repro.storage.engine.RecordLog`.
    """

    def __init__(self, path: str | Path | RecordLog) -> None:
        super().__init__()
        self._store = _as_log(path)
        self._replaying = True  # stored rows are chained, not written again
        for row in self._store.iter_records():
            digest = self.append(AuditRecord.from_payload(row))
            if row.get("digest") not in (None, digest):
                raise TamperedLogError(
                    f"stored digest of audit record "
                    f"{row['record_id']!r} does not replay"
                )
        self._replaying = False

    def _persist(self, payload: dict[str, object], digest: str) -> None:
        """Write the chained record through to disk beside its digest."""
        if not self._replaying:
            payload["digest"] = digest
            self._store.append(payload)

    def flush(self) -> None:
        """Group-commit barrier: make every buffered append durable.

        A no-op for unbatched logs.  The in-memory chain is always
        current — only the durable write-through can lag, so this must
        run before the underlying files are snapshotted, verified on
        disk, or replayed by another process.  Chains the open run first.
        """
        super().flush()
        self._store.flush()


class JsonlIndexStore(EventsIndex):
    """Events index with durable write-through persistence.

    Appends every stored registry object — identity slots sealed — to the
    ``index`` log.  On construction an existing log is replayed via the
    raw-restore path, and the nonce sequence fast-forwarded so no
    keystream is reused after a restart.  Withdrawals persist as
    tombstone rows, which compaction (``segmented`` store kind) later
    reclaims together with the rows they hide.
    """

    def __init__(self, path: str | Path | RecordLog, keystore,
                 encrypt_identity: bool = True) -> None:
        super().__init__(keystore, encrypt_identity=encrypt_identity)
        self._store = _as_log(path)
        self._replay()

    def _replay(self) -> None:
        sequence = 0
        withdrawn: list[str] = []
        for row in self._store.iter_records():
            if row.get("tombstone"):
                withdrawn.append(row["object_id"])
                continue
            obj = RegistryObject.from_row(row)
            status = obj.status
            self.restore_raw(obj)  # approves; the stored status wins
            obj.status = status
            sequence = max(sequence, int(row.get("sequence", 0)))
        for object_id in withdrawn:
            try:
                super().withdraw(object_id)
            except ObjectNotFoundError:  # its row was already compacted away
                pass
        if sequence:
            self.restore_sequence(sequence)

    def _persist(self, obj: RegistryObject) -> None:
        self._store.append({**obj.to_row(), "sequence": self.sequence})

    def store(self, notification: NotificationMessage,
              sealed: SealedIdentity | None = None) -> RegistryObject:
        """Index a notification and append its sealed row to disk."""
        obj = super().store(notification, sealed=sealed)
        self._persist(obj)
        return obj

    def flush(self) -> None:
        """Group-commit barrier: make every buffered row durable.

        Queries always read the in-memory index (never stale); the
        barrier protects snapshot/restart visibility of the durable log.
        """
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
