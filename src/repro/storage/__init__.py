"""Persistence substrate: durable logs, snapshots, and platform archives.

The deployed CSS platform is long-lived infrastructure: contracts,
policies, the events index, gateway-held details and — crucially — the
audit trail must survive restarts, and a privacy guarantor must be able to
verify that a restored audit log is the one that was saved.

* :mod:`~repro.storage.jsonl` — append-only JSON-lines files (the
  ``jsonl`` store kind: the ablation baseline), and ``write_atomic``;
* :mod:`~repro.storage.segment` — size-segmented, checksum-framed
  append logs with sparse offset indexes and torn-tail crash repair;
* :mod:`~repro.storage.compaction` — space reclamation that preserves
  sequence identities and never touches the audit chain;
* :mod:`~repro.storage.snapshot` — sha256-manifested tar snapshots with
  verification and point-in-time restore;
* :mod:`~repro.storage.engine` — the kernel ``store`` providers:
  :class:`~repro.storage.engine.JsonlStore` (``jsonl``) and
  :class:`~repro.storage.engine.StorageEngine` (``segmented``);
* :mod:`~repro.storage.schemas` — (de)serialization of message schemas
  and simple types;
* :mod:`~repro.storage.archive` — :class:`~repro.storage.archive.PlatformArchive`:
  ``save(controller)`` writes a directory snapshot,
  ``restore(master_secret)`` rebuilds an equivalent controller.

What is archived: clock, actors, contracts, event-class versions,
policies (with their generated XACML), the events index (identity slots
stay *sealed* on disk), the id map, gateway detail stores, consent
decisions, and the full audit log (whose hash chain is re-verified against
the manifest's head digest on restore).  Live bus subscriptions are *not*
archived — they hold callbacks into consumer processes; consumers
re-subscribe after a restart, exactly as they would against a restarted
broker.
"""

from repro.storage.archive import PlatformArchive
from repro.storage.compaction import CompactionReport, compact, index_keep_predicate
from repro.storage.engine import (
    JsonlRecordLog,
    JsonlStore,
    RecordLog,
    SegmentedStore,
    StorageEngine,
)
from repro.storage.jsonl import JsonlFile
from repro.storage.segment import SegmentedLog
from repro.storage.snapshot import SnapshotManager

__all__ = [
    "CompactionReport",
    "JsonlFile",
    "JsonlRecordLog",
    "JsonlStore",
    "PlatformArchive",
    "RecordLog",
    "SegmentedLog",
    "SegmentedStore",
    "SnapshotManager",
    "StorageEngine",
    "compact",
    "index_keep_predicate",
]
