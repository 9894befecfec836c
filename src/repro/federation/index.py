"""The sharded events index (what a controller handed a membership builds).

Wraps each node's local :class:`~repro.core.index.EventsIndex` and routes
by subject ownership: a notification is stored on the ring owner of its
subject's shard key, so all of one person's events live on one node and a
subject-scoped catch-up touches a single shard.

Wire discipline — the privacy boundary of the tentpole:

* entries cross links with identity slots **still sealed** under the
  shared ``index-identity`` key (every node derives the same key from the
  master secret, so the receiving shard can store them verbatim and any
  querying node can open them locally);
* inquiries fan out, peers return sealed raw entries, and decryption
  happens only on the querying node — plaintext identity never crosses.

Rebalancing (:meth:`rehome`) re-computes ownership after the ring grew,
ships mis-homed entries (sealed) to their new owner and *withdraws* them
locally — ebXML withdrawal keeps the row for provenance but hides it from
every inquiry, so results stay duplicate-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.index import EventsIndex, SealedIdentity, sealed_fields
from repro.core.messages import NotificationMessage
from repro.exceptions import LinkFailureError, UnknownEventError

if TYPE_CHECKING:
    from repro.federation.membership import StaticMembership


@dataclass
class FederatedIndexStats:
    """Counters of shard routing and rebalancing."""

    local_stores: int = 0
    remote_stores: int = 0


class FederatedIndexStore:
    """One node's view of the cluster-wide events index."""

    def __init__(self, local: EventsIndex, membership: "StaticMembership",
                 node_id: str, batch_size: int | None = None) -> None:
        self.local = local
        self.membership = membership
        self.node_id = node_id
        self.stats = FederatedIndexStats()
        #: Entries per coalesced frame (``batch: on``): remote stores
        #: coalesce into per-owner frames instead of one link call per
        #: entry.  ``None`` (``batch: off``) ships every entry alone.
        self._batch_size = batch_size
        #: Per-owner buffers of entries awaiting a coalesced frame.
        self._pending: dict[str, list[dict]] = {}
        if batch_size is not None:
            membership.register_flusher(self.flush_pending)

    @property
    def encrypt_identity(self) -> bool:
        """Mirrors the local index (the ablation knob applies per node)."""
        return self.local.encrypt_identity

    def entries(self, withdrawn: bool = False) -> list[dict]:
        """This shard's rows — what a monitor of the node reads."""
        return self.local.entries(withdrawn)

    def dump(self) -> list[dict]:
        """This shard's rows and tombstones — what an archive of the node stores."""
        return self.local.dump()

    def _self_node(self):
        """This node's federation endpoint — every request leaves through
        its :meth:`~repro.federation.node.FederationNode.ask`."""
        return self.membership.node(self.node_id)

    def __len__(self) -> int:
        return len(self.local.entries())

    def __contains__(self, event_id: str) -> bool:
        return self.local.row(event_id) is not None

    # -- storage (shard routing) -------------------------------------------

    def seal_identity(self, notification: NotificationMessage) -> SealedIdentity:
        """Seal identity slots with the local keystore (before indexing)."""
        return self.local.seal_identity(notification)

    def store(self, notification: NotificationMessage,
              sealed: SealedIdentity | None = None):
        """Store on the owning shard: locally, or sealed over the link."""
        if sealed is None:
            sealed = self.local.seal_identity(notification)
        owner = self.membership.owner_of_subject(notification.subject_ref)
        if owner == self.node_id:
            self.stats.local_stores += 1
            return self.local.store(notification, sealed=sealed)
        entry = sealed_fields(notification, sealed)
        # The identity slots are already index-key tokens, but the summary
        # text may name the subject — the whole entry crosses sealed under
        # this node's channel key.
        if self._batch_size is not None:
            return self._enqueue_remote(owner, entry)
        response = self._self_node().ask(
            owner, "index.store", {"entry": entry}, seal=True)
        self.stats.remote_stores += 1
        return response

    # -- coalesced shipping (batch kind ``on``) ------------------------------

    def _enqueue_remote(self, owner: str, entry: dict) -> dict:
        """Buffer a remote entry for the owner's next coalesced frame.

        The link latency is charged to the clock *now* — exactly where
        the unbatched call would have advanced it — so every record
        stamped after this store carries the same timestamp in both
        modes; the flush then ships without advancing it again.
        """
        link = self.membership.link(self.node_id, owner)
        self.membership.clock.advance(link.latency)
        self.stats.remote_stores += 1
        buffer = self._pending.setdefault(owner, [])
        buffer.append(entry)
        if len(buffer) >= self._batch_size:
            self._flush_owner(owner)
        return {"ok": True, "node": owner, "queued": True}

    def _flush_owner(self, owner: str) -> None:
        entries = self._pending.pop(owner, None)
        if not entries:
            return
        try:
            # One seal over the whole frame: one key-schedule invocation
            # for N entries instead of N.
            self._self_node().ask(owner, "index.store", {"entries": entries},
                                  seal=True, entries=len(entries))
        except LinkFailureError:
            # Dropped, not refused: these publishes were acknowledged, so
            # the frame stays pending, in order, for the next flush.  A
            # frame the owner *answered* — accepted or rejected — is done.
            self._pending[owner] = entries
            raise

    def flush_pending(self) -> None:
        """Ship every buffered frame (deterministic owner order)."""
        for owner in sorted(self._pending):
            self._flush_owner(owner)

    def flush(self) -> None:
        """Group-commit barrier: pending frames out, durable rows down."""
        self.flush_pending()
        self.local.flush()

    def _read_barrier(self) -> None:
        """Make cluster state current before a read crosses shards.

        Any node may hold frames destined for the shard a read is about
        to touch, so the barrier flushes every shipper in the membership,
        not just this node's.
        """
        if self._batch_size is not None:
            self.membership.flush_shippers()

    def accept_remote(self, entry: dict) -> None:
        """Store an entry shipped by a peer (identity slots still sealed)."""
        # A durable local shard also persists the adopted row.
        self.local.adopt_raw(entry)

    # -- local raw access (the peer-facing surface) -------------------------

    def local_raw_inquire(
        self,
        event_types: list[str],
        since: float | None = None,
        until: float | None = None,
        producer_id: str | None = None,
    ) -> list[dict]:
        """This shard's matching entries, identity slots kept sealed."""
        return self.local.raw_inquire(event_types, since, until, producer_id)

    def local_raw_get(self, event_id: str) -> dict | None:
        """One sealed raw entry of this shard (None if absent/withdrawn)."""
        return self.local.row(event_id)

    def local_count_for_type(self, event_type: str) -> int:
        """Live entries of one class on this shard."""
        return len(self.local.raw_inquire([event_type]))

    # -- cluster-wide retrieval ---------------------------------------------

    def _peer_ids(self) -> tuple[str, ...]:
        return tuple(n for n in self.membership.node_ids if n != self.node_id)

    def _ask_peers(self, operation: str, payload: dict) -> Iterator[dict]:
        """Send one identical request to every peer; yields each answer."""
        node = self._self_node()
        for peer in self._peer_ids():
            yield node.ask(peer, operation, payload)

    def get(self, event_id: str) -> NotificationMessage:
        """Rebuild a notification from whichever shard holds it."""
        self._read_barrier()
        if self.local.row(event_id) is not None:
            return self.local.get(event_id)
        node = self._self_node()
        for peer in self._peer_ids():
            entry = node.ask(peer, "index.get", {"event_id": event_id})["entry"]
            if entry is not None:
                return self.local.open_entry(entry)
        raise UnknownEventError(f"no notification indexed under {event_id!r}")

    def inquire(
        self,
        event_types: list[str],
        since: float | None = None,
        until: float | None = None,
        producer_id: str | None = None,
    ) -> list[NotificationMessage]:
        """Cluster-wide inquiry: local shard + sealed fan-out, opened here."""
        self._read_barrier()
        results = {
            entry["event_id"]: self.local.open_entry(entry)
            for entry in self.local_raw_inquire(
                event_types, since=since, until=until, producer_id=producer_id
            )
        }
        payload = {"event_types": list(event_types), "since": since,
                   "until": until, "producer_id": producer_id}
        for answer in self._ask_peers("index.inquire", payload):
            for entry in answer["entries"]:
                results.setdefault(entry["event_id"], self.local.open_entry(entry))
        return sorted(results.values(), key=lambda n: (n.occurred_at, n.event_id))

    def count_for_type(self, event_type: str) -> int:
        """Cluster-wide live count of one class."""
        self._read_barrier()
        return self.local_count_for_type(event_type) + sum(
            answer["count"]
            for answer in self._ask_peers("index.count", {"event_type": event_type})
        )

    # -- rebalance ----------------------------------------------------------

    def rehome(self) -> int:
        """Ship entries this node no longer owns to their new shard.

        Called after the ring changed (a node joined).  The subject token
        is opened *locally* to re-compute ownership — the plaintext stays
        on this node; the entry crosses with its slots still sealed.
        Moved entries are withdrawn locally (hidden, not erased).
        Returns how many entries moved.
        """
        self._read_barrier()
        moved = 0
        for row in self.local.entries():
            subject_ref = self.local.open_identity(row["subject_ref"])
            owner = self.membership.owner_of_subject(subject_ref)
            if owner == self.node_id:
                continue
            self._self_node().ask(owner, "index.rehome", {"entry": row}, seal=True)
            self.local.withdraw(row["event_id"])  # durable shards add a tombstone
            moved += 1
        return moved
