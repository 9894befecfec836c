"""Cluster membership: the ring, the nodes, and the link table.

:class:`StaticMembership` is a fixed plan of ``shards`` controller nodes
sharing one simulated clock and one master secret.  It is created
*before* any node exists (the platform builds controllers against it), so
nodes register themselves as they come up; links between node pairs are
created lazily and cached, one per direction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.delivery import DeliveryPolicy
from repro.clock import Clock
from repro.exceptions import ConfigurationError, FederationError
from repro.federation.link import Link
from repro.federation.ring import HashRing, subject_shard_key

if TYPE_CHECKING:
    from repro.federation.node import FederationNode


class StaticMembership:
    """A fixed-shard federation plan."""

    def __init__(
        self,
        shards: int,
        clock: Clock | None = None,
        master_secret: str = "css-platform-secret",
        replicas: int = 64,
        link_latency: float = 0.005,
        link_policy: DeliveryPolicy | None = None,
        telemetry=None,
        label_guard=None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("federation needs at least one shard")
        self.clock = clock or Clock()
        self.ring = HashRing(replicas=replicas)
        self.link_latency = link_latency
        self.link_policy = link_policy or DeliveryPolicy()
        self._secret = master_secret
        self._telemetry = telemetry
        # Node-label hashing guard for per-node telemetry deployments,
        # where no single shared telemetry carries the guard.
        self._label_guard = label_guard
        self._nodes: dict[str, FederationNode] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._flushers: list = []
        self._next_shard = 0
        self.planned_nodes: tuple[str, ...] = tuple(
            self.add_shard() for _ in range(shards)
        )

    # -- topology ----------------------------------------------------------

    def add_shard(self) -> str:
        """Extend the ring with the next node id (rebalance step 1).

        Only changes ownership; the platform still has to build the node,
        let it register, and re-home the moved index entries.
        """
        node_id = f"node-{self._next_shard}"
        self._next_shard += 1
        self.ring.add_node(node_id)
        return node_id

    @property
    def node_ids(self) -> tuple[str, ...]:
        """The ring's member node ids, sorted."""
        return self.ring.nodes

    @property
    def shards(self) -> int:
        """Number of nodes on the ring."""
        return len(self.ring)

    def owner_of_subject(self, subject_ref: str) -> str:
        """The node owning a subject's index partition (keyed digest routing)."""
        return self.ring.owner_of(subject_shard_key(self._secret, subject_ref))

    # -- node registry -----------------------------------------------------

    def register(self, node: "FederationNode") -> None:
        """A node announces itself (called from ``FederationNode.__init__``)."""
        if node.node_id not in self.ring:
            raise FederationError(
                f"node {node.node_id!r} is not part of this federation plan"
            )
        if node.node_id in self._nodes:
            raise FederationError(f"node {node.node_id!r} already registered")
        self._nodes[node.node_id] = node

    def node(self, node_id: str) -> "FederationNode":
        """The registered node behind ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise FederationError(f"no registered node {node_id!r}") from exc

    def nodes(self) -> tuple["FederationNode", ...]:
        """Every registered node, ordered by node id."""
        return tuple(self._nodes[node_id] for node_id in sorted(self._nodes))

    # -- coalesced shipping barriers ---------------------------------------

    def register_flusher(self, flusher) -> None:
        """Register a shipper drain hook (batched federated index stores).

        Each batched :class:`~repro.federation.index.FederatedIndexStore`
        registers its ``flush_pending`` here so any node about to read
        cluster state can force every in-flight coalesced frame onto the
        wire first — the cluster-wide visibility barrier.
        """
        self._flushers.append(flusher)

    def flush_shippers(self) -> None:
        """Drain every registered shipper (no-op when none are batched)."""
        for flusher in self._flushers:
            flusher()

    # -- links -------------------------------------------------------------

    def link(self, source_id: str, target_id: str) -> Link:
        """The (cached) directed link ``source_id`` → ``target_id``."""
        if source_id == target_id:
            raise FederationError(f"node {source_id!r} must not link to itself")
        key = (source_id, target_id)
        if key not in self._links:
            self._links[key] = Link(
                source=source_id,
                target=self.node(target_id),
                clock=self.clock,
                latency=self.link_latency,
                policy=self.link_policy,
                telemetry=self._link_telemetry(source_id),
                source_label=self.node_label(source_id),
                target_label=self.node_label(target_id),
            )
        return self._links[key]

    def _link_telemetry(self, source_id: str):
        """The telemetry a link records against: the *source* node's own
        backend when it has one (per-node deployments), else
        the membership-wide instance (shared deployments, or None)."""
        node = self._nodes.get(source_id)
        if node is not None and node.telemetry is not None:
            return node.telemetry
        return self._telemetry

    def links(self) -> tuple[Link, ...]:
        """Every link created so far (for stats and privacy transcripts)."""
        return tuple(self._links[key] for key in sorted(self._links))

    # -- telemetry ---------------------------------------------------------

    def node_label(self, node_id: str) -> str:
        """The node id as it may appear in telemetry labels.

        Hashed through the telemetry's :class:`~repro.obs.guard.PrivacyGuard`
        (or the explicit label guard of per-node deployments) when one is
        attached, so even infrastructure topology stays pseudonymous in
        exported metrics.
        """
        guard = self._label_guard or getattr(self._telemetry, "guard", None)
        return guard.hash_value(node_id) if guard is not None else node_id
