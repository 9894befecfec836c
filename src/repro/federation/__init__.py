"""Federation: N data controllers operating as one logical CSS platform.

The paper's deployment served one territory behind a single data
controller; this subsystem scales the same architecture horizontally while
keeping its privacy model intact:

* :mod:`~repro.federation.ring` — consistent hashing over a keyed digest
  of the (never-plaintext) subject reference partitions the events index;
* :mod:`~repro.federation.link` — the simulated inter-node transport:
  canonical-JSON payloads, deterministic latency, scripted failure
  injection, retry through the bus's :class:`~repro.bus.delivery.DeliveryPolicy`;
* :mod:`~repro.federation.membership` — the static ring of nodes and the
  link table;
* :mod:`~repro.federation.index` — the sharded events index a controller
  with a membership builds, storing sealed entries on their owner shard;
* :mod:`~repro.federation.node` — both halves of every cross-node
  operation: the handler table a node serves and the one client call
  (``FederationNode.ask``) every request leaves through.  The
  load-bearing rule: a request-for-details is ALWAYS decided on the
  **home node** of the producing gateway, by that node's own PDP and
  local cooperation gateway — Algorithms 1–2 never leave the producer's
  side;
* :mod:`~repro.federation.audit` — guarantor inquiries fan out to every
  node and merge one total-ordered, per-node-verified trail;
* :mod:`~repro.federation.platform` — the N-node deployment facade
  (N ≥ 1: a one-node platform is a federation of one, no link built)
  every scenario and workload run is built on.
"""

from repro.federation.audit import FederatedAuditEntry, FederatedAuditTrail
from repro.federation.index import FederatedIndexStore
from repro.federation.link import Link, LinkStats
from repro.federation.membership import StaticMembership
from repro.federation.node import FederationNode
from repro.federation.platform import FederatedPlatform, RebalanceReport
from repro.federation.ring import HashRing, subject_shard_key

__all__ = [
    "FederatedAuditEntry",
    "FederatedAuditTrail",
    "FederatedIndexStore",
    "FederatedPlatform",
    "FederationNode",
    "HashRing",
    "Link",
    "LinkStats",
    "RebalanceReport",
    "StaticMembership",
    "subject_shard_key",
]
