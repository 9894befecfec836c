"""Consistent-hash ring assigning data subjects to controller nodes.

The events index is partitioned by *subject*: all notifications about one
person live on one shard, so a subject-scoped catch-up query touches a
single node.  The routing key is a keyed digest of the subject reference
(:func:`subject_shard_key`) — the plaintext identity is never used as a
routing key and never crosses a link.

Virtual nodes (``replicas`` points per node) keep the partition balanced,
and consistent hashing keeps rebalancing minimal: adding a node moves only
the keys that node now owns, everything else stays put.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from functools import lru_cache

from repro.crypto.hashing import KeyedMac
from repro.exceptions import ConfigurationError, FederationError


@lru_cache(maxsize=16)
def _shard_mac(secret: str) -> KeyedMac:
    """The keyed MAC of one master secret, its pads hashed once."""
    return KeyedMac(secret.encode())


def subject_shard_key(secret: str, subject_ref: str) -> str:
    """Pseudonymous routing key for one data subject.

    A keyed digest (HMAC under the platform's master secret) so that the
    mapping is deterministic cluster-wide, yet the key reveals nothing
    about the person to anyone without the secret.
    """
    if not subject_ref:
        raise FederationError("cannot derive a shard key for an empty subject")
    return "sk:" + _shard_mac(secret).digest(subject_ref.encode())[:16].hex()


def _point(value: str) -> int:
    """Position of ``value`` on the 64-bit ring."""
    return int(hashlib.sha256(value.encode()).hexdigest()[:16], 16)


class HashRing:
    """A consistent-hash ring with virtual nodes."""

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ConfigurationError("ring needs at least one replica per node")
        self._replicas = replicas
        self._points: list[tuple[int, str]] = []  # sorted (position, node_id)
        self._members: set[str] = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._members

    @property
    def nodes(self) -> tuple[str, ...]:
        """The member node ids, sorted."""
        return tuple(sorted(self._members))

    def add_node(self, node_id: str) -> None:
        """Place ``node_id``'s virtual points on the ring."""
        if not node_id:
            raise FederationError("node id must be non-empty")
        if node_id in self._members:
            raise FederationError(f"node {node_id!r} is already on the ring")
        self._members.add(node_id)
        for replica in range(self._replicas):
            self._points.append((_point(f"{node_id}#{replica}"), node_id))
        self._points.sort()

    def owner_of(self, key: str) -> str:
        """The node owning ``key``: first point clockwise from its position."""
        if not self._points:
            raise FederationError("the ring has no nodes")
        position = _point(key)
        # (position,) sorts before any (position, node), so bisect_right
        # lands on the first point at-or-after the key's position.
        index = bisect_right(self._points, (position,))
        if index == len(self._points):
            index = 0  # wrap around
        return self._points[index][1]
