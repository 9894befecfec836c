"""The sealed-frame cache of the federation hot path.

A notification relayed to *k* peer nodes used to be canonical-JSON
serialized and channel-sealed once **per peer**, although every peer
receives the same bytes (the sender seals under its *own* channel key,
and a seal is deterministic in what it seals — see
:class:`repro.crypto.cipher.SealedBox`).  The
:class:`SealedFrameCache` memoizes the sealed frame by payload identity,
so the expensive seal runs once per distinct frame and the remaining
fan-out is a dictionary lookup.

Reusing a sealed token across receivers is safe under the honest-but-
curious model: the token is opaque without the derived channel key, every
receiver derives the same key from the shared master secret, and opening
is stateless — integrity and confidentiality do not depend on tokens
being unique per receiver.

There is no wire-encoding cache: a link encodes nothing while it sends
(:attr:`repro.federation.link.Link.transcript` renders what crossed on
read), so a fan-out has no encoding to share between peers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SealedFrameStats:
    """Seal-avoidance accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class SealedFrameCache:
    """Memoized sealed frames, keyed by the caller's frame identity.

    Keys must already be privacy-safe for in-memory retention (the relay
    uses ``(topic, notification)`` — the frozen notification the sender
    itself produced and holds anyway); nothing is ever exported.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self._frames: dict[object, dict] = {}
        self._max_entries = max_entries
        self.stats = SealedFrameStats()

    def __len__(self) -> int:
        return len(self._frames)

    def get(self, key: object) -> dict | None:
        """The cached sealed frame for ``key`` (None on miss)."""
        frame = self._frames.get(key)
        if frame is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return frame

    def put(self, key: object, frame: dict) -> dict:
        """Cache and return ``frame``; oldest entries drop past the cap."""
        if len(self._frames) >= self._max_entries and key not in self._frames:
            self._frames.pop(next(iter(self._frames)))
            self.stats.evictions += 1
        self._frames[key] = frame
        return frame
