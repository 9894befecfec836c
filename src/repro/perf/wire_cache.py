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

There is no wire-encoding cache: a link encodes nothing and keeps
nothing of what it carries (:mod:`repro.federation.link`), so a fan-out
has no encoding to share between peers.
"""

from __future__ import annotations

#: Sealed frames kept; the oldest drops past it.
MAX_FRAMES = 256


class SealedFrameCache:
    """Memoized sealed frames, keyed by the caller's frame identity.

    Keys must already be privacy-safe for in-memory retention (the relay
    uses ``(topic, notification)`` — the frozen notification the sender
    itself produced and holds anyway); nothing is ever exported.  Its hits
    and misses are counted by the caller (``PerfLayer.record_hit("seal")``).
    """

    def __init__(self) -> None:
        self._frames: dict[object, dict] = {}

    def __len__(self) -> int:
        return len(self._frames)

    def get(self, key: object) -> dict | None:
        """The cached sealed frame for ``key`` (None on miss)."""
        return self._frames.get(key)

    def put(self, key: object, frame: dict) -> dict:
        """Cache and return ``frame``; oldest entries drop past the cap."""
        if len(self._frames) >= MAX_FRAMES and key not in self._frames:
            self._frames.pop(next(iter(self._frames)))
        self._frames[key] = frame
        return frame
