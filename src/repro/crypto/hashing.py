"""Hashing helpers: a keyed HMAC and a tamper-evident hash chain.

The audit log (paper §4: the data controller "maintains logs of the access
request for auditing purposes") must be credible to a privacy guarantor, so
records are chained: each entry's digest covers its payload *and* the digest
of the previous entry.  Any retroactive edit breaks every later link.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable

from repro.exceptions import TamperedLogError

#: Digest of the empty chain — the "genesis" link.
GENESIS = hashlib.sha256(b"css-audit-genesis").hexdigest()

_BLOCK = 64  # SHA-256 block size in bytes.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class KeyedMac:
    """HMAC-SHA-256 under one key (RFC 2104), its padded-key blocks hashed
    once per secret: each tag is two state copies, equal to ``hmac.digest(key,
    message, "sha256")``, a key longer than one block hashed first."""

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        block = key.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def digest(self, message: bytes) -> bytes:
        """The 32-byte tag of ``message``."""
        inner, outer = self._inner.copy(), self._outer.copy()
        inner.update(message)
        outer.update(inner.digest())
        return outer.digest()


#: The one encoder behind :func:`canonical_json` (``json.dumps`` builds one per call).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)


def canonical_json(payload: object) -> str:
    """Deterministic JSON rendering used for hashing structured records."""
    return _CANONICAL.encode(payload)


class HashChain:
    """An append-only chain of digests over records' canonical JSON text.

    ``append(body)`` returns the new head digest; :meth:`verify` recomputes
    the chain over the bodies and raises
    :class:`~repro.exceptions.TamperedLogError` on any mismatch.
    """

    def __init__(self) -> None:
        self._digests: list[str] = []

    def __len__(self) -> int:
        return len(self._digests)

    @property
    def head(self) -> str:
        """Digest of the latest link (``GENESIS`` if the chain is empty)."""
        return self._digests[-1] if self._digests else GENESIS

    @staticmethod
    def link(previous: str, body: str) -> str:
        """Compute the digest chaining ``body`` onto ``previous``."""
        return hashlib.sha256(f"{previous}\x1f{body}".encode()).hexdigest()

    def append(self, body: str) -> str:
        """Chain ``body`` and return the resulting digest."""
        digest = self.link(self.head, body)
        self._digests.append(digest)
        return digest

    def commit(self, digest: str) -> None:
        """Advance the head to ``digest``, a :meth:`link` onto it computed earlier."""
        self._digests.append(digest)

    def digest_at(self, index: int) -> str:
        """Digest of link ``index`` (0-based)."""
        return self._digests[index]

    def verify(self, bodies: Iterable[str]) -> None:
        """Recompute the chain over ``bodies`` and compare digest by digest.

        ``bodies`` is consumed one at a time, its length checked at the
        end.  Raises :class:`~repro.exceptions.TamperedLogError` naming the
        first broken link; silent success means the log is intact.
        """
        previous, count = GENESIS, 0
        for count, body in enumerate(bodies, 1):
            if count <= len(self._digests):
                previous = self.link(previous, body)
                if previous != self._digests[count - 1]:
                    raise TamperedLogError(f"hash chain broken at record {count - 1}")
        if count != len(self._digests):
            raise TamperedLogError(
                f"chain has {len(self._digests)} links but {count} payloads supplied"
            )
