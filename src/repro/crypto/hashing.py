"""Hashing helpers: HMAC digests and a tamper-evident hash chain.

The audit log (paper §4: the data controller "maintains logs of the access
request for auditing purposes") must be credible to a privacy guarantor, so
records are chained: each entry's digest covers its payload *and* the digest
of the previous entry.  Any retroactive edit breaks every later link.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import json
from collections.abc import Iterable

from repro.exceptions import TamperedLogError

#: Digest of the empty chain — the "genesis" link.
GENESIS = hashlib.sha256(b"css-audit-genesis").hexdigest()


def hmac_digest(key: bytes, message: bytes) -> str:
    """Hex HMAC-SHA-256 of ``message`` under ``key``."""
    return _hmac.new(key, message, hashlib.sha256).hexdigest()


def canonical_json(payload: object) -> str:
    """Deterministic JSON rendering used for hashing structured records."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


class HashChain:
    """An append-only chain of record digests.

    ``append(payload)`` returns the new head digest; :meth:`verify` recomputes
    the chain over stored payloads and raises
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
    def link(previous: str, payload: object) -> str:
        """Compute the digest chaining ``payload`` onto ``previous``."""
        body = previous + "\x1f" + canonical_json(payload)
        return hashlib.sha256(body.encode()).hexdigest()

    def append(self, payload: object) -> str:
        """Chain ``payload`` and return the resulting digest."""
        digest = self.link(self.head, payload)
        self._digests.append(digest)
        return digest

    def digest_at(self, index: int) -> str:
        """Digest of link ``index`` (0-based)."""
        return self._digests[index]

    def verify(self, payloads: Iterable[object]) -> None:
        """Recompute the chain over ``payloads`` and compare digest by digest.

        ``payloads`` is consumed one at a time, its length checked at the
        end.  Raises :class:`~repro.exceptions.TamperedLogError` naming the
        first broken link; silent success means the log is intact.
        """
        previous, count = GENESIS, 0
        for count, payload in enumerate(payloads, 1):
            if count <= len(self._digests):
                previous = self.link(previous, payload)
                if previous != self._digests[count - 1]:
                    raise TamperedLogError(f"hash chain broken at record {count - 1}")
        if count != len(self._digests):
            raise TamperedLogError(
                f"chain has {len(self._digests)} links but {count} payloads supplied"
            )
