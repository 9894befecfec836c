"""Named key management.

The data controller holds one key per purpose ("index-identity", per-producer
channel keys, audit MAC key).
"""

from __future__ import annotations

from repro.crypto.cipher import SealedBox, derive_key
from repro.exceptions import KeyNotFoundError, TokenError


class KeyStore:
    """Named keys, each exposing a :class:`SealedBox`.

    A key has one version, 1, for the life of the store.  Tokens carry it
    as a prefix (``v1:...``), the form sealed tokens take on disk;
    :meth:`open_` refuses any other.

    Key derivation is deterministic in ``(master secret, name)`` and a
    :class:`SealedBox` is stateless (each nonce is synthesized from the
    caller's context and the plaintext), so the derived boxes are shared
    process-wide through a class-level **key-schedule cache**: a
    federation of *k* nodes built from one master secret derives each
    channel key once instead of once per node.
    """

    #: Process-wide schedule cache: (master, name) -> SealedBox.
    _schedule: dict[tuple[str, str], SealedBox] = {}
    _schedule_cap = 4096

    def __init__(self, master_secret: str) -> None:
        if not master_secret:
            raise KeyNotFoundError("master secret must be non-empty")
        self._master = master_secret
        self._boxes: dict[str, SealedBox] = {}

    def create(self, name: str) -> None:
        """Create key ``name`` (no-op if it already exists)."""
        if name in self._boxes:
            return
        box = KeyStore._schedule.get((self._master, name))
        if box is None:
            if len(KeyStore._schedule) >= KeyStore._schedule_cap:
                KeyStore._schedule.clear()
            box = KeyStore._schedule[self._master, name] = SealedBox(
                derive_key(self._master, f"key:{name}:v1"))
        self._boxes[name] = box

    def _box(self, name: str) -> SealedBox:
        try:
            return self._boxes[name]
        except KeyError as exc:
            raise KeyNotFoundError(f"no key named {name!r}") from exc

    def seal(self, name: str, plaintext: str, context: str) -> str:
        """Seal ``plaintext`` under key ``name``; equal ``(context,
        plaintext)`` pairs give equal tokens."""
        return "v1:" + self._box(name).seal(plaintext, context)

    def open_(self, name: str, token: str) -> str:
        """Open a ``v1:`` token sealed under key ``name``."""
        box = self._box(name)  # raises if the key does not exist
        prefix, _, body = token.partition(":")
        if prefix != "v1" or not body:
            raise TokenError(f"token does not carry the v1: prefix of key {name!r}")
        return box.open(body)
