"""Named key management.

The data controller holds one key per purpose ("index-identity", per-producer
channel keys, audit MAC key).
"""

from __future__ import annotations

from repro.crypto.cipher import SealedBox, derive_key
from repro.exceptions import KeyNotFoundError, TokenError


class KeyStore:
    """Named keys, each exposing a :class:`SealedBox`.

    Tokens carry their key's version as a prefix (``v1:...``), the form
    sealed tokens take on disk; :meth:`open_` reads it to pick the box.

    Key derivation is deterministic in ``(master secret, name, version)``
    and a :class:`SealedBox` is stateless (each nonce is synthesized from
    the caller's context and the plaintext), so the derived boxes are
    shared process-wide through a class-level **key-schedule cache**: a
    federation of *k* nodes built from one master secret derives each
    channel key once instead of once per node.
    """

    #: Process-wide schedule cache: (master, name, version) -> SealedBox.
    _schedule: dict[tuple[str, str, int], SealedBox] = {}
    _schedule_cap = 4096

    def __init__(self, master_secret: str) -> None:
        if not master_secret:
            raise KeyNotFoundError("master secret must be non-empty")
        self._master = master_secret
        self._versions: dict[str, int] = {}
        self._boxes: dict[tuple[str, int], SealedBox] = {}

    def create(self, name: str) -> None:
        """Create key ``name`` at version 1 (no-op if it already exists)."""
        if name in self._versions:
            return
        self._versions[name] = 1
        self._boxes[(name, 1)] = self._make_box(name, 1)

    def _make_box(self, name: str, version: int) -> SealedBox:
        cache_key = (self._master, name, version)
        box = KeyStore._schedule.get(cache_key)
        if box is not None:
            return box
        if len(KeyStore._schedule) >= KeyStore._schedule_cap:
            KeyStore._schedule.clear()
        box = SealedBox(derive_key(self._master, f"key:{name}:v{version}"))
        KeyStore._schedule[cache_key] = box
        return box

    def _current_version(self, name: str) -> int:
        try:
            return self._versions[name]
        except KeyError as exc:
            raise KeyNotFoundError(f"no key named {name!r}") from exc

    def current_version(self, name: str) -> int:
        """Current version number of key ``name``."""
        return self._current_version(name)

    def seal(self, name: str, plaintext: str, context: str) -> str:
        """Seal ``plaintext`` under the current version of key ``name``;
        equal ``(context, plaintext)`` pairs give equal tokens."""
        version = self._current_version(name)
        token = self._boxes[(name, version)].seal(plaintext, context)
        return f"v{version}:{token}"

    def open_(self, name: str, token: str) -> str:
        """Open a token, resolving the key version from its prefix."""
        self._current_version(name)  # raises if the key does not exist
        prefix, _, body = token.partition(":")
        if not body or not prefix.startswith("v"):
            raise TokenError("token missing version prefix")
        try:
            version = int(prefix[1:])
        except ValueError as exc:
            raise TokenError(f"bad token version prefix {prefix!r}") from exc
        box = self._boxes.get((name, version))
        if box is None:
            raise TokenError(f"token sealed under unknown version {version} of key {name!r}")
        return box.open(body)
