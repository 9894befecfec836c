"""Keyed stream cipher and authenticated sealed boxes.

This is a *simulation-grade* cipher built only on :mod:`hashlib` and
:mod:`hmac` so the repository needs no third-party crypto dependency:

* keystream = ``SHAKE-256(key || nonce)``, one C call per message;
* ciphertext = plaintext XOR keystream (:class:`StreamCipher`);
* token = ``nonce || ciphertext || HMAC-SHA-256(mac_key, nonce || ct)``
  (:class:`SealedBox`, encrypt-then-MAC), where the nonce is synthetic
  (SIV-style): ``SHAKE-256(nonce_key || len(context) || context ||
  plaintext)[:16]``.  Sealing keeps no state, and two tokens are equal
  only for equal context and plaintext.

A token sealed under any other construction (the counter nonces of older
releases included) fails the MAC and raises
:class:`~repro.exceptions.TokenError`.  The box provides real
confidentiality/integrity against the honest-but-curious threat model the
paper assumes (trusted parties, §5), while remaining fully deterministic
and dependency-free for tests and benchmarks.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.crypto.hashing import KeyedMac
from repro.exceptions import CryptoError, TokenError

_NONCE = 16
_TAG = 32  # HMAC-SHA-256 digest size.


def derive_key(secret: str | bytes, context: str) -> bytes:
    """Derive a 32-byte subkey from ``secret`` bound to ``context``: distinct
    contexts ("encrypt", "nonce", key names, ...) yield independent keys, so
    one master secret can safely serve the whole platform."""
    if isinstance(secret, str):
        secret = secret.encode()
    if not secret:
        raise CryptoError("cannot derive a key from an empty secret")
    return _hmac.new(secret, f"derive:{context}".encode(), hashlib.sha256).digest()


def _xor(data: bytes, stream: bytes) -> bytes:
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


class StreamCipher:
    """SHAKE-256 stream cipher: encryption and decryption are the same XOR,
    and the caller's ``nonce`` makes each message's keystream unique.  Use
    :class:`SealedBox` unless you explicitly do not want integrity."""

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("stream cipher key must be at least 16 bytes")
        self._key = bytes(key)

    def apply(self, data: bytes, nonce: bytes) -> bytes:
        """XOR ``data`` with the keystream for ``nonce`` (symmetric)."""
        if len(nonce) < 8:
            raise CryptoError("nonce must be at least 8 bytes")
        return _xor(data, hashlib.shake_256(self._key + nonce).digest(len(data)))


class SealedBox:
    """Encrypt-then-MAC tokens over UTF-8 strings: opaque to anyone without
    the key, and any bit flip is detected at :meth:`open` time."""

    def __init__(self, secret: str | bytes) -> None:
        self._nonce_key = derive_key(secret, "nonce")
        self._mac = KeyedMac(derive_key(secret, "mac:siv"))
        self._cipher = StreamCipher(derive_key(secret, "encrypt"))

    def seal(self, plaintext: str, context: str) -> str:
        """Encrypt ``plaintext`` into a hex token, its nonce synthesized from
        ``context`` and ``plaintext``: equal inputs give equal tokens."""
        if not isinstance(context, str):
            raise CryptoError(f"seal context must be a string, not {context!r}")
        data, label = plaintext.encode(), context.encode()
        nonce = hashlib.shake_256(self._nonce_key + len(label).to_bytes(8, "big")
                                  + label + data).digest(_NONCE)
        body = nonce + self._cipher.apply(data, nonce)
        return (body + self._mac.digest(body)).hex()

    def open(self, token: str) -> str:
        """Decrypt and authenticate a token of :meth:`seal`;
        :class:`~repro.exceptions.TokenError` if malformed or forged."""
        try:
            raw = bytes.fromhex(token)
        except ValueError as exc:
            raise TokenError("token is not valid hex") from exc
        if len(raw) < _NONCE + _TAG:
            raise TokenError("token too short")
        body, tag = raw[:-_TAG], raw[-_TAG:]
        nonce, ciphertext = body[:_NONCE], body[_NONCE:]
        if not _hmac.compare_digest(tag, self._mac.digest(body)):
            raise TokenError("token failed integrity verification")
        return self._cipher.apply(ciphertext, nonce).decode()
