"""Keyed stream cipher and authenticated sealed boxes.

This is a *simulation-grade* cipher built only on :mod:`hashlib` and
:mod:`hmac` so the repository needs no third-party crypto dependency.  The
construction is the textbook one:

* keystream block ``i`` = ``SHA-256(key || nonce || i)``;
* ciphertext = plaintext XOR keystream (:class:`StreamCipher`);
* token = ``nonce || ciphertext || HMAC-SHA-256(mac_key, nonce || ct)``
  (:class:`SealedBox`, encrypt-then-MAC).

It is computed at C speed with the same bytes: ``key || nonce`` is hashed
once per message and each block's counter is fed to a copy of that hash
state, and the XOR is one big-int operation over the whole body
(``tests/test_crypto_cipher.py`` pins known answers and holds ``apply``
equal to the per-block, per-byte loop as a property).

It provides real confidentiality/integrity against the honest-but-curious
threat model the paper assumes (trusted parties, §5), while remaining fully
deterministic and dependency-free for tests and benchmarks.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.exceptions import CryptoError, TokenError

_BLOCK = 32  # SHA-256 digest size.


def derive_key(secret: str | bytes, context: str) -> bytes:
    """Derive a 32-byte subkey from ``secret`` bound to ``context``.

    Distinct contexts ("encrypt", "mac", per-producer labels, ...) yield
    independent keys, so one master secret can safely serve the whole
    platform.
    """
    if isinstance(secret, str):
        secret = secret.encode()
    if not secret:
        raise CryptoError("cannot derive a key from an empty secret")
    return _hmac.new(secret, f"derive:{context}".encode(), hashlib.sha256).digest()


class StreamCipher:
    """SHA-256 counter-mode stream cipher.

    Encryption and decryption are the same XOR operation; a caller-supplied
    ``nonce`` makes each message's keystream unique.  Use :class:`SealedBox`
    unless you explicitly do not want integrity protection.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("stream cipher key must be at least 16 bytes")
        self._key = bytes(key)

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        prefix = hashlib.sha256(self._key + nonce)
        blocks = []
        for i in range((length + _BLOCK - 1) // _BLOCK):
            block = prefix.copy()
            block.update(i.to_bytes(8, "big"))
            blocks.append(block.digest())
        return b"".join(blocks)[:length]

    def apply(self, data: bytes, nonce: bytes) -> bytes:
        """XOR ``data`` with the keystream for ``nonce`` (symmetric)."""
        if len(nonce) < 8:
            raise CryptoError("nonce must be at least 8 bytes")
        length = len(data)
        stream = self._keystream(nonce, length)
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(stream, "big")).to_bytes(length, "big")


class SealedBox:
    """Encrypt-then-MAC tokens over UTF-8 strings.

    The events index uses sealed boxes to store identifying fields: the token
    is opaque to anyone without the key, and any bit flip is detected at
    :meth:`open` time.  Nonces are derived deterministically from a caller
    sequence number so the whole platform stays reproducible under a seed.
    """

    def __init__(self, secret: str | bytes) -> None:
        self._enc_key = derive_key(secret, "encrypt")
        self._mac_key = derive_key(secret, "mac")
        self._cipher = StreamCipher(self._enc_key)

    def seal(self, plaintext: str, sequence: int) -> str:
        """Encrypt ``plaintext`` into a hex token using nonce #``sequence``."""
        if not 0 <= sequence < 2**64:
            raise CryptoError("sequence number must be in [0, 2**64)")
        nonce = hashlib.sha256(b"nonce" + sequence.to_bytes(8, "big") + self._enc_key).digest()[:16]
        ciphertext = self._cipher.apply(plaintext.encode(), nonce)
        tag = _hmac.new(self._mac_key, nonce + ciphertext, hashlib.sha256).digest()
        return (nonce + ciphertext + tag).hex()

    def open(self, token: str) -> str:
        """Decrypt and authenticate a token produced by :meth:`seal`.

        Raises :class:`~repro.exceptions.TokenError` if the token is
        malformed or fails the integrity check.
        """
        try:
            raw = bytes.fromhex(token)
        except ValueError as exc:
            raise TokenError("token is not valid hex") from exc
        if len(raw) < 16 + _BLOCK:
            raise TokenError("token too short")
        nonce, body = raw[:16], raw[16:]
        ciphertext, tag = body[:-_BLOCK], body[-_BLOCK:]
        expected = _hmac.new(self._mac_key, nonce + ciphertext, hashlib.sha256).digest()
        if not _hmac.compare_digest(tag, expected):
            raise TokenError("token failed integrity verification")
        return self._cipher.apply(ciphertext, nonce).decode()

    def is_valid(self, token: str) -> bool:
        """Return True if ``token`` authenticates without raising."""
        try:
            self.open(token)
        except TokenError:
            return False
        return True
