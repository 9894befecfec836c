"""Cryptographic substrate for the CSS platform.

The paper requires that "the identifying information of the person specified
in the notification is stored in encrypted form to comply with the privacy
regulations" (§4).  The deployment delegated cipher suites to the national
security infrastructure (PdD); as that is unavailable, this subpackage
provides a self-contained, stdlib-only substitute:

* :class:`~repro.crypto.cipher.StreamCipher` — a keyed SHAKE-256 stream
  cipher.
* :class:`~repro.crypto.cipher.SealedBox` — encrypt-then-MAC tokens with
  integrity protection and a synthetic (SIV-style) nonce.
* :class:`~repro.crypto.keystore.KeyStore` — named keys, each sealing under its own box.
* :mod:`~repro.crypto.hashing` — the keyed HMAC (one per secret) and the
  tamper-evident hash chain used by the audit log.

The substitution is documented in DESIGN.md §6; the platform only depends on
the *interface* (encrypt/decrypt/verify), so a production deployment would
swap in a hardware-backed implementation without touching the callers.
"""

from repro.crypto.cipher import SealedBox, StreamCipher, derive_key
from repro.crypto.hashing import HashChain, KeyedMac
from repro.crypto.keystore import KeyStore

__all__ = [
    "HashChain",
    "KeyStore",
    "KeyedMac",
    "SealedBox",
    "StreamCipher",
    "derive_key",
]
