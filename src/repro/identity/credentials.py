"""Signed role credentials.

A :class:`RoleCredential` binds an actor id to a functional role for a
bounded validity window, signed by the :class:`CredentialAuthority` — the
stand-in for the national authentication federation (PdD / ICAR INF-3) the
paper defers to.  Signatures are HMAC-SHA-256 over the canonical credential
payload under a key derived from the authority's secret; tampering with
any field invalidates the signature.  Credentials are revocable by id.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import Clock
from repro.crypto.cipher import derive_key
from repro.crypto.hashing import KeyedMac, canonical_json
from repro.exceptions import CryptoError, TokenError
from repro.ids import IdFactory


@dataclass(frozen=True)
class RoleCredential:
    """An actor's signed role assertion."""

    credential_id: str
    actor_id: str
    role: str
    issued_at: float
    expires_at: float
    signature: str

    def payload(self) -> dict[str, object]:
        """The signed portion of the credential."""
        return {
            "credential_id": self.credential_id,
            "actor_id": self.actor_id,
            "role": self.role,
            "issued_at": self.issued_at,
            "expires_at": self.expires_at,
        }


class CredentialAuthority:
    """Issues, verifies and revokes role credentials."""

    def __init__(self, secret: str, clock: Clock | None = None,
                 default_lifetime: float = 365.0 * 86400.0) -> None:
        if not secret:
            raise CryptoError("credential authority needs a secret")
        self._mac = KeyedMac(derive_key(secret, "credential-authority"))
        self._clock = clock or Clock()
        self._default_lifetime = default_lifetime
        self._ids = IdFactory(seed=f"ca:{secret[:8]}")
        self._revoked: set[str] = set()
        self._issued: dict[str, RoleCredential] = {}

    def _sign(self, payload: dict[str, object]) -> str:
        return self._mac.digest(canonical_json(payload).encode()).hex()

    # -- issuance -----------------------------------------------------------

    def issue(self, actor_id: str, role: str,
              lifetime: float | None = None) -> RoleCredential:
        """Issue a credential binding ``actor_id`` to ``role``."""
        if not actor_id:
            raise TokenError("credential needs an actor id")
        issued_at = self._clock.now()
        expires_at = issued_at + (lifetime if lifetime is not None
                                  else self._default_lifetime)
        credential_id = self._ids.next("cred")
        payload = {
            "credential_id": credential_id,
            "actor_id": actor_id,
            "role": role,
            "issued_at": issued_at,
            "expires_at": expires_at,
        }
        credential = RoleCredential(
            credential_id=credential_id,
            actor_id=actor_id,
            role=role,
            issued_at=issued_at,
            expires_at=expires_at,
            signature=self._sign(payload),
        )
        self._issued[credential_id] = credential
        return credential

    # -- verification -----------------------------------------------------------

    def verify(self, credential: RoleCredential) -> None:
        """Verify signature, expiry and revocation; raise ``TokenError`` on failure."""
        expected = self._sign(credential.payload())
        if credential.signature != expected:
            raise TokenError(
                f"credential {credential.credential_id!r} has a bad signature"
            )
        if credential.credential_id in self._revoked:
            raise TokenError(f"credential {credential.credential_id!r} was revoked")
        now = self._clock.now()
        if now < credential.issued_at:
            raise TokenError(f"credential {credential.credential_id!r} not yet valid")
        if now > credential.expires_at:
            raise TokenError(f"credential {credential.credential_id!r} expired")

    # -- revocation ----------------------------------------------------------------

    def revoke(self, credential_id: str) -> None:
        """Revoke a credential; verification fails from now on."""
        if credential_id not in self._issued:
            raise TokenError(f"never issued credential {credential_id!r}")
        self._revoked.add(credential_id)

    def is_revoked(self, credential_id: str) -> bool:
        """Whether the credential has been revoked."""
        return credential_id in self._revoked
