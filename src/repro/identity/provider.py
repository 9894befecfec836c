"""Identity provider consulted by the data controller.

The provider authenticates an actor's presented credential and validates
the *role assertion*: the role the actor operates under must be the role
its credential certifies.  This is what turns the base platform's
self-declared roles (the trusted-parties assumption of §5) into verified
attributes — the future-work extension of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import AccessDeniedError, TokenError
from repro.identity.credentials import CredentialAuthority, RoleCredential


@dataclass(frozen=True)
class AuthContext:
    """The outcome of a successful authentication."""

    actor_id: str
    verified_role: str
    credential_id: str


class LocalIdentityProvider:
    """Validates credentials against a local credential authority.

    A production deployment would swap this for a federation client (PdD);
    the data controller only depends on :meth:`authenticate`.
    """

    def __init__(self, authority: CredentialAuthority) -> None:
        self._authority = authority

    def authenticate(self, actor_id: str, credential: RoleCredential | None,
                     asserted_role: str = "") -> AuthContext:
        """Authenticate ``actor_id`` and validate its role assertion.

        Raises :class:`~repro.exceptions.AccessDeniedError` when the
        credential is missing, invalid, bound to a different actor, or
        certifies a different role than asserted.
        """
        if credential is None:
            raise AccessDeniedError(
                f"identity management active: {actor_id!r} must present a credential"
            )
        try:
            self._authority.verify(credential)
        except TokenError as exc:
            raise AccessDeniedError(f"credential rejected: {exc}") from exc
        if credential.actor_id != actor_id:
            raise AccessDeniedError(
                f"credential {credential.credential_id!r} is bound to "
                f"{credential.actor_id!r}, not {actor_id!r}"
            )
        if asserted_role and credential.role != asserted_role:
            raise AccessDeniedError(
                f"{actor_id!r} asserts role {asserted_role!r} but its "
                f"credential certifies {credential.role!r}"
            )
        return AuthContext(
            actor_id=actor_id,
            verified_role=credential.role,
            credential_id=credential.credential_id,
        )
