"""Exception hierarchy for the CSS reproduction.

Every error raised by the library derives from :class:`CssError` so callers
can catch platform failures with a single ``except`` clause while still being
able to distinguish the individual failure modes the paper's protocol defines
(access denial, missing contract, unknown event class, ...).
"""

from __future__ import annotations


class CssError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(CssError):
    """A component was configured inconsistently (bad parameter, missing key)."""


# ---------------------------------------------------------------------------
# Participation / contracts
# ---------------------------------------------------------------------------


class ContractError(CssError):
    """Base class for contractual-agreement violations (paper §5)."""


class NotRegisteredError(ContractError):
    """A party attempted an operation without having joined the platform."""


class AlreadyRegisteredError(ContractError):
    """A party attempted to join the platform twice under the same identity."""


class ContractInactiveError(ContractError):
    """The party's contract with the data controller is expired or revoked."""


# ---------------------------------------------------------------------------
# Event catalog / index
# ---------------------------------------------------------------------------


class CatalogError(CssError):
    """Base class for events-catalog failures."""


class UnknownEventClassError(CatalogError):
    """Referenced an event class that is not declared in the events catalog."""


class DuplicateEventClassError(CatalogError):
    """A producer declared the same event class twice."""


class UnknownEventError(CssError):
    """Referenced an event identifier that is not present in the events index."""


class UnknownProducerError(CssError):
    """Referenced a data producer unknown to the data controller."""


# ---------------------------------------------------------------------------
# Messages / schemas
# ---------------------------------------------------------------------------


class MessageError(CssError):
    """Base class for malformed notification / detail messages."""


class SchemaError(CssError):
    """An event-class schema definition is invalid."""


class ValidationError(CssError):
    """A document or message does not conform to its declared schema."""


# ---------------------------------------------------------------------------
# Privacy / access control
# ---------------------------------------------------------------------------


class PrivacyError(CssError):
    """Base class for privacy-policy related failures."""


class AccessDeniedError(PrivacyError):
    """The deny-by-default semantics rejected a request (paper §5.2).

    Carries the request that was rejected and a human-readable reason so the
    audit trail can record *why* access was denied.
    """

    def __init__(self, reason: str, request: object | None = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.request = request


class PolicyError(PrivacyError):
    """A privacy policy is malformed (empty field set, unknown fields, ...)."""


class ConsentError(PrivacyError):
    """The data subject's consent forbids the attempted disclosure."""


class ObligationError(PrivacyError):
    """A policy obligation could not be discharged at enforcement time."""


# ---------------------------------------------------------------------------
# Bus / delivery
# ---------------------------------------------------------------------------


class BusError(CssError):
    """Base class for service-bus failures."""


class UnknownTopicError(BusError):
    """Published or subscribed to a topic that does not exist."""


class SubscriptionError(BusError):
    """A subscription could not be created or resolved."""


class EndpointError(BusError):
    """A synchronous SOA endpoint invocation failed."""


# ---------------------------------------------------------------------------
# Federation
# ---------------------------------------------------------------------------


class FederationError(CssError):
    """Base class for multi-node federation failures."""


class LinkFailureError(FederationError):
    """An inter-node link dropped a call beyond its retry budget."""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class RegistryError(CssError):
    """Base class for ebXML-style registry failures."""


class ObjectNotFoundError(RegistryError):
    """Looked up a registry object id that is not stored."""


class DuplicateObjectError(RegistryError):
    """Submitted a registry object whose id is already stored."""


class QueryError(RegistryError):
    """An ad-hoc registry query is syntactically or semantically invalid."""


# ---------------------------------------------------------------------------
# Crypto / audit
# ---------------------------------------------------------------------------


class CryptoError(CssError):
    """Base class for cryptography failures."""


class KeyNotFoundError(CryptoError):
    """Referenced a key id not present in the keystore."""


class TokenError(CryptoError):
    """An encrypted token failed authentication or is malformed."""


class AuditError(CssError):
    """Base class for audit-log failures."""


class TamperedLogError(AuditError):
    """The audit log's hash chain failed verification."""


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class StorageError(CssError):
    """Base class for durable-storage failures (logs, snapshots, recovery)."""


class CorruptRecordError(StorageError):
    """A persisted record failed to parse or failed its checksum.

    Raised for damage *inside* a log — a torn tail (an interrupted final
    write) is not corruption: the segmented log truncates it on replay.
    """


class SnapshotError(StorageError):
    """A snapshot could not be created, verified or restored."""


class RecoveryError(StorageError):
    """Point-in-time recovery was asked for an impossible target."""


# ---------------------------------------------------------------------------
# Gateway / sources
# ---------------------------------------------------------------------------


class GatewayError(CssError):
    """Base class for local-cooperation-gateway failures."""


class SourceUnavailableError(GatewayError):
    """The producer's source system is offline and the detail is not cached."""


class DetailNotFoundError(GatewayError):
    """No detail message is stored for the requested source event id."""
