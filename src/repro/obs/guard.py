"""The telemetry privacy guard.

Telemetry must never become a side channel around the policy enforcer:
the events index seals assisted-person identities, detail messages are
filtered field-by-field — so a metric label ``subject_ref="pat-17"`` or a
span attribute carrying a detail-payload value would re-leak exactly what
the crypto and enforcement layers protect (the concern
confidentiality-preserving pub/sub work calls *metadata leakage*).

Every label and span attribute therefore passes through a
:class:`PrivacyGuard` before it is stored.  Keys are classified against

* a **blocked-key set** — identifying slots of the platform's messages
  (``subject_ref``, ``subject_display``, patient/citizen ids, ...);
* **blocked markers** — substrings (``subject``, ``patient``, ...) that
  catch variations of those keys without enumerating them;
* **restricted keys** registered at runtime — the controller registers
  every declared event class's field names, so detail-payload keys
  (``Hemoglobin``, ``HivResult``, ...) can never carry plaintext values
  into telemetry either.

A guarded value is either **hashed** (keyed digest, mode ``"hash"`` — the
operational default: dashboards keep cardinality, lose identity) or
**rejected** (mode ``"reject"`` raises :class:`TelemetryPrivacyError` —
the strict mode the privacy-invariant tests run under).
"""

from __future__ import annotations

import hashlib

from repro.exceptions import PrivacyError

#: Guard modes.
MODE_HASH = "hash"
MODE_REJECT = "reject"

#: Prefix stamped on hashed label values so redaction is visible.
HASH_PREFIX = "h:"

#: Exact label/attribute keys that always identify a person.
DEFAULT_BLOCKED_KEYS = frozenset({
    "subject_ref", "subject_id", "subject_display", "subject_name",
    "patient_id", "citizen_id", "person_id", "name", "surname",
    "fiscal_code", "ssn",
})

#: Substrings (on the normalised key) that mark a key as identifying.
DEFAULT_BLOCKED_MARKERS = ("subject", "patient", "citizen", "assisted", "person")


class TelemetryPrivacyError(PrivacyError):
    """A metric label or span attribute would leak identifying data."""


def _normalise(key: str) -> str:
    return key.replace("-", "_").replace(" ", "_").lower()


class PrivacyGuard:
    """Classifies and sanitises telemetry label/attribute pairs."""

    def __init__(
        self,
        mode: str = MODE_HASH,
        secret: str = "css-telemetry",
        blocked_keys: frozenset[str] = DEFAULT_BLOCKED_KEYS,
        blocked_markers: tuple[str, ...] = DEFAULT_BLOCKED_MARKERS,
    ) -> None:
        if mode not in (MODE_HASH, MODE_REJECT):
            raise ValueError(f"unknown guard mode {mode!r}; use 'hash' or 'reject'")
        self.mode = mode
        self._secret = secret
        self._blocked = {_normalise(key) for key in blocked_keys}
        self._markers = tuple(blocked_markers)
        self._restricted: set[str] = set()
        #: Raw key -> classification; every distinct key is classified once.
        self._identifying: dict[str, bool] = {}
        self._memos: list[dict] = []

    # -- classification ----------------------------------------------------

    def restrict_keys(self, keys) -> None:
        """Add runtime-discovered sensitive keys (detail-payload fields).

        Growing the restricted set drops the classification table and
        every :meth:`memo`, so a key restricted after it was used as a
        plain label is hashed (or rejected) from then on.
        """
        known = len(self._restricted)
        self._restricted.update(_normalise(key) for key in keys)
        if len(self._restricted) != known:
            self._identifying.clear()
            for memo in self._memos:
                memo.clear()

    def is_identifying(self, key: str) -> bool:
        """Whether ``key`` names identifying or sensitive information."""
        found = self._identifying.get(key)
        if found is None:
            found = self._identifying[key] = self._classify(key)
        return found

    def _classify(self, key: str) -> bool:
        normalised = _normalise(key)
        if normalised in self._blocked or normalised in self._restricted:
            return True
        return any(marker in normalised for marker in self._markers)

    # -- memoisation of static label sets -----------------------------------

    def memo(self) -> dict:
        """A dict this guard empties whenever a key's classification changes.

        Callers key it on :meth:`static_key`, so an identifying value is
        never retained as a key and always takes the hash/reject path of
        :meth:`sanitize`.
        """
        memo: dict = {}
        self._memos.append(memo)
        return memo

    def static_key(self, labels: dict[str, object]) -> tuple | None:
        """``labels`` as a memo key, or ``None`` when they may not be one.

        That is when a key is identifying, or a value is not a plain
        ``str``: only such a value renders to itself, so only then do
        equal keys sanitise equally.
        """
        for key, value in labels.items():
            if type(value) is not str or self.is_identifying(key):
                return None
        return tuple(labels.items())

    # -- sanitisation ------------------------------------------------------

    def hash_value(self, value: object) -> str:
        """Keyed one-way digest of ``value`` (short, prefix-marked)."""
        digest = hashlib.sha256(
            f"{self._secret}\x1f{value}".encode()
        ).hexdigest()[:12]
        return f"{HASH_PREFIX}{digest}"

    def sanitize(self, labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
        """Return ``labels`` as a sorted, guard-cleared tuple of pairs.

        Identifying keys are hashed or rejected according to ``mode``;
        values are rendered to strings so the result is hashable and
        serialises deterministically.
        """
        cleared: list[tuple[str, str]] = []
        for key in sorted(labels):
            value = labels[key]
            if self.is_identifying(key):
                if self.mode == MODE_REJECT:
                    raise TelemetryPrivacyError(
                        f"telemetry label {key!r} carries identifying or "
                        f"sensitive data; drop it or run the guard in "
                        f"'hash' mode"
                    )
                cleared.append((key, self.hash_value(value)))
            else:
                cleared.append((key, str(value)))
        return tuple(cleared)

