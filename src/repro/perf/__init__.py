"""Hot-path performance layer (kernel kind ``perf``).

The paper's two-phase protocol puts the policy enforcer and the
notification bus on the critical path of *every* exchange (§5.2,
Algorithms 1–2).  This package makes those paths index- and cache-backed
without changing a single decision:

* :mod:`repro.perf.policy_index` — a per-``(producer, event type)``
  :class:`~repro.perf.policy_index.PolicyIndex` with actor/role buckets,
  so the PDP evaluates only the policies whose target can match the
  requesting actor, plus a compiled-XACML cache that stops
  ``to_xacml()`` from re-running on every request;
* :mod:`repro.perf.decision_cache` — a versioned
  :class:`~repro.perf.decision_cache.DecisionCache` keyed by an opaque
  keyed digest of ``(producer, subject, actor, role, event type,
  purpose)`` and invalidated by the monotonic policy / consent /
  endpoint epochs, so a policy edit, a consent revocation or an
  endpoint withdrawal drops the stale entries immediately;
* :mod:`repro.perf.topic_index` — a segment trie over subscription
  patterns plus a per-topic fan-out memo for the broker;
* :mod:`repro.perf.wire_cache` — canonical-JSON wire hints and sealed
  relay frames for the federation links, and the keystore's shared
  key-schedule cache.

Everything is toggled by ``RuntimeConfig.perf``: ``indexed`` (the
default) builds the layer, ``none`` builds nothing — ``controller.perf``
is ``None`` and every module keeps its historical linear scan behind the
``is not None`` check it already makes.  Deny-by-default and the privacy
invariants are
preserved bit-for-bit — the benchmarks assert byte-identical decisions
and audit trails between the two modes on the same seed.

Cache keys and telemetry labels never carry plaintext identities: keys
are keyed SHA-256 digests and the only label the counters use is the
cache *name* (``perf.cache.hits{cache=decision}`` and friends).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.perf.decision_cache import CachedDecision, DecisionCache
from repro.perf.policy_index import PolicyIndex

#: Counter of perf-layer cache hits, labelled by cache name only.
CACHE_HITS = "perf.cache.hits"
#: Counter of perf-layer cache misses, labelled by cache name only.
CACHE_MISSES = "perf.cache.misses"
#: Histogram of candidate policies actually handed to the PDP per decide.
CANDIDATES_SCANNED = "pdp.candidates_scanned"

_CANDIDATE_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)


@dataclass
class PerfStats:
    """Hit/miss accounting per cache (benchmarks read these directly)."""

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)

    def hit(self, cache: str) -> None:
        self.hits[cache] = self.hits.get(cache, 0) + 1

    def miss(self, cache: str) -> None:
        self.misses[cache] = self.misses.get(cache, 0) + 1


class PerfLayer:
    """The ``perf: indexed`` implementation — indexes and versioned caches.

    Constructed by the kernel right after telemetry; :meth:`bind` attaches
    the epoch sources (policy repository, consent resolver, endpoint
    registry) once the controller has built them.  All keys are keyed
    digests derived from ``secret`` — no plaintext subject or actor id is
    ever stored or exposed.
    """

    def __init__(self, secret: str = "css-perf", telemetry=None) -> None:
        self._secret = secret
        self._telemetry = telemetry
        self.stats = PerfStats()
        self.decisions = DecisionCache()
        self._policy_index: PolicyIndex | None = None
        self._repository = None
        self._consent_resolver = lambda producer_id: None
        self._endpoints = None

    # -- wiring ------------------------------------------------------------

    def bind(self, *, repository=None, consent_resolver=None, endpoints=None) -> None:
        """Attach the epoch sources the versioned caches validate against."""
        if repository is not None:
            self._repository = repository
            self._policy_index = PolicyIndex(repository)
        if consent_resolver is not None:
            self._consent_resolver = consent_resolver
        if endpoints is not None:
            self._endpoints = endpoints

    @property
    def policy_index(self) -> PolicyIndex | None:
        """The PDP-side policy index (None until :meth:`bind`)."""
        return self._policy_index

    # -- telemetry ---------------------------------------------------------

    def record_hit(self, cache: str) -> None:
        """Count one hit of ``cache`` (label carries the cache name only)."""
        self.stats.hit(cache)
        if self._telemetry is not None:
            self._telemetry.count(CACHE_HITS, cache=cache)

    def record_miss(self, cache: str) -> None:
        """Count one miss of ``cache``."""
        self.stats.miss(cache)
        if self._telemetry is not None:
            self._telemetry.count(CACHE_MISSES, cache=cache)

    # -- indexed PDP -------------------------------------------------------

    def decision_key(self, entry, request) -> str:
        """Opaque keyed digest identifying one decision situation.

        Covers ``(producer, subject, actor, role, event type, purpose)``;
        the digest is all that is ever stored — the plaintext parts never
        leave this method.
        """
        parts = (
            entry.producer_id,
            entry.subject_ref,
            request.actor.actor_id,
            request.actor.role,
            request.event_type,
            request.purpose,
        )
        body = "\x1f".join((self._secret, *parts))
        return hashlib.sha256(body.encode()).hexdigest()[:32]

    def _versions(self, producer_id: str) -> tuple[int, int, int]:
        policy_epoch = self._repository.epoch if self._repository is not None else 0
        consent = self._consent_resolver(producer_id)
        consent_version = consent.version if consent is not None else -1
        endpoint_epoch = self._endpoints.epoch if self._endpoints is not None else 0
        return (policy_epoch, consent_version, endpoint_epoch)

    def cached_decision(self, entry, request) -> CachedDecision | None:
        """The cached decision for this situation, if still valid.

        Time-bounded policy classes are never cached (the decision depends
        on the clock), so a hit is always safe to replay verbatim.
        """
        key = self.decision_key(entry, request)
        cached = self.decisions.lookup(key, self._versions(entry.producer_id))
        if cached is None:
            self.record_miss("decision")
            return None
        self.record_hit("decision")
        return cached

    def store_decision(self, entry, request, decision: CachedDecision) -> None:
        """Cache a freshly computed decision (skipped for time-bounded sets)."""
        if self._policy_index is None:
            return
        if self._policy_index.is_time_bounded(entry.producer_id, entry.event_type):
            return
        self.decisions.store(
            self.decision_key(entry, request),
            self._versions(entry.producer_id),
            decision,
        )

    def policy_set_for(self, entry, request):
        """The indexed candidate policy set for one decision.

        Falls back to the repository's full compilation when the index is
        not bound yet.  Observes ``pdp.candidates_scanned`` so operators
        can watch the index trim the PDP's work.
        """
        if self._policy_index is None:
            return self._repository.to_policy_set(entry.producer_id, entry.event_type)
        policy_set, scanned = self._policy_index.candidate_set(
            entry.producer_id,
            entry.event_type,
            request.actor.actor_id,
            request.actor.role,
        )
        if self._telemetry is not None:
            self._telemetry.observe(
                CANDIDATES_SCANNED, float(scanned), buckets=_CANDIDATE_BUCKETS
            )
        return policy_set
