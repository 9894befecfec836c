"""The platform's hot-path caches and their hit/miss accounting.

The paper's two-phase protocol puts the notification bus and the
federation links on the critical path of *every* exchange (§5.2).  This
package makes those paths index- and cache-backed without changing a
single delivery:

* :mod:`repro.perf.topic_index` — a segment trie over subscription
  patterns plus a per-topic fan-out memo for the broker;
* :mod:`repro.perf.wire_cache` — sealed relay frames for the federation
  links (the keystore keeps its own shared key-schedule cache).

An access decision is not cached: Def. 3 over the repository's actor and
role buckets (:meth:`repro.core.policy.PolicyRepository.decide`) takes a
few microseconds and reads the current policies, consent and endpoints
on every request, so there is nothing to invalidate.

There is no switch: every controller builds one :class:`PerfLayer`.
The linear fan-out survives as a reference only —
``SubscriptionRegistry.matching_topic_linear`` — and the test suite holds
audit trails, link transcripts and inboxes equal to it.

Telemetry labels never carry plaintext identities: the only label the
counters use is the cache *name* (``perf.cache.hits{cache=fanout}`` and
``{cache=seal}``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Counter of perf-layer cache hits, labelled by cache name only.
CACHE_HITS = "perf.cache.hits"
#: Counter of perf-layer cache misses, labelled by cache name only.
CACHE_MISSES = "perf.cache.misses"


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
    """The hit/miss counters of one controller's caches.

    The fan-out memo and the relay-frame cache count here, under the
    cache names ``fanout`` and ``seal``.
    """

    def __init__(self, telemetry=None) -> None:
        self._telemetry = telemetry
        self.stats = PerfStats()

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
