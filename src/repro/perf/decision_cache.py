"""Versioned PDP decision cache.

A decision of Algorithm 1's *decide* stage is a pure function of the
certified policy repository, the requesting actor, the event class and
the purpose — until a policy is added or revoked, a consent decision is
recorded, or an endpoint is withdrawn.  Each of those mutation sites
bumps a monotonic epoch (see ``PolicyRepository.epoch``,
``ConsentRegistry.version`` and ``EndpointRegistry.epoch``); every cache
entry remembers the epoch vector it was computed under and a lookup only
returns it while the vector still matches.  A stale entry is evicted on
sight, so *a previously permitted decision can never outlive the policy
or consent that justified it* — deny-by-default is preserved bit-for-bit.

Keys are opaque keyed digests minted by
:meth:`repro.perf.PerfLayer.decision_key`; the cache itself never sees a
plaintext subject or actor identifier.  Time-bounded policies (validity
windows) are never cached at all — the caller checks
:meth:`repro.perf.policy_index.PolicyIndex.is_time_bounded` first.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CachedDecision:
    """The replayable outcome of one decide-stage evaluation.

    ``message`` keeps the *exact* deny message the uncached path would
    raise (``"no matching policy (deny-by-default)"``, ``"matching policy
    releases no fields"``, ...), so audit trails stay byte-identical
    between cached and uncached runs.
    """

    permitted: bool
    released_fields: frozenset[str] = frozenset()
    message: str = ""


@dataclass
class DecisionCacheStats:
    """Occupancy and invalidation accounting."""

    stored: int = 0
    evicted_stale: int = 0
    invalidations: int = 0


@dataclass
class _Entry:
    versions: tuple[int, ...]
    decision: CachedDecision


class DecisionCache:
    """Digest-keyed decisions guarded by a monotonic epoch vector."""

    def __init__(self, max_entries: int = 65536) -> None:
        self._entries: dict[str, _Entry] = {}
        self._max_entries = max_entries
        self.stats = DecisionCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str, versions: tuple[int, ...]) -> CachedDecision | None:
        """The cached decision, or ``None`` — stale entries are evicted."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.versions != versions:
            del self._entries[key]
            self.stats.evicted_stale += 1
            return None
        return entry.decision

    def store(self, key: str, versions: tuple[int, ...], decision: CachedDecision) -> None:
        """Cache ``decision`` under ``key`` for the current epoch vector."""
        if len(self._entries) >= self._max_entries and key not in self._entries:
            # Bounded memory: reset rather than track recency on the hot path.
            self._entries.clear()
        self._entries[key] = _Entry(versions, decision)
        self.stats.stored += 1

    def invalidate_all(self) -> int:
        """Drop everything (operator action / defensive epoch resets)."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += 1
        return dropped

    def keys(self) -> tuple[str, ...]:
        """The opaque digest keys currently cached (privacy tests grep these)."""
        return tuple(self._entries)
