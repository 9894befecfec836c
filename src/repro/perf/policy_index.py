"""Actor/role-bucketed policy index with a compiled-XACML cache.

``PolicyRepository.to_policy_set`` compiles *every* candidate policy of a
``(producer, event type)`` class into XACML on *every* request, and the
PDP then walks all of them even though most cannot match the requesting
actor.  This index fixes both costs while returning decisions the PDP
cannot distinguish from the full scan:

* per class, policies are bucketed by their actor selector — exact
  ``actor_id`` buckets plus a role bucket (the *wildcard* bucket: a role
  grant applies to any actor asserting that role, and a unit grant
  applies to the whole subtree under it);
* a request's candidates are the union of the buckets of every ancestor
  of the requesting ``actor_id`` (hierarchical grants, §5.1) and of its
  role — policies left out are exactly those whose target evaluates
  ``NotApplicable``, which contribute nothing under deny-overrides, so
  the combined decision and obligations are unchanged;
* each policy is compiled to XACML once and memoized (policies are
  frozen dataclasses; revocation removes them from the buckets instead
  of mutating them);
* the whole bucket structure is rebuilt lazily whenever the repository's
  monotonic ``epoch`` moved (policy added or revoked).

Candidates keep registration order, so deny-overrides short-circuiting
walks them in the same order as the linear path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xacml.model import CombiningAlgorithm, Policy, PolicySet


@dataclass
class _ClassBucket:
    """The index of one ``(producer, event type)`` class."""

    epoch: int
    #: Active policies in registration order.
    positions: list = field(default_factory=list)
    #: actor_id → positions of policies granting that exact unit.
    by_actor: dict[str, list[int]] = field(default_factory=dict)
    #: actor_role → positions (the wildcard bucket: role grants).
    by_role: dict[str, list[int]] = field(default_factory=dict)
    #: Lazily compiled XACML policies, aligned with ``positions``.
    compiled: list[Policy | None] = field(default_factory=list)
    #: Whether any active policy carries a validity window.
    time_bounded: bool = False


@dataclass
class PolicyIndexStats:
    """Index effectiveness counters."""

    rebuilds: int = 0
    selections: int = 0
    candidates_scanned: int = 0
    candidates_skipped: int = 0


def actor_ancestors(actor_id: str) -> tuple[str, ...]:
    """The actor id and every organizational ancestor (``a/b/c → a/b → a``).

    A policy granting ``actor_id`` X covers X and its whole subtree
    (:meth:`repro.core.policy.PrivacyPolicy._actor_matches`), so the
    candidate lookup probes each ancestor's bucket.
    """
    parts = actor_id.split("/")
    return tuple("/".join(parts[: i + 1]) for i in range(len(parts)))


class PolicyIndex:
    """Bucketed candidate selection over a :class:`PolicyRepository`."""

    def __init__(self, repository) -> None:
        self._repository = repository
        self._buckets: dict[tuple[str, str], _ClassBucket] = {}
        self.stats = PolicyIndexStats()

    # -- bucket maintenance -------------------------------------------------

    def _bucket(self, producer_id: str, event_type: str) -> _ClassBucket:
        key = (producer_id, event_type)
        epoch = self._repository.epoch
        bucket = self._buckets.get(key)
        if bucket is not None and bucket.epoch == epoch:
            return bucket
        bucket = _ClassBucket(epoch=epoch)
        for position, policy in enumerate(
            self._repository.candidates(producer_id, event_type)
        ):
            bucket.positions.append(policy)
            bucket.compiled.append(None)
            if policy.actor_id:
                bucket.by_actor.setdefault(policy.actor_id, []).append(position)
            else:
                bucket.by_role.setdefault(policy.actor_role, []).append(position)
            if policy.valid_from is not None or policy.valid_until is not None:
                bucket.time_bounded = True
        self._buckets[key] = bucket
        self.stats.rebuilds += 1
        return bucket

    def is_time_bounded(self, producer_id: str, event_type: str) -> bool:
        """Whether any active policy of the class has a validity window."""
        return self._bucket(producer_id, event_type).time_bounded

    def _compiled(self, bucket: _ClassBucket, position: int) -> Policy:
        policy = bucket.compiled[position]
        if policy is None:
            policy = bucket.positions[position].to_xacml()
            bucket.compiled[position] = policy
        return policy

    # -- candidate selection ------------------------------------------------

    def candidate_positions(
        self, producer_id: str, event_type: str, actor_id: str, actor_role: str
    ) -> list[int]:
        """Bucket positions whose actor selector can match the request."""
        bucket = self._bucket(producer_id, event_type)
        positions: set[int] = set()
        for ancestor in actor_ancestors(actor_id):
            positions.update(bucket.by_actor.get(ancestor, ()))
        if actor_role:
            positions.update(bucket.by_role.get(actor_role, ()))
        return sorted(positions)

    def candidate_set(
        self, producer_id: str, event_type: str, actor_id: str, actor_role: str
    ) -> PolicySet:
        """The indexed candidate policy set.

        The set id mirrors the repository's (``pset:<producer>:<type>``)
        so responses, obligations and audit detail are indistinguishable
        from the full compilation.
        """
        bucket = self._bucket(producer_id, event_type)
        positions = self.candidate_positions(
            producer_id, event_type, actor_id, actor_role
        )
        self.stats.selections += 1
        self.stats.candidates_scanned += len(positions)
        self.stats.candidates_skipped += len(bucket.positions) - len(positions)
        policies = tuple(self._compiled(bucket, position) for position in positions)
        return PolicySet(
            policy_set_id=f"pset:{producer_id}:{event_type}",
            policies=policies,
            combining=CombiningAlgorithm.DENY_OVERRIDES,
        )
