"""Privacy policies — Definitions 2, 3 and 4 of the paper.

A privacy policy is ``p = {A, e_j, S, F}``: actor ``A`` may access fields
``F ⊆ e_j`` of event class ``e_j`` for any purpose in ``S`` (Def. 2).  The
semantics are *deny by default*: unless some policy permits it, an event
details cannot be accessed by any subject (§5.1); subjects can only read.

This module provides:

* :class:`PrivacyPolicy` — the intuitive, elicitation-level policy object,
  with optional validity window (Fig. 7) and role-based actor selection
  (Fig. 8 targets the role *family doctor*);
* :func:`PrivacyPolicy.matches` — Def. 3 policy matching;
* :func:`is_privacy_safe` — Def. 4: an event is privacy safe for a policy
  w.r.t. a request iff it exposes no non-empty field outside ``F``;
* :meth:`PrivacyPolicy.to_xacml` — compilation into XACML (§5.1: "We are
  using XACML to model internally to the Policy Enforcer module the
  privacy policies"), the interchange format of Figs. 5 and 8 and the
  reference the tests hold :meth:`PolicyRepository.decide` equal to;
* :class:`PolicyRepository` — the data controller's certified repository,
  whose :meth:`~PolicyRepository.decide` is the one access decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.exceptions import PolicyError
from repro.xacml.context import (
    ATTR_ACTION_PURPOSE,
    ATTR_ENV_TIME,
    ATTR_RESOURCE_EVENT_TYPE,
    ATTR_SUBJECT_ID,
    ATTR_SUBJECT_ROLE,
    Decision,
)
from repro.xacml.model import (
    OBLIGATION_AUDIT,
    OBLIGATION_RELEASE_FIELDS,
    CombiningAlgorithm,
    Effect,
    Match,
    Obligation,
    Policy,
    PolicySet,
    Rule,
    Target,
)
from repro.xmlmsg.document import XmlDocument


class DetailRequestSpec(NamedTuple):
    """The request shape of Def. 3: ``r = {A_r, τ_e, S_r}``.

    (The full runtime request, which also carries the event id, lives in
    :mod:`repro.core.enforcement`; matching only needs these three.)
    """

    actor_id: str
    event_type: str
    purpose: str
    actor_role: str = ""
    requested_at: float = 0.0


@dataclass(frozen=True)
class PrivacyPolicy:
    """``p = {A, e_j, S, F}`` with elicitation metadata.

    Exactly one of ``actor_id`` / ``actor_role`` selects the subject:
    ``actor_id`` grants an organizational unit (and, hierarchically, its
    sub-units); ``actor_role`` grants a functional role, as in Fig. 8.
    ``valid_from`` / ``valid_until`` bound the rule in time — "particularly
    useful when private companies ... should access the events of their
    customers only for the duration of their contract" (§6).

    ``deny=True`` makes this a *restriction* policy: it releases nothing
    and, under the repository's deny-overrides combining, carves an
    exception out of a broader grant (e.g. grant ``Hospital`` but deny
    ``Hospital/Psychiatry``).  Restrictions carry no fields.
    """

    policy_id: str
    producer_id: str
    event_type: str
    fields: frozenset[str]
    purposes: frozenset[str]
    actor_id: str = ""
    actor_role: str = ""
    label: str = ""
    description: str = ""
    valid_from: float | None = None
    valid_until: float | None = None
    deny: bool = False

    def __post_init__(self) -> None:
        if not self.policy_id:
            raise PolicyError("policy needs an id")
        if not self.producer_id:
            raise PolicyError("policy needs the owning producer id")
        if not self.event_type:
            raise PolicyError("policy needs an event type")
        if bool(self.actor_id) == bool(self.actor_role):
            raise PolicyError(
                "policy must select exactly one of actor_id or actor_role"
            )
        if not self.purposes:
            raise PolicyError("policy needs at least one admissible purpose")
        if not self.fields and not self.deny:
            raise PolicyError(
                "policy needs at least one accessible field (deny-by-default "
                "already covers the empty case)"
            )
        if self.deny and self.fields:
            raise PolicyError("a restriction (deny) policy releases no fields")
        if (
            self.valid_from is not None
            and self.valid_until is not None
            and self.valid_until < self.valid_from
        ):
            raise PolicyError("policy validity window ends before it starts")

    # -- Def. 3: matching -----------------------------------------------------

    def matches(self, request: DetailRequestSpec) -> bool:
        """Whether this policy is a *matching policy* for ``request``.

        Def. 3 requires ``e_j = τ_e  ∧  A_r = A  ∧  S_r ∈ S``; actor
        equality is hierarchical for ``actor_id`` selections (a grant to an
        organization covers its units, §5.1) and exact for roles.  The
        validity window, when present, must contain the request time.
        """
        if self.event_type != request.event_type:
            return False
        if request.purpose not in self.purposes:
            return False
        if not self._actor_matches(request):
            return False
        return self.is_active_at(request.requested_at)

    def _actor_matches(self, request: DetailRequestSpec) -> bool:
        if self.actor_id:
            return (
                request.actor_id == self.actor_id
                or request.actor_id.startswith(self.actor_id + "/")
            )
        return bool(request.actor_role) and request.actor_role == self.actor_role

    def is_active_at(self, instant: float) -> bool:
        """Whether the validity window contains ``instant``."""
        if self.valid_from is not None and instant < self.valid_from:
            return False
        if self.valid_until is not None and instant > self.valid_until:
            return False
        return True

    # -- XACML compilation ---------------------------------------------------------

    def to_xacml(self, clock_isoformat=None) -> Policy:
        """Compile into the internal XACML representation.

        The target pins the subject (actor hierarchy or role), the resource
        (event type) and — via AnyOf alternatives — the admissible
        purposes.  Validity windows become environment-time matches.  The
        permit rule carries two obligations: ``css:release-fields`` with the
        allowed field list, and ``css:audit-access``.

        ``clock_isoformat`` converts the float validity bounds to the ISO
        strings XACML compares; it defaults to rendering the raw float with
        fixed width (which still compares correctly lexicographically).
        """
        render = clock_isoformat or (lambda instant: f"{instant:020.6f}")
        all_of: list[Match] = []
        if self.actor_id:
            all_of.append(Match(ATTR_SUBJECT_ID, "hierarchy-descendant", self.actor_id))
        else:
            all_of.append(Match(ATTR_SUBJECT_ROLE, "string-equal", self.actor_role))
        all_of.append(Match(ATTR_RESOURCE_EVENT_TYPE, "string-equal", self.event_type))
        if self.valid_from is not None:
            all_of.append(Match(ATTR_ENV_TIME, "time-greater-or-equal", render(self.valid_from)))
        if self.valid_until is not None:
            all_of.append(Match(ATTR_ENV_TIME, "time-less-or-equal", render(self.valid_until)))
        any_of = tuple(
            (Match(ATTR_ACTION_PURPOSE, "string-equal", purpose),)
            for purpose in sorted(self.purposes)
        )
        target = Target(all_of=tuple(all_of), any_of=any_of)
        if self.deny:
            rule = Rule(
                rule_id=f"{self.policy_id}:deny",
                effect=Effect.DENY,
                description=self.label or self.description,
            )
            return Policy(
                policy_id=self.policy_id,
                target=target,
                rules=(rule,),
                combining=CombiningAlgorithm.DENY_OVERRIDES,
                description=self.description or self.label,
            )
        release = Obligation(
            OBLIGATION_RELEASE_FIELDS,
            Effect.PERMIT,
            assignments=tuple(("field", name) for name in sorted(self.fields)),
        )
        audit = Obligation(OBLIGATION_AUDIT, Effect.PERMIT)
        rule = Rule(
            rule_id=f"{self.policy_id}:permit",
            effect=Effect.PERMIT,
            description=self.label or self.description,
        )
        return Policy(
            policy_id=self.policy_id,
            target=target,
            rules=(rule,),
            combining=CombiningAlgorithm.DENY_OVERRIDES,
            obligations=(release, audit),
            description=self.description or self.label,
        )

    # -- misc ------------------------------------------------------------------------

    @property
    def actor_selector(self) -> str:
        """Human-readable subject selector."""
        return f"unit:{self.actor_id}" if self.actor_id else f"role:{self.actor_role}"


def is_privacy_safe(event: XmlDocument, policy: PrivacyPolicy) -> bool:
    """Def. 4: ``e ⊨_r p`` — no non-empty field of ``event`` falls outside ``F``.

    The request component of Def. 4 (the policy must match the request) is
    checked by the caller via :meth:`PrivacyPolicy.matches`; this predicate
    checks the field-exposure condition, which is what Algorithm 2's output
    must guarantee.
    """
    return all(name in policy.fields for name in event.non_empty_fields())


def is_privacy_safe_for_all(event: XmlDocument, policies: list[PrivacyPolicy]) -> bool:
    """``e ⊨_r P`` — privacy safe for every policy in ``P``."""
    return all(is_privacy_safe(event, policy) for policy in policies)


#: Why Def. 3 denies: a matching restriction (the words of the XACML PEP
#: mapping the combined Deny, kept so audit trails read as before) or no
#: matching policy at all.
VETOED = "mapped Deny to Deny"
DENY_BY_DEFAULT = "no matching policy (deny-by-default)"


class PolicyDecision(NamedTuple):
    """What Def. 3 says about one request.

    ``verdict`` is the XACML decision the same policies compiled into a
    deny-overrides set would reach (``DENY`` when a restriction matched,
    ``NOT_APPLICABLE`` when nothing did); ``grants`` / ``restrictions``
    are the matching policy ids in registration order and ``walked`` the
    bucket candidates looked at.
    """

    verdict: Decision
    released_fields: frozenset[str] = frozenset()
    message: str = ""
    grants: tuple[str, ...] = ()
    restrictions: tuple[str, ...] = ()
    walked: int = 0

    @property
    def permitted(self) -> bool:
        return self.verdict is Decision.PERMIT


def actor_ancestors(actor_id: str) -> tuple[str, ...]:
    """The actor id and every organizational ancestor (``a/b/c → a, a/b, a/b/c``).

    A grant to unit X covers X and its whole subtree
    (:meth:`PrivacyPolicy._actor_matches`), so a request's unit candidates
    are the buckets of these ids.
    """
    parts = actor_id.split("/")
    return tuple("/".join(parts[: i + 1]) for i in range(len(parts)))


class _ClassBuckets:
    """The active policies of one ``(producer, event type)`` class, bucketed
    by actor selector; entries are ``(registration number, policy)``."""

    __slots__ = ("units", "roles")

    def __init__(self) -> None:
        self.units: dict[str, list[tuple[int, PrivacyPolicy]]] = {}
        self.roles: dict[str, list[tuple[int, PrivacyPolicy]]] = {}

    def bucket(self, policy: PrivacyPolicy) -> list[tuple[int, PrivacyPolicy]]:
        if policy.actor_id:
            return self.units.setdefault(policy.actor_id, [])
        return self.roles.setdefault(policy.actor_role, [])


class PolicyRepository:
    """The data controller's certified policy repository (§5).

    Policies are indexed by ``(producer, event type)`` and, within a class,
    bucketed by actor selector — a unit bucket per granted ``actor_id``, a
    role bucket per granted role — so :meth:`decide` only looks at the
    policies whose subject can match the requester.  The repository also
    stores the compiled XACML text produced by the elicitation tool so
    auditors can inspect exactly what is enforced.
    """

    def __init__(self) -> None:
        self._policies: dict[str, PrivacyPolicy] = {}
        self._by_class: dict[tuple[str, str], list[str]] = {}
        self._buckets: dict[tuple[str, str], _ClassBuckets] = {}
        self._xacml_texts: dict[str, str] = {}
        self._revoked: set[str] = set()

    def __len__(self) -> int:
        return len(self._policies) - len(self._revoked)

    def __contains__(self, policy_id: str) -> bool:
        return policy_id in self._policies and policy_id not in self._revoked

    def add(self, policy: PrivacyPolicy, xacml_text: str = "") -> None:
        """Store a policy (and optionally its generated XACML document)."""
        if policy.policy_id in self._policies:
            raise PolicyError(f"policy {policy.policy_id!r} already in repository")
        number = len(self._policies)
        self._policies[policy.policy_id] = policy
        key = (policy.producer_id, policy.event_type)
        self._by_class.setdefault(key, []).append(policy.policy_id)
        self._buckets.setdefault(key, _ClassBuckets()).bucket(policy).append(
            (number, policy))
        if xacml_text:
            self._xacml_texts[policy.policy_id] = xacml_text

    def revoke(self, policy_id: str) -> None:
        """Revoke a policy; it stops matching immediately but stays auditable."""
        if policy_id not in self._policies:
            raise PolicyError(f"no policy {policy_id!r} to revoke")
        if policy_id in self._revoked:
            return
        self._revoked.add(policy_id)
        policy = self._policies[policy_id]
        bucket = self._buckets[(policy.producer_id, policy.event_type)].bucket(policy)
        bucket[:] = [entry for entry in bucket if entry[1] is not policy]

    def get(self, policy_id: str) -> PrivacyPolicy:
        """Fetch a policy by id (revoked policies are still fetchable)."""
        try:
            return self._policies[policy_id]
        except KeyError as exc:
            raise PolicyError(f"no policy {policy_id!r}") from exc

    def items(self):
        """``(policy id, policy)`` pairs in definition order, revoked included."""
        return self._policies.items()

    def xacml_text(self, policy_id: str) -> str:
        """The stored generated XACML document ('' if none was stored)."""
        return self._xacml_texts.get(policy_id, "")

    def is_revoked(self, policy_id: str) -> bool:
        """Whether the policy has been revoked."""
        return policy_id in self._revoked

    # -- matching (Def. 3) -------------------------------------------------------

    def candidates(self, producer_id: str, event_type: str) -> list[PrivacyPolicy]:
        """Active policies defined by ``producer_id`` for ``event_type``."""
        ids = self._by_class.get((producer_id, event_type), [])
        return [
            self._policies[policy_id]
            for policy_id in ids
            if policy_id not in self._revoked
        ]

    def actor_candidates(
        self, producer_id: str, event_type: str, actor_id: str, actor_role: str = ""
    ) -> list[PrivacyPolicy]:
        """The active policies of the class whose subject can match the
        actor — its unit's and every ancestor unit's bucket plus its role's
        — in registration order.  Every other policy of the class fails
        Def. 3's ``A_r = A`` whatever the purpose or time."""
        buckets = self._buckets.get((producer_id, event_type))
        if buckets is None:
            return []
        found: list[tuple[int, PrivacyPolicy]] = []
        if buckets.units:
            for ancestor in actor_ancestors(actor_id):
                found += buckets.units.get(ancestor, ())
        if actor_role:
            found += buckets.roles.get(actor_role, ())
        if len(found) > 1:
            found.sort()  # registration numbers are unique: policies never compare
        return [policy for _, policy in found]

    def decide(self, producer_id: str, request: DetailRequestSpec) -> PolicyDecision:
        """Def. 3 over the producer's policies: the one access decision.

        A matching restriction denies; otherwise the matching grants
        release the union of their fields; nothing matching denies by
        default (§5.1).  Only the actor's bucket candidates are walked.
        """
        candidates = self.actor_candidates(
            producer_id, request.event_type, request.actor_id, request.actor_role)
        grants: list[PrivacyPolicy] = []
        restrictions: list[str] = []
        for policy in candidates:
            if policy.matches(request):
                if policy.deny:
                    restrictions.append(policy.policy_id)
                else:
                    grants.append(policy)
        granted = tuple([policy.policy_id for policy in grants])
        walked = len(candidates)
        if restrictions:
            return PolicyDecision(Decision.DENY, frozenset(), VETOED, granted,
                                  tuple(restrictions), walked)
        if not grants:
            return PolicyDecision(Decision.NOT_APPLICABLE, frozenset(),
                                  DENY_BY_DEFAULT, (), (), walked)
        fields = grants[0].fields if len(grants) == 1 else frozenset().union(
            *[policy.fields for policy in grants])
        return PolicyDecision(Decision.PERMIT, fields, "", granted, (), walked)

    def has_policy_for(
        self, producer_id: str, event_type: str, actor_id: str, actor_role: str = "",
        *, at: float,
    ) -> bool:
        """Whether Def. 3 permits the actor the class for *some* purpose at ``at``.

        This is the subscription-time check of §5.2: "In order to subscribe
        to a class of notification events ... there should be a privacy
        policy regulating the access to the corresponding event details for
        that particular data consumer."  A restriction active at ``at``
        vetoes the grant it would otherwise ride on, whatever its purposes.
        """
        granted = False
        for policy in self.actor_candidates(producer_id, event_type, actor_id, actor_role):
            if not policy.is_active_at(at):
                continue
            if policy.deny:
                return False
            granted = True
        return granted

    def policies_of_producer(self, producer_id: str) -> list[PrivacyPolicy]:
        """Every active policy owned by one producer (dashboard feed)."""
        return [
            policy
            for policy in self._policies.values()
            if policy.producer_id == producer_id and policy.policy_id not in self._revoked
        ]

    def to_policy_set(self, producer_id: str, event_type: str) -> PolicySet:
        """Compile the candidate policies into a deny-overrides policy set.

        Under deny-overrides a matching restriction decides, and otherwise
        every applicable grant is evaluated and their ``release-fields``
        obligations merge — two grants to the same actor release the union
        of their fields.  An empty candidate list yields an empty set which
        evaluates to NotApplicable — mapped to Deny by the PEP
        (deny-by-default).  Evaluated by the XACML PEP, this set is the
        reference :meth:`decide` is tested against.
        """
        policies = tuple(
            policy.to_xacml() for policy in self.candidates(producer_id, event_type)
        )
        return PolicySet(
            policy_set_id=f"pset:{producer_id}:{event_type}",
            policies=policies,
            combining=CombiningAlgorithm.DENY_OVERRIDES,
        )
