"""The Policy Enforcer — Algorithm 1, ``getEventDetails(R) -> e``.

Fig. 4's pipeline, component by component:

1. the authorization request ``R = {a, τ_e, eID, s}`` is resolved against
   the id map: the producer-local event id (``src_eID``) plus the
   producer and event type recorded at publication time;
2. the certified repository decides it by Def. 3
   (:meth:`~repro.core.policy.PolicyRepository.decide` at the clock's
   time): a matching restriction denies, otherwise the matching grants
   ``⟨A, e_j, S, F⟩`` release the union of their fields, and nothing
   matching denies by default;
3. on *permit*, the enforcer asks the producer's local cooperation gateway
   for the allowed part of the details (``getResponse(src_eID, F)``,
   Algorithm 2) — so unauthorized data never leaves the producer;
4. every request, permitted or denied, is audited.

The paper's XACML PEP/PIP/PDP (:mod:`repro.xacml`) stays the interchange
format of Figs. 5 and 8; the test suite holds every decision equal to that
stack evaluating :meth:`~repro.core.policy.PolicyRepository.to_policy_set`.

The enforcer also honours source-level **consent**: a data subject's detail
opt-out denies the request before any policy is consulted (consent is the
stronger constraint — policies grant, consent vetoes).

The algorithm itself is one plain function,
:func:`repro.runtime.interceptors.get_event_details` — resolve → consent
→ decide → fetch → field check, every outcome audited and counted — run
on this enforcer's collaborators; :meth:`PolicyEnforcer.get_event_details`
is one execution of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

from repro.audit.log import AuditLog
from repro.clock import Clock
from repro.core.actors import Actor
from repro.core.consent import ConsentRegistry
from repro.core.idmap import EventIdEntry, EventIdMap
from repro.core.messages import DetailMessage
from repro.core.policy import DetailRequestSpec, PolicyDecision, PolicyRepository
from repro.core.purposes import PurposeRegistry
from repro.exceptions import AccessDeniedError
from repro.ids import IdFactory
from repro.runtime import interceptors
from repro.runtime.interceptors import DETAILS_EDGE, REQUEST_DETAILS, HotPath, Outcome
from repro.xacml.context import Decision

#: Decisions made, labelled ``permit`` / ``deny`` / ``not_applicable`` —
#: the series the ``pdp-deny-rate`` SLO reads (off ``DecisionStats.verdicts``).
PDP_EVALUATIONS = "xacml.pdp.evaluations_total"

#: Resolves a producer id to its consent registry (may return None).
ConsentResolver = Callable[[str], "ConsentRegistry | None"]


@dataclass(frozen=True)
class DetailRequest:
    """``R = {a, τ_e, eID, s}`` — the runtime request for details (§5.2)."""

    actor: Actor
    event_type: str
    event_id: str
    purpose: str


@dataclass
class EnforcerStats:
    """Outcome counters of Algorithm 1 (Fig. 4): every request lands in
    exactly one of ``permits`` / ``denies`` / ``gateway_failures``."""

    requests: int = 0
    permits: int = 0
    denies: int = 0
    consent_vetoes: int = 0
    gateway_failures: int = 0
    BUCKETS: ClassVar = {Outcome.OK: "permits", Outcome.DENY: "denies",
                         Outcome.ERROR: "gateway_failures"}


@dataclass
class DecisionStats:
    """Decisions made (``requests``, and per verdict) and the bucket candidates
    they walked (``policies_evaluated``): the XACML PDP's counters' names."""

    requests: int = 0
    policies_evaluated: int = 0
    verdicts: dict[Decision, int] = field(default_factory=dict)


class PolicyEnforcer:
    """Implements Algorithm 1 over the certified policy repository.

    Decisions are ``repository``'s Def. 3; gateway access goes through the
    ``fetcher`` (:class:`~repro.core.controller.EndpointDetailFetcher`).  The
    collaborators are public attributes because
    :func:`~repro.runtime.interceptors.get_event_details` reads them off
    the enforcer on every request.
    """

    def __init__(
        self,
        repository: PolicyRepository,
        id_map: EventIdMap,
        purposes: PurposeRegistry,
        *,
        audit_log: AuditLog,
        clock: Clock,
        ids: IdFactory,
        fetcher,
        consent_resolver: ConsentResolver | None = None,
        telemetry=None,
    ) -> None:
        self._repository = repository
        self.id_map = id_map
        self.purposes = purposes
        self.audit_log = audit_log
        self.clock = clock
        self.ids = ids
        self.fetcher = fetcher
        #: Producer id -> its consent registry, or ``None``.
        self.consent_resolver = consent_resolver or (lambda producer_id: None)
        self.stats = EnforcerStats()
        self.pdp_stats = DecisionStats()
        #: Algorithm 1 under its ``pipeline.request-details`` root span, or,
        #: inside a request's edge on this node, under the edge's.
        self.pipeline = HotPath(REQUEST_DETAILS, interceptors.get_event_details,
                                self, self.stats, telemetry, within=DETAILS_EDGE)

    def decision(self, entry: EventIdEntry, request: DetailRequest) -> PolicyDecision:
        """Steps 2–3 of Algorithm 1: Def. 3 at the clock's time, counted."""
        decision = self._repository.decide(entry.producer_id, DetailRequestSpec(
            actor_id=request.actor.actor_id,
            event_type=entry.event_type,
            purpose=request.purpose,
            actor_role=request.actor.role,
            requested_at=self.clock.now(),
        ))
        stats = self.pdp_stats
        stats.requests += 1
        stats.policies_evaluated += decision.walked
        stats.verdicts[decision.verdict] = stats.verdicts.get(decision.verdict, 0) + 1
        return decision

    # -- Algorithm 1 -----------------------------------------------------------------

    def get_event_details(self, request: DetailRequest) -> DetailMessage:
        """Resolve an authorization request; returns the privacy-aware event.

        Raises :class:`~repro.exceptions.AccessDeniedError` on deny — the
        "Access Denied message" of Fig. 4 — and propagates gateway
        availability failures.  Every outcome is audited.
        """
        return self.pipeline.execute(request)

    def decide(self, request: DetailRequest) -> bool:
        """Policy decision only (no gateway call, no exception on deny).

        The same decision as Algorithm 1's step 3; benchmarks use it to
        time the decision path in isolation.
        """
        try:
            entry = interceptors.resolve_request_entry(request, self.purposes, self.id_map)
        except AccessDeniedError:
            return False
        return self.decision(entry, request).permitted
