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

The stages live in :mod:`repro.runtime.interceptors` — the enforcer
builds the rows ``stats → audit → resolve → consent → decide → fetch →
filter`` once at construction and :meth:`get_event_details` is a single
pipeline execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from repro.runtime.interceptors import (
    REQUEST_DETAILS,
    Invocation,
    build_enforcement_pipeline,
    resolve_request_entry,
)
from repro.runtime.interfaces import DetailFetcher

#: Decisions made, labelled ``permit`` / ``deny`` / ``not_applicable`` —
#: the series the ``pdp-deny-rate`` SLO reads.
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
    """Stage counters for the Fig. 4 latency-breakdown benchmark."""

    requests: int = 0
    permits: int = 0
    denies: int = 0
    consent_vetoes: int = 0
    gateway_failures: int = 0


@dataclass
class DecisionStats:
    """Decisions made (``requests``) and the bucket candidates they walked
    (``policies_evaluated``); the names are the XACML PDP's counters."""

    requests: int = 0
    policies_evaluated: int = 0


class PolicyEnforcer:
    """Implements Algorithm 1 over the certified policy repository.

    Decisions are ``repository``'s Def. 3; gateway access goes through a
    :class:`~repro.runtime.interfaces.DetailFetcher`, the ``fetcher``.
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
        fetcher: DetailFetcher,
        consent_resolver: ConsentResolver | None = None,
        telemetry=None,
    ) -> None:
        self._repository = repository
        self._id_map = id_map
        self._purposes = purposes
        self._clock = clock
        self._telemetry = telemetry
        self.stats = EnforcerStats()
        self.pdp_stats = DecisionStats()
        self._pipeline = build_enforcement_pipeline(
            stats=self.stats,
            audit=audit_log,
            ids=ids,
            clock=clock,
            purposes=purposes,
            id_map=id_map,
            consent_resolver=consent_resolver or (lambda producer_id: None),
            decide=self._decide,
            fetcher=fetcher,
            telemetry=telemetry,
        )

    @property
    def pipeline(self):
        """The Algorithm 1 stage pipeline (inspectable, e.g. stage names)."""
        return self._pipeline

    def _decide(self, entry: EventIdEntry, request: DetailRequest) -> PolicyDecision:
        """Steps 2–3 of Algorithm 1: Def. 3 at the clock's time, counted."""
        decision = self._repository.decide(entry.producer_id, DetailRequestSpec(
            actor_id=request.actor.actor_id,
            event_type=entry.event_type,
            purpose=request.purpose,
            actor_role=request.actor.role,
            requested_at=self._clock.now(),
        ))
        self.pdp_stats.requests += 1
        self.pdp_stats.policies_evaluated += decision.walked
        if self._telemetry is not None:
            self._telemetry.count(PDP_EVALUATIONS,
                                  decision=decision.verdict.name.lower())
        return decision

    # -- Algorithm 1 -----------------------------------------------------------------

    def get_event_details(self, request: DetailRequest) -> DetailMessage:
        """Resolve an authorization request; returns the privacy-aware event.

        Raises :class:`~repro.exceptions.AccessDeniedError` on deny — the
        "Access Denied message" of Fig. 4 — and propagates gateway
        availability failures.  Every outcome is audited.
        """
        return self._pipeline.execute(
            Invocation(REQUEST_DETAILS, {"request": request})
        )

    def decide(self, request: DetailRequest) -> bool:
        """Policy decision only (no gateway call, no exception on deny).

        The same decision as the details chain's decide stage; benchmarks
        use it to time the decision path in isolation.
        """
        try:
            entry = resolve_request_entry(request, self._purposes, self._id_map)
        except AccessDeniedError:
            return False
        return self._decide(entry, request).permitted
