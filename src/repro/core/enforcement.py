"""The Policy Enforcer — Algorithm 1, ``getEventDetails(R) -> e``.

Fig. 4's pipeline, component by component:

1. The **PEP** receives the authorization request
   ``R = {a, τ_e, eID, s}`` and, through the **PIP**, resolves the
   producer-local event id (``src_eID``) plus the producer and event type
   recorded at publication time;
2. the **PDP** retrieves and evaluates the matching policy
   ``⟨A, e_j, S, F⟩`` from the certified repository — through the
   :class:`~repro.perf.PerfLayer`'s policy index and decision cache;
3. on *permit*, the PEP asks the producer's local cooperation gateway for
   the allowed part of the details (``getResponse(src_eID, F)``,
   Algorithm 2) — so unauthorized data never leaves the producer;
4. every request, permitted or denied, is audited.

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
from repro.core.idmap import EventIdMap
from repro.core.messages import DetailMessage
from repro.core.purposes import PurposeRegistry
from repro.exceptions import AccessDeniedError
from repro.ids import IdFactory
from repro.perf import PerfLayer
from repro.runtime.interceptors import (
    REQUEST_DETAILS,
    Invocation,
    build_enforcement_pipeline,
    policy_decision,
    resolve_request_entry,
)
from repro.runtime.interfaces import DetailFetcher
from repro.xacml.context import (
    ATTR_ENV_TIME,
    ATTR_RESOURCE_EVENT_ID,
    ATTR_RESOURCE_EVENT_TYPE,
    ATTR_RESOURCE_PRODUCER,
    RequestContext,
)
from repro.xacml.model import OBLIGATION_AUDIT, OBLIGATION_RELEASE_FIELDS
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.pep import PolicyEnforcementPoint
from repro.xacml.pip import PolicyInformationPoint

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


class PolicyEnforcer:
    """Implements Algorithm 1 over the XACML PEP/PIP/PDP stack.

    Decisions come from ``perf``, a :class:`~repro.perf.PerfLayer` bound
    to the certified policy repository.  Gateway access goes through a
    :class:`~repro.runtime.interfaces.DetailFetcher`, the ``fetcher``.
    """

    def __init__(
        self,
        perf: PerfLayer,
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
        self._perf = perf
        self._id_map = id_map
        self._purposes = purposes
        self._fetcher = fetcher
        self._audit = audit_log
        self._clock = clock
        self._ids = ids
        self._resolve_consent = consent_resolver or (lambda producer_id: None)
        self._pdp = PolicyDecisionPoint(telemetry=telemetry)
        self._pip = self._build_pip()
        self._pep = PolicyEnforcementPoint(
            pdp=self._pdp,
            pip=self._pip,
            enrich_attributes=[
                ATTR_RESOURCE_PRODUCER,
                ATTR_RESOURCE_EVENT_TYPE,
                ATTR_ENV_TIME,
            ],
        )
        self._audit_obligations_fired = 0
        self._pep.on_obligation(OBLIGATION_RELEASE_FIELDS, self._noop_obligation)
        self._pep.on_obligation(OBLIGATION_AUDIT, self._audit_obligation)
        self.stats = EnforcerStats()
        self._pipeline = build_enforcement_pipeline(
            stats=self.stats,
            audit=self._audit,
            ids=self._ids,
            clock=self._clock,
            purposes=self._purposes,
            id_map=self._id_map,
            consent_resolver=self._resolve_consent,
            pep=self._pep,
            fetcher=self._fetcher,
            telemetry=telemetry,
            perf=self._perf,
        )

    @property
    def pipeline(self):
        """The Algorithm 1 stage pipeline (inspectable, e.g. stage names)."""
        return self._pipeline

    # -- PIP wiring -----------------------------------------------------------

    def _build_pip(self) -> PolicyInformationPoint:
        pip = PolicyInformationPoint()

        def resolve_producer(request: RequestContext) -> tuple[str, ...]:
            event_id = request.single(ATTR_RESOURCE_EVENT_ID)
            if event_id is None or event_id not in self._id_map:
                return ()
            return (self._id_map.resolve(event_id).producer_id,)

        def resolve_event_type(request: RequestContext) -> tuple[str, ...]:
            event_id = request.single(ATTR_RESOURCE_EVENT_ID)
            if event_id is None or event_id not in self._id_map:
                return ()
            return (self._id_map.resolve(event_id).event_type,)

        def resolve_time(request: RequestContext) -> tuple[str, ...]:
            return (f"{self._clock.now():020.6f}",)

        pip.register(ATTR_RESOURCE_PRODUCER, resolve_producer)
        pip.register(ATTR_RESOURCE_EVENT_TYPE, resolve_event_type)
        pip.register(ATTR_ENV_TIME, resolve_time)
        return pip

    # -- obligations --------------------------------------------------------------

    @staticmethod
    def _noop_obligation(request: RequestContext, outcome: object) -> None:
        # Field release is discharged by the gateway call below; the handler
        # exists so the PEP accepts the obligation instead of downgrading.
        return None

    def _audit_obligation(self, request: RequestContext, outcome: object) -> None:
        # The actual audit record is written by the audit stage with
        # the full request context; the obligation only needs discharging.
        self._audit_obligations_fired += 1

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

        Runs the same :func:`~repro.runtime.interceptors.policy_decision`
        as the details chain's decide stage (same verdict, same cache);
        benchmarks use it to time the decision path in isolation.
        """
        try:
            entry = resolve_request_entry(request, self._purposes, self._id_map)
        except AccessDeniedError:
            return False
        return policy_decision(entry, request, self._pep, self._perf).permitted

    @property
    def pdp_stats(self):
        """The underlying PDP's evaluation counters."""
        return self._pdp.stats
