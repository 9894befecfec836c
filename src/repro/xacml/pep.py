"""Policy Enforcement Point skeleton.

The PEP is the front door of the policy enforcer (Fig. 4): it receives the
authorization request, asks the PIP to enrich it, hands it to the PDP, and
— on permit — discharges the obligations.  The generic skeleton here knows
nothing about events: whoever drives it supplies the obligation handlers
(field release, audit).  The platform's enforcer decides by Def. 3
directly; the test suite drives this PEP over the repository's compiled
policy set as the reference that decision is held equal to.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ObligationError
from repro.xacml.context import Decision, ObligationOutcome, RequestContext, ResponseContext
from repro.xacml.model import PolicySet
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.pip import PolicyInformationPoint

#: An obligation handler consumes (request, obligation outcome).
ObligationHandler = Callable[[RequestContext, ObligationOutcome], None]


class PolicyEnforcementPoint:
    """Orchestrates PIP enrichment, PDP evaluation and obligation discharge."""

    def __init__(
        self,
        pdp: PolicyDecisionPoint | None = None,
        pip: PolicyInformationPoint | None = None,
        enrich_attributes: list[str] | None = None,
    ) -> None:
        self.pdp = pdp or PolicyDecisionPoint()
        self.pip = pip or PolicyInformationPoint()
        self._enrich_attributes = list(enrich_attributes or [])
        self._handlers: dict[str, ObligationHandler] = {}

    def on_obligation(self, obligation_id: str, handler: ObligationHandler) -> None:
        """Register the handler discharging ``obligation_id``."""
        self._handlers[obligation_id] = handler

    def authorize(self, policy_set: PolicySet, request: RequestContext) -> ResponseContext:
        """Run the full PEP pipeline and return the final response.

        ``NOT_APPLICABLE`` and ``INDETERMINATE`` are mapped to ``DENY`` —
        deny-by-default.  On permit, every obligation must have a handler
        and every handler must succeed, otherwise the permit is downgraded
        to deny (XACML's "must fulfill all obligations" requirement).
        """
        enriched = self.pip.enrich(request, self._enrich_attributes)
        response = self.pdp.evaluate_policy_set(policy_set, enriched)
        if response.decision is not Decision.PERMIT:
            if response.decision is Decision.NOT_APPLICABLE:
                reason = "no matching policy (deny-by-default)"
            else:
                reason = f"mapped {response.decision.value} to Deny"
            return ResponseContext(
                Decision.DENY,
                obligations=response.obligations,
                status_message=response.status_message or reason,
            )
        try:
            for outcome in response.obligations:
                handler = self._handlers.get(outcome.obligation_id)
                if handler is None:
                    raise ObligationError(
                        f"no handler for obligation {outcome.obligation_id!r}"
                    )
                handler(enriched, outcome)
        except ObligationError as exc:
            return ResponseContext(Decision.DENY, status_message=str(exc))
        return response
