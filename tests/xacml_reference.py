"""The XACML reference every Def. 3 decision is held equal to.

:meth:`repro.core.policy.PolicyRepository.decide` is the platform's one
access decision.  This module is the general path it stands for: the
producer's policies compiled into a deny-overrides XACML policy set
(:meth:`~repro.core.policy.PolicyRepository.to_policy_set`), a request
context projected from the Def. 3 request (the clock's time rendered the
way the compiled validity windows are, ``020.6f``), the XACML PEP and PDP
evaluating it with a handler per obligation, and the ``release-fields``
obligations read back as the released field set.

``tests/test_policy_decision_reference.py`` draws policy sets and
requests and compares the two; the ``linear_reference`` fixture runs whole
deployments on :func:`reference_decision` instead of ``decide``.
"""

from __future__ import annotations

from repro.core.policy import (
    VETOED,
    DetailRequestSpec,
    PolicyDecision,
    PolicyRepository,
)
from repro.xacml.context import (
    ATTR_ACTION_PURPOSE,
    ATTR_ENV_TIME,
    ATTR_RESOURCE_EVENT_TYPE,
    ATTR_SUBJECT_ID,
    ATTR_SUBJECT_ROLE,
    Decision,
    RequestContext,
    ResponseContext,
)
from repro.xacml.model import OBLIGATION_AUDIT, OBLIGATION_RELEASE_FIELDS
from repro.xacml.pep import PolicyEnforcementPoint


def request_context(request: DetailRequestSpec) -> RequestContext:
    """Project a Def. 3 request onto the XACML request context."""
    attributes: dict[str, tuple[str, ...]] = {
        ATTR_SUBJECT_ID: (request.actor_id,),
        ATTR_RESOURCE_EVENT_TYPE: (request.event_type,),
        ATTR_ACTION_PURPOSE: (request.purpose,),
        ATTR_ENV_TIME: (f"{request.requested_at:020.6f}",),
    }
    if request.actor_role:
        attributes[ATTR_SUBJECT_ROLE] = (request.actor_role,)
    return RequestContext(attributes)


def enforcement_point() -> PolicyEnforcementPoint:
    """A PEP that discharges both obligations a compiled grant carries:
    field release happens at the gateway and auditing in the audit stage,
    so each handler only has to exist for the permit to stand."""
    pep = PolicyEnforcementPoint()
    for obligation in (OBLIGATION_RELEASE_FIELDS, OBLIGATION_AUDIT):
        pep.on_obligation(obligation, lambda request, outcome: None)
    return pep


def released_fields(response: ResponseContext) -> frozenset[str]:
    """Union of the field-release obligations of a permit response."""
    fields: set[str] = set()
    for outcome in response.obligations:
        if outcome.obligation_id == OBLIGATION_RELEASE_FIELDS:
            fields.update(outcome.assignment("field"))
    return frozenset(fields)


def reference_response(repository: PolicyRepository, producer_id: str,
                       request: DetailRequestSpec) -> ResponseContext:
    """The XACML PEP's response over the producer's whole policy set."""
    return enforcement_point().authorize(
        repository.to_policy_set(producer_id, request.event_type),
        request_context(request))


def reference_decision(repository: PolicyRepository, producer_id: str,
                       request: DetailRequestSpec) -> PolicyDecision:
    """The reference response as the decision ``decide`` returns (same
    signature, so it can stand in for the method): ``walked`` is every
    policy of the class, and a deny's verdict is read off the PEP's words
    (``DENY`` for a matching restriction, else ``NOT_APPLICABLE``)."""
    walked = len(repository.candidates(producer_id, request.event_type))
    response = reference_response(repository, producer_id, request)
    if response.permitted:
        return PolicyDecision(Decision.PERMIT, released_fields(response),
                              walked=walked)
    verdict = Decision.DENY if response.status_message == VETOED \
        else Decision.NOT_APPLICABLE
    return PolicyDecision(verdict, message=response.status_message, walked=walked)
