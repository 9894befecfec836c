"""XACML 2.0 subset: policies, evaluation, and XML round-trip.

The paper models privacy policies internally in XACML and builds the policy
enforcer out of the standard components (Fig. 4): the Policy Enforcement
Point (PEP) receives requests, the Policy Information Point (PIP) resolves
attributes such as the producer-local event id, and the Policy Decision
Point (PDP) evaluates the matching policy with deny-by-default semantics and
field-release *obligations* (Fig. 8).

This subpackage implements the XACML slice those components need:

* :mod:`~repro.xacml.model` — ``PolicySet``/``Policy``/``Rule``/``Target``/
  ``Match``/``Obligation`` with rule- and policy-combining algorithms;
* :mod:`~repro.xacml.context` — request/response context and decisions;
* :mod:`~repro.xacml.functions` — the match functions we use;
* :mod:`~repro.xacml.pdp` — the decision point;
* :mod:`~repro.xacml.pip` — attribute resolution (id mapping lives here);
* :mod:`~repro.xacml.pep` — the enforcement point skeleton;
* :mod:`~repro.xacml.serialize` — XML serialization/parsing (Fig. 8's
  document shape).

The platform decides a request by Def. 3
(:meth:`repro.core.policy.PolicyRepository.decide`); XACML is the
interchange format every stored policy is also kept in, and the PEP/PDP
over :meth:`~repro.core.policy.PolicyRepository.to_policy_set` is the
reference the test suite holds that decision equal to.
"""

from repro.xacml.context import Decision, RequestContext, ResponseContext
from repro.xacml.model import (
    CombiningAlgorithm,
    Effect,
    Match,
    Obligation,
    Policy,
    PolicySet,
    Rule,
    Target,
)
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.pep import PolicyEnforcementPoint
from repro.xacml.pip import AttributeResolver, PolicyInformationPoint
from repro.xacml.serialize import parse_policy, serialize_policy

__all__ = [
    "AttributeResolver",
    "CombiningAlgorithm",
    "Decision",
    "Effect",
    "Match",
    "Obligation",
    "Policy",
    "PolicyDecisionPoint",
    "PolicyEnforcementPoint",
    "PolicyInformationPoint",
    "PolicySet",
    "RequestContext",
    "ResponseContext",
    "Rule",
    "Target",
    "parse_policy",
    "serialize_policy",
]
