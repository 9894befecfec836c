"""Policy Decision Point.

Evaluates a request against a policy or policy set and returns a
:class:`~repro.xacml.context.ResponseContext` with the decision and the
obligations of the deciding policies.  Deny-by-default is realised by the
caller wrapping the repository in a deny-overrides policy set whose
``NOT_APPLICABLE`` outcome the PEP maps to deny — exactly the semantics of
paper §5.1 ("unless permitted by some privacy policy an Event Details
cannot be accessed by any subject").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xacml.context import Decision, ObligationOutcome, RequestContext, ResponseContext
from repro.xacml.model import CombiningAlgorithm, Effect, Policy, PolicySet, Rule


@dataclass
class PdpStats:
    """Evaluation counters for the benchmarks."""

    requests: int = 0
    policies_evaluated: int = 0
    rules_evaluated: int = 0


class PolicyDecisionPoint:
    """Evaluates XACML policies and policy sets.

    How many policies and rules were walked is in :class:`PdpStats`.  The
    platform decides by Def. 3 (:meth:`repro.core.policy.PolicyRepository.
    decide`); this PDP is the reference the test suite holds it equal to,
    and the evaluator of the Figs. 5 and 8 walkthroughs.
    """

    def __init__(self) -> None:
        self.stats = PdpStats()

    # -- public API ----------------------------------------------------------

    def evaluate_policy(self, policy: Policy, request: RequestContext) -> ResponseContext:
        """Evaluate one policy against ``request``."""
        self.stats.requests += 1
        return self._policy_decision(policy, request)

    def evaluate_policy_set(self, policy_set: PolicySet, request: RequestContext) -> ResponseContext:
        """Evaluate a policy set against ``request``."""
        self.stats.requests += 1
        if not policy_set.target.applies_to(request):
            return ResponseContext(Decision.NOT_APPLICABLE)
        outcomes = []
        for policy in policy_set.policies:
            outcome = self._policy_decision(policy, request)
            outcomes.append(outcome)
            if self._can_short_circuit(policy_set.combining, outcome.decision):
                break
        return self._combine(policy_set.combining, outcomes)

    # -- policy evaluation -----------------------------------------------------

    def _policy_decision(self, policy: Policy, request: RequestContext) -> ResponseContext:
        self.stats.policies_evaluated += 1
        if not policy.target.applies_to(request):
            return ResponseContext(Decision.NOT_APPLICABLE)
        effects = []
        for rule in policy.rules:
            effect = self._rule_effect(rule, request)
            if effect is not None:
                effects.append(effect)
                if self._effect_short_circuits(policy.combining, effect):
                    break
        decision = self._combine_effects(policy.combining, effects)
        response = ResponseContext(decision)
        if decision in (Decision.PERMIT, Decision.DENY):
            firing = Effect.PERMIT if decision is Decision.PERMIT else Effect.DENY
            for obligation in policy.obligations_for(firing):
                response.obligations.append(
                    ObligationOutcome(
                        obligation.obligation_id,
                        _group_assignments(obligation.assignments),
                    )
                )
        return response

    def _rule_effect(self, rule: Rule, request: RequestContext) -> Effect | None:
        self.stats.rules_evaluated += 1
        return rule.evaluate(request)

    # -- combining ----------------------------------------------------------------

    @staticmethod
    def _effect_short_circuits(combining: CombiningAlgorithm, effect: Effect) -> bool:
        if combining is CombiningAlgorithm.DENY_OVERRIDES:
            return effect is Effect.DENY
        if combining is CombiningAlgorithm.PERMIT_OVERRIDES:
            return effect is Effect.PERMIT
        return True  # first-applicable: the first applicable rule decides

    @staticmethod
    def _combine_effects(combining: CombiningAlgorithm, effects: list[Effect]) -> Decision:
        if not effects:
            return Decision.NOT_APPLICABLE
        if combining is CombiningAlgorithm.DENY_OVERRIDES:
            if Effect.DENY in effects:
                return Decision.DENY
            return Decision.PERMIT
        if combining is CombiningAlgorithm.PERMIT_OVERRIDES:
            if Effect.PERMIT in effects:
                return Decision.PERMIT
            return Decision.DENY
        return Decision.PERMIT if effects[0] is Effect.PERMIT else Decision.DENY

    @staticmethod
    def _can_short_circuit(combining: CombiningAlgorithm, decision: Decision) -> bool:
        if decision is Decision.NOT_APPLICABLE:
            return False
        if combining is CombiningAlgorithm.DENY_OVERRIDES:
            return decision is Decision.DENY
        if combining is CombiningAlgorithm.PERMIT_OVERRIDES:
            return decision is Decision.PERMIT
        return True

    def _combine(self, combining: CombiningAlgorithm, outcomes: list[ResponseContext]) -> ResponseContext:
        applicable = [o for o in outcomes if o.decision is not Decision.NOT_APPLICABLE]
        if not applicable:
            return ResponseContext(Decision.NOT_APPLICABLE)
        if combining is CombiningAlgorithm.DENY_OVERRIDES:
            denies = [o for o in applicable if o.decision is Decision.DENY]
            chosen = denies if denies else applicable
            decision = Decision.DENY if denies else Decision.PERMIT
        elif combining is CombiningAlgorithm.PERMIT_OVERRIDES:
            permits = [o for o in applicable if o.decision is Decision.PERMIT]
            chosen = permits if permits else applicable
            decision = Decision.PERMIT if permits else Decision.DENY
        else:  # first-applicable
            chosen = [applicable[0]]
            decision = applicable[0].decision
        combined = ResponseContext(decision)
        for outcome in chosen:
            if outcome.decision is decision:
                combined.obligations.extend(outcome.obligations)
        return combined


def _group_assignments(assignments: tuple[tuple[str, str], ...]) -> dict[str, tuple[str, ...]]:
    grouped: dict[str, list[str]] = {}
    for name, value in assignments:
        grouped.setdefault(name, []).append(value)
    return {name: tuple(values) for name, values in grouped.items()}
