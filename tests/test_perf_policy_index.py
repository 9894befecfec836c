"""The repository's actor/role buckets (``PolicyRepository.actor_candidates``).

The buckets may only ever leave out policies whose target evaluates
``NotApplicable`` — candidates keep registration order, hierarchical
``actor_id`` grants resolve through the ancestor buckets, ``add`` and
``revoke`` update the buckets in place, and Def. 3 over the buckets
returns the same decisions as the full XACML compile-and-evaluate (the
``linear_reference`` fixture).
"""

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.core.actors import Actor, ActorKind
from repro.core.enforcement import DetailRequest
from repro.core.policy import (
    DetailRequestSpec,
    PolicyRepository,
    PrivacyPolicy,
    actor_ancestors,
)
from repro.exceptions import AccessDeniedError
from repro.sim.generators import standard_event_templates
from repro.xacml.context import Decision
from repro.xacml.pdp import PolicyDecisionPoint
from tests.xacml_reference import reference_decision, request_context


def grant(policy_id: str, *, actor_id: str = "", actor_role: str = "",
          fields=("PatientId",), purposes=("healthcare-treatment",),
          valid_from=None, valid_until=None) -> PrivacyPolicy:
    return PrivacyPolicy(
        policy_id=policy_id, producer_id="Hospital", event_type="BloodTest",
        fields=frozenset(fields), purposes=frozenset(purposes),
        actor_id=actor_id, actor_role=actor_role,
        valid_from=valid_from, valid_until=valid_until,
    )


def build_decide_rig(policies: int) -> tuple[DataController, list]:
    """A controller plus a cycle of permit/deny detail requests.

    Policy #0 authorizes the consumer ``Doctor``; the other ``policies-1``
    target unrelated actors — the candidate set the linear matcher must
    walk and the policy index prunes.  The request cycle mixes the
    authorized consumer with unknown actors so both outcomes (and the
    deny-by-default path) are exercised.
    """
    controller = DataController(seed="perf-bench")
    producer = DataProducer(controller, "Hospital", "Hospital")
    template = standard_event_templates()["BloodTest"]
    event_class = producer.declare_event_class(template.build_schema())
    consumer = DataConsumer(controller, "Doctor", "Doctor", role="family-doctor")
    producer.define_policy(
        "BloodTest", fields=["PatientId", "Name", "Hemoglobin"],
        consumers=[("Doctor", "unit")], purposes=["healthcare-treatment"],
    )
    for index in range(max(policies - 1, 0)):
        producer.define_policy(
            "BloodTest", fields=["Hemoglobin"],
            consumers=[(f"Other-{index}", "unit")],
            purposes=["statistical-analysis"],
        )
    notification = producer.publish(
        event_class, subject_id="pat-1", subject_name="Mario Bianchi",
        summary="blood test completed",
        details={"PatientId": "pat-1", "Name": "Mario", "Surname": "Bianchi",
                 "Hemoglobin": 13.9, "Glucose": 92.0, "Cholesterol": 180.0,
                 "HivResult": "negative"},
    )
    requests = [DetailRequest(
        actor=consumer.actor, event_type="BloodTest",
        event_id=notification.event_id, purpose="healthcare-treatment",
    )]
    for index in range(3):
        stranger = Actor(
            actor_id=f"Stranger-{index}", name=f"Stranger {index}",
            kind=ActorKind.CONSUMER, role="unit",
        )
        requests.append(DetailRequest(
            actor=stranger, event_type="BloodTest",
            event_id=notification.event_id, purpose="healthcare-treatment",
        ))
    return controller, requests


class TestActorAncestors:
    def test_hierarchy_is_expanded_root_first(self):
        assert actor_ancestors("a/b/c") == ("a", "a/b", "a/b/c")

    def test_flat_actor_is_its_own_ancestry(self):
        assert actor_ancestors("Doctor") == ("Doctor",)


def ids(policies) -> list[str]:
    return [policy.policy_id for policy in policies]


def verdict(decision) -> tuple:
    return (decision.verdict, decision.released_fields, decision.message)


def spec(actor_id: str, actor_role: str = "", at: float = 0.0) -> DetailRequestSpec:
    return DetailRequestSpec(actor_id=actor_id, event_type="BloodTest",
                             purpose="healthcare-treatment",
                             actor_role=actor_role, requested_at=at)


class TestCandidateSelection:
    def build(self):
        repository = PolicyRepository()
        for policy in (
            grant("p-role", actor_role="family-doctor"),
            grant("p-unit", actor_id="FamilyDoctors/Dr-Rossi"),
            grant("p-parent", actor_id="FamilyDoctors"),
            grant("p-other", actor_id="Statistics"),
        ):
            repository.add(policy)
        return repository

    def test_candidates_keep_registration_order(self):
        repository = self.build()
        candidates = repository.actor_candidates(
            "Hospital", "BloodTest", "FamilyDoctors/Dr-Rossi", "family-doctor"
        )
        # Role bucket (pos 0), exact unit (pos 1) and the hierarchical
        # parent grant (pos 2) all apply — in registration order; the
        # unrelated Statistics grant is the only one left out.
        assert ids(candidates) == ["p-role", "p-unit", "p-parent"]

    def test_pruned_policies_are_exactly_the_not_applicable_ones(self):
        repository = self.build()
        request = spec("Statistics/Team-A")
        candidates = repository.actor_candidates(
            "Hospital", "BloodTest", request.actor_id, request.actor_role)
        assert ids(candidates) == ["p-other"]
        pdp = PolicyDecisionPoint()
        for policy in repository.candidates("Hospital", "BloodTest"):
            response = pdp.evaluate_policy(policy.to_xacml(), request_context(request))
            applicable = response.decision is not Decision.NOT_APPLICABLE
            assert applicable == (policy in candidates), policy.policy_id
        assert repository.decide("Hospital", request).walked == 1

    def test_candidate_set_id_mirrors_the_repository_compilation(self):
        """Def. 3 over the buckets decides as the XACML evaluation of the
        repository's whole compiled policy set does."""
        repository = self.build()
        for actor_id, role in (("FamilyDoctors/Dr-Rossi", "family-doctor"),
                               ("FamilyDoctors/Dr-Bianchi", ""),
                               ("Statistics", "nurse"), ("Nobody", "")):
            request = spec(actor_id, role)
            assert verdict(repository.decide("Hospital", request)) == verdict(
                reference_decision(repository, "Hospital", request)), actor_id

    def test_unknown_actor_gets_an_empty_set(self):
        repository = self.build()
        assert repository.actor_candidates(
            "Hospital", "BloodTest", "Nobody", "no-role") == []
        decision = repository.decide("Hospital", spec("Nobody", "no-role"))
        assert (decision.walked, decision.verdict) == (0, Decision.NOT_APPLICABLE)


class TestEpochRebuild:
    """``add`` and ``revoke`` keep the buckets current in place: there is
    no epoch to compare and nothing to rebuild."""

    def test_add_and_revoke_rebuild_the_bucket(self):
        repository = PolicyRepository()
        repository.add(grant("p-1", actor_role="family-doctor"))

        def candidates():
            return ids(repository.actor_candidates(
                "Hospital", "BloodTest", "X", "family-doctor"))

        assert candidates() == ["p-1"]
        repository.add(grant("p-2", actor_role="family-doctor"))
        assert candidates() == ["p-1", "p-2"]
        repository.revoke("p-1")
        assert candidates() == ["p-2"]
        assert repository.decide(
            "Hospital", spec("X", "family-doctor")).grants == ("p-2",)

    def test_time_bounded_classes_are_flagged(self):
        """A class with a validity window needs no flag: every decision
        reads the window at its own request time."""
        repository = PolicyRepository()
        repository.add(grant("p-1", actor_role="family-doctor"))
        repository.add(grant("p-window", actor_role="insurer",
                             valid_from=0.0, valid_until=3600.0))
        for at, permitted in ((0.0, True), (3600.0, True), (3600.5, False)):
            assert repository.decide(
                "Hospital", spec("X", "insurer", at)).permitted is permitted
        assert repository.decide(
            "Hospital", spec("X", "family-doctor", 1e9)).permitted


class TestIndexedDecisionsMatchLinear:
    @pytest.mark.parametrize("purpose", ["healthcare-treatment",
                                         "statistical-analysis"])
    def test_decide_agrees_across_modes_for_a_grid_of_actors(
            self, purpose, linear_reference):
        actors = [
            Actor(actor_id="Doctor", name="Doctor",
                  kind=ActorKind.CONSUMER, role="family-doctor"),
            Actor(actor_id="Other-3", name="Other 3",
                  kind=ActorKind.CONSUMER, role="unit"),
            Actor(actor_id="Stranger", name="Stranger",
                  kind=ActorKind.CONSUMER, role="unit"),
        ]

        def run():
            """Each actor's (decide verdict, released fields or deny
            message), cold then warm, plus the audit trail they left."""
            controller, requests = build_decide_rig(policies=12)
            enforcer, outcomes = controller.enforcer, []
            for actor in actors:
                request = DetailRequest(
                    actor=actor, event_type="BloodTest",
                    event_id=requests[0].event_id, purpose=purpose,
                )
                for _ in ("cold", "warm"):
                    try:
                        released = sorted(
                            enforcer.get_event_details(request).released_fields)
                    except AccessDeniedError as exc:
                        released = str(exc)
                    outcomes.append((enforcer.decide(request), released))
            return outcomes, [record.to_payload()
                              for record in controller.audit_log.records()]

        product = run()
        with linear_reference():
            reference = run()
        assert product == reference
        treatment = purpose == "healthcare-treatment"
        assert [verdict for verdict, _ in product[0]] == [
            treatment, treatment, not treatment, not treatment, False, False]

    def test_the_index_scans_fewer_candidates_than_the_repository_holds(self):
        controller, requests = build_decide_rig(policies=24)
        for request in requests:
            controller.enforcer.decide(request)
        stats = controller.enforcer.pdp_stats
        assert stats.requests == len(requests)
        # Doctor walks its own bucket; the strangers walk none.
        assert stats.policies_evaluated == 1
