"""The actor/role-bucketed policy index (``repro.perf.policy_index``).

The index may only ever drop policies whose target evaluates
``NotApplicable`` — candidates keep registration order, hierarchical
``actor_id`` grants resolve through the ancestor buckets, the buckets
rebuild when the repository's epoch moves, and the indexed PDP returns
the same decisions as the full linear compile-and-evaluate (the
``linear_reference`` fixture).
"""

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.core.actors import Actor, ActorKind
from repro.core.enforcement import DetailRequest
from repro.core.policy import PolicyRepository, PrivacyPolicy
from repro.exceptions import AccessDeniedError
from repro.perf.policy_index import PolicyIndex, actor_ancestors
from repro.sim.generators import standard_event_templates


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
        return repository, PolicyIndex(repository)

    def test_candidates_keep_registration_order(self):
        repository, index = self.build()
        positions = index.candidate_positions(
            "Hospital", "BloodTest", "FamilyDoctors/Dr-Rossi", "family-doctor"
        )
        # Role bucket (pos 0), exact unit (pos 1) and the hierarchical
        # parent grant (pos 2) all apply — in registration order; the
        # unrelated Statistics grant is the only one pruned.
        assert positions == [0, 1, 2]

    def test_pruned_policies_are_exactly_the_not_applicable_ones(self):
        repository, index = self.build()
        policy_set = index.candidate_set(
            "Hospital", "BloodTest", "Statistics/Team-A", ""
        )
        assert index.stats.candidates_scanned == 1
        assert [p.policy_id for p in policy_set.policies] == ["p-other"]
        assert index.stats.candidates_skipped >= 3

    def test_candidate_set_id_mirrors_the_repository_compilation(self):
        repository, index = self.build()
        policy_set = index.candidate_set(
            "Hospital", "BloodTest", "FamilyDoctors/Dr-Rossi", "family-doctor"
        )
        assert policy_set.policy_set_id == \
            repository.to_policy_set("Hospital", "BloodTest").policy_set_id

    def test_unknown_actor_gets_an_empty_set(self):
        _, index = self.build()
        policy_set = index.candidate_set(
            "Hospital", "BloodTest", "Nobody", "no-role"
        )
        assert index.stats.candidates_scanned == 0
        assert policy_set.policies == ()


class TestEpochRebuild:
    def test_add_and_revoke_rebuild_the_bucket(self):
        repository = PolicyRepository()
        repository.add(grant("p-1", actor_role="family-doctor"))
        index = PolicyIndex(repository)
        assert index.candidate_positions(
            "Hospital", "BloodTest", "X", "family-doctor") == [0]
        rebuilds = index.stats.rebuilds

        # Same epoch: the cached bucket is reused, no rebuild.
        index.candidate_positions("Hospital", "BloodTest", "X", "family-doctor")
        assert index.stats.rebuilds == rebuilds

        repository.add(grant("p-2", actor_role="family-doctor"))
        assert index.candidate_positions(
            "Hospital", "BloodTest", "X", "family-doctor") == [0, 1]
        assert index.stats.rebuilds == rebuilds + 1

        repository.revoke("p-1")
        assert index.candidate_positions(
            "Hospital", "BloodTest", "X", "family-doctor") == [0]
        policy_set = index.candidate_set(
            "Hospital", "BloodTest", "X", "family-doctor")
        assert [p.policy_id for p in policy_set.policies] == ["p-2"]

    def test_time_bounded_classes_are_flagged(self):
        repository = PolicyRepository()
        repository.add(grant("p-1", actor_role="family-doctor"))
        index = PolicyIndex(repository)
        assert not index.is_time_bounded("Hospital", "BloodTest")
        repository.add(grant("p-window", actor_role="insurer",
                             valid_from=0.0, valid_until=3600.0))
        assert index.is_time_bounded("Hospital", "BloodTest")


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
        index = controller.perf.policy_index
        assert index.stats.selections > 0
        scanned_per_selection = (
            index.stats.candidates_scanned / index.stats.selections
        )
        assert scanned_per_selection < 24
        assert index.stats.candidates_skipped > 0
