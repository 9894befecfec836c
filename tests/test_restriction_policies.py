"""Tests for restriction (deny) policies — exceptions carved out of grants."""

import pytest

from repro import DataConsumer, DataController, DataProducer, PrivacyPolicy
from repro.core.policy import DetailRequestSpec, PolicyRepository
from repro.exceptions import AccessDeniedError, PolicyError
from tests.conftest import blood_test_schema


def restriction(actor_id: str = "Hospital/Psychiatry",
                purposes=frozenset({"healthcare-treatment"})) -> PrivacyPolicy:
    return PrivacyPolicy(
        policy_id="restrict-1", producer_id="Lab", event_type="BloodTest",
        fields=frozenset(), purposes=purposes, actor_id=actor_id, deny=True,
    )


def grant(actor_id: str = "Hospital") -> PrivacyPolicy:
    return PrivacyPolicy(
        policy_id="grant-1", producer_id="Lab", event_type="BloodTest",
        fields=frozenset({"PatientId", "Hemoglobin"}),
        purposes=frozenset({"healthcare-treatment"}), actor_id=actor_id,
    )


class TestRestrictionValidation:
    def test_restriction_carries_no_fields(self):
        with pytest.raises(PolicyError, match="releases no fields"):
            PrivacyPolicy(
                policy_id="bad", producer_id="Lab", event_type="BloodTest",
                fields=frozenset({"PatientId"}),
                purposes=frozenset({"healthcare-treatment"}),
                actor_id="X", deny=True,
            )

    def test_grant_still_needs_fields(self):
        with pytest.raises(PolicyError, match="accessible field"):
            PrivacyPolicy(
                policy_id="bad", producer_id="Lab", event_type="BloodTest",
                fields=frozenset(), purposes=frozenset({"healthcare-treatment"}),
                actor_id="X",
            )

    def test_restriction_compiles_to_deny_rule(self):
        from repro.xacml.model import Effect

        compiled = restriction().to_xacml()
        assert compiled.rules[0].effect is Effect.DENY
        assert compiled.obligations == ()


class TestRepositorySemantics:
    def test_matching_policy_vetoed_by_restriction(self):
        repo = PolicyRepository()
        repo.add(grant())
        repo.add(restriction())
        # Psychiatry sits under Hospital, so the grant matches — but the
        # restriction vetoes it.
        vetoed = DetailRequestSpec("Hospital/Psychiatry", "BloodTest",
                                   "healthcare-treatment")
        allowed = DetailRequestSpec("Hospital/Cardiology", "BloodTest",
                                    "healthcare-treatment")
        decision = repo.decide("Lab", vetoed)
        assert not decision.permitted
        assert decision.message == "mapped Deny to Deny"
        assert (decision.grants, decision.restrictions) == (("grant-1",), ("restrict-1",))
        decision = repo.decide("Lab", allowed)
        assert decision.permitted and decision.grants == ("grant-1",)
        assert decision.released_fields == {"PatientId", "Hemoglobin"}

    def test_has_policy_for_respects_restriction(self):
        repo = PolicyRepository()
        repo.add(grant())
        repo.add(restriction())
        assert repo.has_policy_for("Lab", "BloodTest", "Hospital/Cardiology", at=0.0)
        assert not repo.has_policy_for("Lab", "BloodTest", "Hospital/Psychiatry", at=0.0)

    def test_revoking_restriction_restores_grant(self):
        repo = PolicyRepository()
        repo.add(grant())
        repo.add(restriction())
        repo.revoke("restrict-1")
        assert repo.has_policy_for("Lab", "BloodTest", "Hospital/Psychiatry", at=0.0)


@pytest.fixture()
def platform():
    controller = DataController(seed="restrict")
    lab = DataProducer(controller, "Lab", "Laboratory")
    blood = lab.declare_event_class(blood_test_schema())
    cardiology = DataConsumer(controller, "Hospital/Cardiology", "Cardiology")
    psychiatry = DataConsumer(controller, "Hospital/Psychiatry", "Psychiatry")
    lab.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("Hospital", "unit")],       # hospital-wide grant
        purposes=["healthcare-treatment"],
    )
    lab.define_restriction(
        "BloodTest", consumer=("Hospital/Psychiatry", "unit"),
        purposes=["healthcare-treatment"],
        label="psychiatry excluded from lab results",
    )
    notification = lab.publish(
        blood, subject_id="p1", subject_name="Mario Bianchi", summary="done",
        details={"PatientId": "p1", "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})
    return controller, lab, cardiology, psychiatry, notification


class TestEndToEndRestriction:
    def test_unrestricted_unit_is_served(self, platform):
        controller, lab, cardiology, psychiatry, notification = platform
        detail = cardiology.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values() == {"PatientId": "p1", "Hemoglobin": 14.0}

    def test_restricted_unit_is_denied(self, platform):
        controller, lab, cardiology, psychiatry, notification = platform
        with pytest.raises(AccessDeniedError):
            psychiatry.request_details(notification, "healthcare-treatment")

    def test_restriction_blocks_subscription_too(self, platform):
        controller, lab, cardiology, psychiatry, notification = platform
        cardiology.subscribe("BloodTest")
        with pytest.raises(AccessDeniedError):
            psychiatry.subscribe("BloodTest")

    def test_descendants_of_restricted_unit_also_denied(self, platform):
        controller, lab, cardiology, psychiatry, notification = platform
        ward = DataConsumer(controller, "Hospital/Psychiatry/WardB", "Ward B")
        with pytest.raises(AccessDeniedError):
            ward.request_details_by_id("BloodTest", notification.event_id,
                                       "healthcare-treatment")

    def test_restriction_is_purpose_scoped(self, platform):
        controller, lab, cardiology, psychiatry, notification = platform
        # Grant psychiatry a different purpose; the restriction only names
        # healthcare-treatment, so the new grant stands.
        lab.define_policy(
            "BloodTest", fields=["Hemoglobin"],
            consumers=[("Hospital/Psychiatry", "unit")],
            purposes=["statistical-analysis"],
        )
        detail = psychiatry.request_details(notification, "statistical-analysis")
        assert detail.exposed_values() == {"Hemoglobin": 14.0}

    def test_restriction_appears_on_dashboard(self, platform):
        controller, lab, cardiology, psychiatry, notification = platform
        text = controller.dashboard.render("Lab")
        assert "restriction" in text.lower() or "Psychiatry" in text

    def test_restriction_generates_xacml(self, platform):
        controller, lab, cardiology, psychiatry, notification = platform
        restrictions = [p for p in controller.policies.policies_of_producer("Lab")
                        if p.deny]
        assert len(restrictions) == 1
        xacml = controller.policies.xacml_text(restrictions[0].policy_id)
        assert 'Effect="Deny"' in xacml
