"""Unit and property tests for Definitions 2-4 (repro.core.policy)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import (
    DetailRequestSpec,
    PolicyRepository,
    PrivacyPolicy,
    is_privacy_safe,
)
from repro.exceptions import PolicyError
from repro.xacml.context import Decision, RequestContext
from repro.xacml.model import OBLIGATION_AUDIT, OBLIGATION_RELEASE_FIELDS
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xmlmsg.document import XmlDocument


def policy(
    policy_id: str = "p1",
    actor_id: str = "Doctor",
    actor_role: str = "",
    event_type: str = "BloodTest",
    purposes: frozenset[str] = frozenset({"healthcare-treatment"}),
    fields: frozenset[str] = frozenset({"PatientId", "Hemoglobin"}),
    **kwargs,
) -> PrivacyPolicy:
    return PrivacyPolicy(
        policy_id=policy_id,
        producer_id="Hospital",
        event_type=event_type,
        fields=fields,
        purposes=purposes,
        actor_id=actor_id,
        actor_role=actor_role,
        **kwargs,
    )


def request(
    actor_id: str = "Doctor",
    event_type: str = "BloodTest",
    purpose: str = "healthcare-treatment",
    actor_role: str = "",
    requested_at: float = 0.0,
) -> DetailRequestSpec:
    return DetailRequestSpec(
        actor_id=actor_id,
        event_type=event_type,
        purpose=purpose,
        actor_role=actor_role,
        requested_at=requested_at,
    )


class TestPolicyValidation:
    def test_requires_exactly_one_actor_selector(self):
        with pytest.raises(PolicyError):
            policy(actor_id="", actor_role="")
        with pytest.raises(PolicyError):
            policy(actor_id="A", actor_role="r")

    def test_requires_purposes_and_fields(self):
        with pytest.raises(PolicyError):
            policy(purposes=frozenset())
        with pytest.raises(PolicyError):
            policy(fields=frozenset())

    def test_rejects_inverted_validity_window(self):
        with pytest.raises(PolicyError):
            policy(valid_from=10.0, valid_until=5.0)

    def test_actor_selector_display(self):
        assert policy().actor_selector == "unit:Doctor"
        assert policy(actor_id="", actor_role="family-doctor").actor_selector == "role:family-doctor"


class TestDef3Matching:
    def test_exact_match(self):
        assert policy().matches(request())

    def test_event_type_must_match(self):
        assert not policy().matches(request(event_type="Other"))

    def test_purpose_must_be_admissible(self):
        assert not policy().matches(request(purpose="statistical-analysis"))

    def test_multiple_purposes(self):
        multi = policy(purposes=frozenset({"a", "b"}))
        assert multi.matches(request(purpose="a"))
        assert multi.matches(request(purpose="b"))
        assert not multi.matches(request(purpose="c"))

    def test_actor_hierarchy_grant(self):
        hospital_wide = policy(actor_id="Hospital")
        assert hospital_wide.matches(request(actor_id="Hospital"))
        assert hospital_wide.matches(request(actor_id="Hospital/Lab"))
        assert not hospital_wide.matches(request(actor_id="HospitalX"))

    def test_role_grant(self):
        role_based = policy(actor_id="", actor_role="family-doctor")
        assert role_based.matches(request(actor_id="Anyone", actor_role="family-doctor"))
        assert not role_based.matches(request(actor_id="Anyone", actor_role="nurse"))
        assert not role_based.matches(request(actor_id="Anyone", actor_role=""))

    def test_validity_window(self):
        windowed = policy(valid_from=10.0, valid_until=20.0)
        assert not windowed.matches(request(requested_at=5.0))
        assert windowed.matches(request(requested_at=10.0))
        assert windowed.matches(request(requested_at=20.0))
        assert not windowed.matches(request(requested_at=25.0))

    def test_open_ended_windows(self):
        assert policy(valid_from=10.0).matches(request(requested_at=1e9))
        assert policy(valid_until=10.0).matches(request(requested_at=0.0))


class TestDef4PrivacySafety:
    def test_safe_when_fields_within_allowed(self):
        doc = XmlDocument("BloodTest", {"PatientId": "p", "Hemoglobin": 14, "HivResult": None})
        assert is_privacy_safe(doc, policy())

    def test_unsafe_when_disallowed_field_non_empty(self):
        doc = XmlDocument("BloodTest", {"PatientId": "p", "HivResult": "positive"})
        assert not is_privacy_safe(doc, policy())

    def test_blanking_restores_safety(self):
        doc = XmlDocument("BloodTest", {"PatientId": "p", "HivResult": "positive"})
        assert is_privacy_safe(doc.project(policy().fields), policy())

    @given(
        allowed=st.frozensets(st.sampled_from(["a", "b", "c", "d"]), min_size=1),
        present=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.one_of(st.none(), st.integers()),
            max_size=5,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_projection_always_privacy_safe(self, allowed, present):
        """Algorithm 2's projection makes ANY document safe for ANY policy."""
        doc = XmlDocument("E", present)
        target = policy(fields=allowed, event_type="E")
        assert is_privacy_safe(doc.project(allowed), target)


class TestXacmlCompilation:
    def test_compiled_policy_permits_matching_request(self):
        compiled = policy().to_xacml()
        pdp = PolicyDecisionPoint()
        ctx = RequestContext.build(
            subject__actor_id="Doctor",
            resource__event_type="BloodTest",
            action__purpose="healthcare-treatment",
        )
        response = pdp.evaluate_policy(compiled, ctx)
        assert response.decision is Decision.PERMIT

    def test_compiled_policy_carries_field_obligation(self):
        compiled = policy().to_xacml()
        pdp = PolicyDecisionPoint()
        ctx = RequestContext.build(
            subject__actor_id="Doctor",
            resource__event_type="BloodTest",
            action__purpose="healthcare-treatment",
        )
        response = pdp.evaluate_policy(compiled, ctx)
        release = [o for o in response.obligations
                   if o.obligation_id == OBLIGATION_RELEASE_FIELDS]
        assert release
        assert set(release[0].assignment("field")) == {"PatientId", "Hemoglobin"}
        audits = [o for o in response.obligations if o.obligation_id == OBLIGATION_AUDIT]
        assert audits

    def test_compiled_policy_not_applicable_on_wrong_purpose(self):
        compiled = policy().to_xacml()
        pdp = PolicyDecisionPoint()
        ctx = RequestContext.build(
            subject__actor_id="Doctor",
            resource__event_type="BloodTest",
            action__purpose="marketing",
        )
        assert pdp.evaluate_policy(compiled, ctx).decision is Decision.NOT_APPLICABLE

    def test_compiled_validity_window_uses_env_time(self):
        compiled = policy(valid_from=10.0, valid_until=20.0).to_xacml()
        pdp = PolicyDecisionPoint()

        def ctx_at(t: float) -> RequestContext:
            return RequestContext.build(
                subject__actor_id="Doctor",
                resource__event_type="BloodTest",
                action__purpose="healthcare-treatment",
                env__current_time=f"{t:020.6f}",
            )

        assert pdp.evaluate_policy(compiled, ctx_at(15.0)).decision is Decision.PERMIT
        assert pdp.evaluate_policy(compiled, ctx_at(25.0)).decision is Decision.NOT_APPLICABLE

    def test_agreement_with_def3_matching(self):
        """The XACML compilation and Def. 3 matching agree on random requests."""
        pdp = PolicyDecisionPoint()
        source = policy(actor_id="Hospital", purposes=frozenset({"a", "b"}))
        compiled = source.to_xacml()
        cases = [
            request(actor_id="Hospital", purpose="a"),
            request(actor_id="Hospital/Lab", purpose="b"),
            request(actor_id="Elsewhere", purpose="a"),
            request(actor_id="Hospital", purpose="c"),
            request(actor_id="Hospital", event_type="Other", purpose="a"),
        ]
        for spec in cases:
            ctx = RequestContext.build(
                subject__actor_id=spec.actor_id,
                resource__event_type=spec.event_type,
                action__purpose=spec.purpose,
            )
            decision = pdp.evaluate_policy(compiled, ctx).decision
            assert (decision is Decision.PERMIT) == source.matches(spec)


class TestPolicyRepository:
    def test_add_and_candidates(self):
        repo = PolicyRepository()
        repo.add(policy())
        assert len(repo) == 1
        assert "p1" in repo
        assert len(repo.candidates("Hospital", "BloodTest")) == 1
        assert repo.candidates("Hospital", "Other") == []
        assert repo.candidates("Other", "BloodTest") == []

    def test_duplicate_id_rejected(self):
        repo = PolicyRepository()
        repo.add(policy())
        with pytest.raises(PolicyError):
            repo.add(policy())

    def test_matching_policy_first_match(self):
        """Every matching grant is part of the decision, in registration
        order (there is no "first" grant that releases alone)."""
        repo = PolicyRepository()
        repo.add(policy(policy_id="p1", fields=frozenset({"PatientId"})))
        repo.add(policy(policy_id="p2", fields=frozenset({"Hemoglobin"})))
        decision = repo.decide("Hospital", request())
        assert decision.permitted
        assert decision.grants == ("p1", "p2")

    def test_decide_releases_the_union_of_matching_grants(self):
        repo = PolicyRepository()
        repo.add(policy(policy_id="p1", fields=frozenset({"PatientId"})))
        repo.add(policy(policy_id="p2", fields=frozenset({"Hemoglobin"})))
        repo.add(policy(policy_id="p3", fields=frozenset({"HivResult"}),
                        purposes=frozenset({"statistical-analysis"})))
        decision = repo.decide("Hospital", request())
        assert decision.released_fields == {"PatientId", "Hemoglobin"}
        assert (decision.verdict, decision.message) == (Decision.PERMIT, "")

    def test_matching_policy_none(self):
        repo = PolicyRepository()
        repo.add(policy())
        decision = repo.decide("Hospital", request(purpose="nope"))
        assert not decision.permitted
        assert decision.verdict is Decision.NOT_APPLICABLE
        assert decision.message == "no matching policy (deny-by-default)"
        assert (decision.released_fields, decision.grants) == (frozenset(), ())

    def test_revocation_stops_matching(self):
        repo = PolicyRepository()
        repo.add(policy())
        repo.revoke("p1")
        assert not repo.decide("Hospital", request()).permitted
        assert repo.is_revoked("p1")
        assert "p1" not in repo
        assert repo.get("p1").policy_id == "p1"  # still auditable

    def test_revoke_unknown_rejected(self):
        with pytest.raises(PolicyError):
            PolicyRepository().revoke("nope")

    def test_has_policy_for(self):
        repo = PolicyRepository()
        repo.add(policy(actor_id="Hospital"))
        assert repo.has_policy_for("Hospital", "BloodTest", "Hospital/Lab", at=0.0)
        assert not repo.has_policy_for("Hospital", "BloodTest", "Elsewhere", at=0.0)
        assert not repo.has_policy_for("Hospital", "Other", "Hospital", at=0.0)

    def test_has_policy_for_role(self):
        repo = PolicyRepository()
        repo.add(policy(actor_id="", actor_role="family-doctor"))
        assert repo.has_policy_for("Hospital", "BloodTest", "Any", "family-doctor", at=0.0)
        assert not repo.has_policy_for("Hospital", "BloodTest", "Any", "nurse", at=0.0)

    def test_has_policy_for_reads_windows_at_the_given_time(self):
        repo = PolicyRepository()
        repo.add(policy(actor_id="", actor_role="family-doctor",
                        valid_from=100.0, valid_until=1000.0))
        repo.add(policy(policy_id="veto", actor_id="Doctor", fields=frozenset(),
                        deny=True, valid_until=50.0))
        assert [repo.has_policy_for("Hospital", "BloodTest", "Doctor",
                                    "family-doctor", at=at)
                for at in (0.0, 50.0, 200.0, 1000.0, 1000.5)] == [
            False, False, True, True, False]

    def test_xacml_text_stored(self):
        repo = PolicyRepository()
        repo.add(policy(), xacml_text="<Policy/>")
        assert repo.xacml_text("p1") == "<Policy/>"
        assert repo.xacml_text("missing") == ""

    def test_policies_of_producer(self):
        repo = PolicyRepository()
        repo.add(policy(policy_id="p1"))
        repo.add(policy(policy_id="p2", event_type="Other"))
        assert len(repo.policies_of_producer("Hospital")) == 2
        repo.revoke("p1")
        assert len(repo.policies_of_producer("Hospital")) == 1

    def test_to_policy_set_empty_is_deny_by_default(self):
        repo = PolicyRepository()
        policy_set = repo.to_policy_set("Hospital", "BloodTest")
        pdp = PolicyDecisionPoint()
        ctx = RequestContext.build(subject__actor_id="Doctor")
        assert pdp.evaluate_policy_set(policy_set, ctx).decision is Decision.NOT_APPLICABLE
