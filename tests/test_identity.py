"""Unit and integration tests for the identity-management extension."""

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.clock import Clock, DAY
from repro.exceptions import AccessDeniedError, CryptoError, TokenError
from repro.identity import CredentialAuthority, LocalIdentityProvider
from tests.conftest import blood_test_schema


@pytest.fixture()
def authority() -> CredentialAuthority:
    return CredentialAuthority("national-secret", clock=Clock())


class TestCredentialAuthority:
    def test_issue_and_verify(self, authority):
        credential = authority.issue("FamilyDoctors/Dr-Rossi", "family-doctor")
        authority.verify(credential)

    def test_needs_secret(self):
        with pytest.raises(CryptoError):
            CredentialAuthority("")

    def test_needs_actor(self, authority):
        with pytest.raises(TokenError):
            authority.issue("", "role")

    def test_tampered_role_detected(self, authority):
        from dataclasses import replace

        credential = authority.issue("Doctor", "nurse")
        forged = replace(credential, role="family-doctor")
        with pytest.raises(TokenError, match="signature"):
            authority.verify(forged)

    def test_tampered_actor_detected(self, authority):
        from dataclasses import replace

        credential = authority.issue("Doctor", "family-doctor")
        forged = replace(credential, actor_id="Impostor")
        with pytest.raises(TokenError, match="signature"):
            authority.verify(forged)

    def test_foreign_authority_rejected(self):
        clock = Clock()
        issuing = CredentialAuthority("secret-a", clock=clock)
        verifying = CredentialAuthority("secret-b", clock=clock)
        credential = issuing.issue("Doctor", "family-doctor")
        with pytest.raises(TokenError):
            verifying.verify(credential)

    def test_expiry(self):
        clock = Clock()
        authority = CredentialAuthority("s", clock=clock)
        credential = authority.issue("Doctor", "family-doctor", lifetime=10 * DAY)
        authority.verify(credential)
        clock.advance(11 * DAY)
        with pytest.raises(TokenError, match="expired"):
            authority.verify(credential)

    def test_revocation(self, authority):
        credential = authority.issue("Doctor", "family-doctor")
        authority.revoke(credential.credential_id)
        assert authority.is_revoked(credential.credential_id)
        with pytest.raises(TokenError, match="revoked"):
            authority.verify(credential)

    def test_revoke_unknown_rejected(self, authority):
        with pytest.raises(TokenError):
            authority.revoke("cred-unknown")


class TestIdentityProvider:
    def test_authenticates_valid_credential(self, authority):
        provider = LocalIdentityProvider(authority)
        credential = authority.issue("Doctor", "family-doctor")
        context = provider.authenticate("Doctor", credential, "family-doctor")
        assert context.verified_role == "family-doctor"
        assert context.credential_id == credential.credential_id

    def test_missing_credential_denied(self, authority):
        provider = LocalIdentityProvider(authority)
        with pytest.raises(AccessDeniedError, match="must present"):
            provider.authenticate("Doctor", None)

    def test_wrong_subject_denied(self, authority):
        provider = LocalIdentityProvider(authority)
        credential = authority.issue("Doctor", "family-doctor")
        with pytest.raises(AccessDeniedError, match="bound to"):
            provider.authenticate("Impostor", credential)

    def test_role_spoofing_denied(self, authority):
        provider = LocalIdentityProvider(authority)
        credential = authority.issue("Doctor", "nurse")
        with pytest.raises(AccessDeniedError, match="asserts role"):
            provider.authenticate("Doctor", credential, "family-doctor")

    def test_empty_assertion_accepts_any_certified_role(self, authority):
        provider = LocalIdentityProvider(authority)
        credential = authority.issue("Org", "nurse")
        context = provider.authenticate("Org", credential, "")
        assert context.verified_role == "nurse"


@pytest.fixture()
def secured_platform():
    """A platform with identity management attached."""
    clock = Clock()
    controller = DataController(clock=clock, seed="idm")
    authority = CredentialAuthority("national-secret", clock=clock)
    controller.attach_identity_provider(LocalIdentityProvider(authority))
    return controller, authority


class TestSecuredPlatform:
    def test_join_requires_credential(self, secured_platform):
        controller, authority = secured_platform
        with pytest.raises(AccessDeniedError):
            DataProducer(controller, "Hospital", "Hospital")

    def test_join_with_credential_succeeds(self, secured_platform):
        controller, authority = secured_platform
        credential = authority.issue("Hospital", "")
        producer = DataProducer(controller, "Hospital", "Hospital",
                                credential=credential)
        assert producer.actor_id in controller.contracts

    def test_role_spoofing_at_join_rejected(self, secured_platform):
        controller, authority = secured_platform
        credential = authority.issue("Impostor", "nurse")
        with pytest.raises(AccessDeniedError, match="asserts role"):
            DataConsumer(controller, "Impostor", "Impostor",
                         role="family-doctor", credential=credential)

    def test_full_flow_with_credentials(self, secured_platform):
        controller, authority = secured_platform
        hospital = DataProducer(controller, "Hospital", "Hospital",
                                credential=authority.issue("Hospital", ""))
        blood = hospital.declare_event_class(blood_test_schema())
        doctor = DataConsumer(
            controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor",
            credential=authority.issue("Dr-Rossi", "family-doctor"),
        )
        hospital.define_policy(
            "BloodTest", fields=["PatientId", "Hemoglobin"],
            consumers=[("family-doctor", "role")],
            purposes=["healthcare-treatment"],
        )
        doctor.subscribe("BloodTest")
        notification = hospital.publish(
            blood, subject_id="p1", subject_name="Mario Bianchi", summary="done",
            details={"PatientId": "p1", "Name": "Mario", "Hemoglobin": 14.0,
                     "Glucose": 90.0, "HivResult": "negative"},
        )
        detail = doctor.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values() == {"PatientId": "p1", "Hemoglobin": 14.0}

    def test_revocation_cuts_access_immediately(self, secured_platform):
        """§5: 'manage changes and revocation of authorizations'."""
        controller, authority = secured_platform
        hospital = DataProducer(controller, "Hospital", "Hospital",
                                credential=authority.issue("Hospital", ""))
        blood = hospital.declare_event_class(blood_test_schema())
        doctor_credential = authority.issue("Dr-Rossi", "family-doctor")
        doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi",
                              role="family-doctor", credential=doctor_credential)
        hospital.define_policy(
            "BloodTest", fields=["PatientId"],
            consumers=[("family-doctor", "role")],
            purposes=["healthcare-treatment"],
        )
        doctor.subscribe("BloodTest")
        notification = hospital.publish(
            blood, subject_id="p1", subject_name="M B", summary="done",
            details={"PatientId": "p1", "Name": "M", "Hemoglobin": 14.0,
                     "Glucose": 90.0, "HivResult": "negative"},
        )
        assert doctor.request_details(notification, "healthcare-treatment")
        authority.revoke(doctor_credential.credential_id)
        with pytest.raises(AccessDeniedError, match="revoked"):
            doctor.request_details(notification, "healthcare-treatment")

    def test_expired_credential_cuts_access(self, secured_platform):
        controller, authority = secured_platform
        hospital = DataProducer(controller, "Hospital", "Hospital",
                                credential=authority.issue("Hospital", ""))
        blood = hospital.declare_event_class(blood_test_schema())
        doctor = DataConsumer(
            controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor",
            credential=authority.issue("Dr-Rossi", "family-doctor",
                                       lifetime=5 * DAY),
        )
        hospital.define_policy(
            "BloodTest", fields=["PatientId"],
            consumers=[("family-doctor", "role")],
            purposes=["healthcare-treatment"],
        )
        doctor.subscribe("BloodTest")
        notification = hospital.publish(
            blood, subject_id="p1", subject_name="M B", summary="done",
            details={"PatientId": "p1", "Name": "M", "Hemoglobin": 14.0,
                     "Glucose": 90.0, "HivResult": "negative"},
        )
        controller.clock.advance(6 * DAY)
        with pytest.raises(AccessDeniedError, match="expired"):
            doctor.request_details(notification, "healthcare-treatment")

    def test_legacy_platform_unaffected(self):
        """Without a provider the trusted-parties behaviour is unchanged."""
        controller = DataController(seed="legacy")
        producer = DataProducer(controller, "Hospital", "Hospital")
        assert not controller.identity_active
        assert producer.actor_id in controller.contracts
