"""Unit tests for the Privacy Requirements Elicitation Tool (Figs. 6-7)."""

import pytest

from repro.core.catalog import EventCatalog
from repro.core.elicitation import (
    ElicitationWizard,
    PendingAccessRequest,
    PendingRequestQueue,
    PolicyDashboard,
)
from repro.core.events import EventClass
from repro.core.policy import DetailRequestSpec, PolicyRepository
from repro.core.purposes import PurposeRegistry
from repro.exceptions import PolicyError
from repro.ids import IdFactory
from repro.xacml.serialize import parse_policy
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import IntegerType, StringType


def home_care_class(producer: str = "HomeAssist") -> EventClass:
    schema = MessageSchema("HomeCareServiceEvent", [
        ElementDecl("PatientId", StringType(min_length=1), identifying=True),
        ElementDecl("Name", StringType(min_length=1), identifying=True),
        ElementDecl("Surname", StringType(min_length=1), identifying=True),
        ElementDecl("CareNotes", StringType(), occurs=Occurs.OPTIONAL, sensitive=True),
        ElementDecl("CostEuro", IntegerType(0, 10000)),
    ])
    return EventClass(name="HomeCareServiceEvent", producer_id=producer, schema=schema)


@pytest.fixture()
def toolkit():
    catalog = EventCatalog()
    catalog.install(home_care_class())
    repository = PolicyRepository()
    wizard = ElicitationWizard(catalog, PurposeRegistry(), repository, IdFactory(seed="t"))
    return catalog, repository, wizard


class TestWizardFlow:
    def test_fig8_policy_from_wizard(self, toolkit):
        """Reproduce Fig. 8: family doctor / HomeCareServiceEvent /
        healthcare-treatment / PatientId+Name+Surname."""
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId", "Name", "Surname"])
        wizard.select_consumers([("family-doctor", "role")])
        wizard.select_purposes(["healthcare-treatment"])
        result = wizard.save()
        assert len(result.policies) == 1
        policy = result.policies[0]
        assert policy.actor_role == "family-doctor"
        assert policy.fields == {"PatientId", "Name", "Surname"}
        assert policy.purposes == {"healthcare-treatment"}
        # The generated XACML parses back and carries the field obligations.
        parsed = parse_policy(result.xacml_documents[0])
        release = parsed.obligations[0]
        assert set(release.assignment_values("field")) == {"PatientId", "Name", "Surname"}

    def test_policy_is_immediately_enforceable(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId"])
        wizard.select_consumers([("Municipality/Social", "unit")])
        wizard.select_purposes(["administration"])
        wizard.save()
        assert repository.decide("HomeAssist", DetailRequestSpec(
            actor_id="Municipality/Social",
            event_type="HomeCareServiceEvent",
            purpose="administration",
        )).released_fields == {"PatientId"}

    def test_one_policy_per_consumer(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId"])
        wizard.select_consumers([("A", "unit"), ("B", "unit"), ("doctor", "role")])
        wizard.select_purposes(["administration"])
        result = wizard.save()
        assert len(result.policies) == 3
        assert len(repository) == 3

    def test_decision_count_tracks_steps(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId"])
        wizard.select_consumers([("A", "unit")])
        wizard.select_purposes(["administration"])
        result = wizard.save()
        # start + 3 selections + save = 5 decisions
        assert result.decisions == 5

    def test_optional_steps_add_decisions(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId"])
        wizard.select_consumers([("A", "unit")])
        wizard.select_purposes(["administration"])
        wizard.set_label("rule", "description")
        wizard.set_validity(valid_until=100.0)
        result = wizard.save()
        assert result.decisions == 7
        assert result.policies[0].valid_until == 100.0
        assert result.policies[0].label == "rule"

    def test_available_fields_listing(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        assert "CareNotes" in wizard.available_fields()

    def test_warnings_on_sensitive_release(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId", "CareNotes"])
        wizard.select_consumers([("A", "unit")])
        wizard.select_purposes(["administration"])
        result = wizard.save()
        assert any("sensitive" in warning for warning in result.warnings)

    def test_warning_on_full_release(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(list(wizard.available_fields()))
        wizard.select_consumers([("A", "unit")])
        wizard.select_purposes(["administration"])
        result = wizard.save()
        assert any("every field" in warning for warning in result.warnings)


class TestWizardValidation:
    def test_cannot_define_for_foreign_class(self, toolkit):
        catalog, repository, wizard = toolkit
        with pytest.raises(PolicyError, match="belongs to"):
            wizard.start("SomeoneElse", "HomeCareServiceEvent")

    def test_unknown_field_rejected(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        with pytest.raises(PolicyError, match="no field"):
            wizard.select_fields(["Bogus"])

    def test_unknown_purpose_rejected(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        with pytest.raises(Exception):
            wizard.select_purposes(["marketing"])

    def test_unknown_consumer_kind_rejected(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        with pytest.raises(PolicyError, match="kind"):
            wizard.select_consumers([("A", "group")])

    def test_save_requires_all_steps(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        with pytest.raises(PolicyError, match="no fields"):
            wizard.save()
        wizard.select_fields(["PatientId"])
        with pytest.raises(PolicyError, match="no consumers"):
            wizard.save()
        wizard.select_consumers([("A", "unit")])
        with pytest.raises(PolicyError, match="no purposes"):
            wizard.save()

    def test_steps_require_started_session(self, toolkit):
        catalog, repository, wizard = toolkit
        with pytest.raises(PolicyError, match="not started"):
            wizard.select_fields(["PatientId"])

    def test_session_is_consumed_by_save(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId"])
        wizard.select_consumers([("A", "unit")])
        wizard.select_purposes(["administration"])
        wizard.save()
        with pytest.raises(PolicyError, match="not started"):
            wizard.save()


class TestPendingRequestQueue:
    def request(self, request_id: str = "par-1", consumer: str = "Doctor") -> PendingAccessRequest:
        return PendingAccessRequest(
            request_id=request_id, consumer_id=consumer, consumer_role="",
            event_type="HomeCareServiceEvent", producer_id="HomeAssist",
            requested_at=0.0,
        )

    def test_add_and_list(self):
        queue = PendingRequestQueue()
        queue.add(self.request())
        assert len(queue) == 1
        assert queue.for_producer("HomeAssist")[0].consumer_id == "Doctor"
        assert queue.for_producer("Other") == []

    def test_duplicates_collapse(self):
        queue = PendingRequestQueue()
        queue.add(self.request("par-1"))
        queue.add(self.request("par-2"))  # same consumer/class
        assert len(queue) == 1

    def test_resolve_removes(self):
        queue = PendingRequestQueue()
        queue.add(self.request())
        resolved = queue.resolve("par-1")
        assert resolved.consumer_id == "Doctor"
        assert len(queue) == 0

    def test_resolve_unknown_rejected(self):
        with pytest.raises(PolicyError):
            PendingRequestQueue().resolve("nope")


class TestPolicyDashboard:
    def test_rules_by_class_and_coverage(self, toolkit):
        catalog, repository, wizard = toolkit
        dashboard = PolicyDashboard(catalog, repository)
        assert dashboard.uncovered_classes("HomeAssist") == ["HomeCareServiceEvent"]
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId"])
        wizard.select_consumers([("A", "unit")])
        wizard.select_purposes(["administration"])
        wizard.save()
        assert dashboard.uncovered_classes("HomeAssist") == []
        rules = dashboard.rules_by_class("HomeAssist")
        assert len(rules["HomeCareServiceEvent"]) == 1

    def test_render_flags_uncovered(self, toolkit):
        catalog, repository, wizard = toolkit
        dashboard = PolicyDashboard(catalog, repository)
        text = dashboard.render("HomeAssist")
        assert "deny-by-default" in text
        assert "HomeCareServiceEvent" in text

    def test_render_shows_rules(self, toolkit):
        catalog, repository, wizard = toolkit
        wizard.start("HomeAssist", "HomeCareServiceEvent")
        wizard.select_fields(["PatientId"])
        wizard.select_consumers([("A", "unit")])
        wizard.select_purposes(["administration"])
        wizard.save()
        text = PolicyDashboard(catalog, repository).render("HomeAssist")
        assert "unit:A" in text
        assert "administration" in text
