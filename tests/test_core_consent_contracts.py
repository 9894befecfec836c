"""Unit tests for repro.core.consent and repro.core.contracts."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import DataController, DataProducer
from repro.core.actors import ActorKind
from repro.core.consent import ConsentDecision, ConsentRegistry, ConsentScope
from repro.core.contracts import Contract, ContractRegistry, ContractStatus
from repro.exceptions import (
    AlreadyRegisteredError,
    ConsentError,
    ContractInactiveError,
    NotRegisteredError,
)
from repro.storage import PlatformArchive


class TestConsentRegistry:
    def test_default_opt_out_regime_grants(self):
        registry = ConsentRegistry("Hospital", default_granted=True)
        assert registry.allows_notification("p1", "BloodTest")
        assert registry.allows_details("p1", "BloodTest")

    def test_default_opt_in_regime_denies(self):
        registry = ConsentRegistry("Hospital", default_granted=False)
        assert not registry.allows_notification("p1", "BloodTest")

    def test_opt_out_of_all_classes(self):
        registry = ConsentRegistry("Hospital")
        registry.opt_out("p1", ConsentScope.NOTIFICATIONS)
        assert not registry.allows_notification("p1", "BloodTest")
        assert not registry.allows_notification("p1", "Anything")
        assert registry.allows_notification("p2", "BloodTest")

    def test_class_specific_opt_out(self):
        registry = ConsentRegistry("Hospital")
        registry.opt_out("p1", ConsentScope.NOTIFICATIONS, "BloodTest")
        assert not registry.allows_notification("p1", "BloodTest")
        assert registry.allows_notification("p1", "HomeCare")

    def test_specific_decision_overrides_general(self):
        registry = ConsentRegistry("Hospital")
        registry.opt_out("p1", ConsentScope.NOTIFICATIONS)           # general out
        registry.opt_in("p1", ConsentScope.NOTIFICATIONS, "BloodTest")  # specific in
        assert registry.allows_notification("p1", "BloodTest")
        assert not registry.allows_notification("p1", "HomeCare")

    def test_later_decision_wins_at_same_specificity(self):
        registry = ConsentRegistry("Hospital")
        registry.opt_out("p1", ConsentScope.DETAILS, "BloodTest", at=1.0)
        registry.opt_in("p1", ConsentScope.DETAILS, "BloodTest", at=2.0)
        assert registry.allows_details("p1", "BloodTest")

    def test_details_opt_out_keeps_notifications(self):
        registry = ConsentRegistry("Hospital")
        registry.opt_out("p1", ConsentScope.DETAILS, "BloodTest")
        assert registry.allows_notification("p1", "BloodTest")
        assert not registry.allows_details("p1", "BloodTest")

    def test_notification_opt_out_implies_details_opt_out(self):
        registry = ConsentRegistry("Hospital")
        registry.opt_out("p1", ConsentScope.NOTIFICATIONS, "BloodTest")
        assert not registry.allows_details("p1", "BloodTest")

    def test_decision_history_kept(self):
        registry = ConsentRegistry("Hospital")
        registry.opt_out("p1", ConsentScope.DETAILS)
        registry.opt_in("p1", ConsentScope.DETAILS)
        registry.opt_out("p2", ConsentScope.NOTIFICATIONS, "BloodTest")
        assert [(d.subject_id, d.granted) for d in registry.decisions()] == [
            ("p1", False), ("p1", True), ("p2", False)]

    def test_empty_subject_rejected(self):
        registry = ConsentRegistry("Hospital")
        with pytest.raises(ConsentError):
            registry.record(ConsentDecision("", ConsentScope.DETAILS, True))


SUBJECTS = ("p1", "p2", "p3")
CLASSES = ("BloodTest", "HomeCare")
#: Queries also name a subject and a class no decision mentions.
QUERIED_SUBJECTS, QUERIED_CLASSES = SUBJECTS + ("unseen",), CLASSES + ("Unseen",)

decision_histories = st.lists(st.builds(
    ConsentDecision,
    subject_id=st.sampled_from(SUBJECTS),
    scope=st.sampled_from(ConsentScope),
    granted=st.booleans(),
    event_type=st.none() | st.sampled_from(CLASSES),
    decided_at=st.floats(0, 1e6),
), max_size=40)


def linear_effective(decisions, default_granted, subject_id, scope, event_type):
    """The consent rule as a walk of the whole history, oldest first: a
    class-specific decision beats an all-classes one, and at equal
    specificity the one recorded last wins."""
    specific = general = None
    for decision in decisions:
        if decision.subject_id != subject_id or decision.scope is not scope:
            continue
        if decision.event_type == event_type:
            specific = decision
        elif decision.event_type is None:
            general = decision
    chosen = specific or general
    return default_granted if chosen is None else chosen.granted


def answers(registry):
    """``(allows_notification, allows_details)`` per query, by the registry."""
    return {(subject, event_type): (
                registry.allows_notification(subject, event_type),
                registry.allows_details(subject, event_type))
            for subject in QUERIED_SUBJECTS for event_type in QUERIED_CLASSES}


def linear_answers(decisions, default_granted):
    """The same queries answered by the walk."""
    def allows(subject_id, scope, event_type):
        return linear_effective(decisions, default_granted, subject_id, scope, event_type)
    return {(subject, event_type): (
                allows(subject, ConsentScope.NOTIFICATIONS, event_type),
                allows(subject, ConsentScope.NOTIFICATIONS, event_type)
                and allows(subject, ConsentScope.DETAILS, event_type))
            for subject in QUERIED_SUBJECTS for event_type in QUERIED_CLASSES}


class TestConsentIndexAgainstTheWalk:
    """A check reads the registry's index; the walk of the whole history
    above is the rule it must answer by."""

    @given(history=decision_histories, default_granted=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_query_after_every_decision(self, history, default_granted):
        registry = ConsentRegistry("Hospital", default_granted=default_granted)
        assert answers(registry) == linear_answers([], default_granted)
        for recorded, decision in enumerate(history, 1):
            registry.record(decision)
            assert answers(registry) == linear_answers(history[:recorded], default_granted)
        assert registry.decisions() == tuple(history)

    # An archive writes a registry's decisions only: a registry with none
    # is not restored at all (so an opt-in registry stops vetoing), and
    # that gap is not this index's, so histories here hold one or more.
    @given(history=decision_histories.filter(bool), default_granted=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_the_same_answers_after_an_archive_restore(self, history, default_granted):
        controller = DataController(seed="consent", master_secret="consent-secret")
        hospital = DataProducer(controller, "Hospital", "Hospital",
                                consent_default_granted=default_granted)
        for decision in history:
            hospital.consent.record(decision)
        with tempfile.TemporaryDirectory() as directory:
            archive = PlatformArchive(Path(directory) / "snap")
            archive.save(controller)
            restored = archive.restore("consent-secret").consent_registry_of("Hospital")
        assert restored.decisions() == tuple(history)
        assert answers(restored) == answers(hospital.consent) == linear_answers(
            history, default_granted)


class TestContracts:
    def contract(self, kind: ActorKind = ActorKind.PRODUCER,
                 valid_until: float | None = None) -> Contract:
        return Contract(party_id="Hospital", kind=kind, signed_at=0.0,
                        valid_until=valid_until)

    def test_sign_and_get(self):
        registry = ContractRegistry()
        registry.sign(self.contract())
        assert "Hospital" in registry
        assert registry.get("Hospital").kind is ActorKind.PRODUCER

    def test_double_sign_rejected(self):
        registry = ContractRegistry()
        registry.sign(self.contract())
        with pytest.raises(AlreadyRegisteredError):
            registry.sign(self.contract())

    def test_unknown_party_rejected(self):
        with pytest.raises(NotRegisteredError):
            ContractRegistry().get("nobody")

    def test_active_window(self):
        contract = self.contract(valid_until=100.0)
        assert contract.is_active_at(50.0)
        assert contract.is_active_at(100.0)
        assert not contract.is_active_at(101.0)

    def test_require_active_checks_expiry(self):
        registry = ContractRegistry()
        registry.sign(self.contract(valid_until=10.0))
        registry.require_active("Hospital", 5.0)
        with pytest.raises(ContractInactiveError):
            registry.require_active("Hospital", 20.0)

    def test_require_active_checks_kind(self):
        registry = ContractRegistry()
        registry.sign(self.contract(kind=ActorKind.PRODUCER))
        registry.require_active("Hospital", 0.0, must_produce=True)
        with pytest.raises(ContractInactiveError):
            registry.require_active("Hospital", 0.0, must_consume=True)

    def test_both_kind_satisfies_either(self):
        registry = ContractRegistry()
        registry.sign(Contract(party_id="B", kind=ActorKind.BOTH, signed_at=0.0))
        registry.require_active("B", 0.0, must_produce=True, must_consume=True)

    def test_status_enum(self):
        assert ContractStatus.ACTIVE.value == "active"
