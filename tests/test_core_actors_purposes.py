"""Unit tests for repro.core.actors and repro.core.purposes."""

import pytest

from repro.core.actors import Actor, ActorDirectory, ActorKind
from repro.core.purposes import (
    HEALTHCARE_TREATMENT,
    STANDARD_PURPOSES,
    Purpose,
    PurposeRegistry,
)
from repro.exceptions import ConfigurationError


def actor(actor_id: str, kind: ActorKind = ActorKind.CONSUMER, role: str = "") -> Actor:
    return Actor(actor_id=actor_id, name=actor_id, kind=kind, role=role)


class TestActorKind:
    def test_produces(self):
        assert ActorKind.PRODUCER.produces
        assert ActorKind.BOTH.produces
        assert not ActorKind.CONSUMER.produces

    def test_consumes(self):
        assert ActorKind.CONSUMER.consumes
        assert ActorKind.BOTH.consumes
        assert not ActorKind.PRODUCER.consumes


class TestActor:
    def test_hierarchy_properties(self):
        unit = actor("Hospital-S-Maria/Laboratory/Hematology")
        assert unit.organization == "Hospital-S-Maria"
        assert unit.parent_id == "Hospital-S-Maria/Laboratory"
        assert unit.path_segments == ("Hospital-S-Maria", "Laboratory", "Hematology")

    def test_top_level_has_no_parent(self):
        assert actor("Hospital").parent_id is None

    def test_illegal_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            actor("")
        with pytest.raises(ConfigurationError):
            actor("Hospital//Lab")
        with pytest.raises(ConfigurationError):
            actor("Hospital/La b")


class TestActorDirectory:
    def test_add_get_contains(self):
        directory = ActorDirectory()
        directory.add(actor("A"))
        assert "A" in directory
        assert directory.get("A").actor_id == "A"
        assert len(directory) == 1

    def test_duplicate_rejected(self):
        directory = ActorDirectory()
        directory.add(actor("A"))
        with pytest.raises(ConfigurationError):
            directory.add(actor("A"))

    def test_get_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            ActorDirectory().get("nope")

    def test_producers_and_consumers(self):
        directory = ActorDirectory()
        directory.add(actor("P", ActorKind.PRODUCER))
        directory.add(actor("C", ActorKind.CONSUMER))
        directory.add(actor("B", ActorKind.BOTH))
        assert {a.actor_id for a in directory.producers()} == {"P", "B"}
        assert {a.actor_id for a in directory.consumers()} == {"C", "B"}


class TestPurposes:
    def test_standard_purposes_installed(self):
        registry = PurposeRegistry()
        assert len(registry) == len(STANDARD_PURPOSES)
        assert "healthcare-treatment" in registry

    def test_get_and_require(self):
        registry = PurposeRegistry()
        assert registry.get("administration").label == "Administration"
        registry.require("statistical-analysis")
        with pytest.raises(ConfigurationError):
            registry.require("marketing")

    def test_add_custom_purpose(self):
        registry = PurposeRegistry()
        registry.add(Purpose("research", "Scientific research"))
        assert "research" in registry

    def test_duplicate_purpose_rejected(self):
        registry = PurposeRegistry()
        with pytest.raises(ConfigurationError):
            registry.add(HEALTHCARE_TREATMENT)

    def test_illegal_purpose_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Purpose("has space", "label")
        with pytest.raises(ConfigurationError):
            Purpose("", "label")

    def test_ids_listing(self):
        assert "healthcare-treatment" in PurposeRegistry().ids()
