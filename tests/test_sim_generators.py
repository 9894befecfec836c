"""Unit tests for the simulation substrate (domain, generators, metrics)."""

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.domain import ORGANIZATIONS, MUNICIPALITIES
from repro.sim.generators import (
    SyntheticPopulation,
    WorkloadGenerator,
    standard_event_templates,
)
from repro.sim.metrics import DisclosureLedger
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.validation import validate_document


class TestPopulation:
    def test_size(self):
        assert len(SyntheticPopulation(25)) == 25

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticPopulation(0)

    def test_deterministic_under_seed(self):
        one = SyntheticPopulation(10, seed=42)
        two = SyntheticPopulation(10, seed=42)
        assert [p.name for p in one] == [p.name for p in two]

    def test_different_seeds_differ(self):
        one = SyntheticPopulation(30, seed=1)
        two = SyntheticPopulation(30, seed=2)
        assert [p.name for p in one] != [p.name for p in two]

    def test_patient_fields_plausible(self):
        for patient in SyntheticPopulation(50):
            assert patient.patient_id.startswith("pat-")
            assert " " in patient.name
            assert patient.municipality in MUNICIPALITIES
            assert 15 <= patient.age_at(2010) <= 95

    def test_sample_draws_from_population(self):
        population = SyntheticPopulation(5)
        rng = random.Random(0)
        assert population.sample(rng) in list(population)


class TestEventTemplates:
    def test_seven_standard_templates(self):
        assert set(standard_event_templates()) == {
            "BloodTest", "HomeCareServiceEvent", "AutonomyAssessment",
            "TelecareAlarm", "HospitalDischarge", "SpecialistReferral",
            "MealDelivery",
        }

    def test_generated_details_validate_against_schema(self):
        templates = standard_event_templates()
        population = SyntheticPopulation(10)
        rng = random.Random(7)
        for template in templates.values():
            schema = template.build_schema()
            for patient in population:
                details = template.build_details(rng, patient)
                validate_document(XmlDocument(schema.name, details), schema)

    def test_needed_fields_are_declared_fields(self):
        for template in standard_event_templates().values():
            schema = template.build_schema()
            for role, needed in template.needed_fields.items():
                for field_name in needed:
                    assert schema.has_element(field_name), (
                        f"{template.name}: {role} needs undeclared {field_name}"
                    )

    def test_every_template_has_sensitive_fields(self):
        for template in standard_event_templates().values():
            assert template.build_schema().sensitive_fields

    def test_summary_mentions_patient(self):
        template = standard_event_templates()["BloodTest"]
        population = SyntheticPopulation(1)
        patient = next(iter(population))
        assert patient.name in template.summary_for(patient)

    def test_statistician_autonomy_needs_match_paper_example(self):
        """§5.1: statistics get age, sex and autonomy_score of autonomy tests."""
        template = standard_event_templates()["AutonomyAssessment"]
        assert set(template.needed_fields["statistician"]) == {"Age", "Sex", "AutonomyScore"}


class TestWorkloadGenerator:
    def test_generates_requested_count(self):
        population = SyntheticPopulation(10)
        items = WorkloadGenerator(seed=1).generate(
            population, standard_event_templates(), 50
        )
        assert len(items) == 50

    def test_deterministic_under_seed(self):
        population = SyntheticPopulation(10, seed=3)
        templates = standard_event_templates()
        one = WorkloadGenerator(seed=9).generate(population, templates, 30)
        two = WorkloadGenerator(seed=9).generate(population, templates, 30)
        assert [(i.template_name, i.patient.patient_id) for i in one] == \
               [(i.template_name, i.patient.patient_id) for i in two]

    def test_offsets_increase(self):
        population = SyntheticPopulation(10)
        items = WorkloadGenerator(seed=1).generate(
            population, standard_event_templates(), 40
        )
        offsets = [item.offset_seconds for item in items]
        assert offsets == sorted(offsets)
        assert offsets[0] > 0

    def test_template_weights_respected(self):
        population = SyntheticPopulation(10)
        templates = standard_event_templates()
        weights = {name: 0.0 for name in templates}
        weights["BloodTest"] = 1.0
        items = WorkloadGenerator(seed=1).generate(
            population, templates, 100, template_weights=weights,
        )
        assert all(item.template_name == "BloodTest" for item in items)

    def test_negative_count_rejected(self):
        population = SyntheticPopulation(10)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator().generate(population, standard_event_templates(), -1)


class TestDisclosureLedger:
    def test_summary_counters(self):
        ledger = DisclosureLedger("sut")
        ledger.record_event()
        ledger.add_bytes(100)
        ledger.record_document(
            receiver="r", receiver_role="role", event_type="E",
            disclosed_fields={"a": 1, "b": 2, "c": None},
            sensitive_fields={"b"},
            needed_fields={"a"},
            traced=True,
        )
        summary = ledger.summary()
        assert summary.events == 1
        assert summary.disclosures == 2          # c is empty
        assert summary.sensitive_disclosures == 1
        assert summary.overexposed == 1          # b was not needed
        assert summary.sensitive_overexposed == 1
        assert summary.traced == 2
        assert summary.bytes_on_wire == 100
        assert summary.traced_fraction == 1.0

    def test_empty_ledger_fractions(self):
        summary = DisclosureLedger("sut").summary()
        assert summary.traced_fraction == 1.0

    def test_to_row_contains_system_name(self):
        assert "sut" in DisclosureLedger("sut").summary().to_row()


class TestOrganizationCast:
    def test_cast_covers_paper_actors(self):
        ids = {org.actor_id for org in ORGANIZATIONS}
        assert any("Hospital" in i for i in ids)
        assert any("SocialServices" in i for i in ids)
        assert any("Telecare" in i for i in ids)
        assert any("Dr-" in i for i in ids)
        assert any("Province" in i for i in ids)
