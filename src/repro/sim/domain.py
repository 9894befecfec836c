"""Domain objects of the synthetic Trentino deployment.

The cast mirrors §2 and §4 of the paper: hospitals and laboratories,
municipal social services, telecare and home-assistance companies, family
doctors, and the governing bodies (province / social welfare department)
that consume data for accountability, reimbursement and monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actors import ActorKind


@dataclass(frozen=True)
class Patient:
    """A citizen receiving socio-health services."""

    patient_id: str
    name: str
    birth_year: int
    municipality: str

    def age_at(self, year: int = 2010) -> int:
        """Age in ``year`` (the deployment's reference year)."""
        return year - self.birth_year


@dataclass(frozen=True)
class OrganizationSpec:
    """Blueprint of one participating organization."""

    actor_id: str
    name: str
    kind: ActorKind
    role: str
    category: str          # which event category it produces/consumes


# Functional roles used across the simulation (paper §5.1, Fig. 8).
ROLE_FAMILY_DOCTOR = "family-doctor"
ROLE_SOCIAL_WORKER = "social-worker"
ROLE_STATISTICIAN = "statistician"
ROLE_ADMINISTRATOR = "administrator"
ROLE_CARE_PROVIDER = "care-provider"


#: The standing cast of the scenario (§2's actors).
ORGANIZATIONS: tuple[OrganizationSpec, ...] = (
    OrganizationSpec(
        "Hospital-S-Maria", "Hospital S. Maria", ActorKind.PRODUCER,
        ROLE_CARE_PROVIDER, "health",
    ),
    OrganizationSpec(
        "Hospital-S-Maria/Laboratory", "Laboratory, Hospital S. Maria",
        ActorKind.PRODUCER, ROLE_CARE_PROVIDER, "health",
    ),
    OrganizationSpec(
        "Municipality-Trento/SocialServices", "Social Services of Trento",
        ActorKind.BOTH, ROLE_SOCIAL_WORKER, "social",
    ),
    OrganizationSpec(
        "Municipality-Rovereto/SocialServices", "Social Services of Rovereto",
        ActorKind.BOTH, ROLE_SOCIAL_WORKER, "social",
    ),
    OrganizationSpec(
        "TelecareSpA", "Telecare S.p.A.", ActorKind.PRODUCER,
        ROLE_CARE_PROVIDER, "social",
    ),
    OrganizationSpec(
        "HomeAssist-Coop", "HomeAssist Cooperative", ActorKind.PRODUCER,
        ROLE_CARE_PROVIDER, "social",
    ),
    OrganizationSpec(
        "FamilyDoctors/Dr-Rossi", "Dr. Rossi (family doctor)",
        ActorKind.CONSUMER, ROLE_FAMILY_DOCTOR, "health",
    ),
    OrganizationSpec(
        "FamilyDoctors/Dr-Verdi", "Dr. Verdi (family doctor)",
        ActorKind.CONSUMER, ROLE_FAMILY_DOCTOR, "health",
    ),
    OrganizationSpec(
        "Province-Trentino/Statistics", "Provincial statistics office",
        ActorKind.CONSUMER, ROLE_STATISTICIAN, "governance",
    ),
    OrganizationSpec(
        "Province-Trentino/SocialWelfare", "Social Welfare Department",
        ActorKind.CONSUMER, ROLE_ADMINISTRATOR, "governance",
    ),
)

#: Which purpose each consumer role declares on its requests.
ROLE_PURPOSES: dict[str, str] = {
    ROLE_FAMILY_DOCTOR: "healthcare-treatment",
    ROLE_SOCIAL_WORKER: "healthcare-treatment",
    ROLE_STATISTICIAN: "statistical-analysis",
    ROLE_ADMINISTRATOR: "administration",
}

#: Template → producer assignment of the synthetic deployment.
DEFAULT_PRODUCER_ASSIGNMENT: dict[str, str] = {
    "BloodTest": "Hospital-S-Maria/Laboratory",
    "HospitalDischarge": "Hospital-S-Maria",
    "SpecialistReferral": "Hospital-S-Maria",
    "HomeCareServiceEvent": "HomeAssist-Coop",
    "MealDelivery": "HomeAssist-Coop",
    "AutonomyAssessment": "Municipality-Trento/SocialServices",
    "TelecareAlarm": "TelecareSpA",
}

#: Consumers (actor id, role) of the synthetic deployment.
DEFAULT_CONSUMERS: tuple[tuple[str, str], ...] = (
    ("FamilyDoctors/Dr-Rossi", ROLE_FAMILY_DOCTOR),
    ("Municipality-Trento/SocialWorkers", ROLE_SOCIAL_WORKER),
    ("Province-Trentino/Statistics", ROLE_STATISTICIAN),
    ("Province-Trentino/SocialWelfare", ROLE_ADMINISTRATOR),
)

#: Municipalities patients live in.
MUNICIPALITIES = ("Trento", "Rovereto", "Pergine", "Arco", "Riva", "Levico")

#: Italian-flavoured name pools for the synthetic population.
GIVEN_NAMES = (
    "Mario", "Luisa", "Giovanni", "Anna", "Carlo", "Elena", "Franco",
    "Giulia", "Paolo", "Sofia", "Luca", "Martina", "Davide", "Chiara",
    "Andrea", "Francesca", "Marco", "Valentina", "Stefano", "Silvia",
)
FAMILY_NAMES = (
    "Bianchi", "Rossi", "Ferrari", "Esposito", "Romano", "Colombo",
    "Ricci", "Marino", "Greco", "Bruno", "Gallo", "Conti", "DeLuca",
    "Mancini", "Costa", "Giordano", "Rizzo", "Lombardi", "Moretti",
    "Barbieri",
)
