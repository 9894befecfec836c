"""Purpose-of-use taxonomy.

The paper's access control is *purpose-based*: every request for details
carries "a purpose statement" and policies enumerate "admissible purposes"
(§1, §5.1 — e.g. healthcare treatment, statistical analysis,
administration).  Purposes live in a registry so the elicitation tool can
offer a controlled list and the enforcer can reject made-up purposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Purpose:
    """A declared purpose of use."""

    purpose_id: str
    label: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.purpose_id or " " in self.purpose_id:
            raise ConfigurationError(f"illegal purpose id {self.purpose_id!r}")


# The purposes named in the paper (§5.1 and Fig. 8).
HEALTHCARE_TREATMENT = Purpose(
    "healthcare-treatment",
    "Healthcare treatment provisioning",
    "Care delivery to the data subject by an authorized caregiver.",
)
STATISTICAL_ANALYSIS = Purpose(
    "statistical-analysis",
    "Statistical analysis",
    "Aggregate analysis of service needs and outcomes (e.g. elderly autonomy).",
)
ADMINISTRATION = Purpose(
    "administration",
    "Administration",
    "Administrative handling of the assistance process.",
)
REIMBURSEMENT = Purpose(
    "reimbursement",
    "Accountability and reimbursement",
    "Reporting to the governing body for accountability and reimbursement (§2).",
)
SERVICE_MONITORING = Purpose(
    "service-monitoring",
    "Service efficiency monitoring",
    "Assessment of the efficiency of delivered services by the governing body.",
)

#: The default taxonomy installed on a fresh platform.
STANDARD_PURPOSES = (
    HEALTHCARE_TREATMENT,
    STATISTICAL_ANALYSIS,
    ADMINISTRATION,
    REIMBURSEMENT,
    SERVICE_MONITORING,
)


class PurposeRegistry:
    """The controlled list of purposes the platform accepts."""

    def __init__(self, purposes: tuple[Purpose, ...] = STANDARD_PURPOSES) -> None:
        self._purposes: dict[str, Purpose] = {}
        for purpose in purposes:
            self.add(purpose)

    def __len__(self) -> int:
        return len(self._purposes)

    def __contains__(self, purpose_id: str) -> bool:
        return purpose_id in self._purposes

    def add(self, purpose: Purpose) -> None:
        """Register a purpose; duplicates are rejected."""
        if purpose.purpose_id in self._purposes:
            raise ConfigurationError(f"purpose {purpose.purpose_id!r} already registered")
        self._purposes[purpose.purpose_id] = purpose

    def get(self, purpose_id: str) -> Purpose:
        """Look up a purpose by id."""
        try:
            return self._purposes[purpose_id]
        except KeyError as exc:
            raise ConfigurationError(f"unknown purpose {purpose_id!r}") from exc

    def require(self, purpose_id: str) -> None:
        """Raise unless ``purpose_id`` is registered (request validation)."""
        self.get(purpose_id)

    def ids(self) -> list[str]:
        """Every registered purpose id."""
        return list(self._purposes)
