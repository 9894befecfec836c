"""Policy test-bench: testable, auditable privacy requirements.

The paper's fourth challenge (§1): "owners of data sources often require
that the privacy rules they are asked to define can be tested and audited
so that they can be relieved of the responsibility of privacy breaches."

:class:`PolicyTester` answers that requirement with *dry runs*: what-if
probes decided by the live policy repository — the same Def. 3 decision
the enforcer takes — but touching no gateway, emitting no audit record and
releasing no data:

* :meth:`simulate` — one probe: "if consumer A asked for event class E
  with purpose S, what exactly would be released, and why?";
* :meth:`probe_matrix` — every (actor × purpose) combination at once, the
  review table a data owner signs off on;
* :meth:`exposure_report` — per event class: which sensitive fields are
  released to whom, and which classes are fully locked down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.catalog import EventCatalog
from repro.core.policy import DetailRequestSpec, PolicyRepository
from repro.exceptions import UnknownEventClassError


@dataclass(frozen=True)
class SimulationOutcome:
    """The result of one dry-run probe."""

    actor: str
    actor_role: str
    event_type: str
    purpose: str
    permitted: bool
    released_fields: frozenset[str]
    matched_grants: tuple[str, ...]       # policy ids
    vetoing_restrictions: tuple[str, ...]  # policy ids
    reason: str

    def describe(self) -> str:
        """One printable line."""
        who = self.actor or f"role:{self.actor_role}"
        if self.permitted:
            return (f"PERMIT {who} / {self.purpose}: "
                    f"releases {sorted(self.released_fields)} "
                    f"(grants: {', '.join(self.matched_grants)})")
        return f"DENY   {who} / {self.purpose}: {self.reason}"


@dataclass
class ExposureReport:
    """Who can see which sensitive fields of which class."""

    producer_id: str
    sensitive_exposure: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    # class -> sensitive field -> [actor selectors granted it]
    locked_classes: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        """Printable report."""
        lines = [f"SENSITIVE-EXPOSURE REPORT — {self.producer_id}"]
        for event_type, fields in sorted(self.sensitive_exposure.items()):
            lines.append(f"  {event_type}:")
            if not fields:
                lines.append("    (no sensitive field is released to anyone)")
            for field_name, grantees in sorted(fields.items()):
                lines.append(f"    {field_name} -> {', '.join(sorted(grantees))}")
        if self.locked_classes:
            lines.append("classes with no policy at all (fully locked down): "
                         + ", ".join(self.locked_classes))
        return "\n".join(lines)


class PolicyTester:
    """Dry-run evaluation of a producer's privacy rules."""

    def __init__(self, catalog: EventCatalog, repository: PolicyRepository) -> None:
        self._catalog = catalog
        self._repository = repository

    # -- single probe --------------------------------------------------------

    def simulate(
        self,
        producer_id: str,
        event_type: str,
        purpose: str,
        actor_id: str = "",
        actor_role: str = "",
        at: float = 0.0,
    ) -> SimulationOutcome:
        """Evaluate one what-if request without releasing anything.

        The repository's own decision (:meth:`PolicyRepository.decide`):
        matching restrictions veto; otherwise the union of matching grants
        is released; deny-by-default when nothing matches.
        """
        self._catalog.get(event_type)  # unknown classes are caller errors
        decision = self._repository.decide(producer_id, DetailRequestSpec(
            actor_id=actor_id, event_type=event_type, purpose=purpose,
            actor_role=actor_role, requested_at=at,
        ))
        reason = decision.message  # '' on permit
        if decision.restrictions:
            reason = "vetoed by restriction policy " + ", ".join(decision.restrictions)
        return SimulationOutcome(
            actor=actor_id, actor_role=actor_role, event_type=event_type,
            purpose=purpose, permitted=decision.permitted,
            released_fields=decision.released_fields,
            matched_grants=decision.grants,
            vetoing_restrictions=decision.restrictions, reason=reason,
        )

    # -- probe matrix ------------------------------------------------------------

    def probe_matrix(
        self,
        producer_id: str,
        event_type: str,
        actors: list[tuple[str, str]],
        purposes: list[str],
        at: float = 0.0,
    ) -> list[SimulationOutcome]:
        """Every (actor × purpose) probe, for the sign-off table.

        ``actors`` are ``(selector, kind)`` with kind ``"unit"``/``"role"``.
        """
        outcomes = []
        for selector, kind in actors:
            for purpose in purposes:
                outcomes.append(self.simulate(
                    producer_id, event_type, purpose,
                    actor_id=selector if kind == "unit" else "",
                    actor_role=selector if kind == "role" else "",
                    at=at,
                ))
        return outcomes

    def render_matrix(self, outcomes: list[SimulationOutcome]) -> str:
        """Printable probe matrix."""
        return "\n".join(outcome.describe() for outcome in outcomes)

    # -- exposure coverage -----------------------------------------------------------

    def exposure_report(self, producer_id: str) -> ExposureReport:
        """Which sensitive fields does each grant release, and to whom."""
        report = ExposureReport(producer_id=producer_id)
        for event_class in self._catalog.classes_of(producer_id):
            sensitive = set(event_class.sensitive_fields)
            exposure: dict[str, list[str]] = {}
            policies = self._repository.candidates(producer_id, event_class.name)
            if not policies:
                report.locked_classes.append(event_class.name)
            for policy in policies:
                if policy.deny:
                    continue
                for field_name in sorted(sensitive.intersection(policy.fields)):
                    exposure.setdefault(field_name, []).append(policy.actor_selector)
            report.sensitive_exposure[event_class.name] = exposure
        return report

    # -- regression checks --------------------------------------------------------------

    def assert_never_released(
        self, producer_id: str, event_type: str, field_name: str,
        except_selectors: frozenset[str] = frozenset(),
    ) -> list[str]:
        """Policy ids releasing ``field_name`` to anyone outside the allow-list.

        A data owner's regression check: "HivResult must never be released
        except to <...>".  Returns the violating policy ids (empty = safe).
        """
        try:
            self._catalog.get(event_type)
        except UnknownEventClassError:
            raise
        violations = []
        for policy in self._repository.candidates(producer_id, event_type):
            if policy.deny or field_name not in policy.fields:
                continue
            if policy.actor_selector not in except_selectors:
                violations.append(policy.policy_id)
        return violations
