"""Disclosure accounting for scenario comparisons.

The paper's privacy argument is quantitative at heart: the manual/legacy
flows disclose *more data than required* (violating minimal usage, §2) and
leave accesses *untraced*.  The :class:`DisclosureLedger` records every
field value disclosed to every receiver, against the per-role *needed
fields* declared by the event templates, and summarises:

* how many sensitive values were disclosed;
* how many disclosed values exceeded what the receiver needed
  (**overexposure**);
* how many disclosures were traced (appear in an audit trail).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Disclosure:
    """One field value reaching one receiver."""

    receiver: str
    receiver_role: str
    event_type: str
    field_name: str
    sensitive: bool
    needed: bool
    traced: bool


@dataclass
class ExposureSummary:
    """Aggregated disclosure counters for one system under test."""

    system: str
    events: int = 0
    disclosures: int = 0
    sensitive_disclosures: int = 0
    overexposed: int = 0
    sensitive_overexposed: int = 0
    traced: int = 0
    bytes_on_wire: int = 0

    @property
    def traced_fraction(self) -> float:
        """Share of disclosures that appear in an audit trail."""
        return self.traced / self.disclosures if self.disclosures else 1.0

    def to_row(self) -> str:
        """One formatted benchmark-table row."""
        return (
            f"{self.system:<22} events={self.events:>6} disclosures={self.disclosures:>8} "
            f"sensitive={self.sensitive_disclosures:>7} overexposed={self.overexposed:>7} "
            f"(sens. {self.sensitive_overexposed:>6}) traced={self.traced_fraction:>6.1%} "
            f"bytes={self.bytes_on_wire:>10}"
        )


class DisclosureLedger:
    """Records disclosures for one system run and summarises them."""

    def __init__(self, system: str) -> None:
        self.system = system
        self._disclosures: list[Disclosure] = []
        self._events = 0
        self._bytes = 0

    def record_event(self) -> None:
        """Count one event processed by the system."""
        self._events += 1

    def add_bytes(self, count: int) -> None:
        """Accumulate wire bytes."""
        self._bytes += count

    def record_disclosure(
        self,
        receiver: str,
        receiver_role: str,
        event_type: str,
        field_name: str,
        sensitive: bool,
        needed: bool,
        traced: bool,
    ) -> None:
        """Record one field value reaching one receiver."""
        self._disclosures.append(
            Disclosure(
                receiver=receiver,
                receiver_role=receiver_role,
                event_type=event_type,
                field_name=field_name,
                sensitive=sensitive,
                needed=needed,
                traced=traced,
            )
        )

    def record_document(
        self,
        receiver: str,
        receiver_role: str,
        event_type: str,
        disclosed_fields: dict[str, object],
        sensitive_fields: set[str],
        needed_fields: set[str],
        traced: bool,
    ) -> None:
        """Record every non-empty field of one delivered document."""
        for name, value in disclosed_fields.items():
            if value is None:
                continue
            self.record_disclosure(
                receiver=receiver,
                receiver_role=receiver_role,
                event_type=event_type,
                field_name=name,
                sensitive=name in sensitive_fields,
                needed=name in needed_fields,
                traced=traced,
            )

    def disclosures(self) -> tuple[Disclosure, ...]:
        """All recorded disclosures."""
        return tuple(self._disclosures)

    def summary(self) -> ExposureSummary:
        """Aggregate the ledger."""
        result = ExposureSummary(system=self.system, events=self._events,
                                 bytes_on_wire=self._bytes)
        for disclosure in self._disclosures:
            result.disclosures += 1
            if disclosure.sensitive:
                result.sensitive_disclosures += 1
            if not disclosure.needed:
                result.overexposed += 1
                if disclosure.sensitive:
                    result.sensitive_overexposed += 1
            if disclosure.traced:
                result.traced += 1
        return result
