"""Registry information model (ebRIM subset).

A :class:`RegistryObject` carries the metadata the events index needs to
store for each notification: a unique id, an object type, human-readable
name/description, *classifications* (controlled-vocabulary labels such as
the event class), and *slots* (named value lists such as the encrypted
person reference or the occurrence timestamp).  :class:`Association` links
two objects (e.g. a notification to the producer's catalog entry).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.exceptions import RegistryError


class LifecycleStatus(enum.Enum):
    """ebRS object lifecycle states."""

    SUBMITTED = "submitted"
    APPROVED = "approved"
    DEPRECATED = "deprecated"
    WITHDRAWN = "withdrawn"


@dataclass(frozen=True)
class Slot:
    """A named list of string values attached to a registry object."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise RegistryError("slot name must be non-empty")

    @property
    def value(self) -> str:
        """The single value of a single-valued slot."""
        if len(self.values) != 1:
            raise RegistryError(f"slot {self.name!r} is not single-valued")
        return self.values[0]


@dataclass(frozen=True)
class Classification:
    """A node in a classification scheme applied to an object.

    ``scheme`` names the taxonomy (e.g. ``"EventClass"``), ``node`` the
    value within it (e.g. ``"BloodTest"``).
    """

    scheme: str
    node: str

    def __post_init__(self) -> None:
        if not self.scheme or not self.node:
            raise RegistryError("classification needs a scheme and a node")


@dataclass
class RegistryObject:
    """A registry entry (ebRIM ``ExtrinsicObject`` stand-in)."""

    object_id: str
    object_type: str
    name: str = ""
    description: str = ""
    classifications: list[Classification] = field(default_factory=list)
    slots: dict[str, Slot] = field(default_factory=dict)
    status: LifecycleStatus = LifecycleStatus.SUBMITTED

    def __post_init__(self) -> None:
        if not self.object_id:
            raise RegistryError("registry object needs an id")
        if not self.object_type:
            raise RegistryError("registry object needs an object type")

    # -- slots ------------------------------------------------------------

    def set_slot(self, name: str, *values: str) -> None:
        """Attach (or replace) slot ``name`` with ``values``."""
        self.slots[name] = Slot(name, tuple(values))

    def slot_values(self, name: str) -> tuple[str, ...]:
        """Values of slot ``name`` (empty tuple if absent)."""
        slot = self.slots.get(name)
        return slot.values if slot else ()

    def slot_value(self, name: str, default: str | None = None) -> str | None:
        """Single value of slot ``name`` or ``default`` if absent."""
        values = self.slot_values(name)
        return values[0] if values else default

    # -- classifications -----------------------------------------------------

    def classify(self, scheme: str, node: str) -> None:
        """Add a classification (idempotent)."""
        classification = Classification(scheme, node)
        if classification not in self.classifications:
            self.classifications.append(classification)

    def classification_node(self, scheme: str) -> str | None:
        """The node this object carries under ``scheme`` (first match)."""
        for classification in self.classifications:
            if classification.scheme == scheme:
                return classification.node
        return None

    def is_classified_as(self, scheme: str, node: str) -> bool:
        """Whether the object carries the given classification."""
        return Classification(scheme, node) in self.classifications

    # -- persistence ---------------------------------------------------------

    def to_row(self) -> dict:
        """The JSON-ready row every durable log and archive stores."""
        return {
            "object_id": self.object_id, "object_type": self.object_type,
            "name": self.name, "description": self.description,
            "status": self.status.value,
            "classifications": [
                {"scheme": c.scheme, "node": c.node} for c in self.classifications
            ],
            "slots": {name: list(slot.values) for name, slot in self.slots.items()},
        }

    @classmethod
    def from_row(cls, row: dict) -> "RegistryObject":
        """Rebuild an object from :meth:`to_row` output (extra keys ignored)."""
        obj = cls(
            object_id=row["object_id"], object_type=row["object_type"],
            name=row["name"], description=row["description"],
            status=LifecycleStatus(row["status"]),
        )
        for classification in row["classifications"]:
            obj.classify(classification["scheme"], classification["node"])
        for slot_name, values in row["slots"].items():
            obj.set_slot(slot_name, *values)
        return obj


@dataclass(frozen=True)
class Association:
    """A typed, directed link between two registry objects."""

    association_type: str
    source_id: str
    target_id: str

    def __post_init__(self) -> None:
        if not self.association_type:
            raise RegistryError("association needs a type")
        if not self.source_id or not self.target_id:
            raise RegistryError("association needs source and target ids")
