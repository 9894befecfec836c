"""Actors and organizational units.

A *subject* in the paper's policies "is an actor reflecting the particular
hierarchical structure of the organization" (§5.1): a top-level body such as
*Hospital S. Maria* or a department inside it such as its *Laboratory*.
Actor ids are slash-separated paths encoding that hierarchy, so a policy
granted to ``Hospital-S-Maria`` also covers ``Hospital-S-Maria/Laboratory``
via the ``hierarchy-descendant`` match.  Actors also carry a functional
*role* (e.g. ``family-doctor``) — Fig. 8's policy targets the role rather
than a specific actor.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

_SEGMENT = re.compile(r"^[A-Za-z0-9_\-]+$")


class ActorKind(enum.Enum):
    """How a party participates in the platform."""

    PRODUCER = "producer"
    CONSUMER = "consumer"
    BOTH = "both"

    @property
    def produces(self) -> bool:
        """Whether this kind may declare and publish events."""
        return self in (ActorKind.PRODUCER, ActorKind.BOTH)

    @property
    def consumes(self) -> bool:
        """Whether this kind may subscribe and request details."""
        return self in (ActorKind.CONSUMER, ActorKind.BOTH)


@dataclass(frozen=True)
class Actor:
    """A participating organization, department, or professional."""

    actor_id: str
    name: str
    kind: ActorKind
    role: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        for segment in self.actor_id.split("/"):
            if not segment or not _SEGMENT.match(segment):
                raise ConfigurationError(f"illegal actor id {self.actor_id!r}")

    @property
    def path_segments(self) -> tuple[str, ...]:
        """The hierarchy segments of the actor id."""
        return tuple(self.actor_id.split("/"))

    @property
    def organization(self) -> str:
        """The top-level organization this actor belongs to."""
        return self.path_segments[0]

    @property
    def parent_id(self) -> str | None:
        """The id of the enclosing unit, or None for top-level actors."""
        segments = self.path_segments
        return "/".join(segments[:-1]) if len(segments) > 1 else None


class ActorDirectory:
    """The data controller's directory of known parties."""

    def __init__(self) -> None:
        self._actors: dict[str, Actor] = {}

    def __len__(self) -> int:
        return len(self._actors)

    def __contains__(self, actor_id: str) -> bool:
        return actor_id in self._actors

    def add(self, actor: Actor) -> None:
        """Register an actor; duplicate ids are rejected."""
        if actor.actor_id in self._actors:
            raise ConfigurationError(f"actor {actor.actor_id!r} already registered")
        self._actors[actor.actor_id] = actor

    def get(self, actor_id: str) -> Actor:
        """Look up an actor by id."""
        try:
            return self._actors[actor_id]
        except KeyError as exc:
            raise ConfigurationError(f"unknown actor {actor_id!r}") from exc

    def all_actors(self) -> list[Actor]:
        """Every registered actor."""
        return list(self._actors.values())

    def producers(self) -> list[Actor]:
        """Actors that may produce events."""
        return [actor for actor in self._actors.values() if actor.kind.produces]

    def consumers(self) -> list[Actor]:
        """Actors that may consume events."""
        return [actor for actor in self._actors.values() if actor.kind.consumes]
