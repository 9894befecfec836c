"""Hierarchical topics with wildcard subscription patterns.

Topics are dot-separated paths mirroring the event taxonomy, e.g.
``events.health.BloodTest`` or ``events.social.HomeCareVisit``.
Subscription patterns may use ``*`` (exactly one segment) and ``#``
(zero or more trailing segments), the classic messaging wildcards:

* ``events.health.*`` matches every health event class;
* ``events.#`` matches everything under ``events``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.exceptions import UnknownTopicError

_SEGMENT = re.compile(r"^[A-Za-z0-9_\-]+$")


def _split(path: str) -> list[str]:
    segments = path.split(".")
    if not segments or any(not seg for seg in segments):
        raise UnknownTopicError(f"malformed topic path {path!r}")
    return segments


@dataclass(frozen=True)
class Topic:
    """A concrete (wildcard-free) topic path."""

    path: str

    def __post_init__(self) -> None:
        for segment in _split(self.path):
            if not _SEGMENT.match(segment):
                raise UnknownTopicError(f"illegal topic segment {segment!r} in {self.path!r}")

    @property
    def segments(self) -> tuple[str, ...]:
        """The dot-separated segments of the path."""
        return tuple(self.path.split("."))


def validate_pattern(pattern: str) -> None:
    """Validate a subscription pattern; raise ``UnknownTopicError`` if bad.

    ``#`` may only appear as the final segment.
    """
    segments = _split(pattern)
    for index, segment in enumerate(segments):
        if segment == "#":
            if index != len(segments) - 1:
                raise UnknownTopicError(f"'#' must be the last segment in {pattern!r}")
        elif segment != "*" and not _SEGMENT.match(segment):
            raise UnknownTopicError(f"illegal pattern segment {segment!r} in {pattern!r}")


def topic_matches(pattern: str, topic: str) -> bool:
    """Whether ``topic`` (concrete) matches ``pattern`` (may hold wildcards)."""
    validate_pattern(pattern)
    pattern_segments = pattern.split(".")
    topic_segments = _split(topic)
    for index, pat in enumerate(pattern_segments):
        if pat == "#":
            return True
        if index >= len(topic_segments):
            return False
        if pat != "*" and pat != topic_segments[index]:
            return False
    return len(pattern_segments) == len(topic_segments)


class TopicTree:
    """The broker's registry of declared topics.

    The data controller declares one topic per event class when a producer
    installs the class in the catalog; publishing to an undeclared topic is
    an error (it means the class was never declared — paper §5).
    """

    def __init__(self) -> None:
        self._topics: dict[str, Topic] = {}

    def declare(self, path: str) -> Topic:
        """Declare ``path`` (idempotent) and return the topic."""
        topic = self._topics.get(path)
        if topic is None:
            topic = Topic(path)
            self._topics[path] = topic
        return topic

    def exists(self, path: str) -> bool:
        """Whether ``path`` has been declared."""
        return path in self._topics

    def require(self, path: str) -> Topic:
        """Return the declared topic or raise ``UnknownTopicError``."""
        try:
            return self._topics[path]
        except KeyError as exc:
            raise UnknownTopicError(f"topic {path!r} was never declared") from exc

    def all_paths(self) -> list[str]:
        """Every declared topic path, in declaration order."""
        return list(self._topics)
