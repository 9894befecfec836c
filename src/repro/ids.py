"""Identifier generation for platform artifacts.

The data controller assigns every notification a *global artificial event
identifier* (``eID``) that hides the producer-local identifier
(``src_eID``) — step 1 of Algorithm 1 in the paper resolves the mapping
through the PIP.  This module centralises the generation of those ids plus
ids for policies, subscriptions, audit records and registry objects.

Generation is deterministic when seeded, which keeps simulations and tests
reproducible without real randomness.
"""

from __future__ import annotations

import hashlib
import itertools
import threading


#: Hex digits of ``sha256(seed:prefix:n)`` kept as an id's suffix.
SUFFIX_HEX = 12


class IdGenerator:
    """Generates unique, prefixed, optionally seeded identifiers.

    Ids look like ``evt-000042-9f3a52c07be1`` — a prefix, a monotonically
    increasing counter and a digest suffix derived from the seed and counter.
    Every node of a federation counts from 1 under its own seed, so the
    suffix alone — 48 bits, for every prefix — keeps their ids apart.

    The generator is thread-safe: the in-process service bus may deliver
    messages from multiple threads in benchmark scenarios.
    """

    def __init__(self, prefix: str, seed: str = "css") -> None:
        if not prefix:
            raise ValueError("id prefix must be non-empty")
        self._prefix = prefix
        self._seed = seed
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    @property
    def prefix(self) -> str:
        """The prefix stamped on every generated id."""
        return self._prefix

    def next(self) -> str:
        """Return the next unique identifier."""
        with self._lock:
            n = next(self._counter)
        digest = hashlib.sha256(f"{self._seed}:{self._prefix}:{n}".encode()).hexdigest()[:SUFFIX_HEX]
        return f"{self._prefix}-{n:06d}-{digest}"


class IdFactory:
    """A family of :class:`IdGenerator` instances sharing one seed.

    The data controller owns one factory; every subsystem asks it for a
    generator with its own prefix so ids are globally distinguishable::

        factory = IdFactory(seed="trentino")
        eid = factory.generator("evt").next()     # 'evt-000001-....'
        pid = factory.generator("pol").next()     # 'pol-000001-....'
    """

    def __init__(self, seed: str = "css") -> None:
        self._seed = seed
        self._generators: dict[str, IdGenerator] = {}
        self._lock = threading.Lock()

    @property
    def seed(self) -> str:
        """The seed shared by all generators of this factory."""
        return self._seed

    def generator(self, prefix: str) -> IdGenerator:
        """Return (creating if needed) the generator for ``prefix``."""
        with self._lock:
            gen = self._generators.get(prefix)
            if gen is None:
                gen = IdGenerator(prefix, seed=self._seed)
                self._generators[prefix] = gen
            return gen

    def next(self, prefix: str) -> str:
        """Shorthand for ``generator(prefix).next()``."""
        return self.generator(prefix).next()

    def skip(self, prefix: str, count: int) -> None:
        """Consume ``count`` ids of ``prefix`` without using them.

        Archive restoration fast-forwards generators past the ids already
        present in the archived data, so freshly generated ids cannot
        collide with archived ones.
        """
        if count < 0:
            raise ValueError("cannot skip a negative number of ids")
        generator = self.generator(prefix)
        for _ in range(count):
            generator.next()


def opaque_token(*parts: str, length: int = 16) -> str:
    """Derive a stable opaque token from ``parts``.

    Used wherever the platform must expose a reference without leaking its
    components — e.g. pseudonymous patient references inside notifications.
    """
    if length < 4 or length > 64:
        raise ValueError("token length must be between 4 and 64")
    digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    return digest[:length]
