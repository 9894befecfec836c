"""Lazily materialized million-actor population with a realistic hierarchy.

The paper's platform serves an entire regional population; driving the
reproduction at that scale means the workload engine must be able to name
millions of assisted persons without holding millions of objects.  A
:class:`LazyPopulation` therefore derives every person *on demand* from
``(seed, index)`` alone — same person for the same coordinates no matter
when, where, or in what order they are first touched — and keeps only a
bounded LRU cache of recently materialized records, so resident memory is
O(active set), never O(population).

The actor hierarchy mirrors the deployment's cast:

* **assisted persons** — the subjects events are about (index ``0..size``);
* **guardians** — a seeded fraction of persons (minors, persons under
  legal protection) has a guardian actor attached;
* **case workers** — every person belongs to exactly one case worker,
  assigned in contiguous blocks of ``case_load`` persons (the realistic
  shape: a municipality assigns caseloads, not random scatter);
* **clinicians** — a pool scaling with the square root of the population,
  assigned deterministically per person;
* **consumer organizations (tenants)** — the institutions that subscribe
  and request details; they are few, named, and configured per scenario
  (:mod:`repro.workload.config`), not generated here.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import OrderedDict
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.sim.domain import FAMILY_NAMES, GIVEN_NAMES, MUNICIPALITIES

#: Prefix of every assisted-person subject id.  The privacy-invariant
#: tests grep benchmark payloads and telemetry exports for this shape
#: (``ap-`` + digits) — it must never appear there in plaintext.
SUBJECT_PREFIX = "ap-"


@dataclass(frozen=True)
class AssistedPerson:
    """One assisted person plus their position in the actor hierarchy."""

    index: int
    person_id: str
    name: str
    birth_year: int
    municipality: str
    guardian_id: str | None
    case_worker_id: str
    clinician_id: str


def _derive_rng(seed: int, namespace: str, index: int) -> random.Random:
    """A deterministic per-entity RNG, independent of access order.

    Seeded from a SHA-256 of the coordinates so neighbouring indexes do
    not produce correlated streams (``random.Random(seed + index)``
    would).
    """
    digest = hashlib.sha256(
        f"workload-pop:{seed}:{namespace}:{index}".encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class LazyPopulation:
    """A seeded population materialized person-by-person on first access."""

    def __init__(
        self,
        size: int,
        seed: int,
        guardian_rate: float = 0.12,
        case_load: int = 250,
        cache_size: int = 4096,
    ) -> None:
        if size <= 0:
            raise ConfigurationError("population size must be positive")
        if not 0.0 <= guardian_rate <= 1.0:
            raise ConfigurationError("guardian_rate must be within [0, 1]")
        if case_load <= 0:
            raise ConfigurationError("case_load must be positive")
        if cache_size <= 0:
            raise ConfigurationError("cache_size must be positive")
        self.size = size
        self.seed = seed
        self.guardian_rate = guardian_rate
        self.case_load = case_load
        self.cache_size = cache_size
        #: Clinician pool scales sub-linearly, like real registries.
        self.clinician_pool = max(16, math.isqrt(size))
        self._cache: OrderedDict[int, AssistedPerson] = OrderedDict()
        self._materialized_total = 0

    # -- cheap id arithmetic (no materialization) --------------------------

    def subject_id(self, index: int) -> str:
        """The assisted person's subject id — no record materialized."""
        self._check(index)
        return f"{SUBJECT_PREFIX}{index:08d}"

    def case_worker_of(self, index: int) -> str:
        """The case worker owning ``index``'s contiguous caseload block."""
        self._check(index)
        return f"cw-{index // self.case_load:06d}"

    # -- materialization ---------------------------------------------------

    def person(self, index: int) -> AssistedPerson:
        """Materialize (or recall) one assisted person."""
        self._check(index)
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        person = self._materialize(index)
        self._cache[index] = person
        self._materialized_total += 1
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return person

    def _materialize(self, index: int) -> AssistedPerson:
        rng = _derive_rng(self.seed, "person", index)
        name = f"{rng.choice(GIVEN_NAMES)} {rng.choice(FAMILY_NAMES)}"
        guardian = None
        if rng.random() < self.guardian_rate:
            guardian = f"gu-{index:08d}"
        return AssistedPerson(
            index=index,
            person_id=self.subject_id(index),
            name=name,
            birth_year=rng.randint(1915, 2005),
            municipality=rng.choice(MUNICIPALITIES),
            guardian_id=guardian,
            case_worker_id=self.case_worker_of(index),
            clinician_id=f"cl-{rng.randrange(self.clinician_pool):05d}",
        )

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise ConfigurationError(
                f"person index {index} outside population of {self.size}"
            )

    # -- introspection (tests + docs) --------------------------------------

    @property
    def resident(self) -> int:
        """Persons currently held in memory (bounded by ``cache_size``)."""
        return len(self._cache)

    @property
    def materialized_total(self) -> int:
        """Persons materialized over this population's lifetime."""
        return self._materialized_total
