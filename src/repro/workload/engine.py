"""The deterministic open-loop workload engine.

A :class:`WorkloadEngine` turns one
:class:`~repro.workload.config.WorkloadConfig` into a lazy stream of
:class:`WorkloadOp` records — publish / request-for-details / subscribe
operations stamped with open-loop arrival times, Zipf-skewed event types
and subjects, and fully materialized publish payloads.  The stream is a
pure function of the config: two engines built from equal configs yield
**byte-identical** streams (the determinism test serializes both and
compares bytes), which is what makes every capacity figure reproducible
under ``--seed``.

The stream is generated lazily and the population is materialized
lazily, so planning a million-actor workload holds O(active set) memory:
one op, one LRU-cached person window, O(1) samplers.

Operation semantics (the capacity harness executes them against a
:class:`~repro.federation.platform.FederatedPlatform`):

* ``publish`` — a producer organization publishes one occurrence of the
  op's event class about the op's subject;
* ``details`` — a tenant (consumer organization) issues a
  request-for-details against a recently published event of the op's
  class (``target_recency`` picks how far back); emitted only once the
  engine itself has published at least one event of that class, so the
  stream never references an event that cannot exist;
* ``subscribe`` — subscription churn: a tenant (re-)subscribes to the
  op's class, exercising the catalog/policy/relay path under load.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from repro.crypto.hashing import canonical_json
from repro.sim.domain import (
    DEFAULT_PRODUCER_ASSIGNMENT,
    ROLE_PURPOSES,
    Patient,
)
from repro.sim.generators import EventTemplate, standard_event_templates
from repro.workload.arrivals import (
    OnOffProcess,
    PoissonProcess,
    ZipfSampler,
    scatter,
)
from repro.workload.config import (
    OP_DETAILS,
    OP_PUBLISH,
    OP_SUBSCRIBE,
    WorkloadConfig,
)
from repro.workload.population import LazyPopulation

#: How many recent events per class a details op may target.
RECENCY_WINDOW = 16


@dataclass(frozen=True)
class WorkloadOp:
    """One operation of the planned stream."""

    sequence: int
    at: float
    kind: str
    template: str
    #: Publish ops: the subject and the materialized payload.
    subject_index: int = -1
    subject_id: str = ""
    subject_name: str = ""
    summary: str = ""
    details: dict[str, object] | None = None
    #: The operation's tenant: the issuing consumer organization on
    #: details/subscribe ops, the producer organization on publish ops —
    #: every stream line carries the organization it is attributed to.
    tenant_id: str = ""
    purpose: str = ""
    #: Details ops: 0 targets the latest event of the class, 1 the one
    #: before it, ... (clamped to what has actually been published).
    target_recency: int = 0

    def to_line(self) -> str:
        """Canonical JSON — the byte-comparable stream serialization."""
        payload = {
            "sequence": self.sequence,
            "at": round(self.at, 9),
            "kind": self.kind,
            "template": self.template,
        }
        if self.kind == OP_PUBLISH:
            payload.update(
                subject_index=self.subject_index,
                subject_id=self.subject_id,
                subject_name=self.subject_name,
                summary=self.summary,
                details=self.details,
                tenant_id=self.tenant_id,
            )
        else:
            payload.update(tenant_id=self.tenant_id, purpose=self.purpose)
            if self.kind == OP_DETAILS:
                payload["target_recency"] = self.target_recency
        return canonical_json(payload)


class WorkloadEngine:
    """Plans deterministic operation streams from one config."""

    def __init__(
        self,
        config: WorkloadConfig,
        templates: dict[str, EventTemplate] | None = None,
    ) -> None:
        self.config = config
        self.templates = templates or standard_event_templates()
        self.population = LazyPopulation(
            config.population,
            config.seed,
            guardian_rate=config.guardian_rate,
            case_load=config.case_load,
        )
        #: Popularity rank order over classes: declaration order of the
        #: template dict (rank 1 = first), fixed and config-independent.
        self._ranked_types = list(self.templates)
        #: Per-class tenant pools eligible to request details/subscribe
        #: (their role is granted fields on that class), with the
        #: abusive-tenant factor already applied to the weights.
        self._tenant_pool: dict[str, tuple[list[str], list[float]]] = {}
        for name, template in self.templates.items():
            ids: list[str] = []
            weights: list[float] = []
            for tenant in config.tenants:
                if not template.needed_fields.get(tenant.role):
                    continue
                weight = tenant.weight
                if tenant.tenant_id == config.abusive_tenant:
                    weight *= config.abusive_factor
                ids.append(tenant.tenant_id)
                weights.append(weight)
            if ids:
                self._tenant_pool[name] = (ids, weights)
        self._roles = {t.tenant_id: t.role for t in config.tenants}
        #: Hot-subject injection set: the top-k scattered indexes.
        self._hot_indexes = [
            scatter(rank, config.population)
            for rank in range(1, config.hot_subjects + 1)
        ]

    # -- sampling helpers --------------------------------------------------

    def _arrival_process(self):
        config = self.config
        if config.arrival == "onoff":
            return OnOffProcess(
                burst_rate=config.rate,
                on_seconds=config.on_seconds,
                off_seconds=config.off_seconds,
                base_rate=config.base_rate,
            )
        return PoissonProcess(config.rate)

    def _subject_index(self, rng: random.Random, sampler: ZipfSampler) -> int:
        config = self.config
        if self._hot_indexes and rng.random() < config.hot_subject_share:
            return self._hot_indexes[rng.randrange(len(self._hot_indexes))]
        return scatter(sampler.sample(rng), config.population)

    def tenant_roles(self) -> dict[str, str]:
        """Tenant id → role for the whole roster."""
        return dict(self._roles)

    def producer_of(self, template_name: str) -> str:
        """The producer organization publishing ``template_name``."""
        return DEFAULT_PRODUCER_ASSIGNMENT[template_name]

    # -- planning ----------------------------------------------------------

    def plan(self) -> Iterator[WorkloadOp]:
        """The deterministic operation stream (lazy, ``config.ops`` long)."""
        config = self.config
        rng = random.Random(f"workload:{config.scenario}:{config.seed}")
        arrivals = self._arrival_process().times(rng)
        type_sampler = ZipfSampler(
            len(self._ranked_types), config.type_exponent
        )
        subject_sampler = ZipfSampler(
            config.population, config.subject_exponent
        )
        kinds = (OP_PUBLISH, OP_DETAILS, OP_SUBSCRIBE)
        kind_weights = (
            config.publish_weight,
            config.details_weight,
            config.subscribe_weight,
        )
        published: dict[str, int] = defaultdict(int)

        for sequence in range(config.ops):
            at = next(arrivals)
            template_name = self._ranked_types[type_sampler.sample(rng) - 1]
            template = self.templates[template_name]
            kind = rng.choices(kinds, weights=kind_weights)[0]
            if kind != OP_PUBLISH and template_name not in self._tenant_pool:
                kind = OP_PUBLISH  # no tenant may consume this class
            if kind == OP_DETAILS and not published[template_name]:
                kind = OP_PUBLISH  # nothing to request details about yet

            if kind == OP_PUBLISH:
                index = self._subject_index(rng, subject_sampler)
                person = self.population.person(index)
                patient = Patient(
                    patient_id=person.person_id,
                    name=person.name,
                    birth_year=person.birth_year,
                    municipality=person.municipality,
                )
                published[template_name] += 1
                yield WorkloadOp(
                    sequence=sequence,
                    at=at,
                    kind=OP_PUBLISH,
                    template=template_name,
                    subject_index=index,
                    subject_id=person.person_id,
                    subject_name=person.name,
                    summary=template.summary_for(patient),
                    details=template.build_details(rng, patient),
                    # The producing organization (deterministic lookup, no
                    # RNG draw): the tenant this publish is attributed to.
                    tenant_id=self.producer_of(template_name),
                )
                continue

            tenant_ids, weights = self._tenant_pool[template_name]
            tenant_id = rng.choices(tenant_ids, weights=weights)[0]
            purpose = ROLE_PURPOSES[self._roles[tenant_id]]
            if kind == OP_DETAILS:
                window = min(RECENCY_WINDOW, published[template_name])
                yield WorkloadOp(
                    sequence=sequence,
                    at=at,
                    kind=OP_DETAILS,
                    template=template_name,
                    tenant_id=tenant_id,
                    purpose=purpose,
                    target_recency=rng.randrange(window),
                )
            else:
                yield WorkloadOp(
                    sequence=sequence,
                    at=at,
                    kind=OP_SUBSCRIBE,
                    template=template_name,
                    tenant_id=tenant_id,
                    purpose=purpose,
                )

    def stream_lines(self) -> Iterator[str]:
        """The stream as canonical JSON lines (the byte-identity surface)."""
        for op in self.plan():
            yield op.to_line()
