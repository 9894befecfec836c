"""Seeded workload driver for federated deployments.

Mirrors :class:`~repro.sim.scenario.CssScenario` — same synthetic
population, templates, role policies and seeded workload — but spreads the
deployment over an N-node :class:`~repro.federation.platform.FederatedPlatform`:
producers and consumers are homed round-robin, so a fixed share of the
subscriptions and requests-for-details crosses node boundaries and is
decided by home-node enforcement.

The report adds the federation-specific figures the benchmark plots:
cross-node hops, per-node simulated busy time, cluster makespan (the
busiest node) and the derived notification-routing throughput.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.clock import Clock
from repro.core.events import EventClass
from repro.exceptions import AccessDeniedError, ConfigurationError
from repro.federation.platform import FederatedPlatform
from repro.obs.slo import SLOEngine, SLOReport
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.kernel import RuntimeConfig
from repro.sim.generators import (
    DEFAULT_SEED,
    SyntheticPopulation,
    WorkloadGenerator,
    WorkloadItem,
    standard_event_templates,
)
from repro.sim.scenario import (
    DEFAULT_CONSUMERS,
    DEFAULT_PRODUCER_ASSIGNMENT,
    ROLE_PURPOSES,
)


@dataclass
class FederatedScenarioConfig:
    """Knobs of one federated scenario run."""

    nodes: int = 2
    n_patients: int = 30
    n_events: int = 200
    detail_request_rate: float = 0.3
    seed: int = DEFAULT_SEED
    mean_interarrival: float = 60.0
    link_latency: float = 0.005
    #: Privacy-guard mode for a shared in-memory telemetry backend
    #: (None runs without telemetry).
    telemetry_guard: str | None = None
    #: One telemetry backend per node (site-prefixed span ids) instead of
    #: a shared one — the mode distributed-trace stitching runs in.
    per_node_telemetry: bool = False
    #: Drop the first transmission attempt of this many cross-node calls
    #: (the retry budget redelivers them) — degrades the link-delivery SLO
    #: without failing any call.
    scripted_drops: int = 0
    #: Base runtime for every node controller (the platform still forces
    #: the federation-specific fields and per-node data subdirectories) —
    #: the one place to pick the perf layer, scheduler, batching or durable
    #: backends of a run, e.g. ``RuntimeConfig(sched="fair", batch="on")``
    #: or ``RuntimeConfig(audit_sink="jsonl", store="segmented",
    #: data_dir=...)``.
    runtime: RuntimeConfig | None = None
    consumers: tuple[tuple[str, str], ...] = DEFAULT_CONSUMERS
    producer_assignment: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_PRODUCER_ASSIGNMENT)
    )

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("a federation needs at least one node")
        if not 0.0 <= self.detail_request_rate <= 1.0:
            raise ConfigurationError("detail_request_rate must be within [0, 1]")
        if self.scripted_drops < 0:
            raise ConfigurationError("scripted_drops must be non-negative")


@dataclass
class NodeReport:
    """Per-node figures of one federated run."""

    node_id: str
    busy_seconds: float
    operations: int
    index_entries: int
    audit_records: int


@dataclass
class FederatedScenarioReport:
    """Outcome of one federated scenario run."""

    nodes: int
    events_published: int
    events_blocked_by_consent: int
    notifications_delivered: int
    detail_requests: int
    detail_permits: int
    detail_denies: int
    cross_node_hops: int
    makespan_seconds: float
    routing_throughput: float
    audit_chains_verified: bool
    node_reports: list[NodeReport] = field(default_factory=list)

    def to_text(self) -> str:
        """Printable run summary."""
        lines = [
            "FEDERATED CSS SCENARIO REPORT",
            "=============================",
            f"nodes:                   {self.nodes}",
            f"events published:        {self.events_published}",
            f"blocked by consent:      {self.events_blocked_by_consent}",
            f"notifications delivered: {self.notifications_delivered}",
            f"detail requests:         {self.detail_requests} "
            f"(permit {self.detail_permits} / deny {self.detail_denies})",
            f"cross-node hops:         {self.cross_node_hops}",
            f"makespan (simulated):    {self.makespan_seconds:.3f}s",
            f"routing throughput:      {self.routing_throughput:.1f} events/s",
            f"audit chains verified:   {self.audit_chains_verified}",
        ]
        for report in self.node_reports:
            lines.append(
                f"  {report.node_id}: busy={report.busy_seconds:.3f}s "
                f"ops={report.operations} index={report.index_entries} "
                f"audit={report.audit_records}"
            )
        return "\n".join(lines)


def deploy_roster(platform, templates, producer_of, consumers) -> dict:
    """Install producers, event classes, consumers, policies, subscriptions.

    The one deployment routine behind every seeded federation run (this
    scenario, the workload harness, the wall-clock ledger): producers
    homed round-robin with each class on its producer's node, every
    ``(consumer_id, role)`` of ``consumers`` registered, then — class by
    class — each consumer granted exactly its role's needed fields on
    the class's home node and subscribed through the platform.
    ``producer_of`` maps each template name to its producer id, in
    declaration order.  Returns the declared event classes by template
    name.
    """
    event_classes: dict[str, EventClass] = {}
    producers: set[str] = set()
    for template_name, producer_id in producer_of.items():
        template = templates[template_name]
        if producer_id not in producers:
            producers.add(producer_id)
            platform.add_producer(producer_id, producer_id.replace("-", " "))
        event_classes[template_name] = platform.declare_event_class(
            producer_id,
            template.build_schema(),
            category=template.category,
            description=template.schema_factory().documentation,
        )
    for consumer_id, role in consumers:
        platform.add_consumer(
            consumer_id, consumer_id.replace("-", " "), role=role
        )
    for template_name, template in templates.items():
        producer = platform.producer(producer_of[template_name])
        for consumer_id, role in consumers:
            needed = template.needed_fields.get(role)
            if not needed:
                continue
            producer.define_policy(
                event_type=template_name,
                fields=list(needed),
                consumers=[(consumer_id, "unit")],
                purposes=[ROLE_PURPOSES[role]],
                label=f"{role} access to {template_name}",
            )
            platform.subscribe(consumer_id, template_name)
    return event_classes


class FederatedScenario:
    """Builds and drives one federated CSS deployment."""

    def __init__(self, config: FederatedScenarioConfig | None = None) -> None:
        self.config = config or FederatedScenarioConfig()
        self.clock = Clock()
        self.telemetry = None
        if (
            self.config.telemetry_guard is not None
            and not self.config.per_node_telemetry
        ):
            self.telemetry = InMemoryTelemetry(
                clock=self.clock,
                guard_mode=self.config.telemetry_guard,
                secret=f"css-federation-{self.config.seed}",
            )
        self.platform = FederatedPlatform(
            shards=self.config.nodes,
            clock=self.clock,
            seed=f"fedsc-{self.config.seed}",
            runtime=self.config.runtime or RuntimeConfig(),
            telemetry=self.telemetry,
            link_latency=self.config.link_latency,
            per_node_telemetry=self.config.per_node_telemetry,
            telemetry_guard=self.config.telemetry_guard or "hash",
        )
        self.templates = standard_event_templates()
        self.population = SyntheticPopulation(
            self.config.n_patients, seed=self.config.seed
        )
        self.event_classes = deploy_roster(
            self.platform, self.templates,
            self.config.producer_assignment, self.config.consumers,
        )
        self._rng = random.Random(self.config.seed + 1)

    # -- run -----------------------------------------------------------------

    def generate_workload(self) -> list[WorkloadItem]:
        """The seeded workload for this configuration."""
        generator = WorkloadGenerator(seed=self.config.seed)
        return generator.generate(
            self.population,
            self.templates,
            self.config.n_events,
            mean_interarrival=self.config.mean_interarrival,
        )

    def _install_scripted_drops(self) -> None:
        """Arm every link to drop the first attempt of the next
        ``scripted_drops`` cross-node calls.  The shared toggle means the
        immediate retry of a dropped call always delivers, so the workload
        completes while the drop counters — and the link-delivery SLO —
        record the degradation deterministically."""
        state = {"budget": self.config.scripted_drops, "drop_next": True}

        def hook(operation: str, payload: dict) -> bool:
            if state["budget"] <= 0:
                return False
            if state["drop_next"]:
                state["drop_next"] = False
                state["budget"] -= 1
                return True
            state["drop_next"] = True
            return False

        node_ids = self.platform.membership.node_ids
        for source in node_ids:
            for target in node_ids:
                if source != target:
                    link = self.platform.membership.link(source, target)
                    link.set_failure_hook(hook)

    def run(self, workload: list[WorkloadItem] | None = None) -> FederatedScenarioReport:
        """Publish the workload, issue detail requests, collect figures."""
        config = self.config
        platform = self.platform
        if config.scripted_drops and config.nodes > 1:
            self._install_scripted_drops()
        items = workload if workload is not None else self.generate_workload()
        published = blocked = 0
        requests = permits = denies = 0

        for item in items:
            producer_id = config.producer_assignment[item.template_name]
            if item.offset_seconds > self.clock.now():
                self.clock.set(item.offset_seconds)
            notification = platform.publish(
                producer_id,
                self.event_classes[item.template_name],
                subject_id=item.patient.patient_id,
                subject_name=item.patient.name,
                summary=item.summary,
                details=dict(item.details),
            )
            if notification is None:
                blocked += 1
                continue
            published += 1

            template = self.templates[item.template_name]
            for consumer_id, role in config.consumers:
                consumer = platform.consumer(consumer_id)
                needed = template.needed_fields.get(role)
                if not needed or not consumer.is_subscribed_to(item.template_name):
                    continue
                if self._rng.random() >= config.detail_request_rate:
                    continue
                requests += 1
                try:
                    platform.request_details(
                        consumer_id, item.template_name,
                        notification.event_id, ROLE_PURPOSES[role],
                    )
                except AccessDeniedError:
                    denies += 1
                    continue
                permits += 1

        platform.dispatch_all()
        platform.flush_batches()  # barrier before reading cluster state
        platform.record_queue_depths()
        for node in platform.nodes():
            node.controller.audit_log.verify_integrity()

        makespan = max(node.work.busy_seconds for node in platform.nodes())
        node_reports = [
            NodeReport(
                node_id=node.node_id,
                busy_seconds=node.work.busy_seconds,
                operations=node.work.operations,
                index_entries=len(node.controller.index),
                audit_records=len(node.controller.audit_log),
            )
            for node in platform.nodes()
        ]
        return FederatedScenarioReport(
            nodes=self.config.nodes,
            events_published=published,
            events_blocked_by_consent=blocked,
            notifications_delivered=sum(
                len(platform.consumer(cid).inbox) for cid, _ in config.consumers
            ),
            detail_requests=requests,
            detail_permits=permits,
            detail_denies=denies,
            cross_node_hops=platform.total_hops(),
            makespan_seconds=makespan,
            routing_throughput=(published / makespan) if makespan > 0 else 0.0,
            audit_chains_verified=True,
            node_reports=node_reports,
        )

    # -- service levels ------------------------------------------------------

    def slo_report(self, alert: bool = True) -> SLOReport:
        """Evaluate the stock objectives over this run's shared telemetry.

        With ``alert`` the breaches are also published as events on
        node-0's bus (topic ``platform.slo.alerts``), carrying objective
        names and thresholds only.
        """
        if self.telemetry is None:
            raise ConfigurationError(
                "slo_report needs the shared telemetry backend: set "
                "telemetry_guard and leave per_node_telemetry off"
            )
        engine = SLOEngine(self.telemetry)
        report = engine.evaluate()
        if alert:
            node_0 = self.platform.membership.node_ids[0]
            engine.alert(self.platform.controller_of(node_0).bus, report)
        return report
