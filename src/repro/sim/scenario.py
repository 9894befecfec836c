"""The one seeded scenario run: build, drive, settle, report.

A scenario is the synthetic Trentino deployment (``sim/domain.py``'s
roster over the standard event templates) on an N-node
:class:`~repro.federation.platform.FederatedPlatform` — N = 1 is a
federation of one, whose links are never built or called — fed a seeded
workload.  :func:`deploy_roster` installs the parties,
:meth:`CssScenario.steps` is the publish-then-request loop,
:meth:`CssScenario.run` ends it with the barrier (queues drained, group
commits down, every chain verified) and returns the one
:class:`ScenarioReport`: the outcome counters, the Fig. 1 exposure
ledger the baselines are compared against, and the federation's hops
and per-node figures.

Policy regime: every producer grants each consumer role **exactly the
fields that role needs** (the templates' ``needed_fields``), for the
purpose matching the role — the minimal-usage configuration the paper's
elicitation tool is designed to make easy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.clock import Clock
from repro.core.events import EventClass
from repro.core.messages import NotificationMessage
from repro.exceptions import AccessDeniedError, ConfigurationError
from repro.federation.platform import FederatedPlatform
from repro.obs.slo import SLOEngine, SLOReport
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.kernel import RuntimeConfig
from repro.sim.domain import (
    DEFAULT_CONSUMERS,
    DEFAULT_PRODUCER_ASSIGNMENT,
    ROLE_PURPOSES,
)
from repro.sim.generators import (
    DEFAULT_SEED,
    SyntheticPopulation,
    WorkloadGenerator,
    WorkloadItem,
    standard_event_templates,
)
from repro.sim.metrics import DisclosureLedger, ExposureSummary


@dataclass
class ScenarioConfig:
    """Knobs of one scenario run."""

    nodes: int = 1
    n_patients: int = 30
    n_events: int = 200
    detail_request_rate: float = 0.3
    seed: int = DEFAULT_SEED
    mean_interarrival: float = 60.0
    #: With telemetry on, one backend per node (site-prefixed span ids)
    #: instead of a shared one — the mode distributed-trace stitching
    #: runs in.
    per_node_telemetry: bool = False
    #: Drop the first transmission attempt of this many cross-node calls
    #: (the retry budget redelivers them) — degrades the link-delivery SLO
    #: without failing any call.
    scripted_drops: int = 0
    #: Base runtime of every node controller (the platform changes only
    #: ``data_dir``, to the node's own subdirectory):
    #: the recorder, batching and durable backends of a run,
    #: and its telemetry — on iff ``telemetry="inmemory"``, guarded by
    #: ``telemetry_guard``.
    runtime: RuntimeConfig | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("a federation needs at least one node")
        if not 0.0 <= self.detail_request_rate <= 1.0:
            raise ConfigurationError("detail_request_rate must be within [0, 1]")
        if self.scripted_drops < 0:
            raise ConfigurationError("scripted_drops must be non-negative")
        if self.scripted_drops and self.nodes == 1:
            raise ConfigurationError(
                f"{self.scripted_drops} scripted drops are link-level and a "
                f"one-node deployment has no links to drop; run at least "
                f"two nodes")


@dataclass
class NodeReport:
    """Per-node figures of one run."""

    node_id: str
    index_entries: int
    audit_records: int


@dataclass
class ScenarioReport:
    """Outcome of one scenario run."""

    nodes: int
    exposure: ExposureSummary
    events_published: int = 0
    events_blocked_by_consent: int = 0
    notifications_delivered: int = 0
    detail_requests: int = 0
    detail_permits: int = 0
    detail_denies: int = 0
    endpoint_calls: int = 0
    subscriptions: int = 0
    cross_node_hops: int = 0
    audit_records: int = 0
    audit_chains_verified: bool = False
    node_reports: list[NodeReport] = field(default_factory=list)

    def to_text(self) -> str:
        """Printable run summary."""
        title = ("" if self.nodes == 1 else "FEDERATED ") + "CSS SCENARIO REPORT"
        lines = [
            title,
            "=" * len(title),
            f"nodes:                   {self.nodes}",
            f"events published:        {self.events_published}",
            f"blocked by consent:      {self.events_blocked_by_consent}",
            f"notifications delivered: {self.notifications_delivered}",
            f"detail requests:         {self.detail_requests} "
            f"(permit {self.detail_permits} / deny {self.detail_denies})",
            f"endpoint calls:          {self.endpoint_calls}",
            f"subscriptions:           {self.subscriptions}",
            f"cross-node hops:         {self.cross_node_hops}",
            f"audit records:           {self.audit_records}",
            f"audit chains verified:   {self.audit_chains_verified}",
        ]
        for report in self.node_reports:
            lines.append(
                f"  {report.node_id}: index={report.index_entries} "
                f"audit={report.audit_records}"
            )
        lines.append(self.exposure.to_row())
        return "\n".join(lines)


def deploy_roster(platform, templates, producer_of, consumers) -> dict:
    """Install producers, event classes, consumers, policies, subscriptions.

    The one deployment routine behind every seeded run (the scenario, the
    workload harness, the wall-clock ledger): producers homed round-robin
    with each class on its producer's node, every ``(consumer_id, role)``
    of ``consumers`` registered, then — class by class — each consumer
    granted exactly its role's needed fields on the class's home node and
    subscribed through the platform.  ``producer_of`` maps each template
    name to its producer id, in declaration order.  Returns the declared
    event classes by template name.
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


def script_first_attempt_drops(platform: FederatedPlatform, drops: int) -> None:
    """Arm every link of ``platform`` to drop the first attempt of its next
    ``drops`` cross-node calls.  The shared toggle means the immediate
    retry of a dropped call always delivers, so the run completes while
    the drop counters — and the link-delivery SLO — record the
    degradation deterministically."""
    state = {"budget": drops, "drop_next": True}

    def hook(operation: str, payload: dict) -> bool:
        if state["budget"] <= 0:
            return False
        if state["drop_next"]:
            state["drop_next"] = False
            state["budget"] -= 1
            return True
        state["drop_next"] = True
        return False

    node_ids = platform.membership.node_ids
    for source in node_ids:
        for target in node_ids:
            if source != target:
                platform.membership.link(source, target).set_failure_hook(hook)


class CssScenario:
    """Builds and drives one full CSS deployment on ``config.nodes`` nodes."""

    def __init__(self, config: ScenarioConfig | None = None) -> None:
        self.config = config or ScenarioConfig()
        runtime = self.config.runtime or RuntimeConfig()
        observed = runtime.telemetry == "inmemory"
        per_node = observed and self.config.per_node_telemetry
        self.clock = Clock()
        self.telemetry = None
        if observed and not per_node:
            self.telemetry = InMemoryTelemetry(
                clock=self.clock,
                guard_mode=runtime.telemetry_guard,
                secret=f"css-federation-{self.config.seed}",
            )
        #: The facade every operation of the run goes through.
        self.platform = FederatedPlatform(
            shards=self.config.nodes,
            clock=self.clock,
            seed=f"fedsc-{self.config.seed}",
            runtime=runtime,
            telemetry=self.telemetry,
            per_node_telemetry=per_node,
        )
        #: Node-0's controller — the whole deployment on one node, and the
        #: controller whose telemetry and bus speak for the run on many.
        self.controller = self.platform.controller_of(
            self.platform.membership.node_ids[0])
        self.templates = standard_event_templates()
        self.population = SyntheticPopulation(
            self.config.n_patients, seed=self.config.seed
        )
        self.event_classes = deploy_roster(
            self.platform, self.templates,
            DEFAULT_PRODUCER_ASSIGNMENT, DEFAULT_CONSUMERS,
        )
        self.producers = {
            producer_id: self.platform.producer(producer_id)
            for producer_id in DEFAULT_PRODUCER_ASSIGNMENT.values()
        }
        self.ledger = DisclosureLedger("CSS (two-phase)")
        self.report = ScenarioReport(self.config.nodes, self.ledger.summary())
        self._rng = random.Random(self.config.seed + 1)
        if self.config.scripted_drops:
            script_first_attempt_drops(self.platform, self.config.scripted_drops)

    def generate_workload(self) -> list[WorkloadItem]:
        """The seeded workload for this configuration."""
        return WorkloadGenerator(seed=self.config.seed).generate(
            self.population,
            self.templates,
            self.config.n_events,
            mean_interarrival=self.config.mean_interarrival,
        )

    # -- run -----------------------------------------------------------------

    def steps(
        self, workload: list[WorkloadItem] | None = None,
    ) -> Iterator[tuple[WorkloadItem, NotificationMessage]]:
        """Publish each item, then let each entitled consumer draw a request.

        The one publish-then-request loop: yields ``(item, notification)``
        after each published item's requests-for-details, counting into
        ``self.report`` and recording every disclosure in ``self.ledger``.
        """
        platform, report, ledger = self.platform, self.report, self.ledger
        items = workload if workload is not None else self.generate_workload()
        for item in items:
            if item.offset_seconds > self.clock.now():
                self.clock.set(item.offset_seconds)
            notification = platform.publish(
                DEFAULT_PRODUCER_ASSIGNMENT[item.template_name],
                self.event_classes[item.template_name],
                subject_id=item.patient.patient_id,
                subject_name=item.patient.name,
                summary=item.summary,
                details=dict(item.details),
            )
            ledger.record_event()
            if notification is None:
                report.events_blocked_by_consent += 1
                continue
            report.events_published += 1
            ledger.add_bytes(len(notification.to_xml().encode()))

            template = self.templates[item.template_name]
            sensitive = set(template.build_schema().sensitive_fields)
            for consumer_id, role in DEFAULT_CONSUMERS:
                needed = template.needed_fields.get(role)
                if not needed or not platform.consumer(
                        consumer_id).is_subscribed_to(item.template_name):
                    continue
                if self._rng.random() >= self.config.detail_request_rate:
                    continue
                report.detail_requests += 1
                try:
                    detail = platform.request_details(
                        consumer_id, item.template_name,
                        notification.event_id, ROLE_PURPOSES[role],
                    )
                except AccessDeniedError:
                    report.detail_denies += 1
                    continue
                report.detail_permits += 1
                ledger.add_bytes(len(detail.to_xml().encode()))
                ledger.record_document(
                    receiver=consumer_id,
                    receiver_role=role,
                    event_type=item.template_name,
                    disclosed_fields=detail.exposed_values(),
                    sensitive_fields=sensitive,
                    needed_fields=set(needed),
                    traced=True,  # every request lands in an audit chain
                )
            yield item, notification

    def run(self, workload: list[WorkloadItem] | None = None) -> ScenarioReport:
        """Drive the workload, settle the platform, report."""
        for _ in self.steps(workload):
            pass
        platform, report = self.platform, self.report
        platform.dispatch_all()
        platform.flush_batches()  # barrier before reading cluster state
        members = platform.nodes()
        for node in members:
            node.controller.audit_log.verify_integrity()

        report.exposure = self.ledger.summary()
        report.notifications_delivered = sum(
            len(platform.consumer(cid).inbox) for cid, _ in DEFAULT_CONSUMERS
        )
        report.endpoint_calls = sum(
            node.controller.endpoints.total_calls() for node in members)
        report.subscriptions = sum(
            node.controller.bus.subscription_count for node in members)
        report.cross_node_hops = platform.total_hops()
        report.node_reports = [
            NodeReport(
                node_id=node.node_id,
                index_entries=len(node.controller.index),
                audit_records=len(node.controller.audit_log),
            )
            for node in members
        ]
        report.audit_records = sum(n.audit_records for n in report.node_reports)
        report.audit_chains_verified = True
        return report

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
                "runtime.telemetry='inmemory' and leave per_node_telemetry off"
            )
        engine = SLOEngine(self.telemetry)
        report = engine.evaluate()
        if alert:
            engine.alert(self.controller.bus, report)
        return report
