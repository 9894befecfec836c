"""Full-push pub/sub: details embedded in notifications.

The alternative the two-phase protocol replaces: keep the bus, but put the
complete detail message inside every notification.  Every subscriber then
receives every field of every event of the classes it follows — no
request step, no purpose statement, no field-level control.

Compared with CSS in ablation A1: full-push transfers *all* sensitive
fields to *all* subscribers regardless of whether they ever need the
details; two-phase transfers notifications plus only the requested,
policy-filtered details.  The crossover sits at a 100 % request rate with
policies granting every field — anywhere below that, two-phase wins on
sensitive bytes and exposure counts.
"""

from __future__ import annotations

from repro.baselines.common import (
    BaselineReport,
    document_bytes,
    full_disclosure,
    interested_consumers,
)
from repro.bus.broker import ServiceBus
from repro.sim.generators import EventTemplate, WorkloadItem
from repro.sim.metrics import DisclosureLedger


class FullPushBaseline:
    """Event bus with full details pushed in every notification."""

    system_name = "full-push pub/sub"

    def __init__(self, templates: dict[str, EventTemplate],
                 consumers: list[tuple[str, str]],
                 producer_assignment: dict[str, str]) -> None:
        self._templates = templates
        self._consumers = list(consumers)
        self._producer_assignment = dict(producer_assignment)
        self.bus = ServiceBus(strict_topics=False)
        self._received: list[tuple[str, str, str, WorkloadItem]] = []
        self._current_item: WorkloadItem | None = None
        self._subscribe_all()

    def _subscribe_all(self) -> None:
        for template_name, template in self._templates.items():
            topic = f"events.{template.category}.{template_name}"
            self.bus.declare_topic(topic)
            for consumer_id, role in interested_consumers(template, self._consumers):
                def deliver(envelope, consumer_id=consumer_id, role=role,
                            template_name=template_name):
                    assert self._current_item is not None
                    self._received.append(
                        (consumer_id, role, template_name, self._current_item)
                    )

                self.bus.subscribe(consumer_id, topic, deliver)

    def run(self, workload: list[WorkloadItem]) -> BaselineReport:
        """Publish every event with its full details on the bus."""
        ledger = DisclosureLedger(self.system_name)
        self._received.clear()
        for item in workload:
            template = self._templates[item.template_name]
            producer_id = self._producer_assignment[item.template_name]
            topic = f"events.{template.category}.{item.template_name}"
            ledger.record_event()
            self._current_item = item
            self.bus.publish(topic, producer_id, dict(item.details))
        self._current_item = None

        for consumer_id, role, template_name, item in self._received:
            template = self._templates[template_name]
            # Central bus: deliveries are traceable, but the payload is the
            # full record.
            full_disclosure(ledger, template, item, consumer_id, role, traced=True)
            ledger.add_bytes(document_bytes(item.details))
        return BaselineReport(
            exposure=ledger.summary(),
            connections=self.bus.subscription_count,
        )
