"""Point-to-point synchronous SOA integration.

"One of the major problems of the SOA pattern is the point-to-point
synchronous interaction that is established between involved actors" (§3).

Model: every producer maintains a dedicated web-service connector to every
interested consumer and invokes it synchronously for each event, pushing
the full detail document (field-level redaction would require each producer
to implement per-consumer filtering — precisely the burden the paper says
sources cannot carry).  Each system keeps only a local log, so there is no
*central* trace: the guarantor-visible traced fraction is zero.

The headline measure is the **connector count**: O(producers × consumers)
standing integrations versus the bus's O(producers + consumers).
"""

from __future__ import annotations

from repro.baselines.common import (
    BaselineReport,
    document_bytes,
    full_disclosure,
    interested_consumers,
)
from repro.bus.endpoints import EndpointRegistry
from repro.sim.generators import EventTemplate, WorkloadItem
from repro.sim.metrics import DisclosureLedger


class PointToPointSoaBaseline:
    """N×M synchronous web-service integration."""

    system_name = "point-to-point SOA"

    def __init__(self, templates: dict[str, EventTemplate],
                 consumers: list[tuple[str, str]],
                 producer_assignment: dict[str, str]) -> None:
        self._templates = templates
        self._consumers = list(consumers)
        self._producer_assignment = dict(producer_assignment)
        self.endpoints = EndpointRegistry()
        self._connectors: set[tuple[str, str]] = set()
        self._build_connectors()

    def _build_connectors(self) -> None:
        # One standing connector per (producer, interested consumer) pair.
        for template_name, producer_id in self._producer_assignment.items():
            template = self._templates[template_name]
            for consumer_id, role in interested_consumers(template, self._consumers):
                pair = (producer_id, consumer_id)
                if pair in self._connectors:
                    continue
                self._connectors.add(pair)
                self.endpoints.expose(
                    f"p2p.{producer_id}.to.{consumer_id}",
                    lambda payload: payload,  # the consumer just receives
                    f"dedicated connector {producer_id} -> {consumer_id}",
                )

    @property
    def connector_count(self) -> int:
        """Number of standing point-to-point connectors."""
        return len(self._connectors)

    def run(self, workload: list[WorkloadItem]) -> BaselineReport:
        """Push every event through the dedicated connectors."""
        ledger = DisclosureLedger(self.system_name)
        for item in workload:
            template = self._templates[item.template_name]
            producer_id = self._producer_assignment[item.template_name]
            ledger.record_event()
            for consumer_id, role in interested_consumers(template, self._consumers):
                self.endpoints.call(
                    f"p2p.{producer_id}.to.{consumer_id}", item.details
                )
                full_disclosure(ledger, template, item, consumer_id, role, traced=False)
                ledger.add_bytes(document_bytes(item.details))
        return BaselineReport(
            exposure=ledger.summary(),
            connections=self.connector_count,
        )
