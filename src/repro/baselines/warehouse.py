"""Centralized data-warehouse replication.

"Performing process analysis via a traditional data warehousing approach is
not feasible as it would be too complex to dive into each of the
information sources" (§1) — and, worse, the national regulation "prohibits
the duplication of sensitive information outside the control of the data
owner" (§4).

Model: every event's full detail document is ETL-replicated into a central
store; consumers query the store.  Accesses *are* centrally traced (the
warehouse can log queries), but every sensitive value now exists outside
its owner — the compliance violation the CSS architecture is built to
avoid.  The benchmark reports that duplication count.
"""

from __future__ import annotations

from repro.baselines.common import (
    BaselineReport,
    document_bytes,
    full_disclosure,
    interested_consumers,
)
from repro.sim.generators import EventTemplate, WorkloadItem
from repro.sim.metrics import DisclosureLedger


class WarehouseBaseline:
    """Full ETL replication into a central warehouse."""

    system_name = "central warehouse"

    def __init__(self, templates: dict[str, EventTemplate],
                 consumers: list[tuple[str, str]]) -> None:
        self._templates = templates
        self._consumers = list(consumers)
        self.store: list[tuple[str, dict[str, object]]] = []

    def run(self, workload: list[WorkloadItem],
            query_rate: float = 1.0) -> BaselineReport:
        """Replicate every event centrally, then serve consumer queries.

        ``query_rate`` scales how much of the replicated data consumers
        actually read; duplication happens regardless — that is the point.
        """
        ledger = DisclosureLedger(self.system_name)
        duplicated_sensitive = 0
        read_quota = int(round(query_rate * len(workload)))
        for index, item in enumerate(workload):
            template = self._templates[item.template_name]
            schema = template.build_schema()
            ledger.record_event()
            # ETL load: the full record leaves the owner.
            self.store.append((item.template_name, dict(item.details)))
            ledger.add_bytes(document_bytes(item.details))
            duplicated_sensitive += sum(
                1
                for name in schema.sensitive_fields
                if item.details.get(name) is not None
            )
            if index >= read_quota:
                continue
            # Query phase: interested consumers read the full row.
            for consumer_id, role in interested_consumers(template, self._consumers):
                full_disclosure(ledger, template, item, consumer_id, role, traced=True)
                ledger.add_bytes(document_bytes(item.details))
        return BaselineReport(
            exposure=ledger.summary(),
            connections=len({t for t, _ in self.store}),  # one ETL feed per class
            duplicated_sensitive_values=duplicated_sensitive,
        )
