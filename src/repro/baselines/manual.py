"""The Fig. 1 status quo: manual document exchange.

"The providers communicate mainly via documents or mail and, in some cases,
by email.  Most of the times the patients themselves should bring their
documents from office to office. ... In this scenario is easy to have
unintentional privacy breaches, as the data owners ... do not have any
fine-grained control on the data they exchange ... there is no way to trace
how data is used by whom and for what purpose" (§2).

Model: for every event, the producer prints the *complete* detail document
and sends a copy to every interested party (and the governing body receives
its reporting copy through the same channel).  Nothing is filtered, nothing
is traced.
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


class ManualExchangeBaseline:
    """Paper/fax/email document exchange (the pre-CSS world)."""

    system_name = "manual (Fig. 1)"

    def __init__(self, templates: dict[str, EventTemplate],
                 consumers: list[tuple[str, str]]) -> None:
        self._templates = templates
        self._consumers = list(consumers)

    def run(self, workload: list[WorkloadItem]) -> BaselineReport:
        """Exchange every event as full paper documents."""
        ledger = DisclosureLedger(self.system_name)
        channels: set[tuple[str, str]] = set()
        for item in workload:
            template = self._templates[item.template_name]
            ledger.record_event()
            receivers = interested_consumers(template, self._consumers)
            for consumer_id, role in receivers:
                # A full photocopy of the record goes out; nobody redacts,
                # nobody logs.
                full_disclosure(ledger, template, item, consumer_id, role, traced=False)
                ledger.add_bytes(document_bytes(item.details))
                channels.add((template.name, consumer_id))
        return BaselineReport(
            exposure=ledger.summary(),
            connections=len(channels),
        )
