"""Automatic incident capture: watchdogs, frozen recorders, bundles.

When the platform misbehaves — an SLO burns its budget, the dead-letter
queue spikes, a node's backlog crosses a ceiling, a tenant lands in the
penalty box — the :class:`IncidentMonitor` freezes every node's flight
recorder (so the minutes *before* the trigger survive) and writes one
deterministic, schema-versioned **incident bundle**
(:data:`INCIDENT_SCHEMA`):

* the trigger (kind, simulated time, measured detail);
* the full SLO report, including short/long-window attainment;
* the windowed **burn-rate trajectory** of the breached objective,
  reconstructed from time-series samples;
* the retained time-series points of the platform's saturation metrics;
* the recorders' recent events and spans, merged across nodes by the
  same discipline the trace stitcher uses (sort by deterministic keys);
* per-node queue and scheduler state (tenant keys guard-hashed).

Everything in a bundle is built from already-sanitized telemetry — the
privacy guard hashed identifying labels on ingest — so the bundle can be
exported to an operator without widening the privacy surface.  On disk a
bundle is a directory with ``incident.json``, ``events.jsonl``,
``series.jsonl`` and a sha256 ``manifest.json`` written by the snapshot
machinery's :func:`~repro.storage.snapshot.describe`, so tampering is
detectable the same way a storage snapshot's is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.crypto.hashing import canonical_json
from repro.obs.slo import windowed_burn_series

#: Schema identifier of one incident bundle.
INCIDENT_SCHEMA = "css-incident/1"

#: Watchdog trigger kinds.
TRIGGER_SLO_BREACH = "slo-breach"
TRIGGER_DEADLETTER_SPIKE = "deadletter-spike"
TRIGGER_QUEUE_CEILING = "queue-depth-ceiling"
TRIGGER_DEMOTION = "penalty-demotion"

#: The saturation metrics every bundle exports windowed series for.
CORE_SERIES = (
    "bus.queue.depth",
    "bus.published_total",
    "bus.deadletter_total",
    "federation.node.queue_depth",
    "sched.tenant.starvation_seconds",
)

#: The objective whose burn trajectory explains each non-SLO trigger —
#: so every bundle carries a windowed burn-rate series, whichever
#: watchdog fired first.
TRIGGER_OBJECTIVES = {
    TRIGGER_DEADLETTER_SPIKE: "bus-deadletter-ratio",
    TRIGGER_QUEUE_CEILING: "node-queues-drained",
    TRIGGER_DEMOTION: "tenant-starvation",
}

#: Files inside one bundle directory.
BUNDLE_FILE = "incident.json"
EVENTS_FILE = "events.jsonl"
SERIES_FILE = "series.jsonl"
MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds the incident monitor polls against."""

    #: Dead letters parked across the platform before the spike fires.
    dead_letter_spike: int = 16
    #: Total bus backlog (all nodes) before the ceiling fires.
    queue_depth_ceiling: int = 512
    #: Whether a penalty-box demotion fires an incident.
    watch_demotions: bool = True
    #: Whether SLO breaches fire an incident (needs an SLO engine).
    watch_slo: bool = True
    #: Simulated seconds between SLO evaluations during polling.
    slo_eval_interval: float = 1.0


class IncidentMonitor:
    """Watches one platform and captures a bundle on the first trigger.

    The monitor is **one-shot by design**: an incident freezes the
    recorders, so everything after the first trigger describes a frozen
    platform — later triggers would capture the same rings again.
    ``poll()`` is cheap when nothing fires (a handful of integer
    comparisons plus a rate-limited SLO evaluation), so harnesses call
    it from the workload loop on every clock advance.
    """

    def __init__(
        self,
        platform,
        timeseries=None,
        slo=None,
        clock=None,
        config: WatchdogConfig | None = None,
        source: str = "",
        alert_bus=None,
    ) -> None:
        self.platform = platform
        self.timeseries = timeseries
        self.slo = slo
        self.clock = clock if clock is not None else platform.clock
        self.config = config or WatchdogConfig()
        self.source = source
        #: Bus breach alerts are published on (usually node 0's); None
        #: skips alert publication and only records/captures.
        self.alert_bus = alert_bus
        self.incidents: list[dict] = []
        self._last_slo_eval: float | None = None
        self._baseline_demotions = self._total_demotions()

    # -- platform-wide readings ---------------------------------------------

    def _total_queue_depth(self) -> int:
        return sum(node.controller.bus.queue_depth
                   for node in self.platform.nodes())

    def _total_dead_letters(self) -> int:
        return sum(node.controller.bus.dead_letter_depth
                   for node in self.platform.nodes())

    def _total_demotions(self) -> int:
        return sum(node.controller.sched.demotions_total
                   for node in self.platform.nodes()
                   if node.controller.sched is not None)

    # -- polling -------------------------------------------------------------

    def poll(self) -> dict | None:
        """Check every watchdog; capture and return a bundle on the first
        trigger (None while healthy or after the incident)."""
        if self.incidents:
            return None
        config = self.config
        dead_letters = self._total_dead_letters()
        if dead_letters >= config.dead_letter_spike:
            return self._capture(TRIGGER_DEADLETTER_SPIKE, {
                "dead_letters": dead_letters,
                "threshold": config.dead_letter_spike,
            })
        depth = self._total_queue_depth()
        if depth >= config.queue_depth_ceiling:
            return self._capture(TRIGGER_QUEUE_CEILING, {
                "queue_depth": depth,
                "threshold": config.queue_depth_ceiling,
            })
        if config.watch_demotions:
            demotions = self._total_demotions()
            if demotions > self._baseline_demotions:
                return self._capture(TRIGGER_DEMOTION, {
                    "demotions": demotions,
                    "baseline": self._baseline_demotions,
                })
        if config.watch_slo and self.slo is not None:
            now = self.clock.now()
            if (self._last_slo_eval is None
                    or now - self._last_slo_eval >= config.slo_eval_interval):
                self._last_slo_eval = now
                report = self.slo.evaluate()
                breaches = report.breaches()
                if breaches:
                    if self.alert_bus is not None:
                        self.slo.alert(self.alert_bus, report)
                    return self._capture(TRIGGER_SLO_BREACH, {
                        "objectives": [s.objective.name for s in breaches],
                        "worst_burn_rate": max(
                            round(s.burn_rate, 9) for s in breaches
                        ),
                    }, report=report)
        return None

    # -- capture -------------------------------------------------------------

    def _capture(self, kind: str, detail: dict, report=None) -> dict:
        frozen = {
            node_id: recorder.freeze()
            for node_id, recorder in sorted(
                self.platform.flight_recorders().items())
        }
        if report is None and self.slo is not None:
            report = self.slo.evaluate()
        bundle = build_bundle(
            self.platform,
            trigger_kind=kind,
            trigger_detail=detail,
            frozen=frozen,
            timeseries=self.timeseries,
            slo=self.slo,
            report=report,
            incident_id=f"incident-{len(self.incidents) + 1:04d}",
            source=self.source,
            captured_at=self.clock.now(),
        )
        self.incidents.append(bundle)
        return bundle


def merge_events(per_node: dict[str, list[dict]]) -> list[dict]:
    """Merge per-node recorder rows into one total order.

    The stitching discipline: tag each row with its node, then sort by
    the deterministic ``(at, node, seq)`` key — simulated time first,
    node id and ring sequence breaking ties — so the merged timeline is
    byte-identical no matter which node's ring is read first.
    """
    merged: list[dict] = []
    for node_id in sorted(per_node):
        merged.extend(dict(row, node=node_id) for row in per_node[node_id])
    merged.sort(key=lambda row: (row["at"], row["node"], row["seq"]))
    return merged


def build_bundle(
    platform,
    trigger_kind: str,
    trigger_detail: dict,
    frozen: dict[str, dict],
    timeseries=None,
    slo=None,
    report=None,
    incident_id: str = "incident-0001",
    source: str = "",
    captured_at: float = 0.0,
) -> dict:
    """Assemble one ``css-incident/1`` bundle as plain data."""
    now = captured_at
    queues: dict[str, dict] = {}
    scheduler: dict[str, dict] = {}
    for node in platform.nodes():
        bus = node.controller.bus
        queues[node.node_id] = {
            "queue_depth": bus.queue_depth,
            "dead_letter_depth": bus.dead_letter_depth,
            "queue_high_water": bus.queue_high_water(),
            "dead_letter_high_water": bus.dead_letter_high_water,
        }
        sched = node.controller.sched
        if sched is not None:
            hashed = {}
            for tenant, row in sorted(sched.tenant_report(now).items()):
                key = sched.tenant_label(tenant)
                hashed[key] = {
                    "weight": row["weight"],
                    "served": row["served"],
                    "pending": row["pending"],
                    "throttled": row["throttled"],
                    "shed": row["shed"],
                    "penalized": row["penalized"],
                    "demotions": row["demotions"],
                    "recoveries": row["recoveries"],
                    "starvation_seconds": round(row["starvation_seconds"], 9),
                }
            scheduler[node.node_id] = {
                "policy": sched.policy,
                "tenants": hashed,
            }
    burn_rates: dict[str, dict] = {}
    slo_payload = None
    if report is not None:
        slo_payload = report.to_payload()
    burn_objectives: list = []
    if slo is not None and timeseries is not None:
        if report is not None:
            burn_objectives.extend(s.objective for s in report.breaches())
        associated = TRIGGER_OBJECTIVES.get(trigger_kind)
        for objective in slo.objectives:
            if objective.name == associated and objective not in burn_objectives:
                burn_objectives.append(objective)
        for objective in burn_objectives:
            burn_rates[objective.name] = {
                "short": windowed_burn_series(
                    timeseries, objective, slo.short_window),
                "long": windowed_burn_series(
                    timeseries, objective, slo.long_window),
            }
    series: list[dict] = []
    if timeseries is not None:
        wanted = set(CORE_SERIES)
        wanted.update(objective.metric for objective in burn_objectives)
        series = timeseries.export_rows(names=sorted(wanted))
    return {
        "schema": INCIDENT_SCHEMA,
        "incident_id": incident_id,
        "source": source,
        "captured_at": captured_at,
        "trigger": {
            "kind": trigger_kind,
            "at": captured_at,
            "detail": trigger_detail,
        },
        "slo": slo_payload,
        "burn_rates": burn_rates,
        "series": series,
        "events": merge_events({
            node_id: snap["events"] for node_id, snap in frozen.items()
        }),
        "spans": merge_events({
            node_id: snap["spans"] for node_id, snap in frozen.items()
        }),
        "queues": {
            **queues,
            "totals": {
                "queue_depth": sum(q["queue_depth"] for q in queues.values()),
                "dead_letter_depth": sum(
                    q["dead_letter_depth"] for q in queues.values()),
            },
        },
        "scheduler": scheduler,
        "recorder": {
            node_id: {
                "dropped_events": snap["dropped_events"],
                "dropped_spans": snap["dropped_spans"],
            }
            for node_id, snap in frozen.items()
        },
    }


def merged_timeline(platform) -> list[dict]:
    """Every node recorder's events + spans as one stitched timeline."""
    per_node: dict[str, list[dict]] = {}
    for node_id, recorder in sorted(platform.flight_recorders().items()):
        per_node[node_id] = recorder.timeline()
    return merge_events(per_node)


def write_bundle(root: str | Path, bundle: dict) -> Path:
    """Write one bundle directory under ``root`` and return its path.

    Layout: ``<root>/<incident_id>/`` holding ``incident.json`` (sorted,
    indented — the operator-facing document), ``events.jsonl`` and
    ``series.jsonl`` (canonical-JSON lines for machine diffing), plus a
    ``manifest.json`` of per-file sha256 digests — the file manifest the
    storage snapshots write.  Every file is written atomically so a crash
    mid-export can't leave a torn bundle that still looks complete.
    """
    # Imported here, not at module level: repro.storage pulls in the
    # controller stack, and ``repro.obs`` must stay importable from it.
    from repro.storage.jsonl import write_atomic
    from repro.storage.snapshot import describe

    directory = Path(root) / bundle["incident_id"]
    write_atomic(directory / BUNDLE_FILE,
                 json.dumps(bundle, sort_keys=True, indent=2) + "\n")
    write_atomic(directory / EVENTS_FILE, "".join(
        canonical_json(row) + "\n" for row in bundle["events"]
    ))
    write_atomic(directory / SERIES_FILE, "".join(
        canonical_json(row) + "\n" for row in bundle["series"]
    ))
    manifest = {
        "schema": INCIDENT_SCHEMA,
        "incident_id": bundle["incident_id"],
        "files": describe(directory, (BUNDLE_FILE, EVENTS_FILE, SERIES_FILE)),
    }
    write_atomic(directory / MANIFEST_FILE,
                 json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return directory
