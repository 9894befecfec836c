"""The incident-capture harness: anomaly workload + watchdogs + bundles.

``run_incident_capture`` drives one workload scenario (the abusive-tenant
``anomaly`` preset by default) against a fresh federation with the flight
recorder on (``recorder="ring"``), a windowed time-series store ticking
on the simulated clock, the SLO engine evaluating with short/long burn
windows, and an :class:`~repro.obs.incident.IncidentMonitor` polling its
watchdogs after every clock advance.  The first trigger freezes every
node's recorder and produces a deterministic ``css-incident/1`` bundle;
same-seed runs write byte-identical bundle files.

The fault is real: the first attempt of :data:`LINK_DROPS` cross-node
calls is dropped (and retried), so the link-delivery objective burns its
budget — exactly the condition an operator would want a flight-recorder
trail for.  Both arms, recorder on and off, run the same drops.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.incident import (
    CORE_SERIES,
    IncidentMonitor,
    WatchdogConfig,
    merged_timeline,
    write_bundle,
)
from repro.obs.slo import SLOEngine, default_objectives
from repro.obs.timeseries import TimeSeriesStore
from repro.runtime.kernel import RuntimeConfig
from repro.sim.scenario import script_first_attempt_drops
from repro.workload.capacity import WorkloadRun, run_workload
from repro.workload.config import WorkloadConfig, workload_config

#: Time-series snapshot cadence (simulated seconds).
TICK_INTERVAL = 0.25
#: Short/long SLO burn windows, sized to the anomaly run's ~5 simulated
#: seconds of traffic (the stock 5 s / 60 s windows would both span the
#: whole run).
SHORT_WINDOW = 1.0
LONG_WINDOW = 5.0
#: Federation size of a watched run.
DEFAULT_NODES = 2
#: Simulated seconds the end-of-run barrier drains for.
DRAIN_SECONDS = 2.0
#: Cross-node calls whose first attempt is dropped, from the first op on.
LINK_DROPS = 4


class _Watch:
    """The watched-run apparatus: time-series store, SLO engine, monitor.

    An ``on_advance`` hook of :func:`run_workload`.  It arms itself on the
    first clock advance — the platform exists, nothing has executed yet —
    and from then on runs on the tick cadence, not on every advance:
    snapshot the series its readers read, poll the watchdogs.  Detection
    latency is one tick interval, and the per-advance cost is one float
    compare — the overhead benchmark's <5 % gate depends on it.
    """

    def __init__(self, watchdogs: WatchdogConfig | None, source: str) -> None:
        self.watchdogs = watchdogs
        self.source = source
        self.due = 0.0
        self.timeseries: TimeSeriesStore | None = None
        self.monitor: IncidentMonitor | None = None

    def _arm(self, run: WorkloadRun) -> None:
        platform = run.platform
        objectives = default_objectives()
        # Sample only what is read: the bundle's saturation series and
        # every objective's counters and gauges.
        self.timeseries = TimeSeriesStore(
            run.telemetry.metrics, run.clock,
            (*CORE_SERIES, *(name for objective in objectives
                             for name in (objective.metric,
                                          objective.bad_metric) if name)),
            interval=TICK_INTERVAL,
        )
        recorders = platform.flight_recorders()
        slo = SLOEngine(
            run.telemetry,
            objectives=objectives,
            timeseries=self.timeseries,
            recorder=recorders[min(recorders)] if recorders else None,
            short_window=SHORT_WINDOW,
            long_window=LONG_WINDOW,
        )
        self.monitor = IncidentMonitor(
            platform,
            timeseries=self.timeseries,
            slo=slo,
            clock=run.clock,
            config=self.watchdogs,
            source=self.source,
            alert_bus=platform.nodes()[0].controller.bus,
        )

    def __call__(self, run: WorkloadRun) -> None:
        if self.monitor is None:
            self._arm(run)
        now = run.clock.now()
        if now >= self.due:
            self.due = now + TICK_INTERVAL
            self.timeseries.maybe_tick()
            self.monitor.poll()

    def finish(self, run: WorkloadRun) -> None:
        """The end-of-run sample and watchdog poll (after the barrier)."""
        if self.monitor is None:  # a run that never advanced the clock
            self._arm(run)
        self.timeseries.tick()
        self.monitor.poll()


def run_incident_capture(
    workload: WorkloadConfig | None = None,
    nodes: int = DEFAULT_NODES,
    recorder: str = "ring",
    watchdogs: WatchdogConfig | None = None,
    source: str = "repro.workload.incidents",
    out_dir: str | Path | None = None,
) -> dict:
    """One watched workload run; returns the run payload.

    The payload carries the run counters, the captured incident bundles
    (plain data; written under ``out_dir`` when given) and the merged
    cross-node recorder timeline.  ``recorder="noop"`` runs the same
    workload with recording off — the overhead benchmark's baseline arm.
    """
    workload = workload or workload_config("anomaly")
    watch = _Watch(watchdogs, source) if recorder != "noop" else None
    armed = False

    def on_advance(run: WorkloadRun) -> None:
        nonlocal armed
        if not armed:  # the first advance: deployed, nothing run yet
            script_first_attempt_drops(run.platform, LINK_DROPS)
            armed = True
        if watch is not None:
            watch(run)

    run = run_workload(
        workload, nodes, RuntimeConfig(recorder=recorder),
        drain_seconds=DRAIN_SECONDS, on_advance=on_advance,
    )
    if watch is not None:
        watch.finish(run)

    bundle_paths: list[str] = []
    incidents = watch.monitor.incidents if watch is not None else []
    if out_dir is not None:
        for bundle in incidents:
            bundle_paths.append(str(write_bundle(out_dir, bundle)))
    return {
        "scenario": workload.scenario,
        "seed": workload.seed,
        "nodes": nodes,
        "ops": workload.ops,
        "recorder": recorder,
        **run.counters,
        "simulated_seconds": run.clock.now(),
        "ticks": watch.timeseries.ticks if watch is not None else 0,
        "incidents": incidents,
        "bundle_paths": bundle_paths,
        "timeline": merged_timeline(run.platform),
    }
