"""The workload run harness and the capacity trajectory built on it.

``run_workload`` is the single "build a federation from a config →
deploy → drive a seeded stream → barrier → digest" routine; the
capacity, fairness, incident and batch artifacts are reporters over the
:class:`WorkloadRun` it returns.

``run_capacity`` executes one workload scenario against a fresh
:class:`~repro.federation.platform.FederatedPlatform` at each requested
node count (1/2/4/8 by default) and assembles a ``BENCH_capacity.json``
payload (schema ``css-bench-capacity/1``):

* **sustained events/sec and details/sec** — operations over the cost
  model's cluster makespan (the busiest node's simulated busy time), the
  same throughput definition the federation benchmark uses;
* **p95/p99 latency** — *simulated* seconds read from the existing
  telemetry pipeline histograms (``pipeline.duration_seconds`` for the
  ``publish`` and ``request-details`` pipelines), not re-measured; a
  pipeline only advances the simulated clock on a link hop, so on one
  node these are identically zero (wall latency: ``benchmarks/wall``);
* **saturation high-water marks** — the broker's per-topic queue-depth
  and dead-letter high-water gauges, maxed across nodes;
* **audit digest** — a SHA-256 over every node's verified audit-chain
  head, the value two same-seed runs must reproduce bit-for-bit.

Privacy: the payload carries counts, rates, latencies and chain digests
only — never a subject id, subject name, or payload field value.  The
privacy-invariant tests grep the serialized payload (and the run's
telemetry exports) for the assisted-person id shape to keep it that way.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

from repro.clock import Clock
from repro.exceptions import AccessDeniedError
from repro.federation.platform import FederatedPlatform
from repro.obs.benchreport import LATENCY_KEYS
from repro.obs.telemetry import PIPELINE_DURATION, InMemoryTelemetry
from repro.runtime.kernel import RuntimeConfig
from repro.sim.scenario import deploy_roster
from repro.workload.config import CapacityConfig, WorkloadConfig
from repro.workload.engine import OP_DETAILS, OP_PUBLISH, WorkloadEngine

#: Schema identifier the capacity payload stamps and CI gates on.
SCHEMA_ID = "css-bench-capacity/1"

#: Pipeline histogram labels the latency sections are read from.
_PIPELINES = {"publish": "publish", "details": "request-details"}


def _latency_sections(telemetry: InMemoryTelemetry) -> dict[str, dict]:
    """p50/p95/p99/mean/min/max per pipeline from the run's histograms."""
    summaries = {
        labels.get("pipeline"): summary
        for labels, summary in telemetry.metrics.histogram_summaries(
            PIPELINE_DURATION
        )
    }
    sections: dict[str, dict] = {}
    for name, pipeline in _PIPELINES.items():
        summary = summaries.get(pipeline, {})
        sections[name] = {
            key: float(summary.get(key, 0.0)) for key in LATENCY_KEYS
        }
    return sections


def deploy_workload(
    platform: FederatedPlatform,
    engine: WorkloadEngine,
    workload: WorkloadConfig,
) -> dict[str, object]:
    """Install producers, event classes, tenants, policies, subscriptions.

    The workload roster through the one deployment routine
    (:func:`~repro.sim.scenario.deploy_roster`).  Returns the
    declared event classes by template name.
    """
    return deploy_roster(
        platform,
        engine.templates,
        {name: engine.producer_of(name) for name in engine.templates},
        [(tenant.tenant_id, tenant.role) for tenant in workload.tenants],
    )


def execute_workload(
    platform: FederatedPlatform,
    engine: WorkloadEngine,
    event_classes: dict[str, object],
    clock: Clock,
    on_advance=None,
    decision_log: list[str] | None = None,
) -> dict[str, int]:
    """Open-loop execution of the planned stream over the simulated clock.

    Returns the outcome counters (published / blocked / permits / denies /
    subscribes) shared by the capacity and fairness harnesses.
    ``on_advance`` (a no-arg callable) runs after every clock advance —
    the incident harness hooks its time-series ticking and watchdog
    polling there without the capacity path paying anything.
    ``decision_log`` (a caller-owned list) collects one outcome string
    per operation in stream order — the PDP decision stream the batch
    equivalence gate digests.
    """
    recent: dict[str, deque] = {
        name: deque(maxlen=64) for name in engine.templates
    }
    published = blocked = permits = denies = subscribes = 0
    for op in engine.plan():
        if op.at > clock.now():
            clock.set(op.at)
            if on_advance is not None:
                on_advance()
        if op.kind == OP_PUBLISH:
            notification = platform.publish(
                engine.producer_of(op.template),
                event_classes[op.template],
                subject_id=op.subject_id,
                subject_name=op.subject_name,
                summary=op.summary,
                details=dict(op.details or {}),
            )
            if notification is None:
                blocked += 1
                outcome = "publish:blocked"
            else:
                published += 1
                recent[op.template].append(notification.event_id)
                outcome = "publish:ok"
        elif op.kind == OP_DETAILS:
            window = recent[op.template]
            if not window:
                continue  # publish was consent-blocked; nothing to target
            target = window[-1 - min(op.target_recency, len(window) - 1)]
            try:
                platform.request_details(
                    op.tenant_id, op.template, target, op.purpose
                )
            except AccessDeniedError:
                denies += 1
                outcome = "details:deny"
            else:
                permits += 1
                outcome = "details:permit"
        else:  # subscribe churn
            platform.subscribe(op.tenant_id, op.template)
            subscribes += 1
            outcome = "subscribe"
        if decision_log is not None:
            decision_log.append(outcome)
    return {
        "published": published,
        "publish_blocked": blocked,
        "detail_permits": permits,
        "detail_denies": denies,
        "subscribe_ops": subscribes,
    }


def audit_digest(platform: FederatedPlatform) -> tuple[str, int]:
    """Verify every node's audit chain; digest the heads, count records.

    The digest is the scheduler-invariance witness: two same-seed runs —
    whatever their scheduler — must reproduce it bit-for-bit.
    """
    heads: list[str] = []
    audit_records = 0
    for node in platform.nodes():
        node.controller.audit_log.verify_integrity()
        heads.append(node.controller.audit_log.head_digest)
        audit_records += len(node.controller.audit_log)
    digest = "sha256:" + hashlib.sha256("|".join(heads).encode()).hexdigest()
    return digest, audit_records


@dataclass
class WorkloadRun:
    """One finished workload run: the live objects and its witnesses."""

    platform: FederatedPlatform
    clock: Clock
    telemetry: InMemoryTelemetry
    #: published / publish_blocked / detail_permits / detail_denies /
    #: subscribe_ops, as counted by :func:`execute_workload`.
    counters: dict[str, int] = field(default_factory=dict)
    #: SHA-256 over every node's *verified* audit-chain head.
    audit_digest: str = ""
    audit_records: int = 0
    #: SHA-256 over the ordered PDP outcome stream (``collect_decisions``).
    decision_digest: str | None = None


def run_workload(
    workload: WorkloadConfig,
    nodes: int,
    runtime: RuntimeConfig | None = None,
    *,
    sched_config=None,
    link_latency: float = 0.005,
    telemetry: InMemoryTelemetry | None = None,
    drain_seconds: float = 0.0,
    on_advance=None,
    collect_decisions: bool = False,
) -> WorkloadRun:
    """The one run harness behind every workload-driven BENCH artifact.

    Builds a fresh same-seed federation under ``runtime``, deploys the
    roster with its tenant weights, drives the planned stream open-loop
    over the simulated clock, then runs the end-of-run barrier — dispatch
    everything, advance the bounded ``drain_seconds`` window, flush
    coalesced frames and group commits, refresh the fairness and
    queue-depth gauges — and verifies and digests every audit chain.
    Capacity, fairness, incident and batch payloads are reporters over
    the returned :class:`WorkloadRun`.

    ``telemetry`` lets callers supply (and afterwards inspect) the shared
    backend; by default a fresh hash-guarded one is created.
    ``on_advance`` is called with the run in progress (platform, clock
    and telemetry set) after every clock advance.  With
    ``collect_decisions`` the run carries a ``decision_digest``.
    """
    clock = Clock()
    if telemetry is None:
        telemetry = InMemoryTelemetry(
            clock=clock,
            guard_mode="hash",
            secret=f"css-workload-{workload.seed}",
        )
    platform = FederatedPlatform(
        shards=nodes,
        clock=clock,
        seed=f"wl-{workload.scenario}-{workload.seed}",
        runtime=runtime or RuntimeConfig(),
        telemetry=telemetry,
        link_latency=link_latency,
        sched_config=sched_config,
    )
    engine = WorkloadEngine(workload)
    event_classes = deploy_workload(platform, engine, workload)
    for node in platform.nodes():
        for tenant in workload.tenants:
            node.controller.sched.set_weight(tenant.tenant_id, tenant.weight)
    run = WorkloadRun(platform, clock, telemetry)
    decision_log: list[str] | None = [] if collect_decisions else None
    run.counters = execute_workload(
        platform, engine, event_classes, clock,
        on_advance=None if on_advance is None else lambda: on_advance(run),
        decision_log=decision_log,
    )

    platform.dispatch_all()
    if drain_seconds:
        clock.advance(drain_seconds)
    # Group-commit barrier before anything reads cross-shard or on-disk
    # state: pending coalesced frames out, buffered durable rows down.
    platform.flush_batches()
    platform.record_fairness()
    platform.record_queue_depths()
    run.audit_digest, run.audit_records = audit_digest(platform)
    if decision_log is not None:
        run.decision_digest = "sha256:" + hashlib.sha256(
            "|".join(decision_log).encode()
        ).hexdigest()
    return run


def run_point(
    workload: WorkloadConfig,
    nodes: int,
    runtime: RuntimeConfig | None = None,
    telemetry: InMemoryTelemetry | None = None,
    collect_decisions: bool = False,
) -> dict:
    """One capacity measurement: the whole workload at one node count.

    With ``collect_decisions`` the point additionally carries the run's
    ``decision_digest`` — the second witness of the batch equivalence
    gate.
    """
    run = run_workload(workload, nodes, runtime, telemetry=telemetry,
                       collect_decisions=collect_decisions)
    members = run.platform.nodes()
    makespan = max(node.work.busy_seconds for node in members)
    busy = makespan if makespan > 0 else max(run.clock.now(), 1e-9)
    point = {
        "nodes": nodes,
        "ops": workload.ops,
        **run.counters,
        "events_per_second": run.counters["published"] / busy,
        "details_per_second": run.counters["detail_permits"] / busy,
        "makespan_seconds": makespan,
        "simulated_seconds": run.clock.now(),
        "cross_node_hops": run.platform.total_hops(),
        "latency_seconds": _latency_sections(run.telemetry),
        "queue_depth_high_water": max(
            node.controller.bus.queue_high_water() for node in members
        ),
        "dead_letter_high_water": max(
            node.controller.bus.dead_letter_high_water for node in members
        ),
        "audit_records": run.audit_records,
        "audit_digest": run.audit_digest,
    }
    if run.decision_digest is not None:
        point["decision_digest"] = run.decision_digest
    return point


def run_capacity(config: CapacityConfig, source: str) -> dict:
    """The full capacity trajectory: one point per node count."""
    workload = config.workload
    return {
        "schema": SCHEMA_ID,
        "source": source,
        "scenario": workload.scenario,
        "seed": workload.seed,
        "population": workload.population,
        "ops": workload.ops,
        "arrival": workload.arrival,
        "batch": config.runtime.batch,
        "batch_size": config.runtime.batch_size,
        "nodes": [
            run_point(workload, nodes, config.runtime)
            for nodes in config.node_counts
        ],
    }
