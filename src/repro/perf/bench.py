"""Shared core of the hot-path performance benchmark (``BENCH_perf.json``).

One module, two drivers: ``benchmarks/bench_perf_hotpath.py`` (the CI
trajectory script) and the ``repro perf`` CLI both call these functions,
so the measured paths and the summary shape cannot drift apart.

Three figures, each run in both ``perf`` modes on identical seeded work:

* **PDP decide** — repeated authorization decisions against a policy
  class with many candidate policies (``indexed``: policy index +
  versioned decision cache; ``none``: full linear compile-and-evaluate);
* **publish fan-out** — broker publishes against a population of
  exact/``*``/``#`` subscriptions (``indexed``: segment trie + fan-out
  memo; ``none``: linear ``topic_matches`` scan);
* **federated request-for-details** at 1/2/4/8 nodes — the end-to-end
  two-phase exchange over a federated deployment.

Timing is wall-clock (``time.perf_counter``) because these paths are pure
computation — the simulated clock never advances inside them.  The
equivalence check re-runs the standard scenario in both modes and
compares reports and full audit payloads, so a speedup can never be
bought with a changed decision.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.benchreport import latency_summary

#: Schema identifier stamped on BENCH_perf.json and required by
#: ``benchmarks/check_bench.py``.
SCHEMA_ID = "css-bench-perf/1"

#: The perf modes every figure compares.
MODES = ("indexed", "none")

#: Node counts of the federated request-for-details figure.
DEFAULT_NODE_COUNTS = (1, 2, 4, 8)


def measure(op: Callable[[], object], iterations: int,
            warmup: int = 0) -> dict:
    """ops/sec + latency percentiles of ``iterations`` calls to ``op``."""
    for _ in range(warmup):
        op()
    timings: list[float] = []
    append = timings.append
    clock = time.perf_counter
    total_start = clock()
    for _ in range(iterations):
        started = clock()
        op()
        append(clock() - started)
    elapsed = max(clock() - total_start, 1e-9)
    timings.sort()
    return {
        "iterations": iterations,
        "ops_per_second": iterations / elapsed,
        "latency_seconds": latency_summary(timings),
    }


# -- figure 1: PDP decide ---------------------------------------------------


def build_decide_rig(perf: str, policies: int = 32,
                     seed: str = "perf-bench") -> tuple[object, list]:
    """A controller plus a cycle of permit/deny detail requests.

    Policy #0 authorizes the benchmark consumer; the other ``policies-1``
    target unrelated actors — the candidate set the linear matcher must
    walk and the policy index prunes.  The request cycle mixes the
    authorized consumer with unknown actors so both outcomes (and the
    deny-by-default path) are measured.
    """
    from repro import DataConsumer, DataController, DataProducer
    from repro.core.actors import Actor, ActorKind
    from repro.core.enforcement import DetailRequest
    from repro.runtime.kernel import RuntimeConfig
    from repro.sim.generators import standard_event_templates

    controller = DataController(seed=seed, runtime=RuntimeConfig(perf=perf))
    producer = DataProducer(controller, "Hospital", "Hospital")
    template = standard_event_templates()["BloodTest"]
    event_class = producer.declare_event_class(template.build_schema())
    consumer = DataConsumer(controller, "Doctor", "Doctor", role="family-doctor")
    producer.define_policy(
        "BloodTest", fields=["PatientId", "Name", "Hemoglobin"],
        consumers=[("Doctor", "unit")], purposes=["healthcare-treatment"],
    )
    for index in range(max(policies - 1, 0)):
        producer.define_policy(
            "BloodTest", fields=["Hemoglobin"],
            consumers=[(f"Other-{index}", "unit")],
            purposes=["statistical-analysis"],
        )
    notification = producer.publish(
        event_class, subject_id="pat-1", subject_name="Mario Bianchi",
        summary="blood test completed",
        details={"PatientId": "pat-1", "Name": "Mario", "Surname": "Bianchi",
                 "Hemoglobin": 13.9, "Glucose": 92.0, "Cholesterol": 180.0,
                 "HivResult": "negative"},
    )
    requests = [DetailRequest(
        actor=consumer.actor, event_type="BloodTest",
        event_id=notification.event_id, purpose="healthcare-treatment",
    )]
    for index in range(3):
        stranger = Actor(
            actor_id=f"Stranger-{index}", name=f"Stranger {index}",
            kind=ActorKind.CONSUMER, role="unit",
        )
        requests.append(DetailRequest(
            actor=stranger, event_type="BloodTest",
            event_id=notification.event_id, purpose="healthcare-treatment",
        ))
    return controller, requests


def run_pdp_decide(perf: str, policies: int = 32, iterations: int = 4000,
                   seed: str = "perf-bench") -> dict:
    """Time ``PolicyEnforcer.decide`` over the permit/deny request cycle."""
    controller, requests = build_decide_rig(perf, policies=policies, seed=seed)
    enforcer = controller.enforcer
    cycle = {"position": 0}

    def op() -> bool:
        request = requests[cycle["position"] % len(requests)]
        cycle["position"] += 1
        return enforcer.decide(request)

    result = measure(op, iterations, warmup=len(requests))
    result["policies"] = policies
    stats = controller.perf.stats if controller.perf is not None else None
    result["cache"] = {
        "decision_hits": stats.hits.get("decision", 0) if stats else 0,
        "decision_misses": stats.misses.get("decision", 0) if stats else 0,
    }
    return result


# -- figure 2: publish fan-out ----------------------------------------------


def build_fanout_rig(perf: str, subscribers: int = 64,
                     topics: int = 12) -> tuple[object, list[str]]:
    """A broker with a mixed exact/``*``/``#`` subscription population."""
    from repro.bus.broker import ServiceBus
    from repro.perf import PerfLayer

    layer = PerfLayer() if perf == "indexed" else None
    bus = ServiceBus(perf=layer)
    topic_names = [
        f"events.cat{index % 4}.Class{index}" for index in range(topics)
    ]
    for topic in topic_names:
        bus.declare_topic(topic)

    def handler(envelope) -> None:
        return None

    patterns = ["events.#", "events.cat0.*", "events.cat1.*",
                "events.cat2.*", "events.cat3.*"]
    for index in range(subscribers):
        if index % 3 == 0:
            pattern = patterns[index % len(patterns)]
        else:
            pattern = topic_names[index % len(topic_names)]
        bus.subscribe(f"consumer-{index}", pattern, handler)
    return bus, topic_names


def run_publish_fanout(perf: str, subscribers: int = 64,
                       iterations: int = 1500, topics: int = 12) -> dict:
    """Time broker publishes (match + enqueue + dispatch) per mode."""
    bus, topic_names = build_fanout_rig(perf, subscribers=subscribers,
                                        topics=topics)
    cycle = {"position": 0}

    def op() -> object:
        topic = topic_names[cycle["position"] % len(topic_names)]
        cycle["position"] += 1
        return bus.publish(topic, sender="bench", body="<event/>")

    result = measure(op, iterations, warmup=len(topic_names))
    result["subscribers"] = subscribers
    result["fanned_out"] = bus.stats.fanned_out
    return result


def run_batch_publish_sweep(
    sizes: tuple[int, ...] = (1, 16, 256),
    messages: int = 1536,
    subscribers: int = 64,
    topics: int = 12,
) -> dict:
    """Wall-clock sweep of ``publish_many`` batch sizes vs per-call publish.

    Pushes the same ``messages`` stream through the fan-out rig once via
    sequential :meth:`~repro.bus.broker.ServiceBus.publish` (the
    baseline) and once per batch size via
    :meth:`~repro.bus.broker.ServiceBus.publish_many` in ``size``-long
    chunks.  Amortization measured: one trie resolution per distinct
    topic per chunk and one dispatch round per chunk instead of one of
    each per message.
    """
    def stream() -> list[tuple[str, str, object]]:
        bus, topic_names = build_fanout_rig(
            "indexed", subscribers=subscribers, topics=topics,
        )
        items = [
            (topic_names[position % len(topic_names)], "bench", "<event/>")
            for position in range(messages)
        ]
        return bus, items

    clock = time.perf_counter
    bus, items = stream()
    started = clock()
    for topic, sender, body in items:
        bus.publish(topic, sender=sender, body=body)
    baseline_elapsed = max(clock() - started, 1e-9)
    baseline = {
        "messages": messages,
        "ops_per_second": messages / baseline_elapsed,
        "per_op_seconds": baseline_elapsed / messages,
    }
    sweep = []
    for size in sizes:
        bus, items = stream()
        started = clock()
        for position in range(0, len(items), size):
            bus.publish_many(items[position:position + size])
        elapsed = max(clock() - started, 1e-9)
        sweep.append({
            "batch_size": size,
            "messages": messages,
            "ops_per_second": messages / elapsed,
            "per_op_seconds": elapsed / messages,
            "speedup": baseline_elapsed / elapsed,
        })
    return {"baseline": baseline, "sweep": sweep}


# -- figure 3: federated request-for-details --------------------------------


def build_federated_rig(perf: str, nodes: int, events: int = 80,
                        patients: int = 12, seed: int = 2010):
    """A populated N-node federation plus its detail-request sample.

    Publishes the seeded workload (no detail requests yet), then derives
    one request tuple per (event, subscribed consumer) pair — the same
    pairs in both modes, so the timed loops issue identical work.
    """
    from repro.runtime.kernel import RuntimeConfig
    from repro.sim.domain import DEFAULT_CONSUMERS, ROLE_PURPOSES
    from repro.sim.scenario import CssScenario, ScenarioConfig

    scenario = CssScenario(ScenarioConfig(
        nodes=nodes, n_events=events, n_patients=patients, seed=seed,
        detail_request_rate=0.0, runtime=RuntimeConfig(perf=perf),
    ))
    requests = [
        (consumer_id, item.template_name, notification.event_id,
         ROLE_PURPOSES[role])
        for item, notification in scenario.steps()
        for consumer_id, role in DEFAULT_CONSUMERS
        if scenario.templates[item.template_name].needed_fields.get(role)
    ]
    return scenario.platform, requests


def run_federated_details(perf: str, nodes: int, iterations: int = 300,
                          events: int = 80, patients: int = 12,
                          seed: int = 2010) -> dict:
    """Time end-to-end requests-for-details across an N-node federation."""
    from repro.exceptions import AccessDeniedError

    platform, requests = build_federated_rig(
        perf, nodes, events=events, patients=patients, seed=seed,
    )
    outcomes = {"permits": 0, "denies": 0}
    cycle = {"position": 0}

    def op() -> None:
        consumer_id, event_type, event_id, purpose = requests[
            cycle["position"] % len(requests)
        ]
        cycle["position"] += 1
        try:
            platform.request_details(consumer_id, event_type, event_id, purpose)
        except AccessDeniedError:
            outcomes["denies"] += 1
        else:
            outcomes["permits"] += 1

    result = measure(op, iterations, warmup=min(len(requests), 10))
    result["nodes"] = nodes
    result["requests_sampled"] = len(requests)
    result.update(outcomes)
    return result


# -- equivalence ------------------------------------------------------------


def run_equivalence_check(events: int = 60, patients: int = 8,
                          seed: int = 42) -> dict:
    """Run the standard scenario in both modes; decisions and audit must
    be byte-identical (the acceptance gate of the perf layer)."""
    from repro.runtime.kernel import RuntimeConfig
    from repro.sim.scenario import CssScenario, ScenarioConfig

    def one(perf: str):
        scenario = CssScenario(ScenarioConfig(
            n_patients=patients, n_events=events, seed=seed,
            runtime=RuntimeConfig(perf=perf),
        ))
        report = scenario.run()
        audit = [record.to_payload()
                 for record in scenario.controller.audit_log.records()]
        outcome = (report.events_published, report.detail_permits,
                   report.detail_denies, report.notifications_delivered)
        return outcome, audit

    indexed_outcome, indexed_audit = one("indexed")
    none_outcome, none_audit = one("none")
    return {
        "identical": indexed_outcome == none_outcome
        and indexed_audit == none_audit,
        "audit_records": len(indexed_audit),
        "outcome": list(indexed_outcome),
    }


# -- summary ----------------------------------------------------------------


def _speedup(by_mode: dict) -> float:
    baseline = by_mode["none"]["ops_per_second"]
    return by_mode["indexed"]["ops_per_second"] / max(baseline, 1e-9)


def run_suite(quick: bool = False, node_counts: tuple[int, ...] | None = None,
              seed: int = 2010, source: str = "repro.perf.bench") -> dict:
    """Run every figure in both modes and fold into the summary payload."""
    scale = 0.25 if quick else 1.0
    counts = tuple(node_counts or DEFAULT_NODE_COUNTS)
    if quick:
        counts = tuple(count for count in counts if count <= 2) or counts[:1]

    pdp = {mode: run_pdp_decide(mode, iterations=int(4000 * scale) or 400)
           for mode in MODES}
    fanout = {mode: run_publish_fanout(mode, iterations=int(1500 * scale) or 200)
              for mode in MODES}
    federated = []
    for nodes in counts:
        point = {mode: run_federated_details(
            mode, nodes,
            iterations=int(300 * scale) or 40,
            events=int(80 * scale) or 20,
            seed=seed,
        ) for mode in MODES}
        federated.append({
            "nodes": nodes,
            "indexed": point["indexed"],
            "none": point["none"],
            "speedup": _speedup(point),
        })
    equivalence = run_equivalence_check(
        events=int(60 * scale) or 20, seed=seed,
    )
    batch_publish = run_batch_publish_sweep(
        messages=int(1536 * scale) or 256,
    )
    return {
        "schema": SCHEMA_ID,
        "source": source,
        "quick": quick,
        "pdp_decide": {**pdp, "speedup": _speedup(pdp)},
        "publish_fanout": {**fanout, "speedup": _speedup(fanout)},
        "batch_publish": batch_publish,
        "federated_details": federated,
        "equivalence": equivalence,
    }
