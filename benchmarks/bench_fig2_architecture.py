"""Experiment F2 (paper Fig. 2): the event-based architecture.

Fig. 2 shows producers publishing through the data controller's bus to
many subscribers.  The quantitative claims behind the picture:

* **Decoupling / connector scaling** — point-to-point SOA needs O(N·M)
  standing connectors; the bus needs O(N+M) links (one publication topic
  per class + one subscription per interest).
* **Fan-out cost** — a producer publishes once regardless of subscriber
  count; the bus absorbs the fan-out.
* **End-to-end pipeline** — publish → index → notify → request-details is
  a bounded chain of steps.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import build_micro_platform
from repro.bus.broker import ServiceBus
from repro.bus.endpoints import EndpointRegistry


def _p2p_connector_count(n_producers: int, n_consumers: int) -> int:
    registry = EndpointRegistry()
    for p in range(n_producers):
        for c in range(n_consumers):
            registry.expose(f"p2p.{p}.to.{c}", lambda req: req)
    return len(registry)


def _bus_link_count(n_producers: int, n_consumers: int) -> int:
    bus = ServiceBus(strict_topics=False)
    for p in range(n_producers):
        bus.declare_topic(f"events.cat.Class{p}")
    for c in range(n_consumers):
        bus.subscribe(f"consumer-{c}", "events.#", lambda e: None)
    return len(bus.topics.all_paths()) + bus.subscription_count


@pytest.mark.parametrize("n", [5, 10, 20, 40])
def test_connector_scaling(benchmark, n):
    """O(N·M) connectors vs O(N+M) bus links as institutions join."""
    def build_both():
        return _p2p_connector_count(n, n), _bus_link_count(n, n)

    p2p, bus = benchmark(build_both)
    print(f"\n[F2] N=M={n}: point-to-point connectors={p2p}, bus links={bus}")
    assert p2p == n * n
    assert bus == 2 * n
    if n >= 10:
        assert p2p > 4 * bus


@pytest.mark.parametrize("n_subscribers", [1, 10, 50])
def test_publish_fanout_cost(benchmark, n_subscribers):
    """One publish call serves any number of subscribers (bus absorbs fan-out)."""
    bus = ServiceBus(strict_topics=False, auto_dispatch=True)
    bus.declare_topic("events.health.BloodTest")
    sink: list = []
    for index in range(n_subscribers):
        bus.subscribe(f"c{index}", "events.health.BloodTest", sink.append)

    benchmark(bus.publish, "events.health.BloodTest", "hospital", "<Notification/>")
    assert len(sink) >= n_subscribers  # every subscriber got every round's message
    # Clean measurement window: reset the warmed-up counters, then take one
    # exactly-measured round instead of dividing cumulative totals by rounds.
    bus.stats.reset()
    published = bus.publish("events.health.BloodTest", "hospital",
                            "<Notification/>").size_estimate()
    stats = bus.stats
    assert stats.published == 1
    assert stats.fanned_out == n_subscribers
    assert bus.queue_depth == 0  # auto_dispatch drained every queue
    fanned_out = published * stats.fanned_out
    print(
        f"\n[F2] subscribers={n_subscribers}: published={published}B, "
        f"fanned out={fanned_out}B "
        f"(amplification x{fanned_out / max(1, published):.0f})"
    )


def test_end_to_end_pipeline(benchmark):
    """publish → index → notify → request-details, the full Fig. 2 path."""
    platform = build_micro_platform()
    counter = {"n": 0}

    def round_trip():
        counter["n"] += 1
        notification = platform.producer.publish(
            platform.event_class,
            subject_id=f"pat-{counter['n']}",
            subject_name="Mario Bianchi",
            summary="blood test completed",
            details={"PatientId": f"pat-{counter['n']}", "Name": "Mario",
                     "Surname": "Bianchi", "Hemoglobin": 14.0, "Glucose": 92.0,
                     "Cholesterol": 180.0, "HivResult": "negative"},
        )
        return platform.consumer.request_details(notification, "healthcare-treatment")

    detail = benchmark(round_trip)
    assert detail.exposed_values()
    assert "HivResult" not in detail.exposed_values()


def test_sustained_publish_throughput(benchmark):
    """Batch of 100 publishes through the full controller pipeline.

    Covers validation, gateway persistence, id mapping, index sealing,
    bus fan-out to one subscriber and audit — the sustained ingest path of
    Fig. 2.  Events/second = 100 / measured time.
    """
    platform = build_micro_platform()
    counter = {"n": 0}

    def publish_batch():
        for _ in range(100):
            counter["n"] += 1
            platform.producer.publish(
                platform.event_class,
                subject_id=f"batch-{counter['n']}",
                subject_name="Mario Bianchi",
                summary="blood test completed",
                details={"PatientId": f"batch-{counter['n']}", "Name": "Mario",
                         "Surname": "Bianchi", "Hemoglobin": 14.0,
                         "Glucose": 92.0, "Cholesterol": 180.0,
                         "HivResult": "negative"},
            )

    benchmark.pedantic(publish_batch, rounds=5, iterations=1)
    assert len(platform.consumer.inbox) >= 500


def test_index_inquiry_path(benchmark):
    """The pull alternative: consumers query the events index directly."""
    platform = build_micro_platform()
    for index in range(50):
        platform.producer.publish(
            platform.event_class, subject_id=f"pat-{index}", subject_name="X Y",
            summary="blood test completed",
            details={"PatientId": f"pat-{index}", "Name": "X", "Surname": "Y",
                     "Hemoglobin": 14.0, "Glucose": 92.0, "Cholesterol": 180.0,
                     "HivResult": "negative"},
        )

    results = benchmark(platform.consumer.inquire_index, ["BloodTest"])
    assert len(results) == 51  # 50 here + 1 from the fixture
