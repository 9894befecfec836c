"""Shared builders for the benchmark harness.

Every benchmark constructs platforms through these helpers so the
experiments in EXPERIMENTS.md are reproducible from a single place.
All benchmarks run with ``pytest benchmarks/ --benchmark-only``;
``--benchmark-json FILE`` writes pytest-benchmark's wall-clock figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.sim.generators import standard_event_templates
from repro.sim.domain import DEFAULT_CONSUMERS, DEFAULT_PRODUCER_ASSIGNMENT
from repro.sim.scenario import CssScenario, ScenarioConfig


@dataclass
class MicroPlatform:
    """One producer, one authorized consumer, one published event."""

    controller: DataController
    producer: DataProducer
    consumer: DataConsumer
    notification: object
    event_class: object


def build_micro_platform(
    n_policies: int = 1,
    seed: str = "bench",
    granted_fields: list[str] | None = None,
    runtime=None,
) -> MicroPlatform:
    """A minimal enforcement stack with ``n_policies`` candidate policies.

    Policy #0 grants the benchmark consumer; the remaining ``n_policies-1``
    grant unrelated actors — the Fig. 4 scaling axis, which the
    repository's actor buckets keep off the decision's walk.  ``runtime`` (a
    :class:`repro.RuntimeConfig`) names the controller's switches and
    data directory, e.g. the JSONL index/audit pair for durable-backend benchmarks.
    """
    controller = DataController(seed=seed, runtime=runtime)
    producer = DataProducer(controller, "Hospital", "Hospital")
    template = standard_event_templates()["BloodTest"]
    event_class = producer.declare_event_class(template.build_schema())
    consumer = DataConsumer(controller, "Doctor", "Doctor", role="family-doctor")
    fields = granted_fields or ["PatientId", "Name", "Surname", "Hemoglobin"]
    producer.define_policy(
        "BloodTest", fields=fields,
        consumers=[("Doctor", "unit")], purposes=["healthcare-treatment"],
    )
    for index in range(n_policies - 1):
        producer.define_policy(
            "BloodTest", fields=["Hemoglobin"],
            consumers=[(f"Other-{index}", "unit")],
            purposes=["statistical-analysis"],
        )
    consumer.subscribe("BloodTest")
    notification = producer.publish(
        event_class, subject_id="pat-1", subject_name="Mario Bianchi",
        summary="blood test completed",
        details={"PatientId": "pat-1", "Name": "Mario", "Surname": "Bianchi",
                 "Hemoglobin": 13.9, "Glucose": 92.0, "Cholesterol": 180.0,
                 "HivResult": "negative"},
    )
    return MicroPlatform(
        controller=controller, producer=producer, consumer=consumer,
        notification=notification, event_class=event_class,
    )


def build_scenario(n_events: int = 60, detail_request_rate: float = 0.3,
                   seed: int = 2010, **kwargs) -> tuple[CssScenario, list]:
    """A standard-cast scenario plus its seeded workload."""
    config = ScenarioConfig(
        n_patients=20, n_events=n_events,
        detail_request_rate=detail_request_rate, seed=seed, **kwargs,
    )
    scenario = CssScenario(config)
    return scenario, scenario.generate_workload()


@pytest.fixture(scope="module")
def standard_consumers():
    return list(DEFAULT_CONSUMERS)


@pytest.fixture(scope="module")
def producer_assignment():
    return dict(DEFAULT_PRODUCER_ASSIGNMENT)
