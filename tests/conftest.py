"""Shared fixtures: a small but complete CSS deployment.

``platform_small`` wires one hospital producer (BloodTest class), one
family doctor and one statistics office, with minimal-usage policies — the
micro-deployment most integration tests start from.  ``linear_reference``
runs a block on the linear hot path the indexed one must be
indistinguishable from.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from repro import (
    DataConsumer,
    DataController,
    DataProducer,
    ElementDecl,
    EventClass,
    FederatedPlatform,
    MessageSchema,
    Occurs,
    StringType,
)
from repro.bus.subscriptions import SubscriptionRegistry
from repro.core.policy import PolicyRepository
from repro.exceptions import (
    DetailNotFoundError,
    PrivacyError,
    SourceUnavailableError,
    UnknownProducerError,
)
from repro.xmlmsg.types import DecimalType, EnumerationType
from tests.xacml_reference import reference_decision


def blood_test_schema() -> MessageSchema:
    """The BloodTest schema used across the test suite."""
    return MessageSchema(
        "BloodTest",
        [
            ElementDecl("PatientId", StringType(min_length=1), identifying=True),
            ElementDecl("Name", StringType(min_length=1), identifying=True),
            ElementDecl("Hemoglobin", DecimalType(0, 30), sensitive=True),
            ElementDecl("Glucose", DecimalType(0, 500), sensitive=True),
            ElementDecl(
                "HivResult",
                EnumerationType(["negative", "positive", "inconclusive"]),
                occurs=Occurs.OPTIONAL,
                sensitive=True,
            ),
        ],
    )


@dataclass
class SmallPlatform:
    """The fixture bundle handed to tests."""

    controller: DataController
    hospital: DataProducer
    blood_class: EventClass
    doctor: DataConsumer
    statistics: DataConsumer

    def publish_blood_test(self, subject_id: str = "pat-1",
                           name: str = "Mario Bianchi", hemoglobin: float = 14.0):
        """Publish one well-formed blood test and return the notification."""
        return self.hospital.publish(
            self.blood_class,
            subject_id=subject_id,
            subject_name=name,
            summary=f"blood test completed for {name}",
            details={
                "PatientId": subject_id,
                "Name": name,
                "Hemoglobin": hemoglobin,
                "Glucose": 92.0,
                "HivResult": "negative",
            },
        )


@dataclass
class FederatedDeployment:
    """A 2-node federation: hospital homed on node-0, doctor on node-1."""

    platform: "FederatedPlatform"
    blood_class: EventClass

    def publish_blood_test(self, subject_id: str = "pat-1",
                           name: str = "Mario Bianchi", hemoglobin: float = 14.0):
        """Publish one blood test through the federation facade."""
        return self.platform.publish(
            "Hospital-S-Maria", self.blood_class,
            subject_id=subject_id, subject_name=name,
            summary=f"blood test completed for {name}",
            details={
                "PatientId": subject_id,
                "Name": name,
                "Hemoglobin": hemoglobin,
                "Glucose": 92.0,
                "HivResult": "negative",
            },
        )


def build_federation(shards: int = 2, with_policy: bool = True,
                     seed: str = "fedtest", **platform_kwargs) -> FederatedDeployment:
    """The federated twin of ``platform_small``: producer and consumer on
    different nodes, so every subscription and detail request crosses a link."""
    platform = FederatedPlatform(shards=shards, seed=seed, **platform_kwargs)
    hospital = platform.add_producer(
        "Hospital-S-Maria", "Hospital S. Maria", node_id="node-0"
    )
    platform.add_consumer(
        "FamilyDoctors/Dr-Rossi", "Dr. Rossi", role="family-doctor",
        node_id="node-1" if shards > 1 else "node-0",
    )
    blood_class = platform.declare_event_class(
        "Hospital-S-Maria", blood_test_schema()
    )
    if with_policy:
        hospital.define_policy(
            event_type="BloodTest",
            fields=["PatientId", "Name", "Hemoglobin", "Glucose"],
            consumers=[("FamilyDoctors/Dr-Rossi", "unit")],
            purposes=["healthcare-treatment"],
            label="family doctor access",
        )
    return FederatedDeployment(platform=platform, blood_class=blood_class)


def with_deleted_latency_row(report: dict, observed: float,
                             windows: dict | None = None) -> dict:
    """An SLO report section with the status row of the deleted stock
    ``request-details-latency`` objective put back first, as it was
    written before: it read simulated pipeline durations, all within its
    threshold, so only ``observed`` (and ``windows``) vary by run."""
    row = {"attainment": 1.0, "breached": False, "burn_rate": 0.0,
           "error_budget": 0.05, "kind": "latency",
           "metric": "pipeline.duration_seconds",
           "name": "request-details-latency", "observed": observed,
           "target": 0.95, "threshold": 0.05}
    if windows is not None:
        row["windows"] = windows
    return {**report, "objectives": [row, *report["objectives"]]}


def with_parent_pdp_counts(report: dict, observed: float,
                           windows: dict | None = None) -> dict:
    """An SLO report section with the ``pdp-deny-rate`` row as it read
    while a decision cache stood in front of the XACML PDP: the series
    counted PDP evaluations (cache misses) rather than decisions, so only
    ``observed`` (and each window's ``observed``) differ."""

    def restore(row: dict) -> dict:
        if row["name"] != "pdp-deny-rate":
            return row
        row = {**row, "observed": observed}
        if windows is not None:
            row["windows"] = {name: {**window, "observed": windows[name]}
                              for name, window in row["windows"].items()}
        return row

    return {**report, "objectives": [restore(row) for row in report["objectives"]]}


def _gateway_offline(platform):
    platform.controller_of("node-0").endpoints.get(
        "gateway.Hospital-S-Maria.getResponse").take_offline()


def _detail_missing(platform):
    platform.producer("Hospital-S-Maria").gateway._store.clear()


def _gateway_overreleases(platform):
    fetcher = platform.controller_of("node-0").detail_fetcher
    real_fetch = fetcher.fetch
    fetcher.fetch = lambda producer, src_id, allowed, event_id: real_fetch(
        producer, src_id, ["PatientId", "HivResult"], event_id)


def _producer_without_gateway(platform):
    platform.controller_of("node-0")._gateways.pop("Hospital-S-Maria")


#: Ways to break the home node of a ``build_federation`` deployment after a
#: publish, each with the exception a request-for-details then ends in —
#: for a consumer on either node.
HOME_NODE_FAILURES = [
    pytest.param(_gateway_offline, SourceUnavailableError, id="gateway-offline"),
    pytest.param(_detail_missing, DetailNotFoundError, id="detail-missing"),
    pytest.param(_gateway_overreleases, PrivacyError, id="gateway-overreleases"),
    pytest.param(_producer_without_gateway, UnknownProducerError,
                 id="producer-without-gateway"),
]


@pytest.fixture()
def linear_reference(monkeypatch):
    """A context manager: inside it every decision is the XACML reference
    (``tests/xacml_reference.py``: the repository's whole policy set
    compiled and evaluated by the PEP and PDP) and every fan-out the linear
    scan over all subscriptions — the reference the product's hot path
    (Def. 3 over the actor buckets, subscription trie) is held equal to."""

    @contextmanager
    def linear():
        with monkeypatch.context() as patch:
            patch.setattr(PolicyRepository, "decide", reference_decision)
            patch.setattr(SubscriptionRegistry, "matching_topic",
                          SubscriptionRegistry.matching_topic_linear)
            yield

    return linear


@pytest.fixture()
def federation_two() -> FederatedDeployment:
    """A ready 2-node federation with the family-doctor policy in place."""
    return build_federation()


@pytest.fixture()
def platform_small() -> SmallPlatform:
    """One hospital, one doctor, one statistics office, minimal policies."""
    controller = DataController(seed="test")
    hospital = DataProducer(controller, "Hospital-S-Maria", "Hospital S. Maria")
    blood_class = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "FamilyDoctors/Dr-Rossi", "Dr. Rossi",
                          role="family-doctor")
    statistics = DataConsumer(controller, "Province/Statistics", "Statistics office",
                              role="statistician")
    hospital.define_policy(
        event_type="BloodTest",
        fields=["PatientId", "Name", "Hemoglobin", "Glucose"],
        consumers=[("FamilyDoctors/Dr-Rossi", "unit")],
        purposes=["healthcare-treatment"],
        label="family doctor access",
    )
    hospital.define_policy(
        event_type="BloodTest",
        fields=["Hemoglobin", "Glucose"],
        consumers=[("statistician", "role")],
        purposes=["statistical-analysis"],
        label="statistics access",
    )
    doctor.subscribe("BloodTest")
    statistics.subscribe("BloodTest")
    return SmallPlatform(
        controller=controller,
        hospital=hospital,
        blood_class=blood_class,
        doctor=doctor,
        statistics=statistics,
    )
