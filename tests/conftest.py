"""Shared fixtures: a small but complete CSS deployment.

``platform_small`` wires one hospital producer (BloodTest class), one
family doctor and one statistics office, with minimal-usage policies — the
micro-deployment most integration tests start from.
"""

from __future__ import annotations

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
from repro.exceptions import (
    DetailNotFoundError,
    PrivacyError,
    SourceUnavailableError,
    UnknownProducerError,
)
from repro.xmlmsg.types import DecimalType, EnumerationType


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
                     **platform_kwargs) -> FederatedDeployment:
    """The federated twin of ``platform_small``: producer and consumer on
    different nodes, so every subscription and detail request crosses a link."""
    platform = FederatedPlatform(shards=shards, seed="fedtest", **platform_kwargs)
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
