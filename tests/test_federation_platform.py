"""End-to-end tests for the sharded multi-controller platform."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import exceptions
from repro.audit.log import AuditAction, AuditOutcome
from repro.bus.delivery import DeliveryPolicy
from repro.exceptions import (
    AccessDeniedError,
    CssError,
    FederationError,
    LinkFailureError,
    UnknownEventError,
)
from repro.federation import FederatedPlatform
from repro.federation.node import WIRE_ERRORS
from repro.obs.guard import TelemetryPrivacyError
from repro.xmlmsg.schema import ElementDecl, MessageSchema
from repro.xmlmsg.types import (
    BooleanType,
    DateType,
    DecimalType,
    EnumerationType,
    IntegerType,
    SimpleType,
    StringType,
)
from tests.conftest import build_federation


def subject_owned_by(platform, node_id: str) -> str:
    """A subject id whose index entry the ring assigns to ``node_id``."""
    for i in range(200):
        subject_id = f"pat-{i}"
        if platform.membership.owner_of_subject(subject_id) == node_id:
            return subject_id
    raise AssertionError(f"no probe subject hashed onto {node_id}")


class TestShardPlacement:
    def test_entry_lands_on_the_owner_shard_only(self, federation_two):
        platform = federation_two.platform
        for node_id in ("node-0", "node-1"):
            subject = subject_owned_by(platform, node_id)
            notification = federation_two.publish_blood_test(
                subject_id=subject, name="Mario Bianchi"
            )
            owner_index = platform.controller_of(node_id).index
            assert notification.event_id in owner_index
            for other in platform.membership.node_ids:
                if other != node_id:
                    assert notification.event_id not in (
                        platform.controller_of(other).index
                    )

    def test_remote_store_crosses_exactly_one_link(self, federation_two):
        platform = federation_two.platform
        subject = subject_owned_by(platform, "node-1")
        before = platform.total_hops()
        federation_two.publish_blood_test(subject_id=subject)
        assert platform.total_hops() == before + 1

    def test_get_resolves_from_any_node(self, federation_two):
        platform = federation_two.platform
        subject = subject_owned_by(platform, "node-1")
        notification = federation_two.publish_blood_test(subject_id=subject)
        for node_id in platform.membership.node_ids:
            found = platform.controller_of(node_id).index.get(
                notification.event_id
            )
            assert found.event_id == notification.event_id
            assert found.subject_ref == subject  # opened locally, intact

    def test_get_unknown_event_raises(self, federation_two):
        with pytest.raises(UnknownEventError):
            federation_two.platform.controller_of("node-0").index.get("ev-nope")

    def test_inquire_fans_out_across_shards(self, federation_two):
        platform = federation_two.platform
        published = {
            federation_two.publish_blood_test(subject_id=f"pat-{i}").event_id
            for i in range(8)
        }
        for node_id in platform.membership.node_ids:
            results = platform.controller_of(node_id).index.inquire(["BloodTest"])
            assert {n.event_id for n in results} == published

    def test_count_for_type_is_cluster_wide(self, federation_two):
        platform = federation_two.platform
        for i in range(6):
            federation_two.publish_blood_test(subject_id=f"pat-{i}")
        for node_id in platform.membership.node_ids:
            index = platform.controller_of(node_id).index
            assert index.count_for_type("BloodTest") == 6


class TestCrossNodeSubscription:
    def test_remote_subscription_delivers_to_the_consumer_inbox(
        self, federation_two
    ):
        platform = federation_two.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        notification = federation_two.publish_blood_test()
        platform.dispatch_all()
        doctor = platform.consumer("FamilyDoctors/Dr-Rossi")
        assert [n.event_id for n in doctor.inbox] == [notification.event_id]
        # The relay crossed at least one link.
        assert platform.total_hops() >= 1

    def test_one_relay_is_shared_per_peer_and_topic(self, federation_two):
        platform = federation_two.platform
        platform.add_consumer(
            "FamilyDoctors/Dr-Verdi", "Dr. Verdi", role="family-doctor",
            node_id="node-1",
        )
        federation_two.platform.producer("Hospital-S-Maria").define_policy(
            event_type="BloodTest",
            fields=["Hemoglobin"],
            consumers=[("FamilyDoctors/Dr-Verdi", "unit")],
            purposes=["healthcare-treatment"],
        )
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        platform.subscribe("FamilyDoctors/Dr-Verdi", "BloodTest")
        home = platform.node("node-0")
        assert len(home._relays) == 1  # noqa: SLF001 - inspecting relay table
        federation_two.publish_blood_test()
        platform.dispatch_all()
        assert len(platform.consumer("FamilyDoctors/Dr-Rossi").inbox) == 1
        assert len(platform.consumer("FamilyDoctors/Dr-Verdi").inbox) == 1


VERDI = "FamilyDoctors/Dr-Verdi"


@pytest.mark.parametrize("consumer_node", ["node-0", "node-1"],
                         ids=["local", "remote"])
class TestSubscriptionGateOnBothRoutes:
    """One gate, one sink: a consumer homed beside the class's producer
    (node-0) and one homed on a peer (node-1) get the same pending
    request, the same audit actions and outcomes, the same delivery —
    only the audit detail text names the route."""

    DENY_DETAIL = {
        "node-0": "no authorizing policy; pending access request queued",
        "node-1": "remote subscribe from node-1: no authorizing policy; "
                  "pending access request queued",
    }
    PERMIT_DETAIL = {"node-0": "", "node-1": "remote subscribe, relayed to node-1"}

    @staticmethod
    def deployment(consumer_node: str, with_policy: bool):
        deployment = build_federation(with_policy=False)
        platform = deployment.platform
        platform.add_consumer(VERDI, "Dr. Verdi", role="family-doctor",
                              node_id=consumer_node)
        if with_policy:
            platform.producer("Hospital-S-Maria").define_policy(
                event_type="BloodTest", fields=["Hemoglobin"],
                consumers=[(VERDI, "unit")], purposes=["healthcare-treatment"],
            )
        return deployment

    def test_deny_queues_the_same_request_and_audit(self, consumer_node):
        platform = self.deployment(consumer_node, with_policy=False).platform
        home = platform.controller_of("node-0")
        audited = len(home.audit_log)
        with pytest.raises(AccessDeniedError) as denied:
            platform.subscribe(VERDI, "BloodTest")
        assert str(denied.value) == (
            "no policy authorizes 'FamilyDoctors/Dr-Verdi' for 'BloodTest'; "
            "access request is pending with the producer"
        )
        [pending] = home.pending_requests.for_producer("Hospital-S-Maria")
        assert (pending.consumer_id, pending.consumer_role, pending.event_type,
                pending.producer_id) == (
            VERDI, "family-doctor", "BloodTest", "Hospital-S-Maria")
        [record] = home.audit_log.records()[audited:]
        assert (record.actor, record.action, record.outcome, record.event_type) == (
            VERDI, AuditAction.SUBSCRIBE, AuditOutcome.DENY, "BloodTest")
        assert record.detail == self.DENY_DETAIL[consumer_node]
        assert not platform.consumer(VERDI).is_subscribed_to("BloodTest")

    def test_permit_audits_and_delivers_the_same_way(self, consumer_node):
        deployment = self.deployment(consumer_node, with_policy=True)
        platform = deployment.platform
        home = platform.controller_of("node-0")
        audited = len(home.audit_log)
        platform.subscribe(VERDI, "BloodTest")
        [record] = home.audit_log.records()[audited:]
        assert (record.actor, record.action, record.outcome, record.event_type) == (
            VERDI, AuditAction.SUBSCRIBE, AuditOutcome.PERMIT, "BloodTest")
        assert record.detail == self.PERMIT_DETAIL[consumer_node]
        assert len(home.pending_requests) == 0
        assert platform.consumer(VERDI).is_subscribed_to("BloodTest")

        notification = deployment.publish_blood_test()
        platform.dispatch_all()
        assert [n.event_id for n in platform.consumer(VERDI).inbox] == [
            notification.event_id]
        deliveries = [
            r for r in platform.controller_of(consumer_node).audit_log.records()
            if r.action is AuditAction.NOTIFY
        ]
        assert [(r.actor, r.outcome, r.event_id, r.event_type, r.subject_ref)
                for r in deliveries] == [
            (VERDI, AuditOutcome.PERMIT, notification.event_id, "BloodTest", "pat-1")]


class TestLinkFailures:
    def test_scripted_drops_are_retried_within_the_policy_budget(self):
        deployment = build_federation(
            link_policy=DeliveryPolicy(max_attempts=3)
        )
        platform = deployment.platform
        subject = subject_owned_by(platform, "node-1")
        link = platform.membership.link("node-0", "node-1")
        link.fail_next(2)
        notification = deployment.publish_blood_test(subject_id=subject)
        assert notification is not None
        assert notification.event_id in platform.controller_of("node-1").index
        assert link.stats.retries >= 2
        assert link.stats.failed_attempts == 2

    def test_exhausted_budget_raises_link_failure(self):
        deployment = build_federation(
            link_policy=DeliveryPolicy(max_attempts=2)
        )
        platform = deployment.platform
        subject = subject_owned_by(platform, "node-1")
        link = platform.membership.link("node-0", "node-1")
        link.fail_next(2)
        with pytest.raises(LinkFailureError):
            deployment.publish_blood_test(subject_id=subject)

    def test_server_side_errors_are_not_retried(self, federation_two):
        platform = federation_two.platform
        link = platform.membership.link("node-1", "node-0")
        response = link.call("nonsense.op", {})
        assert response["error"] == "unknown-operation"
        assert link.stats.retries == 0


CSS_ERRORS = sorted(
    (cls for cls in vars(exceptions).values()
     if isinstance(cls, type) and issubclass(cls, CssError)),
    key=lambda cls: cls.__name__,
)


class TestWireErrors:
    """A handler's failure is a response, and ``ask`` raises it again."""

    @staticmethod
    def ask_a_failing_peer(platform, failure):
        def broken(payload):
            raise failure

        platform.node("node-0")._handlers["ping"] = broken
        link = platform.membership.link("node-1", "node-0")
        lines, delivered = len(link.transcript), link.stats.delivered
        with pytest.raises(CssError) as caught:
            platform.node("node-1").ask("node-0", "ping", {})
        # Answered: a request and a response crossed, and it was delivered.
        assert len(link.transcript) == lines + 2
        assert link.stats.delivered == delivered + 1
        return caught.value, json.loads(link.transcript[-1])

    @pytest.mark.parametrize("failure", CSS_ERRORS, ids=lambda cls: cls.__name__)
    def test_every_platform_failure_arrives_as_the_class_it_left_as(
        self, federation_two, failure
    ):
        raised, response = self.ask_a_failing_peer(
            federation_two.platform, failure("the home node said no"))
        assert type(raised) is failure
        assert str(raised) == "the home node said no"
        assert response == {
            "error": WIRE_ERRORS.get(failure, failure.__name__),
            "message": "the home node said no",
        }

    def test_the_four_historical_codes_keep_their_spelling(self):
        assert {cls.__name__: code for cls, code in WIRE_ERRORS.items()} == {
            "AccessDeniedError": "access-denied",
            "SourceUnavailableError": "source-unavailable",
            "UnknownEventError": "unknown-event",
            "UnknownEventClassError": "unknown-event-class",
        }

    def test_a_code_naming_no_platform_exception_is_a_federation_error(
        self, federation_two
    ):
        platform = federation_two.platform
        with pytest.raises(FederationError, match="unknown-operation: nonsense.op"):
            platform.node("node-1").ask("node-0", "nonsense.op", {})
        # A CssError defined outside repro.exceptions crosses by name too,
        # but the caller has nowhere to look that name up.
        raised, response = self.ask_a_failing_peer(
            platform, TelemetryPrivacyError("label refused"))
        assert type(raised) is FederationError
        assert response["error"] == "TelemetryPrivacyError"
        assert "TelemetryPrivacyError: label refused" in str(raised)


class TestRebalance:
    def test_add_node_conserves_entries_without_duplicates(self, federation_two):
        platform = federation_two.platform
        published = {
            federation_two.publish_blood_test(subject_id=f"pat-{i}").event_id
            for i in range(20)
        }
        report = platform.add_node()
        assert report.node_id == "node-2"
        assert report.entries_moved >= 0
        results = platform.controller_of("node-0").index.inquire(["BloodTest"])
        assert {n.event_id for n in results} == published
        assert len(results) == len(published)  # withdrawn copies stay hidden
        # Every live entry sits on its (new) ring owner.
        live_total = sum(
            len(platform.controller_of(node_id).index)
            for node_id in platform.membership.node_ids
        )
        assert live_total == len(published)

    def test_moved_entries_land_on_their_new_owner(self, federation_two):
        platform = federation_two.platform
        notifications = [
            federation_two.publish_blood_test(subject_id=f"pat-{i}")
            for i in range(20)
        ]
        platform.add_node()
        for notification in notifications:
            owner = platform.membership.owner_of_subject(notification.subject_ref)
            assert notification.event_id in platform.controller_of(owner).index

    def test_new_node_can_serve_detail_capable_queries(self, federation_two):
        platform = federation_two.platform
        notification = federation_two.publish_blood_test(subject_id="pat-1")
        platform.add_node()
        found = platform.controller_of("node-2").index.get(notification.event_id)
        assert found.subject_ref == "pat-1"


class TestHoming:
    def test_rehoming_a_party_is_rejected(self, federation_two):
        platform = federation_two.platform
        with pytest.raises(FederationError):
            platform.add_producer("Hospital-S-Maria", "again", node_id="node-1")
        with pytest.raises(FederationError):
            platform.add_consumer("FamilyDoctors/Dr-Rossi", "again")

    def test_unknown_home_node_is_rejected(self, federation_two):
        with pytest.raises(FederationError):
            federation_two.platform.add_producer("p2", "P2", node_id="node-9")

    def test_undeclared_class_has_no_home(self, federation_two):
        with pytest.raises(FederationError):
            federation_two.platform.home_of_class("XRay")

    def test_home_accessors(self, federation_two):
        platform = federation_two.platform
        assert platform.home_of_producer("Hospital-S-Maria") == "node-0"
        assert platform.home_of_consumer("FamilyDoctors/Dr-Rossi") == "node-1"
        assert platform.home_of_class("BloodTest") == "node-0"


class TestTypedValuesAcrossTheHop:
    """The router's promise: a consumer cannot tell (except for latency)
    whether the producer was local or remote — value types included."""

    VALUES = {
        StringType: st.text(),
        IntegerType: st.integers(),
        DecimalType: st.one_of(
            st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
        BooleanType: st.booleans(),
        DateType: st.dates(),
        EnumerationType: st.sampled_from(("low", "high")),
    }

    def test_every_shipped_simple_type_is_drawn(self):
        assert set(self.VALUES) == set(SimpleType.__subclasses__())

    def test_remote_detail_equals_local_detail_for_every_simple_type(self):
        fields = {type_.__name__: type_ for type_ in self.VALUES}
        schema = MessageSchema("Visit", [
            ElementDecl(name, type_(("low", "high"))
                        if type_ is EnumerationType else type_())
            for name, type_ in fields.items()
        ])
        platform = FederatedPlatform(shards=2, seed="typed")
        clinic = platform.add_producer("Clinic", "Clinic", node_id="node-0")
        for consumer_id, node_id in (("Near", "node-0"), ("Far", "node-1")):
            platform.add_consumer(consumer_id, consumer_id, role="doctor",
                                  node_id=node_id)
        visit = platform.declare_event_class("Clinic", schema)
        clinic.define_policy(
            event_type="Visit", fields=list(fields),
            consumers=[("doctor", "role")], purposes=["healthcare-treatment"])

        @settings(max_examples=40, deadline=None)
        @given(values=st.fixed_dictionaries({
            name: self.VALUES[type_] for name, type_ in fields.items()}))
        def released_the_same(values):
            notification = platform.publish(
                "Clinic", visit, subject_id="pat-1", subject_name="P One",
                summary="visit", details=values)
            near, far = (
                platform.request_details(
                    consumer_id, "Visit", notification.event_id,
                    "healthcare-treatment").exposed_values()
                for consumer_id in ("Near", "Far"))
            assert near == far == values
            assert {name: type(value) for name, value in far.items()} \
                == {name: type(value) for name, value in near.items()}

        released_the_same()
