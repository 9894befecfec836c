"""Cross-node privacy invariants — the acceptance tests of the federation.

Three properties must survive distribution:

1. a request for details about a remote event is decided by the
   *producer's home node* PDP (Algorithm 1) and gateway (Algorithm 2);
2. deny-by-default holds federation-wide: a policy sitting on the
   consumer's node is invisible to the home node and grants nothing;
3. no plaintext subject identity ever crosses a link.
"""

import pytest

from repro.audit.log import AuditAction, AuditOutcome
from repro.exceptions import AccessDeniedError
from repro.federation.link import HOP_COUNTER
from repro.federation.node import NODE_QUEUE_DEPTH
from repro.obs.telemetry import InMemoryTelemetry
from repro.xacml.serialize import serialize_policy
from repro import PrivacyPolicy
from tests.conftest import HOME_NODE_FAILURES, build_federation


class TestHomeNodeDecides:
    def test_remote_detail_request_is_decided_by_the_home_pdp(
        self, federation_two
    ):
        platform = federation_two.platform
        notification = federation_two.publish_blood_test()
        home_enforcer = platform.controller_of("node-0").enforcer
        consumer_enforcer = platform.controller_of("node-1").enforcer
        permits_before = home_enforcer.stats.permits

        detail = platform.request_details(
            "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
            "healthcare-treatment",
        )

        # The decision ran on the producer's home node, and only there.
        assert home_enforcer.stats.permits == permits_before + 1
        assert consumer_enforcer.stats.permits == 0
        assert consumer_enforcer.stats.requests == 0
        # Field filtering also happened at home: policy fields released,
        # everything else already stripped when the message crossed back.
        assert set(detail.released_fields) == {
            "PatientId", "Name", "Hemoglobin", "Glucose"
        }
        assert detail.payload.fields["HivResult"] is None
        assert detail.payload.fields["Hemoglobin"] == 14.0

    def test_both_nodes_audit_their_side_of_a_permit(self, federation_two):
        platform = federation_two.platform
        notification = federation_two.publish_blood_test()
        platform.request_details(
            "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
            "healthcare-treatment",
        )
        home_records = [
            r for r in platform.controller_of("node-0").audit_log.records()
            if r.action is AuditAction.DETAIL_REQUEST
        ]
        consumer_records = [
            r for r in platform.controller_of("node-1").audit_log.records()
            if r.action is AuditAction.DETAIL_REQUEST
        ]
        assert [r.outcome for r in home_records] == [AuditOutcome.PERMIT]
        assert [r.outcome for r in consumer_records] == [AuditOutcome.PERMIT]
        # The forwarding node's record names the deciding node.
        assert "resolved by home node node-0" in consumer_records[0].detail

    def test_purpose_mismatch_is_denied_at_home(self, federation_two):
        platform = federation_two.platform
        notification = federation_two.publish_blood_test()
        home_enforcer = platform.controller_of("node-0").enforcer
        with pytest.raises(AccessDeniedError):
            platform.request_details(
                "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
                "statistical-analysis",
            )
        assert home_enforcer.stats.denies == 1


class TestDenyByDefaultFederationWide:
    def test_policy_on_the_consumer_node_grants_nothing(self):
        """The acceptance property: the home node has no matching policy,
        the consumer's node holds one — details must still be denied,
        because only the home node's repository feeds the deciding PDP."""
        deployment = build_federation(with_policy=False)
        platform = deployment.platform
        notification = deployment.publish_blood_test()

        # Plant a fully-matching policy directly in the CONSUMER node's
        # repository — a rogue node trying to self-authorize.
        rogue = PrivacyPolicy(
            policy_id="rogue-1",
            producer_id="Hospital-S-Maria",
            event_type="BloodTest",
            fields=frozenset({"PatientId", "Name", "Hemoglobin", "Glucose"}),
            purposes=frozenset({"healthcare-treatment"}),
            actor_id="FamilyDoctors/Dr-Rossi",
        )
        platform.controller_of("node-1").policies.add(
            rogue, serialize_policy(rogue.to_xacml())
        )

        home_enforcer = platform.controller_of("node-0").enforcer
        with pytest.raises(AccessDeniedError):
            platform.request_details(
                "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
                "healthcare-treatment",
            )
        # The denial came from the home node's PDP, deny-by-default.
        assert home_enforcer.stats.denies == 1
        consumer_denials = [
            r for r in platform.controller_of("node-1").audit_log.records()
            if r.action is AuditAction.DETAIL_REQUEST
            and r.outcome is AuditOutcome.DENY
        ]
        assert len(consumer_denials) == 1
        assert "denied by home node node-0" in consumer_denials[0].detail

    def test_remote_subscribe_without_policy_queues_a_pending_request(self):
        deployment = build_federation(with_policy=False)
        platform = deployment.platform
        with pytest.raises(AccessDeniedError):
            platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        # The pending access request lands with the producer, on ITS node.
        home = platform.controller_of("node-0")
        pending = home.pending_requests.for_producer("Hospital-S-Maria")
        assert [p.consumer_id for p in pending] == ["FamilyDoctors/Dr-Rossi"]
        assert len(platform.controller_of("node-1").pending_requests) == 0
        denials = [
            r for r in home.audit_log.records()
            if r.action is AuditAction.SUBSCRIBE
            and r.outcome is AuditOutcome.DENY
        ]
        assert len(denials) == 1
        assert "remote subscribe from node-1" in denials[0].detail


class TestWirePrivacy:
    def test_no_plaintext_subject_identity_crosses_any_link(
        self, federation_two
    ):
        platform = federation_two.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        notifications = [
            federation_two.publish_blood_test(
                subject_id=f"pat-secret-{i}", name="Maria Rossi"
            )
            for i in range(6)
        ]
        platform.dispatch_all()
        # Exercise every wire path: details, cluster inquiry, rebalance,
        # federated audit.
        platform.request_details(
            "FamilyDoctors/Dr-Rossi", "BloodTest",
            notifications[0].event_id, "healthcare-treatment",
        )
        platform.controller_of("node-1").index.inquire(["BloodTest"])
        platform.add_node()
        platform.guarantor_inquiry()

        transcript = platform.link_transcripts()
        assert transcript  # the surface is non-trivial
        for line in transcript:
            assert "pat-secret" not in line
            assert "Maria Rossi" not in line

    @pytest.mark.parametrize("break_something, expected", HOME_NODE_FAILURES)
    def test_refusals_and_failures_cross_without_subject_identity(
        self, break_something, expected
    ):
        """Error responses cross in the clear, for every failure class —
        their messages must name no data subject."""
        deployment = build_federation()
        platform = deployment.platform
        platform.add_consumer("Province/Statistics", "Statistics office",
                              role="statistician", node_id="node-1")
        notification = deployment.publish_blood_test(
            subject_id="pat-secret-1", name="Maria Rossi")
        with pytest.raises(AccessDeniedError):  # no policy for this consumer
            platform.subscribe("Province/Statistics", "BloodTest")
        with pytest.raises(AccessDeniedError):  # wrong purpose
            platform.request_details(
                "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
                "statistical-analysis")
        break_something(platform)
        with pytest.raises(expected):
            platform.request_details(
                "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
                "healthcare-treatment")

        transcript = platform.link_transcripts()
        assert sum('"error":' in line for line in transcript) == 3
        for line in transcript:
            assert "pat-secret" not in line
            assert "Maria Rossi" not in line

    def test_notifications_arrive_intact_despite_sealing(self, federation_two):
        platform = federation_two.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        federation_two.publish_blood_test(subject_id="pat-77", name="Maria Rossi")
        platform.dispatch_all()
        inbox = platform.consumer("FamilyDoctors/Dr-Rossi").inbox
        assert inbox[0].subject_ref == "pat-77"
        assert "Maria Rossi" in inbox[0].summary


class TestFederationTelemetry:
    def test_hop_counters_and_queue_gauges_use_hashed_node_labels(self):
        telemetry = InMemoryTelemetry()
        deployment = build_federation(telemetry=telemetry)
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        for i in range(4):
            deployment.publish_blood_test(subject_id=f"pat-{i}")
        platform.dispatch_all()
        platform.record_queue_depths()

        rows = telemetry.metrics.snapshot()
        hops = [r for r in rows if r["name"] == HOP_COUNTER]
        depths = [r for r in rows if r["name"] == NODE_QUEUE_DEPTH]
        assert hops and depths
        assert sum(r["value"] for r in hops) == platform.total_hops()
        for row in hops:
            assert row["labels"]["source"].startswith("h:")
            assert row["labels"]["target"].startswith("h:")
            assert "node-" not in row["labels"]["source"]
        for row in depths:
            assert row["labels"]["node"].startswith("h:")


class TestTraceContextWirePrivacy:
    def test_untraced_deployments_put_no_trace_key_on_the_wire(
        self, federation_two
    ):
        platform = federation_two.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        federation_two.publish_blood_test()
        platform.dispatch_all()
        for line in platform.link_transcripts():
            assert '"trace"' not in line

    def test_wire_trace_context_is_two_counter_ids_and_nothing_else(self):
        import json
        import re

        deployment = build_federation(per_node_telemetry=True)
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        notification = deployment.publish_blood_test(
            subject_id="pat-secret-9", name="Maria Rossi"
        )
        platform.dispatch_all()
        platform.request_details(
            "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
            "healthcare-treatment",
        )

        # Site prefix = guard-hashed node label; ids are counter-minted.
        identifier = re.compile(r"^(h:[0-9a-f]+/)?(tr|sp)-\d+$")
        carried = 0
        for line in platform.link_transcripts():
            assert "pat-secret" not in line
            assert "Maria Rossi" not in line
            message = json.loads(line)
            if "trace" not in message:
                continue
            carried += 1
            context = message["trace"]
            # Exactly two id fields — no baggage slot to smuggle content.
            assert set(context) == {"trace_id", "span_id"}
            assert identifier.match(context["trace_id"])
            assert identifier.match(context["span_id"])
        assert carried > 0

    def test_per_node_span_exports_stay_pseudonymous(self):
        deployment = build_federation(per_node_telemetry=True)
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        notification = deployment.publish_blood_test(
            subject_id="pat-secret-3", name="Maria Rossi"
        )
        platform.dispatch_all()
        platform.request_details(
            "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
            "healthcare-treatment",
        )
        exports = platform.trace_exports()
        assert set(exports) == {"node-0", "node-1"}
        everything = "\n".join(line for lines in exports.values()
                               for line in lines)
        assert everything
        assert "pat-secret" not in everything
        assert "Maria Rossi" not in everything
        # Even node ids appear only as guard hashes in span ids/labels.
        assert "node-0" not in everything and "node-1" not in everything
