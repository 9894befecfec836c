"""Failure-injection tests: the platform under partial failure.

The deployment scenarios the paper's architecture must survive: flaky
subscribers (retry → dead-letter without blocking others), source systems
going down mid-flow (gateway persistence), contracts expiring between
publication and detail request, a policy revoked mid-flow,
poison messages on the bus, cross-node detail requests whose home
node or link fails, and a disk that fails — for good or once — at every
write boundary of a segmented log.
"""

import json

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.bus.delivery import MAX_ATTEMPTS
from repro.clock import DAY, MONTH
from repro.audit.log import AuditAction, AuditOutcome
from repro.exceptions import (
    AccessDeniedError,
    ContractInactiveError,
    CssError,
    LinkFailureError,
    PrivacyError,
    SourceUnavailableError,
)
from repro.storage import SegmentedLog, compact
from repro.storage.segment import decode_entry
from tests.conftest import (
    HOME_NODE_FAILURES,
    blood_test_schema,
    build_federation,
    encode_entry,
    framed,
    index_row,
    tombstone,
)
from tests.faults import DiskFaults


def build_world(auto_dispatch: bool = True):
    controller = DataController(seed="chaos", auto_dispatch=auto_dispatch)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    return controller, hospital, blood, doctor


def publish(hospital, blood, subject="p1"):
    return hospital.publish(
        blood, subject_id=subject, subject_name="Mario Bianchi", summary="done",
        details={"PatientId": subject, "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})


class TestFlakySubscribers:
    def test_crashing_consumer_callback_does_not_lose_later_messages(self):
        controller, hospital, blood, doctor = build_world()
        crash_on = {"first": True}
        received = []

        def handler(notification):
            if crash_on["first"]:
                crash_on["first"] = False
                raise RuntimeError("consumer application bug")
            received.append(notification)

        controller.subscribe("Dr-Rossi", "BloodTest", handler)
        publish(hospital, blood, "p1")   # handler crashes; message is retried
        publish(hospital, blood, "p2")
        controller.bus.dispatch()
        # p1 was redelivered on a later round, p2 flowed normally.
        assert {n.subject_ref for n in received} >= {"p1", "p2"}

    def test_permanently_poisoned_subscription_dead_letters(self):
        controller = DataController(seed="poison", auto_dispatch=False)
        hospital = DataProducer(controller, "Hospital", "Hospital")
        blood = hospital.declare_event_class(blood_test_schema())
        hospital.define_policy(
            "BloodTest", fields=["PatientId"],
            consumers=[("Broken", "unit")], purposes=["healthcare-treatment"])
        broken = DataConsumer(controller, "Broken", "Broken consumer")
        controller.subscribe(
            "Broken", "BloodTest",
            lambda n: (_ for _ in ()).throw(RuntimeError("always broken")))
        publish(hospital, blood)
        for _ in range(5):
            controller.bus.dispatch()
        assert controller.bus.dead_letter_depth == 1
        assert controller.bus.pending_messages() == 0

    def test_other_subscribers_unaffected_by_poison(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        controller.subscribe(
            "Dr-Rossi", "BloodTest",
            lambda n: (_ for _ in ()).throw(RuntimeError("bad second handler")))
        publish(hospital, blood)
        assert len(doctor.inbox) == 1


class TestContractLifecycleFailures:
    def test_contract_expiry_between_publish_and_request(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        # Re-sign the doctor with a 30-day contract.
        controller.contracts.get("Dr-Rossi").valid_until = 30 * DAY
        notification = publish(hospital, blood)
        controller.clock.advance(2 * MONTH)
        with pytest.raises(ContractInactiveError):
            doctor.request_details(notification, "healthcare-treatment")

    def test_suspended_producer_cannot_publish_but_details_still_serve(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        controller.contracts.suspend("Hospital")
        with pytest.raises(ContractInactiveError):
            publish(hospital, blood, "p2")
        # Already-published details remain retrievable: the gateway serves
        # them under the controller's mediation, not the producer's session.
        detail = doctor.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values()


class TestKeyRotationLive:
    def test_policy_revocation_mid_flow(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        assert doctor.request_details(notification, "healthcare-treatment")
        policy = controller.policies.policies_of_producer("Hospital")[0]
        controller.policies.revoke(policy.policy_id)
        with pytest.raises(AccessDeniedError):
            doctor.request_details(notification, "healthcare-treatment")


class TestSourceDowntimeMidFlow:
    def test_downtime_window_spanning_requests(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        first = publish(hospital, blood, "p1")
        hospital.gateway.take_source_offline()
        # Cannot publish new events while the source is down is a source-side
        # concern; but existing details keep serving from the gateway store.
        assert doctor.request_details(first, "healthcare-treatment")
        hospital.gateway.bring_source_online()
        second = publish(hospital, blood, "p2")
        assert doctor.request_details(second, "healthcare-treatment")

    def test_endpoint_outage_is_an_error_not_a_leak(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        controller.endpoints.get("gateway.Hospital.getResponse").take_offline()
        with pytest.raises(SourceUnavailableError):
            doctor.request_details(notification, "healthcare-treatment")
        # The failed attempt is audited as an error, not silently dropped.
        from repro.audit.query import AuditQuery

        errors = (AuditQuery().by_outcome(AuditOutcome.ERROR)
                  .count(controller.audit_log))
        assert errors == 1


class TestCrossNodeDetailFailuresAreAudited:
    """A forwarded request-for-details that *fails* still leaves its record
    on the consumer's node, as the local path's audit stage does."""

    @staticmethod
    def failed_request(break_something, expected_error):
        deployment = build_federation()
        platform = deployment.platform
        notification = deployment.publish_blood_test()
        break_something(platform)
        consumer_log = platform.controller_of("node-1").audit_log
        audited = len(consumer_log)
        with pytest.raises(expected_error) as failure:
            platform.request_details(
                "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
                "healthcare-treatment",
            )
        [record] = consumer_log.records()[audited:]
        assert (record.actor, record.action, record.outcome) == (
            "FamilyDoctors/Dr-Rossi", AuditAction.DETAIL_REQUEST, AuditOutcome.ERROR)
        assert (record.event_id, record.event_type, record.purpose) == (
            notification.event_id, "BloodTest", "healthcare-treatment")
        assert record.detail == f"home node node-0 failed: {failure.value}"
        consumer_log.verify_integrity()

    def test_home_gateway_offline(self):
        def gateway_offline(platform):
            platform.controller_of("node-0").endpoints.get(
                "gateway.Hospital-S-Maria.getResponse").take_offline()

        self.failed_request(gateway_offline, SourceUnavailableError)

    def test_link_retry_budget_exhausted(self):
        def drop_every_attempt(platform):
            link = platform.membership.link("node-1", "node-0")
            link.fail_next(MAX_ATTEMPTS)

        self.failed_request(drop_every_attempt, LinkFailureError)

    def test_home_gateway_overreleases(self):
        """Not a gateway or link error, so it used to leave no record."""
        def leak(platform):
            fetcher = platform.controller_of("node-0").detail_fetcher
            real_fetch = fetcher.fetch
            fetcher.fetch = lambda producer, src_id, allowed, event_id: real_fetch(
                producer, src_id, ["PatientId", "HivResult"], event_id)

        self.failed_request(leak, PrivacyError)


class TestLocalRemoteParity:
    """A consumer cannot tell from the failure whether the producer was
    local or remote: same exception class, same audit outcome, each on the
    consumer's own node."""

    @pytest.mark.parametrize("break_something, expected", HOME_NODE_FAILURES)
    def test_a_home_node_failure_is_the_same_failure_on_both_nodes(
        self, wire, break_something, expected
    ):
        deployment = build_federation()
        platform = deployment.platform
        platform.add_consumer("FamilyDoctors/Dr-Verdi", "Dr. Verdi",
                              role="family-doctor", node_id="node-0")
        platform.producer("Hospital-S-Maria").define_policy(
            event_type="BloodTest", fields=["PatientId", "Name", "Hemoglobin"],
            consumers=[("FamilyDoctors/Dr-Verdi", "unit")],
            purposes=["healthcare-treatment"], label="the local doctor")
        notification = deployment.publish_blood_test()
        break_something(platform)
        link = platform.membership.link("node-1", "node-0")
        lines, calls = len(wire), link.stats.calls

        seen = {}
        for consumer_id, node_id in (("FamilyDoctors/Dr-Verdi", "node-0"),
                                     ("FamilyDoctors/Dr-Rossi", "node-1")):
            log = platform.controller_of(node_id).audit_log
            audited = len(log)
            with pytest.raises(CssError) as failure:
                platform.request_details(
                    consumer_id, "BloodTest", notification.event_id,
                    "healthcare-treatment")
            [record] = [r for r in log.records()[audited:]
                        if r.actor == consumer_id]
            assert record.action is AuditAction.DETAIL_REQUEST
            seen[node_id] = (type(failure.value), record.outcome)
        assert seen["node-0"] == seen["node-1"] == (expected, AuditOutcome.ERROR)
        # The remote failure crossed as a response, not as a live exception.
        assert len(wire) == lines + 2
        assert link.stats.delivered == link.stats.calls == calls + 1
        assert "error" in json.loads(wire[-1])


def index_record(n):
    """The script's ``n``-th index record: an entry, or every third one a
    tombstone for the entry two before it (moved to another shard)."""
    return tombstone(n - 2) if n % 3 == 2 else index_row(n)


def read_entries(log):
    """Every ``(sequence, record)`` of ``log``, oldest first."""
    return [(sequence, decode_entry(text)) for sequence, text in log.iter_texts()]


def survivors(entries):
    """What compaction keeps of ``(sequence, record)`` entries: every one but
    a tombstone and the entry it names."""
    gone = {record["object_id"] for _, record in entries if "tombstone" in record}
    return [(sequence, record) for sequence, record in entries
            if "tombstone" not in record and record["event_id"] not in gone]


class TestDiskFaultsAtEveryWriteBoundary:
    """One script — six appends, an eight-record group commit that rolls
    twice, a compaction, three appends — with the disk failing at each of
    its mutating filesystem calls in turn."""

    SCRIPT = (
        [lambda log, n=n: log.append(encode_entry(index_record(n))) for n in range(6)]
        + [lambda log: log.append_many(framed((index_record(n) for n in range(6, 14)),
                                                   log.sequence + 1)),
           compact]
        + [lambda log, n=n: log.append(encode_entry(index_record(n))) for n in range(14, 17)]
    )

    @staticmethod
    def open_log(directory):
        return SegmentedLog(directory, segment_bytes=400)

    def reference(self, directory, monkeypatch):
        """The undisturbed run: ``(entries, sequence)`` after every step,
        and how many mutating calls the script makes."""
        with monkeypatch.context() as patch:
            faults = DiskFaults(patch, directory)
            log = self.open_log(directory)
            states = [([], 0)]
            for step in self.SCRIPT:
                step(log)
                states.append((read_entries(log), log.sequence))
        assert len(log.segments()) > 1 and len(log) < 17  # rolled, compacted
        return states, faults.calls

    def test_a_crash_at_any_call_reopens_with_everything_acknowledged(
            self, tmp_path, monkeypatch):
        states, total = self.reference(tmp_path / "reference", monkeypatch)
        assert total > 30
        broken = {}
        for k in range(1, total + 1):
            directory = tmp_path / f"crash-{k}"
            with monkeypatch.context() as patch:
                faults = DiskFaults(patch, directory, fail_at=k, crash=True)
                log = self.open_log(directory)
                returned = 0
                with pytest.raises(OSError):
                    for step in self.SCRIPT:
                        step(log)
                        returned += 1
                assert faults.calls >= k
            acknowledged, high_water = states[returned]
            try:
                cold = self.open_log(directory)
                found = read_entries(cold)
                sequences = [sequence for sequence, _ in found]
                assert sequences == sorted(set(sequences))
                assert [e for e in survivors(acknowledged) if e not in found] == []
                probe = index_row(99)
                assert cold.append(encode_entry(probe)) > max(
                    [high_water, cold.last_replay.sequence, *sequences])
                # ... and whatever the crash left staged is no obstacle.
                compact(cold)
                assert read_entries(self.open_log(directory)) == [
                    *survivors(found), (cold.sequence, probe)]
            except Exception as failure:  # reported per point, below
                broken[k] = repr(failure)
        assert not broken, f"{len(broken)} of {total} crash points: {broken}"

    def test_one_enospc_at_any_call_then_a_retry_loses_and_repeats_nothing(
            self, tmp_path, monkeypatch):
        states, total = self.reference(tmp_path / "reference", monkeypatch)
        expected, high_water = states[-1]
        broken = {}
        for k in range(1, total + 1):
            directory = tmp_path / f"enospc-{k}"
            try:
                with monkeypatch.context() as patch:
                    faults = DiskFaults(patch, directory, fail_at=k)
                    log = self.open_log(directory)
                    for step in self.SCRIPT:
                        try:
                            step(log)
                        except OSError:  # the caller retries the step once
                            step(log)
                    assert faults.calls > k
                cold = self.open_log(directory)
                assert read_entries(log) == expected
                assert read_entries(cold) == expected
                assert len(log) == len(cold) == len(expected)
                assert log.sequence == cold.sequence == high_water
            except Exception as failure:  # reported per point, below
                broken[k] = repr(failure)
        assert not broken, f"{len(broken)} of {total} transient faults: {broken}"
