"""One audit link per fan-out, the same trail on read.

A run of consecutive deliveries of one notification is chained as ONE
``NOTIFY`` record carrying its ordered recipient list
(``AuditLog.delivered``) and read back as one logical record per recipient
(``AuditRecord.expanded`` / ``AuditLog.logical``).  Held to account here:

* the logical view equals, field for field but ``record_id``, what a
  per-delivery sink writes — the behaviour before fan-out records, kept
  below as the reference — over drawn interleavings and through the real
  stack (reports, queries, the federated inquiry);
* every recipient is inside the hashed payload: changing any one fails
  replay of a stored log and ``verify_integrity`` of a live one;
* the open run never escapes: every read or barrier closes it, a restart
  after the barrier sees the live chain, a process abandoned with a run
  open restarts to a verifying prefix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataConsumer, DataController, DataProducer
from repro.audit.log import AuditAction, AuditLog, AuditOutcome, AuditRecord
from repro.audit.query import AuditQuery
from repro.audit.reports import data_subject_report, guarantor_report
from repro.core.messages import NotificationMessage
from repro.crypto.hashing import canonical_json
from repro.exceptions import AuditError, TamperedLogError
from repro.ids import IdFactory
from repro.runtime.backends import JsonlAuditSink
from repro.runtime.kernel import RuntimeConfig
from repro.sim.scenario import CssScenario, ScenarioConfig
from repro.storage.segment import SegmentedLog
from repro.workload import workload_config
from repro.workload.capacity import run_workload
from tests.conftest import blood_test_schema


def per_delivery(log, recipient, notification, timestamp, ids) -> None:
    """The reference: one chained ``NOTIFY`` record per delivery, which is
    what the platform wrote before fan-out records existed."""
    log.append(AuditRecord(
        ids.next("aud"), timestamp, recipient, AuditAction.NOTIFY,
        AuditOutcome.PERMIT, notification.event_id, notification.event_type,
        notification.subject_ref))


class PerDeliveryLog(AuditLog):
    delivered = per_delivery


def fields(records) -> list[AuditRecord]:
    """Records with the one field allowed to differ blanked."""
    return [replace(record, record_id="") for record in records]


def notification(event: int) -> NotificationMessage:
    return NotificationMessage(
        event_id=f"evt-{event}", event_type=f"Class{event % 2}",
        producer_id="Hospital", occurred_at=0.0, summary="done",
        subject_ref=f"pat-{event % 3}")


def first_record(log: AuditLog) -> None:
    try:
        log.record_at(0)
    except AuditError:
        pass  # nothing chained yet, no run to close


#: Everything but ``delivered`` that touches the log: each closes the run.
READS = {
    "len": len,
    "head_digest": lambda log: log.head_digest,
    "records": lambda log: log.records(),
    "record_at": first_record,
    "logical": lambda log: list(log.logical()),
    "verify_integrity": lambda log: log.verify_integrity(),
    "flush": lambda log: log.flush(),
    "append": lambda log: log.append(AuditRecord(
        "aud-x", 0.0, "Hospital", AuditAction.PUBLISH, AuditOutcome.PERMIT)),
}

# -- (a) drawn interleavings against the reference ----------------------------

STEPS = st.lists(st.one_of(
    st.tuples(st.just("deliver"), st.integers(0, 3),
              st.sampled_from(("Dr-A", "Dr-B", "Dr-C")),
              st.sampled_from((0.0, 1.0))),
    st.tuples(st.sampled_from(sorted(READS))),
), max_size=60)


def play(log: AuditLog, steps) -> AuditLog:
    ids = IdFactory(seed="fanout")
    for step in steps:
        if step[0] == "deliver":
            _, event, recipient, timestamp = step
            log.delivered(recipient, notification(event), timestamp, ids)
        elif step[0] == "append":  # under a minted id, so ids stay in order
            log.append(AuditRecord(ids.next("aud"), 0.0, "Hospital",
                                   AuditAction.PUBLISH, AuditOutcome.PERMIT))
        else:
            READS[step[0]](log)
    return log


@given(steps=STEPS)
@settings(max_examples=300, deadline=None)
def test_expanded_view_equals_the_per_delivery_reference(steps):
    coalesced, reference = play(AuditLog(), steps), play(PerDeliveryLog(), steps)
    logical = list(coalesced.logical())
    assert fields(logical) == fields(reference.records())
    assert fields(reference.logical()) == fields(reference.records())
    record_ids = [record.record_id for record in logical]
    assert record_ids == sorted(set(record_ids))  # unique, in delivery order
    assert len(coalesced) <= len(reference)
    coalesced.verify_integrity()


def test_run_lengths_one_and_n():
    """Synchronous dispatch puts a publish's deliveries side by side (one
    run of N); queues drained subscription by subscription with two
    envelopes waiting alternate events (runs of 1): no gain, still right."""
    ids = IdFactory(seed="fanout")
    side_by_side, alternating = AuditLog(), AuditLog()
    for recipient in ("Dr-A", "Dr-B", "Dr-A"):
        side_by_side.delivered(recipient, notification(1), 0.0, ids)
        for event in (1, 2):
            alternating.delivered(recipient, notification(event), 0.0, ids)
    (record,) = side_by_side.records()
    assert record.recipients == ("Dr-A", "Dr-B", "Dr-A")  # the repeat is kept
    assert [r.actor for r in record.expanded()] == ["Dr-A", "Dr-B", "Dr-A"]
    assert [r.recipients for r in alternating.records()] == [
        ("Dr-A",), ("Dr-A",), ("Dr-B",), ("Dr-B",), ("Dr-A",), ("Dr-A",)]
    assert [(r.actor, r.event_id) for r in alternating.logical()] == [
        (who, f"evt-{event}") for who in ("Dr-A", "Dr-B", "Dr-A")
        for event in (1, 2)]


def test_a_clock_move_ends_the_run():
    ids, log = IdFactory(seed="fanout"), AuditLog()
    log.delivered("Dr-A", notification(1), 0.0, ids)
    log.delivered("Dr-B", notification(1), 0.5, ids)
    assert [(r.timestamp, r.recipients) for r in log.records()] == [
        (0.0, ("Dr-A",)), (0.5, ("Dr-B",))]


def test_expanded_ids_sort_in_delivery_order_past_a_thousand_recipients():
    record = AuditRecord("aud-000007-0123456789ab", 0.0, "Dr-0",
                         AuditAction.NOTIFY, AuditOutcome.PERMIT,
                         recipients=tuple(f"Dr-{n}" for n in range(1200)))
    expanded = record.expanded()
    assert [r.actor for r in sorted(expanded, key=lambda r: r.record_id)] == [
        f"Dr-{n}" for n in range(1200)]
    assert expanded[6].record_id == "aud-000007-0123456789ab/0007"
    assert all(r.recipients == () and r.expanded() == (r,) for r in expanded)


def test_only_fan_out_rows_carry_the_recipients_key():
    plain = AuditRecord("aud-1", 0.0, "Dr-A", AuditAction.SUBSCRIBE,
                        AuditOutcome.PERMIT)
    assert "recipients" not in plain.to_payload()
    fan_out = replace(plain, action=AuditAction.NOTIFY, recipients=("Dr-A", "Dr-B"))
    assert fan_out.to_payload()["recipients"] == ["Dr-A", "Dr-B"]
    assert AuditRecord.from_payload(fan_out.to_payload()) == fan_out
    assert AuditRecord.from_payload(plain.to_payload()) == plain


# -- (b) through the real stack -----------------------------------------------

#: sha256 over every node's *logical* trail (``record_id`` blanked), seed
#: 2010 — pinned beside the physical heads in ``test_workload_capacity.py::
#: TestPinnedDigests`` and ``test_telemetry_cost.py::PINNED_AUDIT_HEADS``: a
#: change that moves those and not these re-framed the chain; one that moves
#: these changed what a guarantor is told.
LOGICAL_SHA256 = {
    "steady-1": "01632506787f728c0c30c2c54656a87767d86a9e9cbd2c8e6d46aabc9615b787",
    "steady-2": "5d300ba36eb23241a74836b3ba09f471dab0acdf3dda374fc84080890ce6514a",
    # Re-pinned when the single-controller driver went (the one-node run is
    # a federation of one): ``deploy_roster``'s order of the deployment
    # records and the seed string inside event ids.  What a guarantor is
    # told at run time did not move — ``tests/test_sim_scenario_baselines.py
    # ::TestAgainstTheBareControllerReference`` compares it in order.
    "css": "d45eae9190579273206ae1db9f1d7a44a6845ad25a4969be7ef990702de8b3f6",
}


def logical_sha256(logs) -> str:
    rows = [[replace(record, record_id="").to_payload()
             for record in log.logical()] for log in logs]
    return hashlib.sha256(canonical_json(rows).encode()).hexdigest()


def steady(nodes: int):
    run = run_workload(workload_config("steady", population=300, ops=120,
                                       seed=2010), nodes)
    return run.platform


def views(log: AuditLog) -> dict:
    """What a guarantor, a data subject and a by-actor query are told."""
    logical = list(log.logical())
    notified = [r for r in logical if r.action is AuditAction.NOTIFY]
    assert notified, "the run delivered nothing"
    subject, consumer = notified[0].subject_ref, notified[0].actor
    return {
        "guarantor": fields(guarantor_report(log).records),
        "subject": fields(data_subject_report(log, subject).records),
        "by_actor": fields(AuditQuery().by_actor(consumer)
                           .by_action(AuditAction.NOTIFY).run(log)),
        "accesses": AuditQuery().about_subject(subject).by_actor(consumer).count(log),
    }


@pytest.mark.parametrize("nodes", [1, 2])
def test_seeded_workload_reports_equal_the_reference(nodes, monkeypatch):
    platform = steady(nodes)
    logs = [node.controller.audit_log for node in platform.nodes()]
    physical = sum(len(log) for log in logs)
    trail = platform.guarantor_inquiry()
    monkeypatch.setattr(AuditLog, "delivered", per_delivery)
    reference = steady(nodes)
    reference_logs = [node.controller.audit_log for node in reference.nodes()]
    assert physical < sum(len(log) for log in reference_logs)
    for log, expected in zip(logs, reference_logs):
        assert fields(log.logical()) == fields(expected.records())
        assert views(log) == views(expected)
    reference_trail = reference.guarantor_inquiry()
    assert [(entry.node_id, replace(entry.record, record_id=""))
            for entry in trail.entries] == [
        (entry.node_id, replace(entry.record, record_id=""))
        for entry in reference_trail.entries]
    assert len(trail) == sum(1 for log in logs for _ in log.logical())
    assert logical_sha256(logs) == logical_sha256(reference_logs) \
        == LOGICAL_SHA256[f"steady-{nodes}"]


def css_log(**runtime) -> AuditLog:
    scenario = CssScenario(ScenarioConfig(
        n_patients=8, n_events=40, detail_request_rate=0.4, seed=2010,
        runtime=RuntimeConfig(**runtime)))
    scenario.run(scenario.generate_workload())
    return scenario.controller.audit_log


def test_css_scenario_reports_equal_the_reference(monkeypatch):
    log = css_log()
    monkeypatch.setattr(AuditLog, "delivered", per_delivery)
    expected = css_log()
    assert len(log) < len(expected)
    assert fields(log.logical()) == fields(expected.records())
    assert views(log) == views(expected)
    assert logical_sha256([log]) == logical_sha256([expected]) \
        == LOGICAL_SHA256["css"]


def test_ablation_arms_write_the_same_fan_out_records():
    """One mechanism: no arm keeps a per-delivery path."""
    heads = {css_log(perf=perf, batch=batch).head_digest
             for perf in ("indexed", "none") for batch in ("off", "on")}
    assert len(heads) == 1


# -- (c) tamper evidence ------------------------------------------------------

RECIPIENTS = ["Dr-A", "Dr-B", "Dr-C"]
EDITS = {
    "flip": ["Dr-A", "Dr-X", "Dr-C"],
    "drop": ["Dr-A", "Dr-C"],
    "duplicate": ["Dr-A", "Dr-B", "Dr-B", "Dr-C"],
    "reorder": ["Dr-A", "Dr-C", "Dr-B"],
}


def fanned_out(log: AuditLog) -> AuditLog:
    ids = IdFactory(seed="fanout")
    log.append(AuditRecord(ids.next("aud"), 0.0, "Hospital", AuditAction.JOIN,
                           AuditOutcome.PERMIT))
    for recipient in RECIPIENTS:
        log.delivered(recipient, notification(1), 1.0, ids)
    log.append(AuditRecord(ids.next("aud"), 1.0, "Hospital",
                           AuditAction.PUBLISH, AuditOutcome.PERMIT))
    log.flush()
    return log


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_one_edited_recipient_in_a_stored_row_fails_replay(tmp_path, edit):
    path = tmp_path / "audit.jsonl"
    fanned_out(JsonlAuditSink(path))
    assert len(JsonlAuditSink(path)) == 3  # intact: replays
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[1]["recipients"] == RECIPIENTS
    rows[1]["recipients"] = EDITS[edit]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(TamperedLogError):
        JsonlAuditSink(path)


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_one_edited_recipient_in_a_live_record_fails_verification(edit):
    log = fanned_out(AuditLog())
    log.verify_integrity()
    log._records[1] = replace(log._records[1], recipients=tuple(EDITS[edit]))
    with pytest.raises(TamperedLogError, match="record 1"):
        log.verify_integrity()


# -- (d) the open run ---------------------------------------------------------

@pytest.mark.parametrize("read", sorted(READS))
def test_every_read_and_barrier_closes_the_open_run(read):
    log, ids = AuditLog(), IdFactory(seed="fanout")
    for recipient in RECIPIENTS:
        log.delivered(recipient, notification(1), 0.0, ids)
    assert log._records == [] and log._run is not None
    READS[read](log)
    assert log._run is None
    assert log._records[0].recipients == tuple(RECIPIENTS)
    assert log._records[0].record_id == IdFactory(seed="fanout").next("aud")


def durable(tmp_path, **runtime):
    """A durable controller with three subscribers to one class; delivery
    waits for ``bus.dispatch()``, so a run can be left open."""
    controller = DataController(
        seed="fanout", auto_dispatch=False,
        runtime=RuntimeConfig(store="segmented", data_dir=tmp_path, **runtime))
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    hospital.define_policy(
        event_type="BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    doctors = [DataConsumer(controller, f"Dr-{n}", f"Dr. {n}", role="family-doctor")
               for n in range(3)]
    for doctor in doctors:
        doctor.subscribe("BloodTest")

    def publish(subject: str) -> None:
        hospital.publish(blood, subject_id=subject, subject_name="Mario",
                         summary="done",
                         details={"PatientId": subject, "Name": "Mario",
                                  "Hemoglobin": 14.0, "Glucose": 90.0})

    return controller, publish, doctors


@pytest.mark.parametrize("batch", ["off", "on"])
def test_a_cold_sink_after_the_barrier_has_the_live_head_and_length(tmp_path, batch):
    controller, publish, _ = durable(tmp_path, batch=batch, batch_size=8)
    publish("pat-1")
    controller.bus.dispatch()  # three deliveries, no record after them
    controller.flush_storage()
    cold = JsonlAuditSink(SegmentedLog(tmp_path / "audit"))
    cold.verify_integrity()
    assert len(cold) == len(controller.audit_log)
    assert cold.head_digest == controller.audit_log.head_digest
    assert cold.records()[-1].recipients == ("Dr-0", "Dr-1", "Dr-2")


def test_a_process_abandoned_with_a_run_open_restarts_to_a_verifying_prefix(tmp_path):
    controller, publish, _ = durable(tmp_path)
    publish("pat-1")
    controller.bus.dispatch()
    publish("pat-2")  # its PUBLISH record closes pat-1's run
    controller.bus.dispatch()  # pat-2's run stays open: no barrier, no read
    crashed = JsonlAuditSink(SegmentedLog(tmp_path / "audit"))
    crashed.verify_integrity()
    uncrashed = controller.audit_log.records()  # closes the run, writes it
    assert crashed.records() == uncrashed[:-1]
    assert uncrashed[-1].recipients == ("Dr-0", "Dr-1", "Dr-2")
    assert [r.subject_ref for r in uncrashed if r.recipients] == ["pat-1", "pat-2"]


def test_a_filtered_delivery_adds_no_recipient_and_a_raising_handler_what_it_did():
    """The roster filter returns before the mint; a handler runs after it,
    so its failure leaves the recipient audited — once per attempt."""
    controller = DataController(seed="fanout", auto_dispatch=False)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    hospital.define_policy(
        event_type="BloodTest", fields=["PatientId"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    for name in ("Dr-In", "Dr-Out", "Dr-Broken"):
        DataConsumer(controller, name, name, role="family-doctor")
    controller.roster.assign("Dr-In", "pat-1")
    controller.roster.assign("Dr-Out", "pat-9")

    def broken(notification):
        raise RuntimeError("inbox unavailable")

    controller.subscribe("Dr-In", "BloodTest", lambda n: None, roster_scoped=True)
    controller.subscribe("Dr-Out", "BloodTest", lambda n: None, roster_scoped=True)
    controller.subscribe("Dr-Broken", "BloodTest", broken)
    hospital.publish(blood, subject_id="pat-1", subject_name="Mario",
                     summary="done", details={
                         "PatientId": "pat-1", "Name": "Mario",
                         "Hemoglobin": 14.0, "Glucose": 90.0})
    failed = [controller.bus.dispatch().failed for _ in range(2)]
    assert failed == [1, 1]  # one attempt a round
    notified = [r.actor for r in controller.audit_log.logical()
                if r.action is AuditAction.NOTIFY]
    assert notified == ["Dr-In", "Dr-Broken", "Dr-Broken"]
