"""Quickstart: the CSS two-phase protocol in ~60 lines.

One hospital publishes a blood test; a family doctor receives the
notification (who/what/when/where) and pulls the details under an explicit
purpose; unauthorized fields never leave the hospital; a doctor who
subscribes later catches up from the events index.

Run with::

    python examples/quickstart.py
"""

from repro import (
    AccessDeniedError,
    DataConsumer,
    DataController,
    DataProducer,
    ElementDecl,
    MessageSchema,
    Occurs,
    StringType,
)
from repro.xmlmsg.types import DecimalType, EnumerationType


def main() -> None:
    # 1. The data controller is the central mediator (Fig. 2).
    controller = DataController(seed="quickstart")

    # 2. A producer joins and declares an event class (its XSD goes into
    #    the events catalog).
    hospital = DataProducer(controller, "Hospital-S-Maria", "Hospital S. Maria")
    blood_test = hospital.declare_event_class(MessageSchema("BloodTest", [
        ElementDecl("PatientId", StringType(min_length=1), identifying=True),
        ElementDecl("Name", StringType(min_length=1), identifying=True),
        ElementDecl("Hemoglobin", DecimalType(0, 30), sensitive=True),
        ElementDecl("HivResult", EnumerationType(["negative", "positive"]),
                    occurs=Occurs.OPTIONAL, sensitive=True),
    ]))

    # 3. A consumer joins; the hospital authorizes it with a privacy policy
    #    (actor, event class, purposes, releasable fields — Def. 2).
    doctor = DataConsumer(controller, "FamilyDoctors/Dr-Rossi", "Dr. Rossi",
                          role="family-doctor")
    hospital.define_policy(
        event_type="BloodTest",
        fields=["PatientId", "Name", "Hemoglobin"],   # HivResult stays hidden
        consumers=[("family-doctor", "role")],
        purposes=["healthcare-treatment"],
        label="family doctors read blood counts",
    )
    doctor.subscribe("BloodTest")

    # 4. Phase one: the hospital publishes; only the summary circulates.
    notification = hospital.publish(
        blood_test,
        subject_id="pat-0001",
        subject_name="Mario Bianchi",
        summary="blood test completed for Mario Bianchi",
        details={"PatientId": "pat-0001", "Name": "Mario Bianchi",
                 "Hemoglobin": 13.8, "HivResult": "negative"},
    )
    print(f"notification delivered: {notification.event_id}")
    print(f"  what : {doctor.inbox[0].summary}")
    print(f"  when : t={doctor.inbox[0].occurred_at}")
    print(f"  where: {doctor.inbox[0].producer_id}")

    # 5. Phase two: the doctor requests the details with a purpose.
    detail = doctor.request_details(notification, "healthcare-treatment")
    print(f"released fields: {detail.exposed_values()}")
    assert "HivResult" not in detail.exposed_values()

    # 6. Deny-by-default: a wrong purpose is refused (and audited).
    try:
        doctor.request_details(notification, "statistical-analysis")
    except AccessDeniedError as exc:
        print(f"denied as expected: {exc}")

    # 7. Temporal decoupling (§4): a doctor who subscribes after the publish
    #    pulls the missed notification from the events index.
    late = DataConsumer(controller, "FamilyDoctors/Dr-Verdi", "Dr. Verdi",
                        role="family-doctor")
    late.subscribe("BloodTest")
    assert late.inbox == []
    assert late.catch_up("BloodTest") == 1
    assert late.inbox[0].event_id == notification.event_id
    print(f"late subscriber caught up on: {late.inbox[0].event_id}")

    # 8. The audit trail answers "who accessed what, and why".
    controller.audit_log.verify_integrity()
    print(f"audit records: {len(controller.audit_log)} (hash chain verified)")


if __name__ == "__main__":
    main()
