"""Durable backends: a platform that survives a restart.

A node is durable iff its runtime has a data directory: this example runs
a small deployment under ``RuntimeConfig(data_dir=...)`` — the events
index and the audit log then write through to the storage engine's
checksummed segment logs — and rebuilds both from the directory
alone.  The notifications (identity slots sealed on disk, decrypted only
through the keystore) and the hash-chained audit trail all replay, and a
doctored audit row is detected at load time even when its frame checksum
was recomputed.

Run with::

    python examples/durable_backends.py
"""

import tempfile
from pathlib import Path

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.crypto.keystore import KeyStore
from repro.exceptions import TamperedLogError
from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore
from repro.storage.engine import StorageEngine
from repro.storage.segment import encode_entry, encode_frame
from repro.xmlmsg.schema import ElementDecl, MessageSchema
from repro.xmlmsg.types import DecimalType, StringType


def blood_test_schema() -> MessageSchema:
    return MessageSchema("BloodTest", [
        ElementDecl("PatientId", StringType(min_length=1), identifying=True),
        ElementDecl("Name", StringType(min_length=1), identifying=True),
        ElementDecl("Hemoglobin", DecimalType(0, 30), sensitive=True),
    ])


def main() -> None:
    data_dir = Path(tempfile.mkdtemp(prefix="css-durable-"))
    print(f"data directory: {data_dir}\n")

    # -- phase 1: run a platform over the data directory -------------------
    controller = DataController(
        seed="durable",
        runtime=RuntimeConfig(data_dir=data_dir),
    )
    print("wiring:", {
        "index": type(controller.index).__name__,
        "audit": type(controller.audit_log).__name__,
        "store": type(controller.store).__name__,
    })
    hospital = DataProducer(controller, "Hospital-S-Maria", "Hospital S. Maria")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi",
                          role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    doctor.subscribe("BloodTest")

    for index, (patient, name) in enumerate(
        [("pat-1", "Mario Bianchi"), ("pat-2", "Anna Verdi")], start=1
    ):
        notification = hospital.publish(
            blood, subject_id=patient, subject_name=name,
            summary=f"blood test #{index} completed",
            details={"PatientId": patient, "Name": name, "Hemoglobin": 13.5},
        )
        doctor.request_details(notification, "healthcare-treatment")
    print(f"published {len(controller.index)} events, "
          f"{len(controller.audit_log)} audit records\n")

    # -- phase 2: what actually sits on disk -------------------------------
    store = StorageEngine(data_dir)  # a cold reopen, as after a restart
    first_row = next(store.log("index").iter_records())
    print("first index row on disk (identity slots sealed):")
    print(f"  subjectRef slot: {first_row['slots']['subjectRef'][0][:44]}...\n")

    # -- phase 3: rebuild both stores from the directory alone -------------
    reloaded_index = JsonlIndexStore(store.log("index"),
                                     KeyStore("css-platform-secret"))
    reloaded_audit = JsonlAuditSink(store.log("audit"))
    reloaded_audit.verify_integrity()
    print(f"replayed {len(reloaded_index)} notifications and "
          f"{len(reloaded_audit)} audit records (chain verified)")
    replayed = reloaded_index.get(first_row["object_id"])
    print(f"decrypted through the keystore: subject={replayed.subject_ref!r}, "
          f"display={replayed.subject_display!r}\n")

    # -- phase 4: tampering with the audit trail is detected ---------------
    # Rewrite the first audit row under a *valid* frame checksum: the
    # segment log accepts the frame, the hash chain does not.
    segment = store.log("audit").segments()[0].path
    frames = segment.read_bytes().splitlines(keepends=True)
    doctored = next(store.log("audit").iter_records())
    doctored["actor"] = "someone-else"
    frames[0] = encode_frame(1, encode_entry(doctored))
    segment.write_bytes(b"".join(frames))
    try:
        JsonlAuditSink(StorageEngine(data_dir).log("audit"))
    except TamperedLogError as exc:
        print(f"tampered audit trail rejected on replay: {exc}")


if __name__ == "__main__":
    main()
