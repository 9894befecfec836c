"""docs/ARCHITECTURE.md states the hot paths' step order and the switch
table once, docs/FEDERATION.md the wire protocol, docs/OBSERVABILITY.md
the metric series; this keeps them equal to what the code does."""

import re
from dataclasses import fields
from pathlib import Path

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.federation.node import WIRE_ERRORS
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.kernel import SWITCHES
from tests.conftest import blood_test_schema, build_federation

DOCS = Path(__file__).resolve().parent.parent / "docs"
ARCHITECTURE = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
FEDERATION = (DOCS / "FEDERATION.md").read_text(encoding="utf-8")
OBSERVABILITY = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")


def stage_line(after: str, offset: int = 1) -> tuple[str, ...]:
    """The ``a → b → c`` diagram line ``offset`` lines below ``after``,
    without its tree drawing and its ``[endpoint]`` hop."""
    lines = ARCHITECTURE.splitlines()
    line = lines[lines.index(after) + offset]
    return tuple(name for name in line.strip(" └─").split(" → ")
                 if not name.startswith("["))


def test_stage_order_lines_match_the_pipelines(monkeypatch):
    """The documented step order is the order in which a publish and a
    request for details call the collaborators of each step; neither
    calls the backlog bound."""
    controller = DataController(seed="docs")
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    hospital.define_policy("BloodTest", fields=["PatientId"],
                           consumers=[("family-doctor", "role")],
                           purposes=["healthcare-treatment"])
    steps = []

    def spy(owner, name, step):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            if not steps or steps[-1] != step:
                steps.append(step)
            result = real(*args, **kwargs)
            if step == "fetch":  # the field check reads what crossed
                return FieldCheckProbe(result)
            return result

        monkeypatch.setattr(owner, name, call)

    class FieldCheckProbe:
        def __init__(self, detail):
            self.detail = detail

        def __getattr__(self, name):
            if name == "released_fields" and "filter" not in steps:
                steps.append("filter")
            return getattr(self.detail, name)

    enforcer = controller.enforcer
    for owner, name, step in (
        (controller.sched, "should_shed", "sched"),
        (controller.contracts, "require_active", "contract"),
        (controller.catalog, "get", "admission"),
        (controller, "consent_registry_of", "consent"),
        (controller, "gateway_of", "persist"),
        (controller.index, "seal_identity", "seal"),
        (controller.index, "store", "index"), (controller.bus, "publish", "route"),
        (controller.audit_log, "append", "audit"),
        (controller, "authenticate", "authenticate"),
        (controller.id_map, "resolve", "resolve"),
        (enforcer, "consent_resolver", "consent"), (enforcer, "decision", "decide"),
        (enforcer.fetcher, "fetch", "fetch"),
    ):
        spy(owner, name, step)
    notification = hospital.publish(
        blood, subject_id="p1", subject_name="Mario", summary="done",
        details={"PatientId": "p1", "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})
    assert stage_line("publish (controller):") == tuple(steps)
    steps.clear()
    doctor.request_details(notification, "healthcare-treatment")
    details = "request-for-details (controller edge → SOA endpoint → enforcer):"
    assert stage_line(details) + stage_line(details, 2) == tuple(steps)


def test_kernel_table_matches_the_default_kernel():
    section = ARCHITECTURE.split("## How a node is composed\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| (`.+?) \|", section, flags=re.M)
    documented = {switch: tuple(re.findall(r"`(\w+)\*?`", names))
                  for switch, names in rows}
    assert documented == SWITCHES
    defaults = RuntimeConfig()
    for switch, names in rows:
        (starred,) = re.findall(r"`(\w+)\*`", names)
        assert getattr(defaults, switch) == starred, switch
    assert f"; {len(fields(RuntimeConfig))} fields" in section


def test_wire_protocol_tables_match_the_node():
    section = FEDERATION.split("## The wire protocol\n")[1].split("\n## ")[0]
    operations, errors = section.split("**Errors.**")
    rows = re.findall(r"^\| `([\w.]+)` \|.*\| (yes|no) \|$", operations, flags=re.M)
    node = build_federation().platform.node("node-0")
    assert [name for name, _ in rows] == list(node._handlers)
    assert [name for name, coalescible in rows if coalescible == "yes"] == list(
        node._batch_handlers)
    assert re.findall(r"^\| `(\w+)` \| `([\w-]+)` \|$", errors, flags=re.M) == [
        (failure.__name__, code) for failure, code in WIRE_ERRORS.items()]


def naming_table() -> dict[str, set[str]]:
    """docs/OBSERVABILITY.md's "Naming scheme" table: series -> label keys,
    the read series only (the wall histogram is built from the tracer)."""
    section = OBSERVABILITY.partition("## Naming scheme")[2].partition("\n## ")[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            series, kind, labels, _ = line.strip("|").split(" | ")
            if not kind.startswith("histogram"):
                table[series.strip(" `")] = set(re.findall(r"`(\w+)`", labels))
    return table


def test_naming_table_matches_the_registered_readers(monkeypatch):
    """Every series the table names is served by a reader on a 2-node
    platform that has crossed a link (a drop, a dead letter, a shed — the
    backlog bound lowered to one — and a request for details included, so
    every reader has rows), with the label keys the table lists — and no
    reader serves a series the table leaves out."""
    monkeypatch.setattr("repro.sched.MAX_PENDING", 1)
    telemetry = InMemoryTelemetry()
    deployment = build_federation(telemetry=telemetry)
    platform = deployment.platform

    def broken(notification):
        raise RuntimeError("handler down")

    platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
    platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest", handler=broken)
    platform.membership.link("node-0", "node-1").fail_next(1)
    notification = deployment.publish_blood_test(subject_id="pat-1")
    # A fan-out memo hit, and a shed: the broken subscription still holds pat-1.
    deployment.publish_blood_test(subject_id="pat-2")
    platform.dispatch_all()
    platform.request_details("FamilyDoctors/Dr-Rossi", "BloodTest",
                             notification.event_id, "healthcare-treatment")
    served: dict[str, set[str]] = {}
    rows = set()
    for _, name, read in telemetry.metrics._readers:
        keys = served.setdefault(name, set())
        for labels, _ in read():
            keys.update(labels)
            rows.add(name)
    assert served == naming_table()
    assert rows == set(served)
