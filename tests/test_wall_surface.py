"""The platform surface ``benchmarks/wall`` is pinned to.

The wall-clock ledger (``BENCHMARK.json``) builds its platform from
``driver.py::PROD`` and times it through shims that
``trace.py::install_platform_shims`` installs on the names below — on the
class for ``Link`` / ``FederationNode``, on instances elsewhere.  That
directory may not change, so a refactor that renames one of these, moves
a method off its class, or implements one of a shimmed pair by calling
the other (which would double-count its spans) has to fail here, in
tier-1, not in the benchmark stage.
"""

from __future__ import annotations

import inspect

import pytest

from repro.audit.log import AuditLog
from repro.clock import Clock
from repro.core.index import EventsIndex
from repro.crypto.keystore import KeyStore
from repro.federation.link import Link
from repro.federation.node import FederationNode
from repro.federation.platform import FederatedPlatform
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore
from repro.runtime.kernel import RuntimeConfig
from repro.storage.engine import SegmentedStore
from tests.conftest import blood_test_schema

#: ``benchmarks/wall/driver.py::PROD``, copied in as a literal.
PROD = {
    "perf": "indexed",
    "index_store": "jsonl",
    "audit_sink": "jsonl",
    "store": "segmented",
    "batch": "on",
    "batch_size": 256,
    "sched": "fair",
    "recorder": "ring",
    "slo": "noop",
    "profiling": "noop",
}

#: Per node controller: attribute path -> callables shimmed on it.
CONTROLLER_SURFACE = {
    "": ("publish", "request_details", "subscribe"),
    "publish_pipeline": ("execute",),
    "details_pipeline": ("execute",),
    "enforcer.pipeline": ("execute",),
    "enforcer": ("get_event_details",),
    "bus": ("publish", "dispatch", "subscribe", "unsubscribe"),
    "audit_log": ("append", "flush"),
    "index": ("store", "get", "seal_identity"),
    "index.local": ("store", "get", "seal_identity", "open_identity", "flush"),
    "keystore": ("seal", "open_"),
    "sched": ("submit", "admit", "ingress", "should_shed", "note_shed",
              "note_publish", "note_fanout", "drain"),
}


@pytest.fixture()
def prod_platform(tmp_path):
    clock = Clock()
    platform = FederatedPlatform(
        shards=2, clock=clock, runtime=RuntimeConfig(**PROD, data_dir=tmp_path),
        telemetry=InMemoryTelemetry(clock=clock, guard_mode="hash"))
    hospital = platform.add_producer("Hospital", "Hospital", node_id="node-0")
    platform.add_consumer("Dr-Rossi", "Dr. Rossi", role="family-doctor",
                          node_id="node-1")
    blood = platform.declare_event_class("Hospital", blood_test_schema())
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    return platform, blood


def publish(platform, blood, count: int, first: int = 0) -> list[str]:
    """Publish ``count`` blood tests; returns their global event ids."""
    return [
        platform.publish(
            "Hospital", blood, subject_id=f"p{index}", subject_name="Mario",
            summary="done",
            details={"PatientId": f"p{index}", "Name": "Mario", "Hemoglobin": 14.0,
                     "Glucose": 90.0, "HivResult": "negative"}).event_id
        for index in range(first, first + count)
    ]


class TestClassLevelShims:
    @pytest.mark.parametrize("owner, name", [
        (Link, "call"), (Link, "call_batch"),
        (FederationNode, "handle"), (FederationNode, "handle_batch"),
    ])
    def test_method_is_defined_on_its_own_class(self, owner, name):
        assert inspect.isfunction(owner.__dict__[name])

    def test_call_batch_signature(self):
        parameters = inspect.signature(Link.call_batch).parameters
        assert list(parameters) == ["self", "operation", "payload", "count", "advance"]
        assert parameters["advance"].default is None

    def test_neither_of_a_pair_runs_through_the_other(self, prod_platform, monkeypatch):
        """Shim all four the way the tracer does and count: single requests
        and coalesced frames must each tick only their own pair."""
        platform, blood = prod_platform
        calls = {}

        def counted(owner, name):
            original = owner.__dict__[name]

            def shim(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, shim)

        for owner, name in ((Link, "call"), (Link, "call_batch"),
                            (FederationNode, "handle"),
                            (FederationNode, "handle_batch")):
            counted(owner, name)
        publish(platform, blood, 12)  # remote index entries coalesce...
        platform.flush_batches()      # ...into frames shipped here
        assert calls.pop("call_batch") == calls.pop("handle_batch") >= 1
        assert calls == {}
        platform.subscribe("Dr-Rossi", "BloodTest")  # one single request
        assert calls == {"call": 1, "handle": 1}


class TestInstanceLevelShims:
    def test_every_shimmed_attribute_resolves(self, prod_platform):
        platform, _ = prod_platform
        for attr in ("publish", "request_details", "subscribe", "dispatch_all",
                     "flush_batches"):
            assert callable(getattr(platform, attr))
        for node in platform.nodes():
            for path, names in CONTROLLER_SURFACE.items():
                owner = node.controller
                for part in filter(None, path.split(".")):
                    owner = getattr(owner, part)
                for name in names:
                    assert callable(getattr(owner, name)), (path, name)
            for log_name in ("index", "audit"):
                log = node.controller.store.log(log_name)
                assert callable(log.append) and callable(log.append_many)

    def test_telemetry_surface(self, prod_platform, monkeypatch):
        """``count``/``gauge``/``observe`` and ``guard.sanitize`` are shimmed
        on the instances, and ``obs.spans`` is ``len(finished_spans())``: a
        shimmed one implemented through another would nest its spans."""
        platform, blood = prod_platform
        telemetry = platform.telemetry
        calls: dict[str, int] = {}
        depth = {"now": 0, "max": 0}

        def counted(owner, name):
            original = getattr(owner, name)
            assert callable(original)

            def shim(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                depth["now"] += 1
                depth["max"] = max(depth["max"], depth["now"])
                try:
                    return original(*args, **kwargs)
                finally:
                    depth["now"] -= 1

            monkeypatch.setattr(owner, name, shim)

        for name in ("count", "gauge", "observe"):
            counted(telemetry, name)
        platform.subscribe("Dr-Rossi", "BloodTest")
        publish(platform, blood, 3)
        telemetry.count("x_total", subject_ref="p0")
        telemetry.gauge("x_depth", 1.0, subject_ref="p0")
        telemetry.observe("x_seconds", 0.1, subject_ref="p0")
        assert calls.keys() == {"count", "gauge", "observe"}
        assert depth["max"] == 1
        # The guard is looked up at call time, so an instance shim sees
        # every execution: one per sample that has to be hashed.
        calls.clear()
        counted(telemetry.guard, "sanitize")
        telemetry.count("x_total", subject_ref="p1")
        with telemetry.span("probe", subject_ref="p1"):
            pass
        assert calls == {"count": 1, "sanitize": 2}
        spans = telemetry.tracer.finished_spans()
        assert isinstance(spans, tuple) and len(spans) > 0

    def test_recovery_surface(self, prod_platform, tmp_path):
        platform, blood = prod_platform
        publish(platform, blood, 6)
        platform.flush_batches()
        for node in platform.nodes():
            store = SegmentedStore(tmp_path / node.node_id)
            audit_log, index_log = store.log("audit"), store.log("index")
            audit = JsonlAuditSink(audit_log)
            audit.verify_integrity()
            index = JsonlIndexStore(index_log, KeyStore("css-platform-secret"))
            live = node.controller
            assert audit.head_digest == live.audit_log.head_digest
            assert len(audit) == len(live.audit_log)
            assert index.sequence == live.index.local.sequence
            assert audit_log.segments() and isinstance(index_log.segments(), list)

    def test_durable_backends_extend_the_reference_classes(self):
        assert issubclass(JsonlAuditSink, AuditLog)
        assert issubclass(JsonlIndexStore, EventsIndex)
