"""What telemetry costs and what it may not change, pinned without a clock.

The guard classifies each label key once, static label sets resolve to
their series through a memo, and pipeline/stage spans are bound once
(docs/OBSERVABILITY.md, "Cost").  These tests hold that to account:

* the memoised paths return exactly what an uncached reference
  classification returns, whatever ``restrict_keys`` does in between;
* exports of two seeded scenarios are byte-for-byte those of the commit
  before the memo existed, and every op still opens as many spans;
* after warm-up the hot paths classify no key and run ``sanitize`` only
  for samples that carry an identifying label, and a fan-out parses its
  notification once per node, visits only the queues it filled and costs
  the audit chain two links whatever its width — counts, which repeat
  exactly, where wall time cannot gate CI;
* the wall-clock sidecar gets one sample per pipeline execution and shows
  up in no export.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AccessDeniedError, ElementDecl, MessageSchema, StringType
from repro.audit.log import AuditAction
from repro.audit.query import AuditQuery
from repro.bus.delivery import DeliveryEngine
from repro.clock import Clock
from repro.core.messages import NotificationMessage
from repro.obs.benchreport import scenario_summary
from repro.obs.guard import (
    DEFAULT_BLOCKED_KEYS,
    DEFAULT_BLOCKED_MARKERS,
    PrivacyGuard,
    TelemetryPrivacyError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    PIPELINE_DURATION,
    PIPELINE_WALL_DURATION,
    STAGE_DURATION,
    InMemoryTelemetry,
)
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracing import Tracer
from repro.runtime.kernel import RuntimeConfig
from repro.sim.scenario import CssScenario, ScenarioConfig
from tests.test_wall_surface import prod_platform, publish  # noqa: F401

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# -- (a) the memoised paths against an uncached reference --------------------

KEYS = ("stage", "topic", "op", "Stage", "sub-ject", "patient_id",
        "Hemoglobin", "cache")
#: Values that collide as dict keys (``1 == True == 1.0``) render apart.
VALUES = st.one_of(
    st.sampled_from(("publish", "decide", "1", "True", "", "a/b/c")),
    st.sampled_from((1, True, 1.0, 0, False, None)),
)
LABELS = st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=3)
#: Steps draw from a few label sets, so that memo entries get hit again
#: after the ``restrict``/``reset`` steps in between.
STEPS = st.lists(LABELS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.one_of(
        st.tuples(st.just("restrict"), st.lists(
            st.sampled_from(("stage", "topic", "Op", "Hemoglobin")),
            min_size=1, max_size=2)),
        st.tuples(st.sampled_from(("sanitize", "counter", "gauge",
                                   "histogram", "span")),
                  st.sampled_from(pool)),
        st.tuples(st.just("reset"), st.none()),
    ), max_size=40))


def reference_sanitize(guard: PrivacyGuard, restricted: set[str], labels: dict):
    """The classification restated with no table and no memo."""
    cleared = []
    for key in sorted(labels):
        normalised = key.replace("-", "_").replace(" ", "_").lower()
        if (normalised in {blocked.lower() for blocked in DEFAULT_BLOCKED_KEYS}
                or normalised in restricted
                or any(marker in normalised
                       for marker in DEFAULT_BLOCKED_MARKERS)):
            if guard.mode == "reject":
                raise TelemetryPrivacyError(key)
            cleared.append((key, guard.hash_value(labels[key])))
        else:
            cleared.append((key, str(labels[key])))
    return tuple(cleared)


@pytest.mark.parametrize("mode", ["hash", "reject"])
@given(steps=STEPS)
@settings(max_examples=250, deadline=None)
def test_memoised_paths_equal_the_uncached_reference(mode, steps):
    guard = PrivacyGuard(mode=mode)
    registry = MetricsRegistry(guard)
    tracer = Tracer(Clock(), guard)
    restricted: set[str] = set()
    model: dict[tuple, float] = {}

    for action, argument in steps:
        if action == "restrict":
            guard.restrict_keys(argument)
            restricted.update(key.lower() for key in argument)
            continue
        if action == "reset":
            registry.reset()
            model.clear()
            continue
        try:
            expected = reference_sanitize(guard, restricted, argument)
        except TelemetryPrivacyError:
            # An identifying key raises on every call, memo or not.
            with pytest.raises(TelemetryPrivacyError):
                _emit(action, guard, registry, tracer, argument)
            continue
        assert _emit(action, guard, registry, tracer, argument) == expected
        if action in ("counter", "gauge", "histogram"):
            model[action, expected] = model.get((action, expected), 0.0) + 1.0

    rows = {(row["type"], tuple(sorted(row["labels"].items()))):
            row.get("count", row.get("value")) for row in registry.snapshot()}
    assert rows == model


def _emit(action, guard, registry, tracer, labels):
    """Run one step; return the cleared labels the step ended up using."""
    if action == "sanitize":
        return guard.sanitize(labels)
    if action == "span":
        with tracer.span("probe", **labels) as span:
            return tuple(sorted(span.attributes.items()))
    series = getattr(registry, action)("probe", **labels)
    if action == "counter":
        series.inc()
    elif action == "gauge":
        series.add(1.0)
    else:
        series.observe(0.5)
    store = {"counter": registry.counter_entries,
             "gauge": registry.gauge_entries,
             "histogram": registry.histogram_entries}[action]()
    (key,) = [key for key, candidate in store if candidate is series]
    return key[1]


def test_restricting_a_static_label_key_switches_later_spans_and_series():
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="hash")
    for _ in range(2):  # the second pass runs on bound spans and series
        with telemetry.pipeline_span("publish"):
            with telemetry.stage_span("publish", "crypto"):
                telemetry.count("cache_hits_total", stage="crypto")
    telemetry.restrict_keys(["stage"])
    hashed = telemetry.guard.hash_value("crypto")
    with telemetry.stage_span("publish", "crypto") as span:
        telemetry.count("cache_hits_total", stage="crypto")
    assert span.attributes == {"pipeline": "publish", "stage": hashed}
    assert [labels for labels, _ in
            telemetry.metrics.histogram_series(STAGE_DURATION)] == [
        {"pipeline": "publish", "stage": "crypto"},
        {"pipeline": "publish", "stage": hashed}]
    assert telemetry.metrics.counter_value("cache_hits_total",
                                           stage="crypto") == 1.0
    plain = [span.attributes["stage"]
             for span in telemetry.tracer.spans_named("stage.crypto")]
    assert plain == ["crypto", "crypto", hashed]

    strict = InMemoryTelemetry(clock=Clock(), guard_mode="reject")
    with strict.stage_span("publish", "crypto"):
        pass
    strict.restrict_keys(["stage"])
    for _ in range(2):
        with pytest.raises(TelemetryPrivacyError):
            with strict.stage_span("publish", "crypto"):
                pass
        with pytest.raises(TelemetryPrivacyError):
            strict.observe(STAGE_DURATION, 0.0, pipeline="publish",
                           stage="crypto")


def test_bound_spans_share_their_attributes_read_only():
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="hash")
    with telemetry.stage_span("publish", "crypto") as first:
        pass
    with telemetry.stage_span("publish", "crypto") as second:
        telemetry.tracer.set_attribute(second, "outcome", "error")
    assert first.attributes is not second.attributes
    assert first.attributes == {"pipeline": "publish", "stage": "crypto"}
    assert second.attributes == {**first.attributes, "outcome": "error"}
    with pytest.raises(TypeError):
        first.attributes["outcome"] = "ok"


def test_reset_leaves_no_stale_bound_series():
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="hash")

    def emit():
        with telemetry.pipeline_span("publish"):
            with telemetry.stage_span("publish", "crypto"):
                telemetry.count("cache_hits_total", cache="decision")
                telemetry.gauge("bus.queue.depth", 3)

    emit()
    emit()
    before = telemetry.metrics_export()
    telemetry.metrics.reset()
    assert telemetry.metrics.snapshot() == []
    emit()
    emit()
    assert telemetry.metrics_export() == before


# -- (b) exports and span counts of the commit before the memo ----------------

#: sha256 of ``"\n".join(export)`` computed at the parent commit (789ee60).
#: ``css`` is the one-node run.  Its metrics digest was re-pinned when the
#: single-controller driver went and the run became a federation of one
#: (one more gauge, ``federation.node.queue_depth``); its trace digest and
#: both ``federated`` digests did not move.
PINNED = {
    "css": ("6d539ad5738503237a3af3d484d1cde3de8c6a7f1ab58a691ab5afed881cec47",
            "ed4570b30a961793e4e9825de43e974c8b2115281ea56d7a268056015cce6490"),
    "federated": (
        "c650119396f9b731b6e773e0fc422ec44d8e93bcd94c476ad8ec2e337d56cd25",
        "4f42244acb0b96dcb0e233271af4162d0258fa4d8ec00c16768b7481fc26a6a5"),
}


#: Audit head digests of the same runs, one per node.  Re-pinned on purpose
#: when a fan-out became ONE chained NOTIFY record (171 / 163 + 108 links
#: where there were 233 / 203 + 114) and id suffixes went from 4 to 12 hex
#: digits; the *logical* trail did not move and has its own pin,
#: ``tests/test_audit_fanout.py::LOGICAL_SHA256``.  NOTIFY recipients keep
#: their registration order.  ``css`` re-pinned again with the one driver
#: (``deploy_roster``'s deployment order, seed string ``fedsc-2010-node-0``
#: inside ids; same 171 links); ``federated`` did not move.
PINNED_AUDIT_HEADS = {
    "css": ["474cb932f555817e7d6b699f9db15cdd8f98d753990b3e06962b3909c3c0d0cb"],
    "federated": [
        "eb6134a84f6312a7cea38e2466b0146df3d8090bd5f86d88a924500008181b9d",
        "58fc26f0636d1b12c6a20c4e5f7bc13fd476393105f851ec1d567f709af78317"],
}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def css_scenario() -> CssScenario:
    scenario = CssScenario(ScenarioConfig(
        n_patients=8, n_events=40, detail_request_rate=0.4, seed=2010,
        runtime=RuntimeConfig(telemetry="inmemory", telemetry_guard="hash")))
    scenario.run(scenario.generate_workload())
    return scenario


def federated_scenario() -> CssScenario:
    scenario = CssScenario(ScenarioConfig(
        nodes=2, n_patients=10, n_events=60, seed=2010,
        runtime=RuntimeConfig(telemetry="inmemory", telemetry_guard="hash")))
    scenario.run()
    return scenario


def css_telemetry() -> InMemoryTelemetry:
    return css_scenario().telemetry


def federated_telemetry() -> InMemoryTelemetry:
    return federated_scenario().telemetry


@pytest.mark.parametrize("name, run", [("css", css_telemetry),
                                       ("federated", federated_telemetry)])
def test_exports_are_byte_identical_to_the_parent_commit(name, run):
    telemetry = run()
    assert (digest(telemetry.trace_export()),
            digest(telemetry.metrics_export())) == PINNED[name]


def test_audit_heads_are_those_of_the_parent_commit():
    heads = {
        "css": [css_scenario().controller.audit_log.head_digest],
        "federated": [node.controller.audit_log.head_digest
                      for node in federated_scenario().platform.nodes()],
    }
    assert heads == PINNED_AUDIT_HEADS


@pytest.fixture()
def prod(prod_platform):
    """The ledger's PROD configuration on two nodes, one subscriber."""
    platform, blood = prod_platform
    platform.subscribe("Dr-Rossi", "BloodTest")
    return platform, blood


def drive(platform, blood, first: int, count: int) -> None:
    """``count`` publishes, then a request for details of each (every
    tenth for a purpose no policy lists, which must be denied)."""
    for index, event_id in enumerate(publish(platform, blood, count, first)):
        purpose = ("statistical-analysis" if index % 10 == 9
                   else "healthcare-treatment")
        try:
            platform.request_details("Dr-Rossi", "BloodTest", event_id, purpose)
        except AccessDeniedError:
            assert index % 10 == 9


PUBLISH_STAGES = ("sched", "stats", "contract", "admission", "audit",
                  "consent", "persist", "crypto", "index", "route")
DETAILS_STAGES = ("stats", "audit", "resolve", "consent", "decide", "fetch",
                  "filter")


def test_span_count_per_publish_and_per_request_for_details(prod):
    """Nobody gets to make telemetry cheap by opening fewer spans."""
    platform, blood = prod

    def names_since(mark: int) -> list[str]:
        spans = platform.telemetry.tracer.finished_spans()[mark:]
        return sorted(span.name for span in spans)

    drive(platform, blood, 0, 1)
    mark = len(platform.telemetry.tracer.finished_spans())
    (event_id,) = publish(platform, blood, 1, first=1)
    assert names_since(mark) == sorted(
        ["pipeline.publish", *(f"stage.{stage}" for stage in PUBLISH_STAGES),
         "link.call", "federation.bus.relay"])  # 13, the relay to node-1
    mark += 13
    platform.request_details("Dr-Rossi", "BloodTest", event_id,
                             "healthcare-treatment")
    assert names_since(mark) == sorted(
        ["federation.request_details", "link.call", "federation.details.get",
         "pipeline.request-details",
         *(f"stage.{stage}" for stage in DETAILS_STAGES)])  # 11


# -- the deterministic overhead gate ------------------------------------------


def test_warm_hot_paths_classify_nothing_and_sanitize_only_to_hash(
        prod, monkeypatch):
    platform, blood = prod
    drive(platform, blood, 0, 200)  # warm-up: every static label set seen
    counts = {"classify": 0, "sanitize": 0}
    classify, sanitize = PrivacyGuard._classify, PrivacyGuard.sanitize

    def counted_classify(guard, key):
        counts["classify"] += 1
        return classify(guard, key)

    def counted_sanitize(guard, labels):
        counts["sanitize"] += 1
        return sanitize(guard, labels)

    monkeypatch.setattr(PrivacyGuard, "_classify", counted_classify)
    monkeypatch.setattr(PrivacyGuard, "sanitize", counted_sanitize)
    spans = len(platform.telemetry.tracer.finished_spans())
    drive(platform, blood, 1000, 200)
    assert len(platform.telemetry.tracer.finished_spans()) - spans > 4000
    # The platform labels nothing with an identity, so: no work at all.
    assert counts == {"classify": 0, "sanitize": 0}
    # A sample that does carry one is hashed on every emission, while its
    # key — new to this guard — is classified once for all fifty.
    telemetry = platform.telemetry
    for index in range(50):
        telemetry.count("probe_total", subject_ref=f"p{index % 5}",
                        pipeline="probe")
    assert counts == {"classify": 1, "sanitize": 50}


def test_a_fan_out_decodes_once_per_node_and_visits_only_its_queues(
        prod_platform, monkeypatch):
    """One publish to N subscribers among M >> N subscriptions: one
    ``from_xml`` on each node with a subscriber, N queue visits."""
    platform, blood = prod_platform
    other = platform.declare_event_class("Hospital", MessageSchema(
        "Discharge", [ElementDecl("PatientId", StringType(min_length=1),
                                  identifying=True)]))
    platform.producer("Hospital").define_policy(
        other.name, fields=["PatientId"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    inboxes = []
    for index in range(6):
        consumer = platform.add_consumer(
            f"Dr-{index}", f"Dr. {index}", role="family-doctor",
            node_id=f"node-{index % 2}")
        inboxes.append(consumer.inbox)
        platform.subscribe(consumer.actor_id, "BloodTest")
        for _ in range(20):  # subscriptions this publish is not for
            platform.subscribe(consumer.actor_id, other.name)
    assert sum(node.controller.bus.subscription_count
               for node in platform.nodes()) > 120
    publish(platform, blood, 1)  # warm-up: relay topic declared on node-1
    counts = {"from_xml": 0, "dispatch_subscription": 0}
    from_xml = NotificationMessage.from_xml.__func__
    dispatch_subscription = DeliveryEngine.dispatch_subscription

    def counted_from_xml(cls, text):
        counts["from_xml"] += 1
        return from_xml(cls, text)

    def counted_dispatch(engine, subscription):
        counts["dispatch_subscription"] += 1
        return dispatch_subscription(engine, subscription)

    monkeypatch.setattr(NotificationMessage, "from_xml",
                        classmethod(counted_from_xml))
    monkeypatch.setattr(DeliveryEngine, "dispatch_subscription",
                        counted_dispatch)
    publish(platform, blood, 1, first=1)
    # Three subscribers per node, and node-0's one relay toward node-1.
    assert counts == {"from_xml": 2, "dispatch_subscription": 6 + 1}
    assert [len(inbox) for inbox in inboxes] == [2] * 6
    assert len({id(inbox[1]) for inbox in inboxes}) == 2  # one object a node


@pytest.mark.parametrize("subscribers", [1, 3, 12])
def test_a_publish_appends_two_audit_records_whatever_the_fan_out(
        prod_platform, subscribers):
    """Fan-out + PUBLISH: a delivery costs a list append, not a chain link
    (12 subscribers used to be 13 records, encodes, hashes and frames)."""
    platform, blood = prod_platform
    for _ in range(subscribers):  # a re-subscribe adds a subscription
        platform.subscribe("Dr-Rossi", "BloodTest")
    logs = [node.controller.audit_log for node in platform.nodes()]
    publish(platform, blood, 1)  # warm-up: relay topic declared on node-1
    links = sum(len(log) for log in logs)
    notified = AuditQuery().by_action(AuditAction.NOTIFY)
    deliveries = sum(notified.count(log) for log in logs)
    publish(platform, blood, 1, first=1)
    assert sum(len(log) for log in logs) - links == 2
    assert sum(notified.count(log) for log in logs) - deliveries == subscribers


def test_there_is_one_notify_mint_site():
    """One place chains a NOTIFY (``AuditLog``'s run close), one place
    reports a delivery to it (the controller's notification sink)."""
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in SRC.rglob("*.py")}
    assert {name: text.count("AuditAction.NOTIFY")
            for name, text in sources.items() if "AuditAction.NOTIFY" in text} == {
        "audit/log.py": 1, "audit/reports.py": 1}  # the mint; a report's filter
    assert {name: text.count(".delivered(")
            for name, text in sources.items() if ".delivered(" in text} == {
        "core/controller.py": 1}


# -- the wall-clock sidecar ---------------------------------------------------


def test_wall_sidecar_counts_pipeline_executions_and_stays_out_of_exports():
    telemetry = css_telemetry()
    simulated = {labels["pipeline"]: summary["count"] for labels, summary
                 in telemetry.metrics.histogram_summaries(PIPELINE_DURATION)}
    wall = {labels["pipeline"]: summary for labels, summary
            in telemetry.wall.histogram_summaries(PIPELINE_WALL_DURATION)}
    assert simulated and {name: row["count"] for name, row in wall.items()} \
        == simulated
    assert all(0.0 < row["min"] <= row["p50"] <= row["p99"] <= row["max"] < 1.0
               for row in wall.values())
    store = TimeSeriesStore(telemetry.metrics, telemetry.clock)
    store.tick()
    exported = "\n".join(telemetry.metrics_export() + telemetry.trace_export())
    exported += json.dumps(telemetry.metrics.snapshot())
    exported += json.dumps(scenario_summary(telemetry, source="test"))
    exported += json.dumps(store.export_rows())
    assert "pipeline.duration_seconds" in exported
    assert "wall" not in exported
