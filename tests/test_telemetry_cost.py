"""What telemetry costs and what it may not change, pinned without a clock.

The guard classifies each label key once, static label sets resolve to
their series through a memo, a hot path's root span is bound once and
every span is a row of flat columns (docs/OBSERVABILITY.md, "Cost").
These tests hold that to account:

* the memoised paths return exactly what an uncached reference
  classification returns, whatever ``restrict_keys`` does in between;
* exports of two seeded scenarios are pinned — each move since the
  commit before the memo proven row by row — and every op opens exactly
  the spans of the boundaries it crosses;
* after warm-up the hot paths classify no key and run ``sanitize`` only
  for samples that carry an identifying label, a span builds no view,
  calls no recorder and reads the clock twice, a link hop encodes nothing
  and (under shared telemetry) mints no trace context, and a fan-out parses its
  notification once per node, visits only the queues it filled and costs
  the audit chain two links whatever its width — counts, which repeat
  exactly, where wall time cannot gate CI;
* the wall-clock sidecar gets one sample per pipeline execution and shows
  up in no export, and that sample is the only histogram one: no series
  restates a span's duration or the PDP's and policy index's counters.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
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
from repro.crypto.hashing import canonical_json
from repro.federation import link as link_module
from repro.obs.benchreport import scenario_summary
from repro.obs.context import TraceContext
from repro.obs.guard import (
    DEFAULT_BLOCKED_KEYS,
    DEFAULT_BLOCKED_MARKERS,
    PrivacyGuard,
    TelemetryPrivacyError,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import PIPELINE_WALL_DURATION, InMemoryTelemetry
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracing import SPAN_CAPACITY, Span, Tracer, _SpanScope
from repro.runtime.kernel import RuntimeConfig
from repro.sched import BacklogBound
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
            telemetry.count("cache_hits_total", pipeline="publish")
    telemetry.restrict_keys(["pipeline"])
    hashed = telemetry.guard.hash_value("publish")
    with telemetry.pipeline_span("publish") as span:
        telemetry.count("cache_hits_total", pipeline="publish")
    assert span.attributes == {"pipeline": hashed}
    assert sorted(labels["pipeline"] for labels, _ in
                  telemetry.metrics.counter_series("cache_hits_total")) == [
        hashed, "publish"]  # two series: before and after the switch
    assert telemetry.metrics.counter_value("cache_hits_total",
                                           pipeline="publish") == 1.0
    plain = [span.attributes["pipeline"]
             for span in telemetry.tracer.spans_named("pipeline.publish")]
    assert plain == ["publish", "publish", hashed]

    strict = InMemoryTelemetry(clock=Clock(), guard_mode="reject")
    with strict.pipeline_span("publish"):
        pass
    strict.restrict_keys(["pipeline"])
    for _ in range(2):
        with pytest.raises(TelemetryPrivacyError):
            with strict.pipeline_span("publish"):
                pass
        with pytest.raises(TelemetryPrivacyError):
            strict.observe("probe_seconds", 0.0, pipeline="publish")


def test_bound_spans_share_their_attributes_read_only():
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="hash")
    with telemetry.pipeline_span("publish") as first:
        pass
    with telemetry.pipeline_span("publish") as second:
        telemetry.tracer.set_attribute(second, "outcome", "error")
    assert first.attributes is not second.attributes
    assert first.attributes == {"pipeline": "publish"}
    assert second.attributes == {**first.attributes, "outcome": "error"}
    with pytest.raises(TypeError):
        first.attributes["outcome"] = "ok"


def test_generic_spans_share_one_cleared_mapping_per_static_set():
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="hash")
    with telemetry.span("link.call", op="index.store") as first:
        pass
    with telemetry.span("link.call", op="index.store") as second:
        telemetry.tracer.set_attribute(second, "outcome", "error")
    with telemetry.span("link.call", op="index.store") as third:
        pass
    assert first.attributes is third.attributes == {"op": "index.store"}
    assert second.attributes == {"op": "index.store", "outcome": "error"}
    with pytest.raises(TypeError):
        first.attributes["outcome"] = "ok"
    with telemetry.span("probe", subject_ref="p1") as identified:
        pass
    assert identified.attributes["subject_ref"].startswith("h:")


def test_reset_leaves_no_stale_bound_series():
    telemetry = InMemoryTelemetry(clock=Clock(), guard_mode="hash")

    def emit():
        with telemetry.pipeline_span("publish"):
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
#: (one more gauge, ``federation.node.queue_depth``).  Both metrics digests
#: were re-pinned again when the four histograms that restated spans and
#: PDP stats went: each is the earlier export with the rows of
#: ``pipeline.duration_seconds``, ``pipeline.stage.duration_seconds``,
#: ``xacml.pdp.policies_per_request`` and ``pdp.candidates_scanned``
#: filtered out (55 → 32 and 67 → 44 rows).  And again when the decision
#: cache went (``METRICS_BEFORE``).  The trace digests moved once, when
#: the hot paths stopped opening a ``stage.*`` span per stage (were
#: ``6d539ad5…`` / ``c6501193…``): each export is the earlier one minus its
#: ``stage.*`` rows (850 → 121 and 1,244 → 351 rows), span ids renumbered
#: in order and every span re-parented to its nearest other ancestor.
#: The ``federated`` metrics digest moved once more (was ``846d99ef…``)
#: when every series became a read of its owner's stats: two nodes share
#: that telemetry, and a gauge both serve now reads the larger of the two
#: where it read whichever bus set it last (``HIGH_WATER_BEFORE``).
#: Both trace digests moved again when a request's enforcement stopped
#: opening a root span of its own under the edge's on one node
#: (``TRACE_BEFORE``).
PINNED = {
    "css": ("6a3176f50ab6257df812bc1e7039cabdc0c09418fcdc02b67c899251a9a68d42",
            "b0c78c7c984bd6c1f859cd2b6dac6a72a3528fcecc11bacbd4a64c95beb6a1a7"),
    "federated": (
        "212e2d6be1d24448d4940e41c81da02414a9220d0b8472fcaf5db28b543d0b29",
        "6b634616e1509157b00790528513b1f2a5e1aa235a75636e25b3b5ab646efe8d"),
}

#: The trace digests while a request's enforcement opened its own
#: ``pipeline.request-details`` span under the edge's on one node:
#: :func:`with_enforcement_spans` of today's export reads as that export
#: byte for byte.
TRACE_BEFORE = {
    "css": "f6cd9df26c69fa9b48ad05ad0cc61311222e58e9d67a4c7f6921cab8da35abb7",
    "federated": "5c745b2439c141ada3d1ae07929df2e81994f1d3cd136eb36f385dc9337d59f1",
}


def with_enforcement_spans(export: list[str]) -> list[str]:
    """``export`` as it read when enforcement opened its own root span
    inside a request's edge.  Each edge span carrying an ``enforcement``
    outcome gets that child back: opened right after the edge and finished
    right before it, at the edge's times, failed as the edge failed unless
    the outcome is ``ok``.  Span ids are renumbered for the rows the
    children took."""
    rows = [json.loads(line) for line in export]
    edges: dict[str, list[int]] = {}  # site -> the edges' span numbers
    for row in rows:
        if "enforcement" in row["attributes"]:
            site, _, number = row["span_id"].rpartition("sp-")
            edges.setdefault(site, []).append(int(number))

    def before(span_id, child=0):
        if span_id is None or "sp-" not in span_id:
            return span_id
        site, _, number = span_id.rpartition("sp-")
        shift = sum(edge < int(number) for edge in edges.get(site, ()))
        return f"{site}sp-{int(number) + shift + child:06d}"

    lines = []
    for row in rows:
        outcome = row["attributes"].pop("enforcement", None)
        edge = {**row, "span_id": before(row["span_id"]),
                "parent_id": before(row["parent_id"])}
        if outcome is not None:
            failed = outcome != "ok"
            lines.append(canonical_json({
                **edge, "span_id": before(row["span_id"], child=1),
                "parent_id": edge["span_id"], "name": "pipeline.request-details",
                "attributes": {"pipeline": "request-details"},
                "status": row["status"] if failed else "ok",
                "error": row["error"] if failed else ""}))
        lines.append(canonical_json(edge))
    return lines

#: The ``bus.queue.high_water`` rows of the ``federated`` run that moved
#: with the gauge max-merge: topic -> (last set, as pushed; the max over
#: both nodes' ``ServiceBus.queue_high_water``).
HIGH_WATER_BEFORE = {
    "events.health.SpecialistReferral": (1.0, 2.0),
    "events.social.AutonomyAssessment": (1.0, 2.0),
    "events.social.HomeCareServiceEvent": (1.0, 3.0),
    "events.social.TelecareAlarm": (1.0, 3.0),
}

#: The metrics digests while a decision cache stood in front of the XACML
#: PDP, with that cache's hits and misses.  Every decision of both runs is
#: a permit; ``xacml.pdp.evaluations_total{decision=permit}`` counted the
#: misses (PDP evaluations) and now counts every decision, hits + misses
#: (41 / 43).  Put the two ``perf.cache.*{cache=decision}`` rows back and
#: the count at the misses, and the export is the one pinned before.
#: ``federated`` re-pinned with the gauge max-merge (was ``202b0f2e…``).
METRICS_BEFORE = {
    "css": ("5c5b412554181e55c183d1c56b12429d9e612606c3b15e0e19ccb96db2404644",
            8.0, 33.0),
    "federated": (
        "33099eb29a8157fef7464f0f080234b097d6a755f77ceacc022a29dc86e32d19",
        8.0, 35.0),
}


def with_decision_cache(export: list[str], hits: float, misses: float) -> list[str]:
    """``export`` as it read with the decision cache (see ``METRICS_BEFORE``)."""
    rows = [json.loads(line) for line in export]
    for row in rows:
        if row["name"] == "xacml.pdp.evaluations_total":
            assert row["labels"] == {"decision": "permit"}
            assert row["value"] == hits + misses
            row["value"] = misses
    rows += [{"labels": {"cache": "decision"}, "name": name, "type": "counter",
              "value": value}
             for name, value in (("perf.cache.hits", hits),
                                 ("perf.cache.misses", misses))]
    rows.sort(key=lambda row: (row["name"], sorted(row["labels"].items())))
    return [canonical_json(row) for row in rows]


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
    assert digest(with_enforcement_spans(telemetry.trace_export())) == TRACE_BEFORE[name]
    before, hits, misses = METRICS_BEFORE[name]
    assert digest(with_decision_cache(telemetry.metrics_export(), hits, misses)) == before


def test_a_shared_gauge_reads_the_max_over_its_nodes():
    """The ``federated`` metrics pin moved by the gauge max-merge only:
    each ``bus.queue.high_water`` row is the larger of the two nodes'
    marks, and with the rows that moved put back at the value the last
    push left, the export is the one pinned before (``846d99ef…``)."""
    scenario = federated_scenario()
    nodes = scenario.platform.nodes()
    export = scenario.telemetry.metrics_export()
    rows = [json.loads(line) for line in export]
    marks = {row["labels"]["topic"]: row["value"] for row in rows
             if row["name"] == "bus.queue.high_water"}
    assert marks == {topic: float(max(node.controller.bus.queue_high_water(topic)
                                      for node in nodes)) for topic in marks}
    for row in rows:
        if row["name"] == "bus.queue.high_water":
            pushed, read = HIGH_WATER_BEFORE.get(
                row["labels"]["topic"], (row["value"],) * 2)
            assert row["value"] == read
            row["value"] = pushed
    assert digest([canonical_json(row) for row in rows]) == \
        "846d99efc696880910565ff6b21386ab5126e4415c6e173435dce05db33dfc26"


#: ``span_skeleton`` of the same two runs' trace exports at the commit
#: whose export digests were ``6d539ad5…`` / ``c6501193…``, when a hot path
#: opened a ``stage.*`` span per stage (850 / 1,244 spans, 121 / 351 of
#: them not ``stage.*``).
PARENT_SKELETONS = {
    "css": "244583089a0f31f2bb4b07da509b561fc181148de0d26a97d7b59313629a567f",
    "federated": "8acc12b4dcd1910e223cd7f46726aedb77ddcfd7962698b3924ff489bd6f982d",
}


def span_skeleton(export: list[str]) -> str:
    """sha256 of a trace export minus its ``stage.*`` spans: every other
    span in order — name, trace, attributes, status, error, simulated
    start and end — with its parent read as the position of its nearest
    non-``stage.*`` ancestor (span ids are renumbered when spans go)."""
    rows = [json.loads(line) for line in export]
    parent_of = {row["span_id"]: row["parent_id"] for row in rows}
    kept = [row for row in rows if not row["name"].startswith("stage.")]
    position = {row["span_id"]: index for index, row in enumerate(kept)}
    skeleton = []
    for row in kept:
        parent = row["parent_id"]
        while parent is not None and parent not in position:
            parent = parent_of.get(parent)
        skeleton.append({
            **{key: value for key, value in row.items()
               if key not in ("span_id", "parent_id")},
            "parent": None if parent is None else position[parent]})
    return hashlib.sha256(json.dumps(skeleton, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, run", [("css", css_telemetry),
                                       ("federated", federated_telemetry)])
def test_spans_are_the_parents_minus_its_stage_spans(name, run):
    """The trace pins moved by the deleted ``stage.*`` spans only: the root
    spans and every other span keep their names, order, outcomes, times
    and ancestry."""
    export = with_enforcement_spans(run().trace_export())
    assert not [line for line in export
                if json.loads(line)["name"].startswith("stage.")]
    assert span_skeleton(export) == PARENT_SKELETONS[name]


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


#: Spans per warm publish (its root, the relay's hop and server span) and
#: per warm cross-node request for details (the consumer-side root, the
#: hop, the server span and the home node's Algorithm 1 root).
SPANS_PER_PUBLISH, SPANS_PER_REMOTE_DETAILS = 3, 4


def test_span_count_per_publish_and_per_request_for_details(prod):
    """Spans sit at operation boundaries: one root per operation (a publish
    1, a request for details through the controller edge 1 — Algorithm 1
    runs under the edge's root and leaves its outcome there), plus the
    spans of the layers a federated operation crosses.  No span per step
    of a path."""
    platform, blood = prod

    def names_since(mark: int) -> list[str]:
        spans = platform.telemetry.tracer.finished_spans()[mark:]
        return sorted(span.name for span in spans)

    drive(platform, blood, 0, 1)
    mark = len(platform.telemetry.tracer.finished_spans())
    (event_id,) = publish(platform, blood, 1, first=1)
    assert names_since(mark) == sorted(
        ["pipeline.publish", "link.call", "federation.bus.relay"])
    mark += SPANS_PER_PUBLISH
    platform.request_details("Dr-Rossi", "BloodTest", event_id,
                             "healthcare-treatment")
    assert names_since(mark) == sorted(
        ["federation.request_details", "link.call", "federation.details.get",
         "pipeline.request-details"])
    mark += SPANS_PER_REMOTE_DETAILS
    platform.add_consumer("Dr-Bianchi", "Dr. Bianchi", role="family-doctor",
                          node_id="node-0")  # homed with the producer
    mark = len(platform.telemetry.tracer.finished_spans())
    platform.request_details("Dr-Bianchi", "BloodTest", event_id,
                             "healthcare-treatment")
    spans = platform.telemetry.tracer.finished_spans()[mark:]
    assert [(span.name, span.parent_id, dict(span.attributes)) for span in spans] == [
        ("pipeline.request-details-edge", None,
         {"enforcement": "ok", "pipeline": "request-details-edge"})]


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
    assert len(platform.telemetry.tracer.finished_spans()) - spans == 200 * (
        SPANS_PER_PUBLISH + SPANS_PER_REMOTE_DETAILS)
    # The platform labels nothing with an identity, so: no work at all.
    assert counts == {"classify": 0, "sanitize": 0}
    # A sample that does carry one is hashed on every emission, while its
    # key — new to this guard — is classified once for all fifty.
    telemetry = platform.telemetry
    for index in range(50):
        telemetry.count("probe_total", subject_ref=f"p{index % 5}",
                        pipeline="probe")
    assert counts == {"classify": 1, "sanitize": 50}


def test_warm_spans_build_no_object_call_no_recorder_and_read_the_clock_twice(
        prod, monkeypatch):
    """Spans are rows: over 200 warm publishes and 200 warm requests for
    details no ``Span`` view is built (a generic ``span()`` — the
    platform's ``federation.request_details`` root — keeps its one scope
    object, which is its row's view), the flight recorder — which reads the tracer's rows
    itself — is never called, and telemetry reads the clock exactly twice
    per span (its open and its close)."""
    platform, blood = prod
    tracer = platform.telemetry.tracer
    assert platform.telemetry.recorder.tracer is tracer  # PROD records
    drive(platform, blood, 0, 200)  # warm-up
    counts = {"Span": 0, "recorder": 0, "clock": 0}
    build, now = Span.__init__, Clock.now

    def counted_build(span, *args):
        counts["Span"] += 1
        build(span, *args)

    def counted_now(clock):
        if sys._getframe(1).f_globals["__name__"].startswith("repro.obs."):
            counts["clock"] += 1
        return now(clock)

    def counted(method):
        def call(*args, **kwargs):
            counts["recorder"] += 1
            return method(*args, **kwargs)
        return call

    monkeypatch.setattr(Span, "__init__", counted_build)
    monkeypatch.setattr(Clock, "now", counted_now)
    for name, member in vars(FlightRecorder).items():
        if inspect.isfunction(member) and name != "__init__":
            monkeypatch.setattr(FlightRecorder, name, counted(member))
    first = tracer.closed
    drive(platform, blood, 1000, 200)
    spans = tracer.closed - first
    assert spans == 200 * (SPANS_PER_PUBLISH + SPANS_PER_REMOTE_DETAILS)
    assert counts == {"Span": 0, "recorder": 0, "clock": 2 * spans}


def test_warm_hops_encode_nothing_build_no_span_and_mint_no_context(
        prod, monkeypatch):
    """A hop keeps nothing: the link module has no encoder to call, and
    over 200 warm publishes and 200 warm requests for details the link and
    server spans open by row — the only scopes built are the platform's
    ``federation.request_details`` roots — no ``Span`` view is built, no
    trace context is minted under shared telemetry, and the clock is still
    read twice per span."""
    platform, blood = prod
    tracer = platform.telemetry.tracer
    drive(platform, blood, 0, 200)  # warm-up
    assert not hasattr(link_module, "canonical_json")
    counts = {"Span": 0, "scope": 0, "TraceContext": 0, "clock": 0}
    now = Clock.now

    def counted(name, method):
        def call(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return call

    def counted_now(clock):
        if sys._getframe(1).f_globals["__name__"].startswith("repro.obs."):
            counts["clock"] += 1
        return now(clock)

    monkeypatch.setattr(Span, "__init__", counted("Span", Span.__init__))
    monkeypatch.setattr(_SpanScope, "__init__",
                        counted("scope", _SpanScope.__init__))
    monkeypatch.setattr(TraceContext, "__init__",
                        counted("TraceContext", TraceContext.__init__))
    monkeypatch.setattr(Clock, "now", counted_now)
    first = tracer.closed
    drive(platform, blood, 1000, 200)
    names = [tracer.names[row % SPAN_CAPACITY]
             for row in tracer.finished_rows()[first - tracer.closed:]]
    assert names.count("link.call") >= 400  # a relay and a details.get each
    assert names.count("federation.details.get") == 200
    assert counts == {"Span": 0,
                      "scope": names.count("federation.request_details"),
                      "TraceContext": 0, "clock": 2 * len(names)}


def test_a_fan_out_decodes_once_per_node_and_visits_only_its_queues(
        prod_platform, monkeypatch):
    """One publish to N subscribers among M >> N subscriptions, every
    queue idle: no ``from_xml`` anywhere (the bus and the relay frame carry
    the notification as a value), N handler calls and no queue visit, one
    ``note_fanout`` per bus and no ``should_shed`` (an empty queue cannot
    shed)."""
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
    counts = {"from_xml": 0, "dispatch_subscription": 0, "deliver": 0,
              "should_shed": 0}
    from_xml = NotificationMessage.from_xml.__func__

    def counted(name, method):
        def call(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return call

    def counted_from_xml(cls, text):
        counts["from_xml"] += 1
        return from_xml(cls, text)

    monkeypatch.setattr(NotificationMessage, "from_xml",
                        classmethod(counted_from_xml))
    for owner, name in ((DeliveryEngine, "dispatch_subscription"),
                        (DeliveryEngine, "deliver"),
                        (BacklogBound, "should_shed")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    publish(platform, blood, 1, first=1)
    # Three subscribers per node, and node-0's one relay toward node-1.
    assert counts == {"from_xml": 0, "dispatch_subscription": 0,
                      "deliver": 6 + 1, "should_shed": 0}
    assert [len(inbox) for inbox in inboxes] == [2] * 6
    assert len({id(inbox[1]) for inbox in inboxes}) == 2  # one object a node


#: The scheduler surface the wall ledger times as ``sched.calls``.
SCHED_SURFACE = ("submit", "admit", "ingress", "should_shed", "note_shed",
                 "note_publish", "note_fanout", "drain")


def test_scheduler_calls_per_publish_and_per_request_for_details(
        prod, monkeypatch):
    """Counted as the ledger counts them (instance shims, so a call one
    of these makes to another counts too), over 100 warm ops each: no
    publish and no request for details calls the scheduler, and an idle
    queue is never asked whether it must shed."""
    platform, blood = prod
    for _ in range(11):  # a re-subscribe adds a subscription
        platform.subscribe("Dr-Rossi", "BloodTest")
    drive(platform, blood, 0, 20)  # warm-up
    counts = dict.fromkeys(SCHED_SURFACE, 0)
    for node in platform.nodes():
        sched = node.controller.sched
        for name in SCHED_SURFACE:
            def call(*args, name=name, method=getattr(sched, name), **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)
            monkeypatch.setattr(sched, name, call)
    event_ids = publish(platform, blood, 100, first=1000)
    per_publish = {name: count / 100 for name, count in counts.items() if count}
    counts.update(dict.fromkeys(SCHED_SURFACE, 0))
    for event_id in event_ids:
        platform.request_details("Dr-Rossi", "BloodTest", event_id,
                                 "healthcare-treatment")
    per_request = {name: count / 100 for name, count in counts.items() if count}
    # A publish on node-0 relayed to node-1's twelve subscriptions, and a
    # request for details: neither asks the scheduler anything.
    assert per_publish == {}
    assert per_request == {}


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
    roots: dict[str, int] = {}
    for span in telemetry.tracer.finished_spans():
        if span.name.startswith("pipeline."):
            pipeline = span.name.removeprefix("pipeline.")
            roots[pipeline] = roots.get(pipeline, 0) + 1
    wall = {labels["pipeline"]: summary for labels, summary
            in telemetry.wall.histogram_summaries(PIPELINE_WALL_DURATION)}
    assert roots and {name: row["count"] for name, row in wall.items()} \
        == roots
    assert all(0.0 < row["min"] <= row["p50"] <= row["p99"] <= row["max"] < 1.0
               for row in wall.values())
    store = TimeSeriesStore(telemetry.metrics, telemetry.clock,
                            ("pipeline.invocations_total",))
    store.tick()
    exported = "\n".join(telemetry.metrics_export() + telemetry.trace_export())
    exported += json.dumps(telemetry.metrics.snapshot())
    exported += json.dumps(scenario_summary(telemetry, source="test"))
    exported += json.dumps(store.export_rows())
    assert "pipeline.invocations_total" in exported
    assert "wall" not in exported


# -- a span records its own time ----------------------------------------------


@pytest.mark.parametrize("nodes", [1, 2])
def test_no_histogram_restates_a_span_or_a_pdp_counter(nodes, monkeypatch):
    """A span's start and end are its simulated duration, and the
    enforcer's decision stats count the policies a decision walked: after a
    PROD-config run the registry holds no histogram series, the wall
    sidecar holds only the pipeline's wall latency, and the only histogram
    sample a pipeline execution takes is that one."""
    observes = []
    real_observe = Histogram.observe
    monkeypatch.setattr(Histogram, "observe", lambda self, value: (
        observes.append(value), real_observe(self, value)))
    scenario = CssScenario(ScenarioConfig(
        nodes=nodes, n_patients=10, n_events=60, seed=2010,
        runtime=RuntimeConfig(telemetry="inmemory", batch="on",
                              recorder="ring")))
    scenario.run()
    telemetry = scenario.telemetry
    assert telemetry.metrics.histogram_entries() == []
    wall = telemetry.wall.histogram_entries()
    assert {name for (name, _), _ in wall} == {PIPELINE_WALL_DURATION}
    executions = sum(1 for span in telemetry.tracer.finished_spans()
                     if span.name.startswith("pipeline."))
    assert len(observes) == sum(series.count for _, series in wall) == executions
    controllers = [node.controller for node in scenario.platform.nodes()]
    assert sum(c.enforcer.pdp_stats.requests for c in controllers) > 0
    assert sum(c.enforcer.pdp_stats.policies_evaluated for c in controllers) > 0
