"""Acceptance tests for federation-wide observability.

The tentpole invariants:

1. a 2-node federated scenario stitches ONE distributed trace per
   cross-node request-for-details, with the remote spans — link hop,
   home-node server span, the home PDP pipeline — parented under the
   consumer-side root span;
2. stitched traces and metric exports are byte-identical across two
   same-seed runs (telemetry is a pure function of seed + workload);
3. under a scripted-drop link the SLO engine deterministically reports
   the ``link-delivery`` objective in breach and publishes alerts that
   carry only metric vocabulary.
"""

from __future__ import annotations

import json

from repro import RuntimeConfig
from repro.obs.slo import SLO_ALERT_TOPIC
from repro.obs.stitch import stitch_summary, stitched_lines
from repro.sim.scenario import CssScenario, ScenarioConfig
from tests.conftest import build_federation


def run_traced(seed: int = 7, nodes: int = 2, events: int = 40):
    scenario = CssScenario(ScenarioConfig(
        nodes=nodes, n_events=events, n_patients=8, seed=seed,
        per_node_telemetry=True, runtime=RuntimeConfig(telemetry="inmemory"),
    ))
    scenario.run()
    return scenario


class TestStitchedRequestTraces:
    def test_remote_details_stitch_under_the_consumer_side_root(self):
        deployment = build_federation(per_node_telemetry=True)
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        notification = deployment.publish_blood_test()
        platform.dispatch_all()
        platform.request_details(
            "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
            "healthcare-treatment",
        )

        traces = platform.stitched_trace()
        details = [t for t in traces
                   if t.root and t.root["name"] == "federation.request_details"]
        assert len(details) == 1  # ONE trace for the one remote request
        trace = details[0]
        assert trace.is_cross_node and len(trace.sites) == 2
        assert trace.orphan_spans() == ()

        by_id = {span["span_id"]: span for span in trace.spans}
        root = trace.root
        link = trace.span_named("link.call")
        server = trace.span_named("federation.details.get")
        pipeline = trace.span_named("pipeline.request-details")
        decide = trace.span_named("stage.decide")
        assert link["parent_id"] == root["span_id"]
        assert server["parent_id"] == link["span_id"]
        # The server side runs on the OTHER node: different site prefix.
        assert server["span_id"].split("/")[0] != root["span_id"].split("/")[0]
        # The home node's enforcement pipeline hangs under its server span.
        assert pipeline["parent_id"] == server["span_id"]
        ancestor = decide
        seen = set()
        while ancestor["parent_id"] is not None:
            assert ancestor["span_id"] not in seen
            seen.add(ancestor["span_id"])
            ancestor = by_id[ancestor["parent_id"]]
        assert ancestor["span_id"] == root["span_id"]

    def test_every_cross_node_span_is_parented(self):
        scenario = run_traced()
        traces = scenario.platform.stitched_trace()
        summary = stitch_summary(traces)
        assert summary["cross_node_traces"] > 0
        assert summary["orphan_spans"] == 0

    def test_one_stitched_trace_per_remote_request(self):
        scenario = run_traced()
        traces = scenario.platform.stitched_trace()
        detail_roots = [
            t for t in traces
            if t.root and t.root["name"] == "federation.request_details"
        ]
        # Every remote request produced exactly one trace, and each holds
        # exactly one home-side enforcement pipeline.
        assert detail_roots
        for trace in detail_roots:
            pipelines = [s for s in trace.spans
                         if s["name"] == "pipeline.request-details"]
            assert len(pipelines) == 1
            assert trace.is_cross_node


class TestFederatedDeterminism:
    def test_same_seed_runs_stitch_byte_identically(self):
        first = stitched_lines(run_traced(seed=11).platform.stitched_trace())
        second = stitched_lines(run_traced(seed=11).platform.stitched_trace())
        assert first == second
        assert first  # non-trivial surface

    def test_same_seed_runs_export_identical_metrics(self):
        def metric_lines(seed: int):
            scenario = run_traced(seed=seed)
            return [
                line
                for node_id in sorted(scenario.platform.node_telemetry)
                for line in scenario.platform
                .node_telemetry[node_id].metrics_export()
            ]

        first = metric_lines(13)
        second = metric_lines(13)
        assert first == second
        # Exported labels are in sorted key order everywhere.
        for line in first:
            labels = json.loads(line).get("labels", {})
            assert list(labels) == sorted(labels)

    def test_different_seeds_diverge(self):
        first = stitched_lines(run_traced(seed=11).platform.stitched_trace())
        second = stitched_lines(run_traced(seed=12).platform.stitched_trace())
        assert first != second


class TestScenarioSLO:
    def make_scenario(self, drops: int = 2):
        return CssScenario(ScenarioConfig(
            nodes=2, n_events=80, n_patients=12, seed=5, scripted_drops=drops,
            runtime=RuntimeConfig(telemetry="inmemory"),
        ))

    def test_scripted_drops_breach_link_delivery_deterministically(self):
        def payload():
            scenario = self.make_scenario()
            scenario.run()
            return scenario.slo_report(alert=False).to_payload()

        first = payload()
        assert first == payload()
        by_name = {row["name"]: row for row in first["objectives"]}
        assert by_name["link-delivery"]["breached"] is True
        assert by_name["link-delivery"]["burn_rate"] > 1.0
        assert first["breaches"] >= 1

    def test_clean_run_breaches_nothing(self):
        scenario = self.make_scenario(drops=0)
        scenario.run()
        report = scenario.slo_report(alert=False)
        assert report.breaches() == ()

    def test_drops_never_fail_a_call(self):
        scenario = self.make_scenario()
        report = scenario.run()
        links = scenario.platform.membership.links()
        assert sum(link.stats.failed_attempts for link in links) == 2
        # Every dropped call was redelivered by its retry budget.
        assert report.detail_requests == (report.detail_permits
                                          + report.detail_denies)

    def test_alerts_land_on_the_bus_with_metric_vocabulary_only(self):
        scenario = self.make_scenario()
        scenario.run()
        node_0 = scenario.platform.controller_of("node-0")
        received = []
        node_0.bus.declare_topic(SLO_ALERT_TOPIC)
        node_0.bus.subscribe("operator", SLO_ALERT_TOPIC,
                             lambda envelope: received.append(envelope))
        report = scenario.slo_report()
        assert len(received) == len(report.breaches()) >= 1
        for envelope in received:
            body = json.loads(envelope.body)
            assert body["alert"] == "slo-breach"
            assert {"name", "metric", "target", "attainment"} <= set(body)
            assert "pat" not in envelope.body and "node-" not in envelope.body
