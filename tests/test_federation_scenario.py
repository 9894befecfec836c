"""The federated scenario driver and the benchmark schema checker."""

import copy
from dataclasses import asdict

import pytest

from benchmarks import bench_federation, bench_obs_federation
from benchmarks.bench_federation import SCHEMA_ID, build_summary, run_point
from benchmarks.check_bench import validate
from repro import RuntimeConfig
from repro.exceptions import ConfigurationError
from repro.runtime.backends import JsonlAuditSink
from repro.sim.scenario import CssScenario, ScenarioConfig
from repro.storage.segment import SegmentedLog


def run_scenario(nodes: int, **overrides):
    config = ScenarioConfig(
        nodes=nodes, n_events=80, n_patients=15, seed=7, **overrides
    )
    return CssScenario(config).run()


class TestFederatedScenario:
    def test_functional_results_are_invariant_in_the_node_count(self):
        # Sharding must not change WHAT happens, only where: the counters
        # and the Fig. 1 exposure ledger are the same at every N.
        def outcome(report):
            return (report.events_published, report.events_blocked_by_consent,
                    report.notifications_delivered, report.detail_requests,
                    report.detail_permits, report.detail_denies,
                    asdict(report.exposure))

        single = run_scenario(1)
        assert single.detail_permits > 0 and single.exposure.disclosures > 0
        for nodes in (2, 4):
            report = run_scenario(nodes)
            assert outcome(report) == outcome(single)
            assert report.nodes == len(report.node_reports) == nodes
            assert report.audit_chains_verified

    def test_a_federation_of_one_never_builds_or_calls_a_link(self):
        scenario = CssScenario(ScenarioConfig(
            nodes=1, n_events=80, n_patients=15, seed=7))
        report = scenario.run()
        assert report.cross_node_hops == 0
        assert scenario.platform.link_transcripts() == []
        assert scenario.platform.membership.links() == ()
        assert scenario.controller is scenario.platform.controller_of("node-0")

    def test_hops_appear_only_with_peers(self):
        assert run_scenario(1).cross_node_hops == 0
        assert run_scenario(2).cross_node_hops > 0

    def test_makespan_shrinks_as_nodes_are_added(self):
        single = run_scenario(1)
        double = run_scenario(2)
        assert double.makespan_seconds < single.makespan_seconds
        assert double.routing_throughput > single.routing_throughput

    def test_every_audit_chain_verifies(self):
        report = run_scenario(2)
        assert report.audit_chains_verified
        assert len(report.node_reports) == 2
        assert all(n.audit_records > 0 for n in report.node_reports)

    def test_report_text_renders(self):
        text = run_scenario(2).to_text()
        assert "FEDERATED CSS SCENARIO REPORT" in text
        assert "nodes:                   2" in text

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(nodes=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(detail_request_rate=1.5)
        with pytest.raises(ConfigurationError, match="no links to drop"):
            ScenarioConfig(nodes=1, scripted_drops=2)


class TestBenchmarkSchema:
    @pytest.fixture(scope="class")
    def summary(self):
        points = [run_point(nodes, events=80, patients=15, seed=7)
                  for nodes in (1, 2)]
        return build_summary(points, events=80, patients=15, seed=7)

    def test_real_summary_validates_clean(self, summary):
        assert validate(summary) == []
        assert summary["schema"] == SCHEMA_ID

    def test_wrong_schema_id_is_rejected(self, summary):
        broken = copy.deepcopy(summary)
        broken["schema"] = "something-else/9"
        assert any("schema" in error for error in validate(broken))

    def test_non_increasing_throughput_is_rejected(self, summary):
        broken = copy.deepcopy(summary)
        broken["scaling"][1]["events_per_simulated_second"] = (
            broken["scaling"][0]["events_per_simulated_second"]
        )
        errors = validate(broken)
        assert any("increas" in error for error in errors)

    def test_non_increasing_node_counts_are_rejected(self, summary):
        broken = copy.deepcopy(summary)
        broken["scaling"][1]["nodes"] = broken["scaling"][0]["nodes"]
        assert validate(broken) != []

    def test_missing_numbers_are_rejected(self, summary):
        broken = copy.deepcopy(summary)
        del broken["scaling"][0]["makespan_seconds"]
        assert validate(broken) != []

    def test_empty_scaling_is_rejected(self, summary):
        broken = copy.deepcopy(summary)
        broken["scaling"] = []
        assert validate(broken) != []


@pytest.mark.parametrize("driver", [bench_federation, bench_obs_federation])
def test_a_malformed_node_list_exits_2_with_the_message(driver, capsys):
    """Both drivers used to answer ``--nodes 1,x`` with a ValueError
    traceback; they now share ``parse_node_counts`` with the CLI."""
    assert driver.main(["--nodes", "1,x"]) == 2
    assert "--nodes '1,x' is not a comma-separated list" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("nodes", [1, 2])
def test_a_durable_group_commit_run_ends_settled(tmp_path, nodes):
    """``run()`` ends with the barrier at every N.  The single-controller
    driver had none: at seed 2010 it returned with 71 of 583 audit links
    and all 200 index rows still in group-commit buffers."""
    scenario = CssScenario(ScenarioConfig(
        nodes=nodes, n_patients=30, n_events=200, seed=2010,
        runtime=RuntimeConfig(batch="on", data_dir=tmp_path)))
    report = scenario.run()
    indexed = 0
    for node in scenario.platform.nodes():
        cold = JsonlAuditSink(SegmentedLog(tmp_path / node.node_id / "audit"))
        cold.verify_integrity()
        live = node.controller.audit_log
        assert (len(cold), cold.head_digest) == (len(live), live.head_digest)
        indexed += len(SegmentedLog(tmp_path / node.node_id / "index"))
    assert indexed == report.events_published == 200
