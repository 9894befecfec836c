"""The federated scenario driver and the benchmark schema checker."""

import copy

import pytest

from benchmarks import bench_federation, bench_obs_federation
from benchmarks.bench_federation import SCHEMA_ID, build_summary, run_point
from benchmarks.check_bench import validate
from repro.exceptions import ConfigurationError
from repro.federation.scenario import FederatedScenario, FederatedScenarioConfig


def run_scenario(nodes: int, **overrides):
    config = FederatedScenarioConfig(
        nodes=nodes, n_events=80, n_patients=15, seed=7, **overrides
    )
    return FederatedScenario(config).run()


class TestFederatedScenario:
    def test_functional_results_are_invariant_in_the_node_count(self):
        single = run_scenario(1)
        double = run_scenario(2)
        # Sharding must not change WHAT happens, only where.
        assert double.events_published == single.events_published
        assert double.notifications_delivered == single.notifications_delivered
        assert double.detail_permits == single.detail_permits
        assert double.detail_denies == single.detail_denies

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
            FederatedScenarioConfig(nodes=0)
        with pytest.raises(ConfigurationError):
            FederatedScenarioConfig(detail_request_rate=1.5)


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
