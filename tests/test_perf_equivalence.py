"""Mode equivalence and the ``css-bench-perf/1`` schema gate.

The perf layer's acceptance property: ``perf: indexed`` and
``perf: none`` produce byte-identical decisions and audit trails on the
same seed — checked here through the benchmark core's own equivalence
harness, and enforced at CI time by ``benchmarks/check_bench.py``,
whose validation branches are unit-tested below.
"""

import copy

from benchmarks.check_bench import MIN_PDP_SPEEDUP, validate
from repro.perf.bench import SCHEMA_ID, run_equivalence_check
from repro.runtime.kernel import RuntimeConfig
from repro.sim.scenario import CssScenario, ScenarioConfig


class TestModeEquivalence:
    def test_equivalence_harness_reports_identical(self):
        result = run_equivalence_check(events=30, patients=6, seed=11)
        assert result["identical"] is True
        assert result["audit_records"] > 0

    def test_scenario_audit_trails_match_record_for_record(self):
        def run(perf: str):
            scenario = CssScenario(ScenarioConfig(
                n_patients=6, n_events=25, seed=5,
                runtime=RuntimeConfig(perf=perf),
            ))
            scenario.run()
            return [record.to_payload()
                    for record in scenario.controller.audit_log.records()]

        indexed, baseline = run("indexed"), run("none")
        assert len(indexed) == len(baseline)
        assert indexed == baseline


def measurement(ops: float = 100.0) -> dict:
    return {
        "iterations": 10,
        "ops_per_second": ops,
        "latency_seconds": {"p50": 0.001, "p95": 0.002, "p99": 0.003,
                            "mean": 0.0015, "min": 0.0005, "max": 0.004},
    }


def valid_payload() -> dict:
    comparison = {"indexed": measurement(300.0), "none": measurement(100.0),
                  "speedup": 3.0}
    return {
        "schema": SCHEMA_ID,
        "source": "unit-test",
        "quick": True,
        "pdp_decide": copy.deepcopy(comparison),
        "publish_fanout": copy.deepcopy(comparison),
        "federated_details": [{**copy.deepcopy(comparison), "nodes": 2}],
        "equivalence": {"identical": True, "audit_records": 42},
    }


class TestSchemaChecker:
    def test_valid_payload_has_no_problems(self):
        assert validate(valid_payload()) == []

    def test_wrong_schema_id_is_reported(self):
        payload = valid_payload()
        payload["schema"] = "css-bench-perf/0"
        assert any("schema" in problem for problem in validate(payload))

    def test_non_identical_equivalence_fails_the_gate(self):
        payload = valid_payload()
        payload["equivalence"]["identical"] = False
        assert any("equivalence.identical" in problem
                   for problem in validate(payload))

    def test_pdp_speedup_below_the_floor_fails(self):
        payload = valid_payload()
        payload["pdp_decide"]["speedup"] = MIN_PDP_SPEEDUP - 0.1
        assert any("floor" in problem for problem in validate(payload))

    def test_unordered_percentiles_are_rejected(self):
        payload = valid_payload()
        payload["pdp_decide"]["indexed"]["latency_seconds"]["p95"] = 0.01
        assert any("p50 <= p95 <= p99" in problem
                   for problem in validate(payload))

    def test_missing_federated_points_are_rejected(self):
        payload = valid_payload()
        payload["federated_details"] = []
        assert any("federated_details" in problem
                   for problem in validate(payload))

    def test_non_object_payload_is_one_problem(self):
        assert validate([]) == ["top level must be a JSON object"]

    def test_checker_cli_round_trip(self, tmp_path):
        import json

        from benchmarks.check_bench import main

        target = tmp_path / "BENCH_perf.json"
        target.write_text(json.dumps(valid_payload()))
        assert main([str(target)]) == 0
        assert main([str(tmp_path / "missing.json")]) == 1
        assert main([]) == 2
