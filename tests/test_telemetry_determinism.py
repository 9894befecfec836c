"""Determinism and reporting tests for the telemetry exports.

The platform's clock is simulated and trace/span ids come from plain
counters, so telemetry is a pure function of (seed, workload): two runs of
the same seeded scenario must produce byte-identical JSONL exports.  The
same property makes the ``BENCH_obs.json`` scenario summary reproducible,
which is what lets CI schema-check it on every push.
"""

from __future__ import annotations

import json

from repro.cli import main as cli_main
from repro.obs.benchreport import scenario_summary
from repro.runtime.kernel import RuntimeConfig
from repro.sim.scenario import CssScenario, ScenarioConfig

from benchmarks.check_bench import validate


def run_scenario(seed: int = 2010, n_events: int = 40, guard: str = "hash"):
    config = ScenarioConfig(
        n_patients=8, n_events=n_events, detail_request_rate=0.4, seed=seed,
        runtime=RuntimeConfig(telemetry="inmemory", telemetry_guard=guard),
    )
    scenario = CssScenario(config)
    scenario.run(scenario.generate_workload())
    return scenario


class TestTraceDeterminism:
    def test_same_seed_same_trace_bytes(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        run_scenario(seed=77).controller.telemetry.dump(trace_path=first)
        run_scenario(seed=77).controller.telemetry.dump(trace_path=second)
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0

    def test_same_seed_same_metrics_export(self):
        first = run_scenario(seed=77).controller.telemetry.metrics_export()
        second = run_scenario(seed=77).controller.telemetry.metrics_export()
        assert first == second

    def test_different_seed_different_trace(self):
        first = run_scenario(seed=77).controller.telemetry.trace_export()
        second = run_scenario(seed=78).controller.telemetry.trace_export()
        assert first != second

    def test_exported_spans_form_consistent_traces(self):
        telemetry = run_scenario().controller.telemetry
        spans = [json.loads(line) for line in telemetry.trace_export()]
        by_id = {span["span_id"] for span in spans}
        for span in spans:
            assert span["end"] is not None
            assert span["end"] >= span["start"]
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id


class TestScenarioSummary:
    def test_summary_passes_the_schema_check(self):
        telemetry = run_scenario().controller.telemetry
        payload = scenario_summary(telemetry, source="test")
        assert validate(payload) == []
        assert set(payload) == {"schema", "source", "counters"}
        executions = {key for key in payload["counters"]
                      if key.startswith("pipeline.invocations_total{")}
        assert any("pipeline=publish" in key for key in executions)

    def test_schema_check_flags_malformed_payloads(self):
        assert validate([]) == ["top level must be a JSON object"]
        problems = validate({"schema": "nope", "source": "", "counters": {}})
        assert any("schema" in problem for problem in problems)
        problems = validate({"schema": "css-bench-obs/3", "source": ""})
        assert any("source" in problem for problem in problems)
        assert any("counters" in problem for problem in problems)
        bad_counter = {"schema": "css-bench-obs/3", "source": "x",
                       "counters": {"bus.published_total{}": "many"}}
        assert any("counters" in problem for problem in validate(bad_counter))


class TestTelemetryCli:
    def test_cli_reports_and_writes_artifacts(self, tmp_path, capsys):
        bench_out = tmp_path / "BENCH_obs.json"
        trace_out = tmp_path / "trace.jsonl"
        code = cli_main([
            "telemetry", "--scenario", "default", "--events", "30",
            "--patients", "6", "--seed", "9",
            "--trace-out", str(trace_out), "--bench-out", str(bench_out),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "pipeline.wall_duration_seconds (wall s, this run):" in captured
        assert "(simulated s)" not in captured  # a span holds those durations
        assert "p95" in captured and "counters and gauges:" in captured
        assert trace_out.exists()
        payload = json.loads(bench_out.read_text())
        assert validate(payload) == []

    def test_cli_reject_guard_runs_clean(self, capsys):
        # The instrumentation itself must never trip the strict guard —
        # no identifying label ever reaches the registry.
        code = cli_main(["telemetry", "--events", "20", "--patients", "5",
                         "--guard", "reject"])
        assert code == 0
        assert "finished spans:" in capsys.readouterr().out

    def test_schema_check_cli_exit_codes(self, tmp_path, capsys):
        from benchmarks.check_bench import main as check_main

        missing = tmp_path / "missing.json"
        assert check_main([str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert check_main([str(bad)]) == 1
        assert check_main([]) == 2
        good = tmp_path / "good.json"
        good.write_text(json.dumps({
            "schema": "css-bench-obs/3", "source": "test",
            "counters": {"c": 1},
        }))
        assert check_main([str(good)]) == 0
        capsys.readouterr()  # drain stderr/stdout noise
