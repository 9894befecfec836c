"""The bench-trajectory checker: baselines, regressions, schema drift."""

import json
from pathlib import Path

import pytest
from benchmarks.check_bench import (
    SCHEMAS,
    UNITS,
    compare,
    main,
    make_baseline,
    resolve,
    tracked_units,
)


BENCH = Path("BENCH_obs.json")


def obs_payload(ops=100.0, schema="css-bench-obs/2"):
    return {
        "schema": schema,
        "benchmarks": [
            {"name": "publish", "ops_per_second": ops},
            {"name": "subscribe", "ops_per_second": ops * 2},
        ],
    }


@pytest.fixture()
def baseline():
    return make_baseline(BENCH, obs_payload())


class TestResolve:
    def test_walks_dicts_and_list_indices(self):
        payload = {"arms": {"fair": {"jain_index": 0.9}},
                   "nodes": [{"events_per_second": 5.0}]}
        assert resolve(payload, "arms.fair.jain_index") == 0.9
        assert resolve(payload, "nodes.0.events_per_second") == 5.0

    def test_missing_path_is_none(self):
        assert resolve({}, "a.b.c") is None
        assert resolve({"a": [1]}, "a.5") is None


class TestMakeBaseline:
    def test_records_schema_and_tracked_figures(self, baseline):
        assert baseline["bench"] == "BENCH_obs.json"
        assert baseline["schema"] == "css-bench-obs/2"
        assert baseline["throughput"] == {
            "benchmarks.0.ops_per_second": 100.0,
            "benchmarks.1.ops_per_second": 200.0,
        }

    def test_every_tracked_bench_names_dotted_paths(self):
        tracked = {schema_id: tracked_units(schema_id)
                   for schema_id, schema in SCHEMAS.items() if schema.tracked}
        assert len(tracked) >= 4
        for schema_id, units in tracked.items():
            for path, unit in units.items():
                assert unit in UNITS, f"{schema_id}: {path} has no unit"

    def test_wall_figures_are_reported_but_never_baselined(self):
        payload = {
            "schema": "css-bench-incident/1",
            "arms": {"ring": {"sim_events_per_second": 51.0,
                              "wall_seconds": 1.2}},
        }
        units = tracked_units(payload["schema"])
        assert units["arms.ring.wall_seconds"] == "wall_seconds"
        document = make_baseline(Path("BENCH_incident.json"), payload)
        assert document["throughput"] == {
            "arms.ring.sim_events_per_second": 51.0}
        document["throughput"]["arms.ring.wall_seconds"] = 1.2
        problems = compare(Path("BENCH_incident.json"), payload, document,
                           min_ratio=0.8)
        assert any("non-wall" in problem for problem in problems)


class TestCompare:
    def test_same_payload_is_clean(self, baseline):
        assert compare(BENCH, obs_payload(), baseline,
                       min_ratio=0.8) == []

    def test_small_drift_within_ratio_is_clean(self, baseline):
        assert compare(BENCH, obs_payload(ops=85.0), baseline,
                       min_ratio=0.8) == []

    def test_throughput_drop_fails(self, baseline):
        problems = compare(BENCH, obs_payload(ops=50.0), baseline,
                           min_ratio=0.8)
        assert problems
        assert any("drop" in problem for problem in problems)

    def test_schema_change_fails(self, baseline):
        problems = compare(BENCH, obs_payload(schema="css-bench-obs/3"),
                           baseline, min_ratio=0.8)
        assert any("schema" in problem for problem in problems)

    def test_missing_figure_fails(self, baseline):
        payload = obs_payload()
        payload["benchmarks"].pop()
        problems = compare(BENCH, payload, baseline, min_ratio=0.8)
        assert any("disappeared" in problem for problem in problems)


class TestMain:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_update_seeds_then_compare_passes(self, tmp_path, monkeypatch,
                                              capsys):
        import benchmarks.check_bench as mod
        monkeypatch.setattr(mod, "BASELINE_DIR", tmp_path / "baselines")
        current = self.write(tmp_path, "BENCH_obs.json", obs_payload())
        assert main(["--update", str(current)]) == 0
        assert (tmp_path / "baselines" / "BENCH_obs.json").exists()
        assert main(["--trajectory", str(current)]) == 0
        assert "within" in capsys.readouterr().out

    def test_regression_fails_against_committed_baseline(self, tmp_path,
                                                         monkeypatch):
        import benchmarks.check_bench as mod
        monkeypatch.setattr(mod, "BASELINE_DIR", tmp_path / "baselines")
        fast = self.write(tmp_path, "BENCH_obs.json", obs_payload())
        assert main(["--update", str(fast)]) == 0
        slow = self.write(tmp_path, "BENCH_obs.json", obs_payload(ops=10.0))
        assert main(["--trajectory", str(slow)]) == 1

    def test_missing_baseline_skips_without_failing(self, tmp_path,
                                                    monkeypatch, capsys):
        import benchmarks.check_bench as mod
        monkeypatch.setattr(mod, "BASELINE_DIR", tmp_path / "nowhere")
        current = self.write(tmp_path, "BENCH_obs.json", obs_payload())
        assert main(["--trajectory", str(current)]) == 0
        assert "no committed baseline" in capsys.readouterr().out

    def test_missing_payload_file_fails(self, tmp_path, monkeypatch):
        import benchmarks.check_bench as mod
        monkeypatch.setattr(mod, "BASELINE_DIR", tmp_path / "baselines")
        assert main(["--trajectory", str(tmp_path / "BENCH_obs.json")]) == 1
