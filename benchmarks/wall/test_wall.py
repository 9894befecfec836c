"""Self-tests of the wall-clock benchmark (``pytest benchmarks/wall -q``).

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run with
``PYTHONPATH=src`` like the rest of ``benchmarks/``.
"""

from __future__ import annotations

import json
import re
from array import array
from pathlib import Path

import pytest

import check
import driver
from catalogue import (
    END_TO_END, GATED, PER_LAYER, WORKLOADS, percentile, spread,
)
from trace import Tracer, layer_table, span_totals

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_OPS = 700


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One tiny traced unit of every workload."""
    base = tmp_path_factory.mktemp("wall")
    return {
        name: driver.run_unit(workload, 2010, base / name, trace=True,
                              ops=SMOKE_OPS)
        for name, workload in WORKLOADS.items()
    }


def test_every_workload_runs_and_passes_its_checks(smoke):
    for name, unit in smoke.items():
        assert all(unit["checks"].values()), (name, unit["checks"],
                                              unit["first_error"])
        assert unit["ops_total"] == SMOKE_OPS
        assert unit["publish_ms"] and unit["details_ms"]
        assert set(unit["per_layer"]) | {
            "obs.overhead_ratio", "trace.overhead_ratio",
        } == {metric.name for metric in PER_LAYER}


def test_one_node_workloads_never_touch_a_link(smoke):
    for name, unit in smoke.items():
        link_calls = (unit["per_layer"]["federation.link.calls"]
                      + unit["per_layer"]["federation.link.batch_calls"])
        if WORKLOADS[name].nodes == 1:
            assert link_calls == 0, name
        else:
            assert link_calls > 0, name


def test_injected_wrong_purpose_requests_are_all_denied(smoke):
    counts = smoke["details_1n"]["counts"]
    assert counts["expected_denies"] > 0
    assert counts["expected_denies_permitted"] == 0
    assert counts["details_deny"] >= counts["expected_denies"]


def test_churn_keeps_the_subscription_set_bounded(smoke):
    churn, steady = smoke["churn_1n"], smoke["steady_1n"]
    assert churn["counts"]["consent_toggles"] > 0
    assert churn["counts"]["subscribe"] > steady["counts"]["subscribe"]
    assert (churn["per_layer"]["bus.subscriptions_end"]
            < steady["per_layer"]["bus.subscriptions_end"])
    assert churn["per_layer"]["bus.unsubscribe_self_s"] > 0


def test_same_seed_same_plan_and_digests(tmp_path, smoke):
    workload = WORKLOADS["details_1n"]
    again = driver.run_unit(workload, 2010, tmp_path / "a", ops=SMOKE_OPS)
    other = driver.run_unit(workload, 2011, tmp_path / "b", ops=SMOKE_OPS,
                            recover=False)
    for digest in ("plan_digest", "audit_digest", "decision_digest"):
        # untraced == traced, and a repeat reproduces it bit for bit
        assert again[digest] == smoke["details_1n"][digest]
    assert again["store_bytes"] == smoke["details_1n"]["store_bytes"]
    assert other["plan_digest"] != again["plan_digest"]
    assert other["recover_s"] is None


def test_self_times_of_a_synthetic_tree():
    # root 0..10 { a 1..4 { b 2..3 }, a 5..9 }
    keys = [("driver", "root"), ("x", "a"), ("y", "b")]
    totals = span_totals(
        keys, array("H", [0, 1, 2, 1]), array("d", [0.0, 1.0, 2.0, 5.0]),
        array("d", [10.0, 4.0, 3.0, 9.0]), array("i", [-1, 0, 1, 0]),
    )
    assert totals[("driver", "root")] == {
        "calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert totals[("x", "a")] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert totals[("y", "b")] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert layer_table(totals) == {"x": 6.0, "driver": 3.0, "y": 1.0}
    assert sum(layer_table(totals).values()) == 10.0


def test_shims_nest_and_restore_leaves_everything_identical():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        @classmethod
        def make(cls):
            return cls()

    box = Box()
    before_class = dict(vars(Box))
    tracer = Tracer()
    tracer.install(box, "outer", "layer.a")
    tracer.install(Box, "inner", "layer.b",
                   weigh=lambda self: 5)
    tracer.install(Box, "make", "layer.b")
    assert box.outer() == 2 and isinstance(Box.make(), Box)
    tracer.restore()
    assert dict(vars(Box)) == before_class and vars(box) == {}
    assert [tracer.keys[k] for k in tracer.key] == [
        ("layer.a", "outer"), ("layer.b", "inner"), ("layer.b", "make")]
    assert list(tracer.parent) == [-1, 0, -1]
    assert tracer.weights[("layer.b", "inner")] == 5


def test_tracing_a_platform_restores_the_classes(tmp_path):
    from repro.core.messages import DetailMessage, NotificationMessage
    from repro.federation.link import Link
    from repro.federation.node import FederationNode
    from repro.xacml.pep import PolicyEnforcementPoint

    classes = (DetailMessage, NotificationMessage, Link, FederationNode,
               PolicyEnforcementPoint)
    before = [dict(vars(cls)) for cls in classes]
    driver.run_unit(WORKLOADS["steady_4n"], 3, tmp_path / "d", trace=True,
                    recover=False, ops=300)
    assert [dict(vars(cls)) for cls in classes] == before


def test_names_and_counts_fit_the_driver_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/wall"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workload.why) for name, workload in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in GATED]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    names = [m.name for m in (*END_TO_END, *PER_LAYER)] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(WORKLOADS) <= 8
    assert len(GATED) <= 16 and len(PER_LAYER) <= 128
    assert any(m.name == "setup_s" for m in GATED)
    assert all(0 < m.bound <= 0.25 for m in GATED)
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())


def test_order_statistics():
    assert percentile(list(range(1, 101)), 50) == 50
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([7.0], 99) == 7.0
    assert spread([10.0, 10.0, 10.0]) == 0.0
    assert spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


def test_calibration_stays_off_the_clocks_and_trims_the_slowest_tenth():
    from calibration import BURST, Calibrator, speed_factor

    calib = Calibrator()
    before = calib.clock(), calib.cpu_clock()
    calib.burst()
    after = calib.clock(), calib.cpu_clock()
    spent = sum(calib.slices_ms) / 1000.0
    assert len(calib.slices_ms) == BURST and spent > 0
    assert spent == pytest.approx(calib.spent_s)
    # the burst took ``spent`` seconds, the calibrator's clocks saw almost none
    assert after[0] - before[0] < spent / 2
    assert after[1] - before[1] < spent / 2
    assert len(calib.take()) == BURST and calib.take() == []
    assert speed_factor([2.0] * 9 + [50.0], 1.0) == 2.0
    assert speed_factor([3.0], 2.0) == 1.5


def test_a_unit_twice_as_slow_reads_the_same_at_reference_speed():
    import run

    def unit(slowdown):
        return {"setup_s": 1.0 * slowdown, "publish_ms": [2.0 * slowdown],
                "details_ms": [1.0 * slowdown], "lap_ms": [3.0 * slowdown],
                "cpu_lap_ms": [3.0 * slowdown], "window_s": 4.0 * slowdown,
                "barrier_s": 1.0 * slowdown, "cpu_s": 4.0 * slowdown,
                "barrier_cpu_s": 1.0 * slowdown,
                "verify_s": [9.0 * slowdown, 0.5 * slowdown],
                "recover_s": 2.0 * slowdown,
                "speed": {"setup": slowdown, "window": slowdown,
                          "verify": [3 * slowdown, slowdown],
                          "recover": slowdown}}

    quiet, slow = (run.at_reference_speed(unit(s)) for s in (1.0, 2.0))
    timings = ("setup_s", "publish_ms", "details_ms", "lap_ms", "cpu_lap_ms",
               "window_s", "barrier_s", "cpu_s", "barrier_cpu_s",
               "verify_s", "recover_s")
    assert {key: quiet[key] for key in timings} == {
        key: slow[key] for key in timings}
    assert quiet["verify_s"] == [3.0, 0.5]  # each pass by its own factor
    skipped = run.at_reference_speed({**unit(2.0), "recover_s": None})
    assert skipped["recover_s"] is None


def test_fastest_unit_takes_every_op_at_its_best():
    import run

    def unit(laps, barrier, passes, recover):
        return {"publish_ms": laps[:1], "details_ms": laps[1:],
                "lap_ms": laps, "barrier_s": barrier,
                "cpu_lap_ms": laps, "barrier_cpu_s": barrier,
                "verify_s": passes, "recover_s": recover}

    best = run.fastest_unit([unit([4.0, 1.0], 0.5, [7.0, 8.0, 9.0], 2.0),
                             unit([2.0, 3.0], 0.25, [1.0], None),
                             unit([5.0, 5.0], 0.75, [6.0], 4.0)])
    assert best["publish_ms"] == [2.0] and best["details_ms"] == [1.0]
    assert best["window_s"] == best["cpu_s"] == 0.003 + 0.25
    # verification and recovery: the median execution, skipped ones aside
    assert sorted(best["verify_s"]) == [1.0, 6.0, 7.0, 8.0, 9.0]
    assert best["recover_s"] == 3.0


def test_check_tells_regression_from_noise():
    lower = next(m for m in END_TO_END if m.name == "publish_p50_ms")
    higher = next(m for m in END_TO_END if m.name == "ops_per_s")

    def row(*values):
        return {"value": sorted(values)[len(values) // 2],
                "values": list(values)}

    steady = row(1.00, 1.01, 1.02)
    assert check.judge(lower, 0.15, steady, row(1.01, 1.02, 1.03)) == "ok"
    assert check.judge(lower, 0.15, steady,
                       row(1.30, 1.31, 1.32)) == "REGRESSION"
    assert check.judge(lower, 0.15, steady, row(0.5, 0.51, 0.52)) == "better"
    assert check.judge(lower, 0.15, steady,
                       row(0.9, 1.3, 1.7)) == "unresolved"
    assert check.judge(lower, 0.15, row(2.0, 2.5, 3.0),
                       row(0.9, 1.3, 1.7)) == "better"
    assert check.judge(higher, 0.15, row(100, 101, 102),
                       row(80, 81, 82)) == "REGRESSION"
    failed = next(m for m in END_TO_END if m.name == "failed_ops_share")
    assert check.judge(failed, 0.0, row(0.0), row(0.0)) == "ok"
    assert check.judge(failed, 0.0, row(0.0), row(0.01)) == "REGRESSION"
