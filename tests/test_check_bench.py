"""One parametrised suite over the BENCH schema table.

For every row of ``benchmarks.check_bench.SCHEMAS`` a known-good payload
passes, and every kind of mutation the per-artifact checkers used to
catch still fails: wrong schema id, missing key, non-monotone
percentiles, digest mismatch, speed-up below its floor, a leaked
identifier (the privacy gate now runs on *every* schema), a tampered
bundle file — with exit codes 0/1/2 from the one ``main``.
"""

import copy
import json

import pytest
from benchmarks.check_bench import (
    SCHEMAS,
    main,
    tracked_units,
    validate,
    validate_bundle_dir,
)

from repro.obs.incident import write_bundle

DIGEST = "sha256:" + "a" * 64
LATENCY = {"p50": 0.001, "p95": 0.002, "p99": 0.003,
           "mean": 0.0015, "min": 0.0005, "max": 0.004}
COUNTERS = {"published": 40, "publish_blocked": 1, "detail_permits": 20,
            "detail_denies": 2, "subscribe_ops": 3}


def _perf_comparison():
    measurement = {"ops_per_second": 300.0, "iterations": 10,
                   "latency_seconds": dict(LATENCY)}
    return {"indexed": copy.deepcopy(measurement),
            "none": copy.deepcopy(measurement), "speedup": 3.0}


def _storage_kind(**extra):
    return {"ingest_events_per_second": 9000.0, "recovery_seconds": 0.01,
            "recovery_peak_kb": 120.0, "size_bytes": 4096, **extra}


def _fairness_arm(sched, jain, victim):
    tenant = {"weight": 1.0, "share": 0.5, "satisfaction": 0.9,
              "served_work": 3.0, "arrived_work": 3.3,
              "max_wait_seconds": 0.2, "starvation_seconds": 0.1,
              "p99_wait_seconds": 0.15, "throttled": 0, "shed": 0,
              "demotions": 0, "recoveries": 0, "penalized": False}
    return {"sched": sched, **COUNTERS, "throttled_total": 0,
            "shed_total": 0, "penalized_tenants": 0, "audit_records": 90,
            "jain_index": jain, "victim_share": victim,
            "victim_total_share": 0.1, "victim_p99_wait_seconds": 0.2,
            "victim_starvation_seconds": 0.1, "max_starvation_seconds": 0.3,
            "audit_digest": DIGEST,
            "tenants": {"h:aa11": dict(tenant), "h:bb22": dict(tenant)}}


def _overhead_arm(recorder):
    return {**COUNTERS, "incidents": 1, "ticks": 12, "timeline_rows": 30,
            "recorder": recorder, "simulated_seconds": 7.0,
            "sim_events_per_second": 51.0, "wall_seconds": 1.2,
            "wall_ops_per_second": 500.0}


TRIGGER = {"kind": "penalty-demotion", "at": 1.5,
           "detail": {"baseline": 0, "demotions": 1}}
BURN_POINT = {"at": 1.0, "attainment": 0.9, "observed": 0.1, "burn_rate": 2.0}

GOOD = {
    "css-bench-obs/2": {
        "source": "pytest",
        "benchmarks": [
            {"name": "pipeline.publish", "figure": "scenario",
             "ops_per_second": 0.018, "latency_seconds": dict(LATENCY)},
            {"name": "pipeline.request-details", "figure": "scenario",
             "ops_per_second": 0.012, "latency_seconds": dict(LATENCY)},
        ],
        "counters": {"bus.published_total{}": 40},
        "slo": {"evaluated_at": 10.0, "breaches": 0, "objectives": [
            {"name": "publish-latency", "target": 0.99, "attainment": 1.0,
             "breached": False, "burn_rate": 0.0}]},
        "stitched_trace": {"traces": 4, "spans": 20, "cross_node_traces": 2,
                           "orphan_spans": 0},
    },
    "css-bench-federation/1": {
        "source": "pytest",
        "workload": {"events": 120, "patients": 30, "seed": 2010},
        "scaling": [
            {"nodes": 1, "events_published": 120,
             "notifications_delivered": 300, "cross_node_hops": 0,
             "makespan_seconds": 0.72, "events_per_simulated_second": 166.7,
             "wall_seconds": 0.2},
            {"nodes": 2, "events_published": 120,
             "notifications_delivered": 300, "cross_node_hops": 200,
             "makespan_seconds": 0.5, "events_per_simulated_second": 240.0,
             "wall_seconds": 0.3},
        ],
    },
    "css-bench-perf/1": {
        "source": "pytest", "quick": True,
        "pdp_decide": _perf_comparison(),
        "publish_fanout": _perf_comparison(),
        "federated_details": [{**_perf_comparison(), "nodes": 2}],
        "equivalence": {"identical": True, "audit_records": 42},
    },
    "css-bench-storage/1": {
        "source": "pytest", "quick": True,
        "points": [{
            "events": 400,
            "kinds": {"jsonl": _storage_kind(),
                      "segmented": _storage_kind(post_compaction_bytes=2048)},
            "compaction": {"records_before": 400, "records_after": 300,
                           "bytes_reclaimed": 2048},
        }],
        "equivalence": {"identical": True, "audit_records": 42},
    },
    "css-bench-capacity/1": {
        "source": "pytest", "scenario": "steady", "seed": 2010,
        "population": 300, "ops": 120, "arrival": "poisson",
        "nodes": [
            {"nodes": nodes, "ops": 120, **COUNTERS, "cross_node_hops": hops,
             "queue_depth_high_water": 4, "dead_letter_high_water": 0,
             "audit_records": 369, "events_per_second": 180.0,
             "details_per_second": 80.0, "makespan_seconds": 0.4,
             "simulated_seconds": 2.5, "audit_digest": DIGEST,
             "latency_seconds": {"publish": dict(LATENCY),
                                 "details": dict(LATENCY)}}
            for nodes, hops in ((1, 0), (2, 50))
        ],
    },
    "css-bench-fairness/1": {
        "source": "pytest", "scenario": "anomaly", "seed": 2010,
        "population": 4000, "ops": 600, "nodes": 2, "drain_seconds": 2.0,
        "service_rate": 0.2, "victim_tenant": "h:aa11",
        "abusive_tenant": None,
        "arms": {"none": _fairness_arm("none", 0.93, 0.67),
                 "fair": _fairness_arm("fair", 0.99, 1.0)},
        "improvement": {"jain_index": 0.06, "victim_share": 0.33},
        "audit_digest_match": True,
    },
    "css-bench-batch/1": {
        "source": "pytest", "quick": True,
        "equivalence": {"identical": True, "checks": [
            {"nodes": 1, "store": store, "batch_size": size,
             "audit_identical": True, "decisions_identical": True,
             "audit_digest": DIGEST, "decision_digest": DIGEST}
            for size in (1, 16, 256) for store in ("jsonl", "segmented")]},
        "speedup": {
            "floor": 1.3, "min_speedup_at_256": 1.5,
            "nodes": [{"nodes": 1, "baseline_events_per_second": 100.0,
                       "batched_events_per_second": 150.0, "speedup": 1.5}],
            "batch_sweep": [{"batch_size": 256, "events_per_second": 150.0,
                             "speedup": 1.5}],
        },
    },
    "css-bench-incident/1": {
        "source": "pytest", "scenario": "anomaly", "seed": 2010,
        "population": 4000, "ops": 600, "nodes": 2, "reps": 3,
        "overhead_pct": 0.4, "trigger": copy.deepcopy(TRIGGER),
        "arms": {"noop": _overhead_arm("noop"), "ring": _overhead_arm("ring")},
    },
    "css-incident/1": {
        "incident_id": "incident-0001", "source": "pytest",
        "captured_at": 1.5, "slo": None, "trigger": copy.deepcopy(TRIGGER),
        "burn_rates": {"tenant-starvation": {"short": [dict(BURN_POINT)],
                                             "long": [dict(BURN_POINT)]}},
        "events": [
            {"kind": "sched.demotion", "node": "node-0", "seq": 1, "at": 1.0},
            {"kind": "bus.shed", "node": "node-1", "seq": 1, "at": 1.0},
            {"kind": "bus.shed", "node": "node-1", "seq": 2, "at": 1.25},
        ],
        "spans": [{"name": "pipeline.publish", "trace_id": "tr-1",
                   "span_id": "sp-1", "status": "ok", "node": "node-0",
                   "at": 0.5, "duration": 0.0}],
        "series": [{"name": "bus.published_total", "type": "counter",
                    "labels": {}, "points": [[0.25, 3.0], [0.5, 7.0]]},
                   {"name": "pipeline.duration_seconds", "type": "histogram",
                    "labels": {}, "points": [[0.25, 3, 0.0]]}],
        "queues": {
            "node-0": {"queue_depth": 1, "dead_letter_depth": 0,
                       "queue_high_water": 4, "dead_letter_high_water": 0},
            "totals": {"queue_depth": 1, "dead_letter_depth": 0},
        },
        "scheduler": {"node-0": {"policy": "drr",
                                 "tenants": {"h:aa11": {"pending": 0}}}},
        "recorder": {"node-0": {"dropped_events": 0, "dropped_spans": 0}},
    },
}
for _schema_id, _payload in GOOD.items():
    _payload["schema"] = _schema_id

SCHEMA_IDS = sorted(SCHEMAS)


def good(schema_id):
    return copy.deepcopy(GOOD[schema_id])


def at(payload, path):
    """The container holding the last segment of a dotted ``path``."""
    *parents, last = path.split(".")
    for segment in parents:
        payload = payload[int(segment) if segment.isdigit() else segment]
    return payload, int(last) if last.isdigit() else last


def test_every_schema_has_a_known_good_payload():
    assert set(GOOD) == set(SCHEMAS)


@pytest.mark.parametrize("schema_id", SCHEMA_IDS)
class TestEverySchema:
    def test_known_good_payload_passes(self, schema_id):
        assert validate(good(schema_id)) == []

    def test_wrong_schema_id_fails(self, schema_id):
        payload = good(schema_id)
        payload["schema"] = schema_id.rsplit("/", 1)[0] + "/0"
        problems = validate(payload)
        assert len(problems) == 1 and "schema" in problems[0]

    def test_every_required_key_is_required(self, schema_id):
        for key in SCHEMAS[schema_id].fields.fields:
            payload = good(schema_id)
            del payload[key]
            assert any(problem.startswith(key) for problem in
                       validate(payload)), f"dropping {key} went unnoticed"

    def test_leaked_subject_id_fails(self, schema_id):
        payload = good(schema_id)
        payload["hot_subject"] = "ap-00000017"
        assert any("privacy" in problem and "assisted-person id" in problem
                   for problem in validate(payload))

    def test_leaked_tenant_id_fails(self, schema_id):
        payload = good(schema_id)
        payload["note"] = "worst offender: Province-Trentino/SocialWelfare"
        assert any("privacy" in problem and "Province-Trentino" in problem
                   for problem in validate(payload))

    def test_tracked_figures_resolve_to_a_unit(self, schema_id):
        for path, unit in tracked_units(schema_id).items():
            container, key = at(good(schema_id), path)
            assert isinstance(container[key], (int, float)), path
            assert unit is not None, f"{path} carries no unit"

    def test_exit_codes(self, schema_id, tmp_path):
        target = tmp_path / "payload.json"
        target.write_text(json.dumps(good(schema_id)))
        assert main([str(target)]) == 0
        broken = good(schema_id)
        broken["hot_subject"] = "ap-00000017"
        target.write_text(json.dumps(broken))
        assert main([str(target)]) == 1


#: (schema id, dotted path, replacement value, fragment of the problem).
MUTATIONS = [
    # non-monotone percentiles, wherever a latency summary appears
    ("css-bench-obs/2", "benchmarks.0.latency_seconds.p50", 0.01,
     "p50 <= p95 <= p99"),
    ("css-bench-perf/1", "pdp_decide.indexed.latency_seconds.p95", 0.01,
     "p50 <= p95 <= p99"),
    ("css-bench-capacity/1", "nodes.1.latency_seconds.details.p99", 0.0,
     "p50 <= p95 <= p99"),
    # equivalence flags and digests
    ("css-bench-perf/1", "equivalence.identical", False,
     "equivalence.identical"),
    ("css-bench-perf/1", "equivalence.identical", 1, "equivalence.identical"),
    ("css-bench-storage/1", "equivalence.identical", False,
     "equivalence.identical"),
    ("css-bench-batch/1", "equivalence.identical", False, "identical"),
    ("css-bench-batch/1", "equivalence.checks.2.decisions_identical", False,
     "batching changed this cell"),
    ("css-bench-batch/1", "equivalence.checks.0.audit_digest", "deadbeef",
     "sha256:"),
    ("css-bench-capacity/1", "nodes.0.audit_digest", None, "audit_digest"),
    ("css-bench-fairness/1", "arms.fair.audit_digest", "sha256:deadbeef",
     "differ"),
    ("css-bench-fairness/1", "audit_digest_match", False,
     "audit_digest_match"),
    # speed-up floors
    ("css-bench-perf/1", "pdp_decide.speedup", 0.9, "below the 1.0x floor"),
    ("css-bench-batch/1", "speedup.min_speedup_at_256", 1.1,
     "below the 1.3x floor"),
    # fair must beat none
    ("css-bench-fairness/1", "arms.fair.jain_index", 0.93, "jain_index"),
    ("css-bench-fairness/1", "arms.fair.victim_share", 0.5, "victim_share"),
    ("css-bench-fairness/1", "arms.none.jain_index", 1.2, "within [0, 1]"),
    ("css-bench-fairness/1", "victim_tenant", "Province-X/Statistics-Y",
     "victim_tenant"),
    ("css-bench-fairness/1", "arms.none.sched", "fair", "arms.none.sched"),
    # scaling curves and orderings
    ("css-bench-federation/1", "scaling.1.events_per_simulated_second",
     166.7, "increase strictly"),
    ("css-bench-federation/1", "scaling.1.nodes", 1, "increase strictly"),
    ("css-bench-federation/1", "scaling", [], "non-empty list"),
    ("css-bench-federation/1", "scaling.0.makespan_seconds", 0,
     "makespan_seconds"),
    ("css-bench-capacity/1", "nodes.1.nodes", 0, "nodes[1].nodes"),
    ("css-bench-capacity/1", "nodes.0.published", 500, "published <= ops"),
    ("css-bench-capacity/1", "arrival", "bursty", "arrival"),
    # storage gates
    ("css-bench-storage/1", "points.0.kinds.segmented.post_compaction_bytes",
     4096, "compaction reclaimed nothing"),
    ("css-bench-storage/1", "points.0.compaction.records_after", 400,
     "compaction dropped no records"),
    ("css-bench-storage/1", "points.0.kinds.jsonl.recovery_peak_kb", 99999,
     "streaming-replay bound"),
    # the overhead bench's arms
    ("css-bench-incident/1", "arms.ring.recorder", "tape",
     "arms.ring.recorder"),
    ("css-bench-incident/1", "arms.noop.wall_seconds", -1, "wall_seconds"),
    # incident bundles
    ("css-incident/1", "incident_id", "oops", "incident_id"),
    ("css-incident/1", "captured_at", -1.0, "captured_at"),
    ("css-incident/1", "trigger.kind", "volcano", "trigger.kind"),
    ("css-incident/1", "burn_rates", {}, "burn_rates"),
    ("css-incident/1", "burn_rates.tenant-starvation.short.0.attainment",
     1.5, "within [0, 1]"),
    ("css-incident/1", "events", "nope", "events"),
    ("css-incident/1", "events.0.at", 9.0, "merge order"),
    ("css-incident/1", "series.0.points.0", [0.25], "2 or 3 entries"),
    ("css-incident/1", "series.0.type", "timer", "series[0].type"),
    ("css-incident/1", "queues.node-0.queue_high_water", -1,
     "queue_high_water"),
    ("css-incident/1", "recorder", {}, "recorder"),
    ("css-incident/1", "slo", "fine", "slo"),
    ("css-incident/1", "trigger.kind", "deadletter-spike",
     "trigger's objective"),
]


@pytest.mark.parametrize(
    "schema_id, path, value, fragment", MUTATIONS,
    ids=[f"{m[0]}:{m[1]}={m[2]!r}"[:70] for m in MUTATIONS])
def test_mutations_are_flagged(schema_id, path, value, fragment):
    payload = good(schema_id)
    container, key = at(payload, path)
    container[key] = value
    problems = validate(payload)
    assert any(fragment in problem for problem in problems), problems


class TestStructuralMutations:
    def test_missing_matrix_coverage(self):
        payload = good("css-bench-batch/1")
        checks = payload["equivalence"]["checks"]
        payload["equivalence"]["checks"] = [
            entry for entry in checks if entry["batch_size"] != 256]
        assert any("batch_size=256" in p for p in validate(payload))
        payload["equivalence"]["checks"] = [
            entry for entry in checks if entry["store"] != "segmented"]
        assert any("store=segmented" in p for p in validate(payload))

    def test_missing_arm(self):
        payload = good("css-bench-fairness/1")
        del payload["arms"]["fair"]
        assert any(p.startswith("arms.fair") for p in validate(payload))

    def test_plaintext_tenant_key_trips_shape_and_privacy_gate(self):
        payload = good("css-incident/1")
        payload["scheduler"]["node-0"]["tenants"]["Org-0"] = {}
        problems = validate(payload)
        assert any("privacy-guard hashes" in p for p in problems)
        assert any("privacy" in p and "Org-0" in p for p in problems)

    def test_slo_breach_needs_every_breached_objective(self):
        payload = good("css-incident/1")
        payload["trigger"] = {"kind": "slo-breach", "at": 1.5, "detail": {
            "objectives": ["tenant-starvation", "ghost-objective"]}}
        assert validate(payload) == [
            "burn_rates must carry the trigger's objective 'ghost-objective'"]

    def test_not_an_object(self):
        assert validate([]) == ["top level must be a JSON object"]

    def test_unknown_schema_still_runs_the_privacy_gate(self):
        problems = validate({"schema": "nope", "subject": "ap-00000017"})
        assert any("schema" in p for p in problems)
        assert any("privacy" in p for p in problems)


class TestBundleDirectories:
    @pytest.fixture()
    def bundle_dir(self, tmp_path):
        return write_bundle(tmp_path / "incidents", good("css-incident/1"))

    def test_bundle_and_container_directories_pass(self, bundle_dir, capsys):
        assert validate_bundle_dir(bundle_dir) == []
        assert main([str(bundle_dir)]) == 0
        assert main([str(bundle_dir.parent)]) == 0
        assert "manifests verified" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["incident.json", "events.jsonl",
                                      "series.jsonl"])
    def test_tampered_file_fails_the_manifest(self, bundle_dir, name):
        target = bundle_dir / name
        target.write_text(target.read_text() + "\n")
        assert any("sha256 mismatch" in p
                   for p in validate_bundle_dir(bundle_dir))
        assert main([str(bundle_dir)]) == 1

    def test_missing_manifest_or_payload_fails(self, bundle_dir):
        (bundle_dir / "manifest.json").unlink()
        assert any("manifest.json is missing" in p
                   for p in validate_bundle_dir(bundle_dir))

    def test_manifest_must_cover_every_file(self, bundle_dir):
        manifest_path = bundle_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["files"]["series.jsonl"]
        manifest["incident_id"] = "incident-0002"
        manifest_path.write_text(json.dumps(manifest))
        problems = validate_bundle_dir(bundle_dir)
        assert any("does not cover series.jsonl" in p for p in problems)
        assert any("incident_id disagrees" in p for p in problems)

    def test_directory_without_bundles_fails(self, tmp_path):
        assert main([str(tmp_path)]) == 1


class TestMain:
    def test_usage_missing_and_malformed(self, tmp_path, capsys):
        assert main([]) == 2
        assert main([str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_several_payloads_one_call(self, tmp_path, capsys):
        paths = []
        for index, schema_id in enumerate(SCHEMA_IDS):
            path = tmp_path / f"payload-{index}.json"
            path.write_text(json.dumps(good(schema_id)))
            paths.append(str(path))
        assert main(paths) == 0
        out = capsys.readouterr().out
        assert "[sim_seconds]" in out and "[wall_seconds]" in out
        broken = good(SCHEMA_IDS[0])
        broken["schema"] = "nope"
        (tmp_path / "payload-0.json").write_text(json.dumps(broken))
        assert main(paths) == 1
