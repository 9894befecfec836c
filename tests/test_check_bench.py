"""One parametrised suite over the BENCH schema table.

For every row of ``benchmarks.check_bench.SCHEMAS`` a known-good payload
passes, and every kind of mutation the per-artifact checkers used to
catch still fails: wrong schema id, missing key, a broken merge order,
an unexplained trigger, a leaked identifier (the privacy gate runs on
*every* schema), a tampered bundle file — with exit codes 0/1/2 from
the one ``main``.  Every rate and latency the table declares is named
for its clock (``sim_*`` / ``wall_*``).
"""

import copy
import json
import re

import pytest
from benchmarks.check_bench import (
    SCHEMAS,
    ListOf,
    Nullable,
    Num,
    Obj,
    Schema,
    main,
    validate,
    validate_bundle_dir,
)

from repro.obs.incident import write_bundle

COUNTERS = {"published": 40, "publish_blocked": 1, "detail_permits": 20,
            "detail_denies": 2, "subscribe_ops": 3}


def _overhead_arm(recorder):
    return {**COUNTERS, "incidents": 1, "ticks": 12, "timeline_rows": 30,
            "recorder": recorder, "simulated_seconds": 7.0, "wall_seconds": 1.2,
            "wall_ops_per_second": 500.0}


TRIGGER = {"kind": "slo-breach", "at": 1.5,
           "detail": {"objectives": ["link-delivery"], "worst_burn_rate": 2.0}}
BURN_POINT = {"at": 1.0, "attainment": 0.9, "observed": 0.1, "burn_rate": 2.0}

GOOD = {
    "css-bench-obs/3": {
        "source": "pytest",
        "counters": {"bus.published_total{}": 40,
                     "pipeline.invocations_total{outcome=ok,pipeline=publish}":
                         40},
        "slo": {"evaluated_at": 10.0, "breaches": 0, "objectives": [
            {"name": "link-delivery", "target": 0.999, "attainment": 1.0,
             "breached": False, "burn_rate": 0.0}]},
        "stitched_trace": {"traces": 4, "spans": 20, "cross_node_traces": 2,
                           "orphan_spans": 0},
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
        "burn_rates": {"link-delivery": {"short": [dict(BURN_POINT)],
                                         "long": [dict(BURN_POINT)]}},
        "events": [
            {"kind": "slo.alert", "node": "node-0", "seq": 1, "at": 1.0},
            {"kind": "bus.shed", "node": "node-1", "seq": 1, "at": 1.0},
            {"kind": "bus.shed", "node": "node-1", "seq": 2, "at": 1.25},
        ],
        "spans": [{"name": "pipeline.publish", "trace_id": "tr-1",
                   "span_id": "sp-1", "status": "ok", "node": "node-0",
                   "at": 0.5, "duration": 0.0}],
        "series": [{"name": "bus.published_total", "type": "counter",
                    "labels": {}, "points": [[0.25, 3.0], [0.5, 7.0]]}],
        "queues": {
            "node-0": {"queue_depth": 1, "dead_letter_depth": 0,
                       "queue_high_water": 4, "dead_letter_high_water": 0},
            "totals": {"queue_depth": 1, "dead_letter_depth": 0},
        },
        "scheduler": {"node-0": {"tenants": {"h:aa11": {"shed": 0}}}},
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
    # the overhead bench's arms
    ("css-bench-incident/1", "arms.ring.recorder", "tape",
     "arms.ring.recorder"),
    ("css-bench-incident/1", "arms.noop.wall_seconds", -1, "wall_seconds"),
    # incident bundles
    ("css-incident/1", "incident_id", "oops", "incident_id"),
    ("css-incident/1", "captured_at", -1.0, "captured_at"),
    ("css-incident/1", "trigger.kind", "volcano", "trigger.kind"),
    ("css-incident/1", "burn_rates", {}, "burn_rates"),
    ("css-incident/1", "burn_rates.link-delivery.short.0.attainment",
     1.5, "within [0, 1]"),
    ("css-incident/1", "events", "nope", "events"),
    ("css-incident/1", "events.0.at", 9.0, "merge order"),
    ("css-incident/1", "series.0.points.0", [0.25], "2 entries"),
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


# -- the naming rule: a reported rate or latency names its clock -------------

RATE_OR_LATENCY = re.compile(r"(_per_second|latency_seconds)$")
CLOCK_PREFIX = {"sim_seconds": "sim_", "wall_seconds": "wall_"}


def _specs(spec, key=""):
    """``(key, spec)`` for ``spec`` and every spec under it (list items and
    open-keyed values pass on an empty key)."""
    yield key, spec
    if isinstance(spec, Nullable):
        yield from _specs(spec.spec)
    elif isinstance(spec, ListOf):
        yield from _specs(spec.item)
    elif isinstance(spec, Obj):
        for child_key, child in {**spec.fields, **spec.optional}.items():
            yield from _specs(child, child_key)
        if spec.rest is not None:
            yield from _specs(spec.rest)


def clock_naming_problems(schemas) -> list[str]:
    """Every rate / latency key of ``schemas`` not named for its clock."""
    problems = []
    for schema_id, schema in schemas.items():
        for key, spec in _specs(schema.fields):
            if not RATE_OR_LATENCY.search(key):
                continue
            units = {child.unit for _, child in _specs(spec)
                     if isinstance(child, Num)} & set(CLOCK_PREFIX)
            if not units:
                problems.append(f"{schema_id}: {key} has no clock unit")
            problems.extend(
                f"{schema_id}: {key} is {unit} but not {CLOCK_PREFIX[unit]}*"
                for unit in sorted(units)
                if not key.startswith(CLOCK_PREFIX[unit]))
    return problems


def test_every_rate_and_latency_names_its_clock():
    """A reported rate or latency is wall-clock and named ``wall_*``, or
    simulated and named ``sim_*`` — in every schema row."""
    assert clock_naming_problems(SCHEMAS) == []
    unqualified = Schema(Obj({
        "ops_per_second": Num(above=0, unit="sim_seconds"),
        "latency_seconds": Obj({"p50": Num(min=0, unit="wall_seconds")}),
    }))
    assert len(clock_naming_problems({"x/1": unqualified})) == 2


class TestStructuralMutations:
    def test_missing_arm(self):
        payload = good("css-bench-incident/1")
        del payload["arms"]["ring"]
        assert any(p.startswith("arms.ring") for p in validate(payload))

    def test_plaintext_tenant_key_trips_shape_and_privacy_gate(self):
        payload = good("css-incident/1")
        payload["scheduler"]["node-0"]["tenants"]["Org-0"] = {"shed": 0}
        problems = validate(payload)
        assert any("privacy-guard hashes" in p for p in problems)
        assert any("privacy" in p and "Org-0" in p for p in problems)

    def test_slo_breach_needs_every_breached_objective(self):
        payload = good("css-incident/1")
        payload["trigger"] = {"kind": "slo-breach", "at": 1.5, "detail": {
            "objectives": ["link-delivery", "ghost-objective"]}}
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
        assert all(f"ok ({schema_id}" in out for schema_id in SCHEMA_IDS), out
        broken = good(SCHEMA_IDS[0])
        broken["schema"] = "nope"
        (tmp_path / "payload-0.json").write_text(json.dumps(broken))
        assert main(paths) == 1
