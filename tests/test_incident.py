"""Incident capture: watchdogs, bundle determinism, privacy, the checker.

The PR's acceptance criteria land here: the anomaly workload run under
watchdogs emits a ``css-incident/1`` bundle that passes
``benchmarks/check_bench.py`` and is byte-identical across same-seed runs,
carries a windowed burn-rate series for the trigger's objective, and
never leaks an assisted-person id or plaintext tenant id.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest
from benchmarks.check_bench import (
    main as check_main,
    validate,
    validate_bundle_dir,
)

from repro.cli import main as cli_main
from repro.clock import Clock
from repro.crypto.hashing import canonical_json
from repro.obs.guard import PrivacyGuard
from repro.obs.incident import (
    INCIDENT_SCHEMA,
    TRIGGER_DEADLETTER_SPIKE,
    TRIGGER_QUEUE_CEILING,
    IncidentMonitor,
    WatchdogConfig,
    merge_events,
    write_bundle,
)
from repro.obs.recorder import EVENT_DEADLETTER, FlightRecorder
from repro.workload import workload_config
from repro.sim.scenario import script_first_attempt_drops
from repro.workload.capacity import run_workload
import repro.workload.incidents as incidents_module
from repro.workload.incidents import LINK_DROPS, run_incident_capture

SUBJECT_ID = re.compile(r"ap-\d{8}")
TENANT_FRAGMENTS = ("Province-Trentino", "Municipality-Trento",
                    "FamilyDoctors", "Hospital-S-Maria", "HomeAssist-Coop",
                    "Org-0", "Org-1")


def quick_workload(**overrides):
    defaults = dict(population=4000, ops=600)
    defaults.update(overrides)
    return workload_config("anomaly", **defaults)


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles")
    payload = run_incident_capture(
        quick_workload(), source="pytest", out_dir=out
    )
    return payload, out


# -- the real anomaly run ---------------------------------------------------


class TestAnomalyRun:
    def test_watchdogs_capture_at_least_one_bundle(self, capture):
        payload, _ = capture
        assert len(payload["incidents"]) >= 1
        assert payload["ticks"] > 0

    def test_bundle_passes_the_schema_checker(self, capture):
        payload, out = capture
        for bundle in payload["incidents"]:
            assert validate(bundle) == []
        for path in payload["bundle_paths"]:
            assert validate_bundle_dir(Path(path)) == []
        assert check_main([str(out)]) == 0

    def test_bundle_explains_trigger_with_burn_series(self, capture):
        payload, _ = capture
        [bundle] = payload["incidents"]
        trigger = bundle["trigger"]["kind"]
        assert bundle["burn_rates"], "every bundle carries burn-rate series"
        for windows in bundle["burn_rates"].values():
            for window in ("short", "long"):
                assert windows[window], "burn series must carry points"
                for point in windows[window]:
                    assert 0.0 <= point["attainment"] <= 1.0
        # The scripted link drops are the run's one real fault.
        assert trigger == "slo-breach"
        assert bundle["trigger"]["detail"]["objectives"] == ["link-delivery"]

    def test_same_seed_runs_write_byte_identical_bundles(self, capture,
                                                         tmp_path):
        _, first_out = capture
        rerun = run_incident_capture(
            quick_workload(), source="pytest", out_dir=tmp_path
        )
        assert rerun["bundle_paths"]
        for fresh in map(Path, rerun["bundle_paths"]):
            original = first_out / fresh.name
            for name in ("incident.json", "events.jsonl", "series.jsonl",
                         "manifest.json"):
                assert (original / name).read_bytes() \
                    == (fresh / name).read_bytes()

    def test_no_identifier_leaks_in_bundle_or_timeline(self, capture):
        payload, _ = capture
        serialized = json.dumps(payload["incidents"], sort_keys=True)
        timeline = "\n".join(canonical_json(row)
                             for row in payload["timeline"])
        for text in (serialized, timeline):
            assert not SUBJECT_ID.search(text)
            assert "wall_duration" not in text  # the wall-clock sidecar
            for fragment in TENANT_FRAGMENTS:
                assert fragment not in text

    def test_link_drops_move_only_timestamps(self):
        """The scripted drops are retried and delivered: the same decisions
        and the same logical audit records as a run without them, only the
        simulated timestamps the retries' latency moves."""
        def trail(run):
            return [{key: value for key, value in record.to_payload().items()
                     if key != "timestamp"}
                    for node in run.platform.nodes()
                    for record in node.controller.audit_log.logical()]

        armed = []

        def drops(run):
            if not armed:
                armed.append(script_first_attempt_drops(run.platform, LINK_DROPS))

        dropped = run_workload(quick_workload(), 2, on_advance=drops,
                               collect_decisions=True)
        clean = run_workload(quick_workload(), 2, collect_decisions=True)
        membership = dropped.platform.membership
        assert sum(membership.link(*ends).stats.drops for ends in (
            ("node-0", "node-1"), ("node-1", "node-0"))) == LINK_DROPS
        assert dropped.decision_digest == clean.decision_digest
        assert trail(dropped) == trail(clean)

    def test_noop_arm_records_nothing(self):
        payload = run_incident_capture(
            quick_workload(), recorder="noop", source="pytest"
        )
        assert payload["incidents"] == []
        assert payload["timeline"] == []
        assert payload["ticks"] == 0

    def test_tampered_bundle_fails_the_checker(self, capture, tmp_path):
        payload = run_incident_capture(
            quick_workload(), source="pytest", out_dir=tmp_path
        )
        bundle_dir = Path(payload["bundle_paths"][0])
        events = bundle_dir / "events.jsonl"
        events.write_text(events.read_text() + "{}\n")
        assert check_main([str(bundle_dir)]) == 1


# -- schema mutation tests --------------------------------------------------


@pytest.fixture()
def bundle(capture):
    payload, _ = capture
    return json.loads(json.dumps(payload["incidents"][0]))


class TestSchemaMutations:
    def test_valid_bundle_is_clean(self, bundle):
        assert validate(bundle) == []

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda b: b.update(schema="css-incident/0"), "schema"),
        (lambda b: b.update(incident_id="oops"), "incident_id"),
        (lambda b: b.update(captured_at=-1.0), "captured_at"),
        (lambda b: b["trigger"].update(kind="volcano"), "trigger.kind"),
        (lambda b: b.update(burn_rates={}), "burn_rates"),
        (lambda b: b.update(events="nope"), "events"),
        (lambda b: b["queues"].pop("totals"), "queues"),
        (lambda b: b.update(recorder={}), "recorder"),
    ])
    def test_mutations_are_flagged(self, bundle, mutate, fragment):
        mutate(bundle)
        problems = validate(bundle)
        assert problems
        assert any(fragment in problem for problem in problems)

    def test_plaintext_tenant_key_is_flagged(self, bundle):
        for row in bundle["scheduler"].values():
            row["tenants"]["Org-0"] = {"shed": 0}
            break
        problems = validate(bundle)
        assert any("privacy-guard hashes" in p for p in problems)
        assert any("privacy" in p and "Org-0" in p for p in problems)

    def test_subject_id_leak_is_flagged(self, bundle):
        bundle["series"].append({
            "type": "gauge", "name": "x", "labels": {"subject": "ap-12345678"},
            "points": [[0.0, 1.0]],
        })
        problems = validate(bundle)
        assert any("assisted-person id" in p for p in problems)

    def test_unsorted_events_are_flagged(self, bundle):
        events = bundle["events"]
        if len(events) < 2:
            pytest.skip("bundle retained fewer than 2 events")
        events[0], events[-1] = events[-1], events[0]
        problems = validate(bundle)
        assert any("merge order" in p for p in problems)

    def test_missing_trigger_objective_series_is_flagged(self, bundle):
        kind = bundle["trigger"]["kind"]
        if kind == "slo-breach":
            bundle["trigger"]["detail"]["objectives"] = ["ghost-objective"]
        else:
            bundle["trigger"]["kind"] = TRIGGER_QUEUE_CEILING
            bundle["burn_rates"] = {"unrelated": bundle["burn_rates"].popitem()[1]}
        problems = validate(bundle)
        assert any("trigger's objective" in p for p in problems)


# -- the monitor against a minimal fake platform ----------------------------


class FakeBus:
    def __init__(self, depth=0, dead=0):
        self.queue_depth = depth
        self.dead_letter_depth = dead
        self.dead_letter_high_water = dead

    def queue_high_water(self):
        return self.queue_depth


class FakeController:
    def __init__(self, bus, recorder):
        self.bus = bus
        self.sched = None
        self.recorder = recorder


class FakeNode:
    def __init__(self, node_id, bus, recorder):
        self.node_id = node_id
        self.controller = FakeController(bus, recorder)


class FakePlatform:
    def __init__(self, nodes, clock):
        self._nodes = nodes
        self.clock = clock

    def nodes(self):
        return self._nodes

    def flight_recorders(self):
        return {node.node_id: node.controller.recorder
                for node in self._nodes}


def fake_platform(clock, depth=0, dead=0):
    recorder = FlightRecorder(clock=clock, guard=PrivacyGuard(secret="s"))
    node = FakeNode("node-0", FakeBus(depth=depth, dead=dead), recorder)
    return FakePlatform([node], clock), recorder


class TestIncidentMonitor:
    def test_healthy_platform_never_triggers(self):
        clock = Clock()
        platform, recorder = fake_platform(clock)
        monitor = IncidentMonitor(platform, clock=clock, source="pytest")
        assert monitor.poll() is None
        assert monitor.incidents == []
        assert recorder.frozen is False

    def test_dead_letter_spike_freezes_and_captures(self):
        clock = Clock()
        platform, recorder = fake_platform(clock, dead=20)
        recorder.record(EVENT_DEADLETTER, count=20, depth=20)
        monitor = IncidentMonitor(platform, clock=clock, source="pytest")
        bundle = monitor.poll()
        assert bundle is not None
        assert bundle["trigger"]["kind"] == TRIGGER_DEADLETTER_SPIKE
        assert bundle["trigger"]["detail"]["dead_letters"] == 20
        assert recorder.frozen is True
        assert bundle["events"][0]["node"] == "node-0"

    def test_queue_ceiling_triggers(self):
        clock = Clock()
        platform, _ = fake_platform(clock, depth=600)
        monitor = IncidentMonitor(platform, clock=clock, source="pytest")
        bundle = monitor.poll()
        assert bundle["trigger"]["kind"] == TRIGGER_QUEUE_CEILING

    def test_monitor_is_one_shot(self):
        clock = Clock()
        platform, _ = fake_platform(clock, dead=20)
        monitor = IncidentMonitor(platform, clock=clock, source="pytest")
        assert monitor.poll() is not None
        clock.advance(10.0)
        assert monitor.poll() is None
        assert len(monitor.incidents) == 1

    def test_thresholds_are_configurable(self):
        clock = Clock()
        platform, _ = fake_platform(clock, dead=20, depth=600)
        monitor = IncidentMonitor(
            platform, clock=clock,
            config=WatchdogConfig(dead_letter_spike=2**31,
                                  queue_depth_ceiling=2**31),
            source="pytest",
        )
        assert monitor.poll() is None

    def test_merge_events_is_deterministic(self):
        per_node = {
            "node-1": [{"seq": 1, "at": 2.0, "kind": "a"}],
            "node-0": [{"seq": 2, "at": 2.0, "kind": "b"},
                       {"seq": 1, "at": 1.0, "kind": "c"}],
        }
        merged = merge_events(per_node)
        assert [(row["at"], row["node"], row["seq"]) for row in merged] \
            == [(1.0, "node-0", 1), (2.0, "node-0", 2), (2.0, "node-1", 1)]

    def test_write_bundle_rejects_nothing_and_is_rereadable(self, tmp_path):
        clock = Clock()
        platform, recorder = fake_platform(clock, dead=20)
        monitor = IncidentMonitor(platform, clock=clock, source="pytest")
        bundle = monitor.poll()
        root = write_bundle(tmp_path, bundle)
        reread = json.loads((root / "incident.json").read_text())
        assert reread["schema"] == INCIDENT_SCHEMA
        manifest = json.loads((root / "manifest.json").read_text())
        assert set(manifest["files"]) == {"incident.json", "events.jsonl",
                                          "series.jsonl"}


# -- CLI --------------------------------------------------------------------


class TestCli:
    def test_incident_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "incidents"
        code = cli_main(["incident", "--scenario", "federated",
                         "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "incident-0001" in captured
        assert check_main([str(out)]) == 0

    def test_federated_bundle_bytes_are_pinned(self, tmp_path, capsys):
        """Beside the same-seed check above: the manifest commits to the
        other three files, so its digest pins the whole bundle.

        Re-pinned (was 28f38e0d…, SLO section ``fa77b8fe…``) when the
        scheduler model went.  That bundle was a ``penalty-demotion`` at
        t=2.501 s with a ``tenant-starvation`` burn series, both read off
        the model; this one is the run's one real fault, four scripted
        first-attempt link drops, caught as a ``link-delivery`` breach at
        t=1.421 s.  The trigger, capture time, windows and rings all moved
        with it, so no section is put back.  The drops decide nothing:
        :meth:`TestAnomalyRun.test_link_drops_move_only_timestamps` holds
        the watched run's decisions and logical audit records, timestamps
        aside, to the same run without them.

        Re-pinned again (was 79d5e4fe…, events ``8f62f421…``) when a
        request's enforcement stopped opening a root span inside the
        edge's: the span window, the events' ``seq`` and ``dropped_spans``
        moved, and :func:`test_the_bundle_is_the_parents_minus_its_enforcement_spans`
        puts the spans back and reads the parent's.  ``series.jsonl`` and
        the SLO section did not move."""
        cli_main(["incident", "--scenario", "federated",
                  "--out", str(tmp_path)])
        capsys.readouterr()
        bundle = tmp_path / "incident-0001"
        manifest_path = bundle / "manifest.json"
        assert hashlib.sha256(manifest_path.read_bytes()).hexdigest() == (
            "2d698219a905d0559b1a4a3ab413a1a349f69923f7a6c7d2bce014a2f26b1d17")
        files = json.loads(manifest_path.read_text())["files"]
        assert files["events.jsonl"]["sha256"] == (
            "a946821ca7ab0a2357bd5d35e3e03900c3631c6192a8886da126b5ac3729e064")
        assert files["series.jsonl"]["sha256"] == (
            "f1a2f05f5be3476da087e4b2f78aed1541896a2ec63db87af4495b5a97a0d1ad")

        incident = json.loads((bundle / "incident.json").read_text())
        assert incident["trigger"]["kind"] == "slo-breach"
        assert not [span for span in incident["spans"]
                    if span["name"].startswith("stage.")]
        slo = incident["slo"]
        assert hashlib.sha256(canonical_json(slo).encode()).hexdigest() == (
            "ca31f7032ad5f302f5e67f3dbe3d269812bd3b38c300b9553e7b25b07659a4bd")

    def test_incident_cli_lists_scenarios(self, capsys):
        assert cli_main(["incident", "--list"]) == 0
        assert "anomaly" in capsys.readouterr().out

    def test_timeline_cli_writes_jsonl(self, tmp_path, capsys):
        target = tmp_path / "timeline.jsonl"
        code = cli_main(["timeline", "--ops", "200", "--population", "2000",
                         "--out", str(target), "--limit", "5"])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines
        for line in lines:
            row = json.loads(line)
            assert row["entry"] in ("event", "span")
        text = capsys.readouterr().out
        assert "flight-recorder timeline" in text
        assert not SUBJECT_ID.search(target.read_text())


#: :func:`window_before` of the federated bundle at the commit before a
#: request's enforcement stopped opening a root span inside the edge's,
#: where it is the bundle's own window (no edge carried an outcome).
WINDOW_BEFORE = "d957092ddc00b11aa1529c2a35a6b39cdbcb1629fea77755c8ebe5a1fb66b5a8"


def window_before(bundle: dict, exports: dict[str, list[str]]) -> str:
    """sha256 of what an incident bundle's recorder sections read as when a
    request's enforcement opened its own span inside the edge's: each edge
    span whose export carries an ``enforcement`` outcome gets that child
    back right before it (same trace, end and duration; failed as the edge
    failed unless the outcome is ``ok``), then each node keeps its last
    256 spans.  ``seq`` and span ids count rows, so they are left out; the
    spans each node saw count the children back in."""
    ids = ("seq", "span_id", "parent_id")
    view: dict = {"events": [{k: v for k, v in row.items() if k != "seq"}
                             for row in bundle["events"]], "spans": {}, "seen": {}}
    for node, counts in sorted(bundle["recorder"].items()):
        # One tracer's spans in finish order: the node's own, or the shared one's.
        export = [json.loads(line) for line in exports.get(node, exports.get("shared"))]
        outcome = {span["span_id"]: span["attributes"].get("enforcement")
                   for span in export}
        rows = []
        for row in bundle["spans"]:
            if row["node"] != node:
                continue
            folded = outcome[row["span_id"]]
            if folded is not None:
                rows.append({**{k: v for k, v in row.items() if k not in ids},
                             "name": "pipeline.request-details",
                             "status": row["status"] if folded != "ok" else "ok"})
            rows.append({k: v for k, v in row.items() if k not in ids})
        seen = counts["dropped_spans"] + sum(row["node"] == node for row in bundle["spans"])
        view["spans"][node] = rows[-256:]
        view["seen"][node] = seen + sum(
            span["attributes"].get("enforcement") is not None for span in export[:seen])
    return hashlib.sha256(canonical_json(view).encode()).hexdigest()


def test_the_bundle_is_the_parents_minus_its_enforcement_spans(monkeypatch):
    """The federated bundle's pins moved when a request's enforcement
    stopped opening a root span inside the edge's on one node: its events
    (their ``seq`` counts spans), its span window (which now reaches
    further back) and ``dropped_spans``.  With each enforcement span put
    back, its events, window and the spans each node saw are the parent's."""
    runs = []

    def kept(*args, **kwargs):
        runs.append(run_workload(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(incidents_module, "run_workload", kept)
    payload = run_incident_capture(quick_workload(), source="pytest")
    (bundle,) = payload["incidents"]
    assert window_before(bundle, runs[0].platform.trace_exports()) == WINDOW_BEFORE
