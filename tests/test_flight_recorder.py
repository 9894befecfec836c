"""The flight recorder: rings, sanitisation, freezing, platform hooks."""

import pytest

from repro.clock import Clock
from repro.exceptions import ConfigurationError
from repro.obs.guard import PrivacyGuard
from repro.obs.recorder import (
    EVENT_DEADLETTER,
    EVENT_DEMOTION,
    EVENT_SLO_ALERT,
    FlightRecorder,
)
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.kernel import KIND_RECORDER, RuntimeConfig, default_kernel
from repro.sim.scenario import CssScenario, ScenarioConfig


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def recorder(clock):
    return FlightRecorder(clock=clock, capacity=4, span_capacity=4,
                         guard=PrivacyGuard(secret="s"))


class TestNoop:
    def test_noop_is_disabled_and_empty(self):
        """``recorder: noop`` builds nothing, so there is no ring to read:
        the platform has no recorder to freeze and no timeline rows."""
        assert default_kernel().create(KIND_RECORDER, "noop", clock=Clock()) is None
        scenario = CssScenario(ScenarioConfig(n_patients=2, n_events=4))
        scenario.run()
        assert scenario.platform.flight_recorders() == {}


class TestRecording:
    def test_rejects_capacity_below_one(self, clock):
        with pytest.raises(ConfigurationError):
            FlightRecorder(clock=clock, capacity=0)

    def test_ring_evicts_oldest_and_counts_drops(self, recorder, clock):
        for index in range(6):
            clock.advance(1.0)
            recorder.record(EVENT_DEADLETTER, count=index)
        events = recorder.events()
        assert len(events) == 4
        assert [row["count"] for row in events] == [2, 3, 4, 5]
        assert recorder.dropped_events == 2

    def test_numeric_fields_pass_identifying_strings_hash(self, recorder):
        recorder.record(EVENT_DEMOTION, subject_id="ap-00000001", depth=7,
                        topic="events.social.HomeVisit")
        [row] = recorder.events()
        assert row["depth"] == 7  # measurements keep their value
        assert row["subject_id"].startswith("h:")  # identities never do
        assert "ap-00000001" not in str(row)
        assert row["topic"] == "events.social.HomeVisit"  # plain strings pass

    def test_identifying_numeric_field_is_hashed(self, recorder):
        recorder.record(EVENT_SLO_ALERT, subject=12345678)
        [row] = recorder.events()
        assert str(row["subject"]).startswith("h:")

    def test_seq_is_shared_across_both_rings(self, recorder, clock):
        class Span:
            name = "stage.x"
            trace_id = "tr-1"
            span_id = "sp-1"
            parent_id = None
            status = "ok"
            start = 0.0
            end = 1.5
            duration = 1.5

        recorder.record(EVENT_DEADLETTER, depth=1)
        recorder.record_span(Span())
        recorder.record(EVENT_DEADLETTER, depth=2)
        timeline = recorder.timeline()
        assert [row["seq"] for row in sorted(timeline,
                                             key=lambda r: r["seq"])] \
            == [1, 2, 3]
        assert {row["entry"] for row in timeline} == {"event", "span"}

    def test_timeline_is_time_ordered(self, recorder, clock):
        recorder.record(EVENT_DEADLETTER, depth=1)
        clock.advance(2.0)
        recorder.record(EVENT_SLO_ALERT, objective="x")
        ats = [row["at"] for row in recorder.timeline()]
        assert ats == sorted(ats)


class TestFreezing:
    def test_freeze_stops_both_rings_idempotently(self, recorder, clock):
        recorder.record(EVENT_DEADLETTER, depth=1)
        first = recorder.freeze()
        recorder.record(EVENT_DEADLETTER, depth=2)

        class Span:
            name = "stage.x"
            trace_id = "tr-1"
            span_id = "sp-1"
            parent_id = None
            status = "ok"
            start = 0.0
            end = None
            duration = None

        recorder.record_span(Span())
        assert recorder.freeze() == first
        assert len(recorder.events()) == 1
        assert recorder.spans() == []


class TestKernelWiring:
    def test_default_runtime_gets_noop_recorder(self):
        scenario = CssScenario(ScenarioConfig(n_patients=2, n_events=4))
        assert scenario.controller.recorder is None

    def test_ring_recorder_attaches_and_mirrors_spans(self):
        runtime = RuntimeConfig(telemetry="inmemory", recorder="ring")
        scenario = CssScenario(ScenarioConfig(n_patients=2, n_events=6,
                                              runtime=runtime))
        controller = scenario.controller
        assert isinstance(controller.recorder, FlightRecorder)
        assert controller.telemetry.recorder is controller.recorder
        scenario.run(scenario.generate_workload())
        assert len(controller.recorder.spans()) > 0

    def test_first_enabled_recorder_wins_on_shared_telemetry(self):
        telemetry = InMemoryTelemetry()
        first = FlightRecorder(clock=Clock())
        second = FlightRecorder(clock=Clock())
        telemetry.attach_recorder(None)  # recording off on that node
        assert telemetry.recorder is None
        telemetry.attach_recorder(first)
        telemetry.attach_recorder(second)
        assert telemetry.recorder is first
        assert telemetry.tracer.recorder is first
