"""Scale smoke test: the platform invariants hold at thousands of events.

Not a micro-benchmark (those live in benchmarks/) — a single larger run
asserting that nothing degrades structurally at scale: zero overexposure,
full traceability, intact audit chain, index/id-map consistency.
"""

import pytest

from repro.sim.scenario import CssScenario, ScenarioConfig


@pytest.fixture(scope="module")
def large_run():
    config = ScenarioConfig(n_patients=100, n_events=1500,
                            detail_request_rate=0.25, seed=99)
    scenario = CssScenario(config)
    report = scenario.run()
    return scenario, report


class TestScale:
    def test_all_events_flow(self, large_run):
        scenario, report = large_run
        assert report.events_published == 1500

    def test_invariants_hold_at_scale(self, large_run):
        scenario, report = large_run
        assert report.exposure.overexposed == 0
        assert report.exposure.traced_fraction == 1.0
        assert report.detail_denies == 0
        assert report.audit_chains_verified

    def test_index_and_idmap_consistent(self, large_run):
        scenario, report = large_run
        controller = scenario.controller
        assert len(controller.index) == len(controller.id_map) == 1500
        # Every indexed notification resolves through the id map and back.
        for entry in list(controller.id_map._by_global.values())[:100]:  # noqa: SLF001
            notification = controller.index.get(entry.event_id)
            assert notification.event_type == entry.event_type
            assert notification.subject_ref == entry.subject_ref

    def test_gateways_hold_every_detail(self, large_run):
        scenario, report = large_run
        stored = sum(len(p.gateway) for p in scenario.producers.values())
        assert stored == 1500

    def test_audit_volume_is_proportional(self, large_run):
        scenario, report = large_run
        # publish + per-delivery notify + detail requests; never less than
        # one record per event.
        assert report.audit_records >= 1500
