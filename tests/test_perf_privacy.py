"""Privacy invariants of the hot-path performance layer.

The caches must not become a side channel: the perf counters label
telemetry with cache *names* only, and a full federated scenario runs
clean under the strict ``reject`` guard with the perf layer active —
every label the fast paths emit passes the same guard the slow paths do.
"""

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.perf import CACHE_HITS, CACHE_MISSES
from repro.sim.scenario import CssScenario, ScenarioConfig
from tests.conftest import blood_test_schema


def build_world(runtime: RuntimeConfig):
    controller = DataController(seed="perf-priv", runtime=runtime)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Confidential", "Dr. Confidential",
                          role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")],
        purposes=["healthcare-treatment"])
    notification = hospital.publish(
        blood, subject_id="pat-secret-9", subject_name="Maria Rossi",
        summary="done",
        details={"PatientId": "pat-secret-9", "Name": "Maria",
                 "Hemoglobin": 14.0, "Glucose": 90.0,
                 "HivResult": "negative"})
    return controller, doctor, notification


class TestTelemetryLabels:
    def test_perf_counters_label_the_cache_name_only(self):
        runtime = RuntimeConfig(perf="indexed", telemetry="inmemory",
                                telemetry_guard="reject")
        controller, doctor, notification = build_world(runtime)
        doctor.request_details(notification, "healthcare-treatment")
        doctor.request_details(notification, "healthcare-treatment")

        rows = [row for row in controller.telemetry.metrics.snapshot()
                if row["name"] in (CACHE_HITS, CACHE_MISSES)]
        assert rows  # the layer is instrumented
        for row in rows:
            assert set(row["labels"]) == {"cache"}
            assert row["labels"]["cache"] in {"fanout", "seal"}


class TestRejectGuardFederated:
    def test_full_federated_scenario_passes_under_the_strict_guard(self):
        """The acceptance property of satellite (c): perf indexed, guard
        in reject mode, whole federated workload — no telemetry label
        anywhere on the fast paths carries identifying data."""
        scenario = CssScenario(ScenarioConfig(
            nodes=3, n_events=40, n_patients=8, seed=11,
            runtime=RuntimeConfig(telemetry="inmemory",
                                  telemetry_guard="reject"),
        ))
        report = scenario.run()  # TelemetryPrivacyError would abort this
        assert report.events_published > 0
        assert report.detail_permits + report.detail_denies > 0
        # The fast paths actually ran while the strict guard watched.
        stats = scenario.platform.controller_of("node-0").perf.stats
        assert stats.hits or stats.misses

    def test_federated_link_transcripts_stay_clean_with_perf_on(self):
        scenario = CssScenario(ScenarioConfig(
            nodes=2, n_events=30, n_patients=6, seed=7,
        ))
        scenario.run()
        transcript = scenario.platform.link_transcripts()
        assert transcript
        blob = "\n".join(transcript)
        # Consumer ids (e.g. "FamilyDoctors/Dr-Rossi") cross links by
        # design and may share surnames with patients, so the invariant
        # is on subject identity: patient ids and full display names.
        for patient in scenario.population:
            assert patient.patient_id not in blob
            assert patient.name not in blob
