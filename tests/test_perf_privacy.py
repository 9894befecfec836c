"""Privacy invariants of the hot-path performance layer.

The caches must not become a side channel: decision-cache keys are
opaque keyed digests (no plaintext subject/actor identity), the perf
counters label telemetry with cache *names* only, and a full federated
scenario runs clean under the strict ``reject`` guard with the perf
layer active — every label the fast paths emit passes the same guard
the slow paths do.
"""

import re

from repro import DataConsumer, DataController, DataProducer, RuntimeConfig
from repro.perf import CACHE_HITS, CACHE_MISSES
from repro.sim.scenario import CssScenario, ScenarioConfig
from tests.conftest import blood_test_schema

SECRETS = ("pat-secret-9", "Maria", "Rossi", "Dr-Confidential")


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


class TestCacheKeysAreOpaque:
    def test_decision_cache_keys_carry_no_plaintext_identity(self):
        controller, doctor, notification = build_world(
            RuntimeConfig(perf="indexed"))
        doctor.request_details(notification, "healthcare-treatment")
        keys = controller.perf.decisions.keys()
        assert keys
        digest = re.compile(r"^[0-9a-f]{32}$")
        for key in keys:
            assert digest.match(key)
            for secret in SECRETS:
                assert secret not in key
                assert secret.lower() not in key

    def test_decision_keys_are_secret_dependent(self):
        from repro.perf import PerfLayer

        class FakeEntry:
            producer_id = "Hospital"
            subject_ref = "pat-secret-9"
            event_type = "BloodTest"

        class FakeActor:
            actor_id = "Dr-Confidential"
            role = "family-doctor"

        class FakeRequest:
            actor = FakeActor()
            event_type = "BloodTest"
            purpose = "healthcare-treatment"

        one = PerfLayer(secret="a").decision_key(FakeEntry(), FakeRequest())
        other = PerfLayer(secret="b").decision_key(FakeEntry(), FakeRequest())
        assert one != other  # keyed digest, not a plain hash


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
            assert row["labels"]["cache"] in {"decision", "fanout", "wire",
                                              "seal"}

    def test_candidate_histogram_exists_and_is_label_safe(self):
        runtime = RuntimeConfig(perf="indexed", telemetry="inmemory",
                                telemetry_guard="reject")
        controller, doctor, notification = build_world(runtime)
        doctor.request_details(notification, "healthcare-treatment")
        exported = "\n".join(controller.telemetry.metrics_export())
        assert "pdp.candidates_scanned" in exported
        for secret in SECRETS:
            assert secret not in exported


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
