"""Federation wire caching (``repro.perf.wire_cache``), the link's
transcript encoding and the keystore's shared key-schedule cache.

The fast paths must be invisible on the wire: reused sealed relay frames
produce byte-identical link transcripts versus the linear reference, every
transcript line is canonical JSON, relayed notifications still open and
deliver intact, and the process-wide key schedule returns boxes that
interoperate with freshly derived ones.
"""

import json

from repro.crypto.hashing import canonical_json
from repro.crypto.keystore import KeyStore
from repro.perf.wire_cache import SealedFrameCache
from tests.conftest import build_federation


class TestSealedFrameCache:
    def test_miss_put_hit_cycle(self):
        cache = SealedFrameCache()
        assert cache.get(("t", "<x/>")) is None
        frame = cache.put(("t", "<x/>"), {"from": "n", "token": "v1:abc"})
        assert cache.get(("t", "<x/>")) is frame
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_oldest_entry_drops_past_the_cap(self):
        cache = SealedFrameCache(max_entries=2)
        cache.put("a", {"token": "1"})
        cache.put("b", {"token": "2"})
        cache.put("c", {"token": "3"})
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") is None
        assert cache.get("c") is not None


class TestKeyScheduleCache:
    def test_two_stores_share_one_derivation(self):
        KeyStore._schedule.clear()
        misses_before = KeyStore.schedule_misses
        hits_before = KeyStore.schedule_hits
        first = KeyStore("shared-master")
        second = KeyStore("shared-master")
        first.create("channel:x")
        second.create("channel:x")
        assert KeyStore.schedule_misses == misses_before + 1
        assert KeyStore.schedule_hits == hits_before + 1
        # Interoperable: sealed by one store, opened by the other.
        token = first.seal("channel:x", "payload", context="channel:x")
        assert second.open_("channel:x", token) == "payload"

    def test_opting_out_still_interoperates(self):
        """A store derived after the schedule was dropped (a fresh
        derivation, not a shared box) opens what one derived before sealed."""
        KeyStore._schedule.clear()
        before = KeyStore("shared-master")
        before.create("channel:y")
        token = before.seal("channel:y", "payload", context="channel:y")
        KeyStore._schedule.clear()
        misses = KeyStore.schedule_misses
        after = KeyStore("shared-master")
        after.create("channel:y")
        assert KeyStore.schedule_misses == misses + 1
        assert after.open_("channel:y", token) == "payload"
        assert ("shared-master", "channel:y", 1) in KeyStore._schedule

    def test_different_masters_never_share_boxes(self):
        KeyStore._schedule.clear()
        one = KeyStore("master-a")
        other = KeyStore("master-b")
        one.create("k")
        other.create("k")
        assert len(KeyStore._schedule) == 2


class TestWireHints:
    def test_wire_message_is_the_links_canonical_encoding(self):
        deployment = build_federation(shards=3)
        platform = deployment.platform
        # A fan-out inquiry from node-1 reaches both peers.
        platform.controller_of("node-1").index.inquire(["BloodTest"])
        transcript = platform.link_transcripts()
        assert sum('"op":"index.inquire"' in line for line in transcript) >= 2
        # Every line, rendered on read, is the canonical encoding of what
        # it says crossed: requests and responses alike.
        for line in transcript:
            assert line == canonical_json(json.loads(line))


class TestTranscriptEquivalence:
    def run_deployment(self) -> tuple[list[str], list, dict]:
        deployment = build_federation(shards=3)
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        notifications = [
            deployment.publish_blood_test(subject_id=f"pat-{i}")
            for i in range(4)
        ]
        platform.dispatch_all()
        detail = platform.request_details(
            "FamilyDoctors/Dr-Rossi", "BloodTest",
            notifications[0].event_id, "healthcare-treatment",
        )
        platform.controller_of("node-1").index.inquire(["BloodTest"])
        inbox = platform.consumer("FamilyDoctors/Dr-Rossi").inbox
        return (platform.link_transcripts(), [n.to_xml() for n in inbox],
                detail.exposed_values())

    def test_indexed_and_none_transcripts_are_byte_identical(
            self, linear_reference):
        indexed_wire, indexed_inbox, indexed_released = self.run_deployment()
        with linear_reference():
            baseline_wire, baseline_inbox, baseline_released = \
                self.run_deployment()
        assert indexed_wire == baseline_wire
        # Relayed notifications opened and delivered identically too, and
        # the request released the same fields.
        assert indexed_inbox == baseline_inbox
        assert len(indexed_inbox) == 4
        assert indexed_released == baseline_released
        assert set(indexed_released) == {"PatientId", "Name", "Hemoglobin",
                                         "Glucose"}

    def test_relay_frames_are_sealed_once_with_perf_on(self):
        deployment = build_federation(shards=3)
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        deployment.publish_blood_test()
        deployment.publish_blood_test(subject_id="pat-2")
        platform.dispatch_all()
        inbox = platform.consumer("FamilyDoctors/Dr-Rossi").inbox
        assert [n.subject_ref for n in inbox] == ["pat-1", "pat-2"]
        home = platform.controller_of("node-0").perf.stats
        assert home.misses.get("seal", 0) >= 1
