"""Federation wire caching (``FederationNode._sealed_relay_frame``), what
crosses a link and the keystore's shared key-schedule cache.

The fast paths must be invisible on the wire: reused sealed relay frames
produce byte-identical wire traffic (``tests/conftest.py::wire_tap``)
versus the linear reference, every message that crosses is plain JSON,
relayed notifications still open and deliver intact, and the
process-wide key schedule returns boxes that interoperate with freshly
derived ones.
"""

import json

from repro.crypto.hashing import canonical_json
from repro.crypto.keystore import KeyStore
from repro.federation.node import MAX_RELAY_FRAMES
from tests.conftest import build_federation, wire_tap


def relay_frames():
    """A node that has relayed nothing yet, its perf counters and one
    notification to seal."""
    deployment = build_federation()
    node = deployment.platform.node("node-0")
    notification = deployment.publish_blood_test()
    node._relay_frames.clear()
    return node, node.controller.perf.stats, notification


class TestSealedFrameCache:
    def test_miss_put_hit_cycle(self):
        node, stats, notification = relay_frames()
        misses = stats.misses.get("seal", 0)
        hits = stats.hits.get("seal", 0)
        frame = node._sealed_relay_frame("events.health.BloodTest", notification)
        assert stats.misses["seal"] == misses + 1
        assert node._sealed_relay_frame("events.health.BloodTest", notification) is frame
        assert stats.hits["seal"] == hits + 1
        assert len(node._relay_frames) == 1
        # The frame opens to the topic beside the notification's fields.
        body = node.open_channel(frame)
        assert body.pop("topic") == "events.health.BloodTest"
        assert body == vars(notification)

    def test_oldest_entry_drops_past_the_cap(self):
        node, _, notification = relay_frames()
        first = node._sealed_relay_frame("topic.0", notification)
        for key in range(1, MAX_RELAY_FRAMES + 1):
            node._sealed_relay_frame(f"topic.{key}", notification)
        assert len(node._relay_frames) == MAX_RELAY_FRAMES
        assert ("topic.0", notification) not in node._relay_frames
        assert ("topic.1", notification) in node._relay_frames
        assert (f"topic.{MAX_RELAY_FRAMES}", notification) in node._relay_frames
        # A dropped frame is sealed again, to the same bytes.
        assert node._sealed_relay_frame("topic.0", notification) == first


class TestKeyScheduleCache:
    def test_two_stores_share_one_derivation(self):
        KeyStore._schedule.clear()
        first = KeyStore("shared-master")
        second = KeyStore("shared-master")
        first.create("channel:x")
        second.create("channel:x")
        assert first._boxes["channel:x"] is second._boxes["channel:x"]
        assert len(KeyStore._schedule) == 1
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
        after = KeyStore("shared-master")
        after.create("channel:y")
        assert after._boxes["channel:y"] is not before._boxes["channel:y"]
        assert after.open_("channel:y", token) == "payload"
        assert ("shared-master", "channel:y") in KeyStore._schedule

    def test_different_masters_never_share_boxes(self):
        KeyStore._schedule.clear()
        one = KeyStore("master-a")
        other = KeyStore("master-b")
        one.create("k")
        other.create("k")
        assert len(KeyStore._schedule) == 2


class TestWireHints:
    def test_wire_message_is_the_links_canonical_encoding(self, wire):
        deployment = build_federation(shards=3)
        platform = deployment.platform
        # A fan-out inquiry from node-1 reaches both peers.
        platform.controller_of("node-1").index.inquire(["BloodTest"])
        assert sum('"op":"index.inquire"' in line for line in wire) >= 2
        # What crossed is plain JSON, and every line the canonical
        # encoding of what it says crossed: requests and responses alike.
        for line in wire:
            assert line == canonical_json(json.loads(line))


class TestTranscriptEquivalence:
    def run_deployment(self) -> tuple[list[str], list, dict]:
        with wire_tap() as wire:
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
        return wire, [n.to_xml() for n in inbox], detail.exposed_values()

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
