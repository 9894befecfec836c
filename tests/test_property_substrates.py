"""Property-based tests of the substrate invariants.

* Bus: per-subscription FIFO order (also under a same-bus forwarder),
  at-least-once accounting (delivered + dead-lettered + pending == fanned
  out), wildcard-matching consistency, and a bus that calls idle
  subscriptions' handlers directly and visits only the waiting set
  against one that queues every delivery and scans every subscription.
* Registry: the indexed query engine agrees with a brute-force filter.
* Keystore: rotation never breaks previously sealed tokens.
* Row codecs: audit records and registry objects survive their one
  encode/decode pair, and rows written before the codecs were merged
  still replay.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit.log import AuditAction, AuditOutcome, AuditRecord
from repro.bus.broker import ServiceBus
from repro.bus.delivery import DeliveryPolicy
from repro.bus.topics import topic_matches
from repro.clock import Clock
from repro.crypto.keystore import KeyStore
from repro.registry.objects import LifecycleStatus, RegistryObject
from repro.registry.query import FilterQuery
from repro.registry.registry import Registry
from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore
from repro.sched.scheduler import POLICY_DRR, SchedConfig, TenantScheduler
from repro.storage.segment import SegmentedLog

TOPICS = ("events.health.BloodTest", "events.health.Discharge",
          "events.social.HomeCare", "events.social.Alarm")
PATTERNS = ("events.#", "events.health.*", "events.social.*",
            "events.health.BloodTest", "events.*.Alarm")


#: What an acting handler does, on each delivery, to the subscription
#: registered next after its own.
ACTIONS = ("break", "repair", "pause", "resume", "unsubscribe")

OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("publish"), st.sampled_from(TOPICS)),
    st.tuples(st.sampled_from(("subscribe", "subscribe_forwarder")),
              st.sampled_from(PATTERNS)),
    st.tuples(st.just("subscribe_acting"),
              st.tuples(st.sampled_from(PATTERNS), st.sampled_from(ACTIONS))),
    st.tuples(st.sampled_from(
        ("dispatch", "unsubscribe", "pause", "resume", "break", "repair",
         "replay", "replay_all", "drain")), st.integers(0, 7)),
), max_size=60)


class QueuedBus(ServiceBus):
    """The reference: every fan-out waits in the queues for its round."""

    def _idle(self) -> bool:
        return False


class BusRig:
    """One bus under a drawn interleaving of every operation that moves a
    queue, with handlers that can be broken and repaired, handlers that
    act on a later subscription, and forwarders that re-publish what they
    receive on the same bus; optionally with a fair scheduler whose small
    backlog bound sheds."""

    def __init__(self, auto_dispatch: bool, max_attempts: int,
                 bus_class=ServiceBus, fair: bool = False,
                 forwarding: bool | None = None) -> None:
        self.clock = Clock()
        sched = TenantScheduler(self.clock, policy=POLICY_DRR,
                                config=SchedConfig(max_pending=2)) if fair else None
        self.bus = bus_class(
            clock=self.clock, strict_topics=False, auto_dispatch=auto_dispatch,
            delivery_policy=DeliveryPolicy(max_attempts=max_attempts),
            sched=sched)
        # A round started from inside a handler the queue path reached
        # re-offers that handler's unacknowledged head, so a forwarder
        # the reference reaches that way needs explicit rounds.
        self.forwarding = not auto_dispatch if forwarding is None else forwarding
        self.live: list = []
        self.subscribed = 0
        self.broken: set[str] = set()
        self.delivered: list[tuple[str, str]] = []
        self.published: list[tuple[str, str]] = []
        self.reports: list = []
        dispatch = self.bus.dispatch

        def logged():
            report = dispatch()
            self.reports.append(report)
            return report
        self.bus.dispatch = logged  # publish's own rounds go through it too

    def publish(self, topic: str, sender: str, body: str):
        self.published.append((topic, body))
        return self.bus.publish(topic, sender, body)

    def handler_for(self, subscriber: str, forwards: bool, action=None):
        def handle(envelope):
            if subscriber in self.broken:
                raise RuntimeError("consumer down")
            self.delivered.append((subscriber, envelope.body))
            if forwards and not envelope.body.startswith("fwd:"):
                self.publish(TOPICS[-1], subscriber, f"fwd:{envelope.body}")
            names = [sub.subscriber for sub in self.live]
            if action and subscriber in names[:-1]:
                self.act(action, self.live[names.index(subscriber) + 1])
        return handle

    def parked(self) -> list[tuple[str, str]]:
        """The dead-letter queue: (origin subscription, message id)."""
        return [(queued.origin, queued.envelope.message_id)
                for queued in self.bus._engine.dead_letter._messages]

    def observed(self) -> tuple:
        """Everything the bus reports, for comparing two rigs."""
        bus = self.bus
        sched = bus._sched
        return (self.delivered, self.parked(), bus.stats,
                [sub.queue.stats for sub in self.live], self.reports,
                bus.queue_high_water_marks(), bus.queue_high_water(),
                bus.dead_letter_high_water, bus.queue_depth,
                sched and sched.tenant_report(self.clock.now()))

    def apply(self, name: str, argument):
        """Run one step; returns what the bus returned for it, if anything."""
        bus, live = self.bus, self.live
        self.clock.advance(0.001)
        if name == "publish":
            return self.publish(argument, "p", f"m{bus.stats.published}").message_id
        if name.startswith("subscribe"):
            pattern, action = (argument if name == "subscribe_acting"
                               else (argument, None))
            subscriber = f"c{self.subscribed}"
            self.subscribed += 1
            live.append(bus.subscribe(subscriber, pattern, self.handler_for(
                subscriber, self.forwarding and name == "subscribe_forwarder",
                action)))
            return None
        if name == "dispatch":
            return bus.dispatch()
        if name == "replay_all":
            return bus.replay_all_dead_letters()
        if not live:
            return None
        return self.act(name, live[argument % len(live)])

    def act(self, name: str, target):
        """One operation on one subscription."""
        bus, live = self.bus, self.live
        if name == "unsubscribe":
            bus.unsubscribe(target.subscription_id)
            live.remove(target)
        elif name == "pause":
            target.pause()
        elif name == "resume":
            target.resume()
        elif name == "break":
            self.broken.add(target.subscriber)
        elif name == "repair":
            self.broken.discard(target.subscriber)
        elif name == "replay":
            return bus.replay_dead_letters(target.subscription_id)
        elif name == "drain":
            return len(target.queue.drain())
        return None


class TestBusProperties:
    @given(publishes=st.lists(st.sampled_from(TOPICS), max_size=40),
           pattern=st.sampled_from(PATTERNS))
    @settings(max_examples=60, deadline=None)
    def test_fifo_order_per_subscription(self, publishes, pattern):
        bus = ServiceBus(strict_topics=False)
        received: list[str] = []
        bus.subscribe("c", pattern, lambda env: received.append(env.body))
        for index, topic in enumerate(publishes):
            bus.publish(topic, "p", f"{index}:{topic}")
        expected = [
            f"{index}:{topic}" for index, topic in enumerate(publishes)
            if topic_matches(pattern, topic)
        ]
        assert received == expected

    @given(
        publishes=st.lists(st.sampled_from(TOPICS), max_size=30),
        fail_first_n=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_no_message_lost_or_duplicated(self, publishes, fail_first_n):
        """delivered + dead-lettered + pending == enqueued, exactly."""
        bus = ServiceBus(strict_topics=False, auto_dispatch=False,
                         delivery_policy=DeliveryPolicy(max_attempts=2))
        seen: list[str] = []
        state = {"failures_left": fail_first_n}

        def flaky(envelope):
            if state["failures_left"] > 0:
                state["failures_left"] -= 1
                raise RuntimeError("transient")
            seen.append(envelope.message_id)

        subscription = bus.subscribe("c", "events.#", flaky)
        for topic in publishes:
            bus.publish(topic, "p", "x")
        for _ in range(len(publishes) * 3 + 5):
            bus.dispatch()
        stats = subscription.queue.stats
        accounted = stats.delivered + stats.dead_lettered + subscription.queue.depth
        assert accounted == stats.enqueued == len(publishes)
        # Delivered messages were delivered exactly once.
        assert len(seen) == len(set(seen)) == stats.delivered

    @given(operations=OPERATIONS)
    @settings(max_examples=80, deadline=None)
    def test_queue_depth_is_the_sum_of_the_live_queues(self, operations):
        """The running broker-wide depth survives enqueue / ack / evict /
        drain / unsubscribe / dead-letter replay in any interleaving."""
        rig = BusRig(auto_dispatch=False, max_attempts=1)
        for step in operations:
            rig.apply(*step)
            recomputed = sum(sub.queue.depth for sub in rig.live)
            assert rig.bus.queue_depth == rig.bus.pending_messages() == recomputed

    @pytest.mark.parametrize("perf", ["none", "indexed"])
    @given(operations=OPERATIONS, auto_dispatch=st.booleans(),
           max_attempts=st.sampled_from((1, 2)), fair=st.booleans())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_dispatching_the_waiting_set_equals_scanning_every_subscription(
            self, perf, operations, auto_dispatch, max_attempts, fair,
            linear_reference):
        """A fan-out into an idle bus calls the handlers directly, and a
        round over the subscriptions that hold something visits only
        those; the reference queues every delivery and scans every
        subscription (through the linear fan-out).  Both deliver the same
        messages in the same order, park the same dead letters, count the
        same stats, reports, high-water marks and tenant figures — also
        while handlers break, repair, pause, resume or withdraw a later
        subscription and a fair scheduler sheds — and the set the queues
        keep is exactly the non-empty ones in registration order; the
        subject fans out through the trie and its memo or through the
        linear reference (``none``)."""
        with linear_reference() if perf == "none" else nullcontext():
            subject = BusRig(auto_dispatch, max_attempts, fair=fair)
            reference = BusRig(auto_dispatch, max_attempts, QueuedBus, fair)
            scanned = reference.bus._subscriptions
            scanned.waiting = lambda: (  # the round before the set
                sub for sub in scanned.all_subscriptions()
                if sub.subscription_id in scanned)  # not withdrawn mid-round
            scanned.matching_topic = scanned.matching_topic_linear
            registry = subject.bus._subscriptions
            for step in operations:
                assert subject.apply(*step) == reference.apply(*step)
                assert list(registry.waiting()) == [
                    sub for sub in registry.all_subscriptions() if sub.queue.depth]
                assert subject.observed() == reference.observed()

    @given(operations=st.lists(st.one_of(
               st.tuples(st.just("publish"), st.sampled_from(TOPICS)),
               st.tuples(st.just("subscribe"), st.sampled_from(PATTERNS))),
               max_size=40),
           forwarder=st.sampled_from(PATTERNS), at=st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_a_same_bus_forwarder_keeps_every_subscription_fifo(
            self, operations, forwarder, at):
        """Under auto-dispatch a handler that publishes on its own bus moves
        the rest of the direct list into the queues first: every
        subscription receives what it matches in the order it was
        published, forwarded copies included, each exactly once."""
        rig = BusRig(auto_dispatch=True, max_attempts=1, forwarding=True)
        operations.insert(min(at, len(operations)),
                          ("subscribe_forwarder", forwarder))
        since = {}
        for name, argument in operations:
            if name.startswith("subscribe"):
                since[f"c{rig.subscribed}"] = (argument, len(rig.published))
            rig.apply(name, argument)
        for subscriber, (pattern, first) in since.items():
            assert [body for who, body in rig.delivered if who == subscriber] == [
                body for topic, body in rig.published[first:]
                if topic_matches(pattern, topic)]
        assert rig.bus.queue_depth == rig.bus.dead_letter_depth == 0

    @given(topic=st.sampled_from(TOPICS))
    @settings(max_examples=20, deadline=None)
    def test_fanout_reaches_exactly_matching_subscriptions(self, topic):
        bus = ServiceBus(strict_topics=False)
        boxes = {pattern: [] for pattern in PATTERNS}
        for pattern in PATTERNS:
            bus.subscribe(pattern, pattern, boxes[pattern].append)
        bus.publish(topic, "p", "x")
        for pattern in PATTERNS:
            expected = 1 if topic_matches(pattern, topic) else 0
            assert len(boxes[pattern]) == expected


CLASSES = ("BloodTest", "HomeCare", "Alarm")


def registry_objects(data: list[tuple[str, str]]) -> list[RegistryObject]:
    objects = []
    for index, (event_class, stamp) in enumerate(data):
        obj = RegistryObject(object_id=f"n{index}", object_type="Notification",
                             name=f"event {index}")
        obj.classify("EventClass", event_class)
        obj.set_slot("occurredAt", stamp)
        objects.append(obj)
    return objects


class TestRegistryProperties:
    @given(
        data=st.lists(
            st.tuples(st.sampled_from(CLASSES),
                      st.from_regex(r"2010-(0[1-9]|1[0-2])-(0[1-9]|2[0-8])",
                                    fullmatch=True)),
            max_size=30,
        ),
        wanted_class=st.sampled_from(CLASSES),
        since=st.from_regex(r"2010-(0[1-9]|1[0-2])-01", fullmatch=True),
    )
    @settings(max_examples=50, deadline=None)
    def test_indexed_query_equals_brute_force(self, data, wanted_class, since):
        registry = Registry()
        objects = registry_objects(data)
        for obj in objects:
            registry.submit(obj)
        query = (FilterQuery(object_type="Notification")
                 .where("class:EventClass", "eq", wanted_class)
                 .where("slot:occurredAt", "ge", since))
        indexed = {obj.object_id for obj in registry.query(query)}
        brute_force = {
            obj.object_id for obj in objects
            if obj.classification_node("EventClass") == wanted_class
            and (obj.slot_value("occurredAt") or "") >= since
        }
        assert indexed == brute_force


class TestKeystoreRotationProperty:
    @given(
        values=st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=10),
        rotations=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_rotation_preserves_old_tokens(self, values, rotations):
        store = KeyStore("rotation-secret")
        store.create("k")
        tokens = []
        for sealed, value in enumerate(values, start=1):
            tokens.append((value, store.seal("k", value, f"evt-{sealed}/subjectRef")))
            if rotations and sealed % max(1, len(values) // (rotations + 1)) == 0:
                store.rotate("k")
        for value, token in tokens:
            assert store.open_("k", token) == value


# One audit row and one index row exactly as the pre-merge writers
# (``JsonlAuditSink.append`` / ``JsonlIndexStore._row_of``) stored them.
OLD_AUDIT_ROW = {
    "action": "join", "actor": "Hospital-S-Maria/Laboratory",
    "detail": "joined as producer",
    "digest": "83b455fdc89b9d6b3aec70af9643452f2032b6b485e3bd02a25b34c48b6c31fd",
    "event_id": None, "event_type": None, "outcome": "permit", "purpose": None,
    "record_id": "aud-000001-962a", "subject_ref": None, "timestamp": 0.0,
}
OLD_INDEX_ROW = {
    "classifications": [
        {"node": "HomeCareServiceEvent", "scheme": "EventClass"},
        {"node": "HomeAssist-Coop", "scheme": "Producer"},
    ],
    "description": "home care service delivered to Giovanni Esposito",
    "name": "home care service delivered to Giovanni Esposito",
    "object_id": "evt-000001-650d", "object_type": "Notification",
    "sequence": 2,
    "slots": {
        "occurredAt": ["0000000000023.478891"],
        "producerId": ["HomeAssist-Coop"],
        "subjectDisplay": ["v1:600d831854ed3d445f23954aecbe755808842abc4931bbcb"
                           "706b2d39108d51b3066b3e2edbe5aa83219136334a56e72035"
                           "c8282b63b34c70f41f8924e0308e3eef"],
        "subjectRef": ["v1:ce7aac9146ca0f8b06113fb0f11899c127f16c1b030f38e4139"
                       "667e78de108b53a37d3deb020cf8131ac81c5b6acb223bb7c460a7f"
                       "ffe0dab7"],
    },
    "status": "approved",
}

optional_text = st.none() | st.text(max_size=12)
audit_records = st.builds(
    AuditRecord,
    record_id=st.text(min_size=1, max_size=12),
    timestamp=st.floats(min_value=0, max_value=1e9),
    actor=st.text(max_size=12),
    action=st.sampled_from(AuditAction),
    outcome=st.sampled_from(AuditOutcome),
    event_id=optional_text, event_type=optional_text,
    subject_ref=optional_text, purpose=optional_text,
    detail=st.text(max_size=20),
)
names = st.text(min_size=1, max_size=8)


class TestRowCodecs:
    @given(record=audit_records)
    @settings(max_examples=60, deadline=None)
    def test_audit_record_round_trips(self, record):
        row = json.loads(json.dumps(record.to_payload()))
        assert AuditRecord.from_payload(row) == record

    @given(
        classifications=st.lists(st.tuples(names, names), max_size=4),
        slots=st.dictionaries(names, st.lists(st.text(max_size=8), max_size=3),
                              max_size=4),
        status=st.sampled_from(LifecycleStatus),
        name=st.text(max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_registry_object_round_trips(self, classifications, slots, status, name):
        obj = RegistryObject(object_id="evt-1", object_type="Notification",
                             name=name, description=name, status=status)
        for scheme, node in classifications:
            obj.classify(scheme, node)
        for slot_name, values in slots.items():
            obj.set_slot(slot_name, *values)
        row = json.loads(json.dumps(obj.to_row()))
        assert RegistryObject.from_row(row) == obj

    def test_pre_merge_audit_row_replays(self, tmp_path):
        SegmentedLog(tmp_path / "audit").append(OLD_AUDIT_ROW)
        sink = JsonlAuditSink(SegmentedLog(tmp_path / "audit"))
        sink.verify_integrity()
        assert sink.head_digest == OLD_AUDIT_ROW["digest"]
        assert sink.record_at(0).action is AuditAction.JOIN
        # ...and what the sink writes today is that very row.
        fresh = JsonlAuditSink(SegmentedLog(tmp_path / "fresh"))
        fresh.append(sink.record_at(0))
        written = [path.read_bytes() for name in ("fresh", "audit")
                   for path in (tmp_path / name).glob("*.seg")]
        assert len(written) == 2 and written[0] == written[1]

    def test_pre_merge_index_row_replays(self, tmp_path):
        SegmentedLog(tmp_path / "index").append(OLD_INDEX_ROW)
        index = JsonlIndexStore(SegmentedLog(tmp_path / "index"),
                                KeyStore("css-platform-secret"))
        notification = index.get("evt-000001-650d")  # a counter-nonce token
        assert notification.subject_display == "Giovanni Esposito"
        assert notification.event_type == "HomeCareServiceEvent"
        # The row's stale nonce counter is ignored; the rest is the row.
        obj = index.registry.get("evt-000001-650d")
        assert obj.to_row() == {key: value for key, value in OLD_INDEX_ROW.items()
                                if key != "sequence"}
