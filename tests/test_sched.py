"""Fair multi-tenant scheduling: admission, DRR, penalty box, backpressure.

The acceptance-critical invariants: token buckets refill on the simulated
clock only, the penalty box demotes and recovers deterministically, the
victim tenant's service share is bounded below under ``fair`` while it
collapses under ``none``, same-seed schedules are deterministic, fan-out
overflow parks in the dead-letter queue and replays in bulk, and the
fair scheduler composes a ``sched`` pipeline stage while the baseline's
pipelines stay byte-identical to the pre-sched platform.
"""

import pytest

from repro.bus.broker import ServiceBus
from repro.clock import Clock
from repro.core.controller import DataController
from repro.exceptions import ConfigurationError
from repro.runtime.kernel import SWITCHES, RuntimeConfig
from repro.sched import (
    POLICY_DRR,
    POLICY_FIFO,
    SYSTEM_TENANT,
    WORK_DETAILS,
    WORK_PUBLISH,
    PenaltyBox,
    SchedConfig,
    TenantScheduler,
    TokenBucket,
    jain_index,
    tenant_of,
)


class TestTokenBucket:
    def test_refills_from_simulated_time_only(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        for _ in range(4):
            assert bucket.take(now=0.0)
        assert not bucket.take(now=0.0)  # dry at t=0, no wall-clock refill
        assert bucket.take(now=0.5)      # 0.5 s * 2/s = 1 token back
        assert not bucket.take(now=0.5)

    def test_burst_caps_the_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert bucket.take(now=0.0)
        bucket.refill(now=1_000.0)
        assert bucket.tokens == 3.0

    def test_refusal_consumes_nothing(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.take(now=0.0)
        tokens = bucket.tokens
        assert not bucket.take(now=0.0)
        assert bucket.tokens == tokens

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.0)


class TestPenaltyBox:
    def test_demotes_after_strike_limit(self):
        box = PenaltyBox(strike_limit=3, cooldown_seconds=10.0)
        for i in range(3):
            box.record(admitted=False, now=float(i))
        assert box.is_penalized(now=3.0)
        assert box.demotions == 1
        assert box.weight_factor(now=3.0) == box.penalty_weight

    def test_recovers_after_cooldown_on_simulated_clock(self):
        box = PenaltyBox(strike_limit=1, cooldown_seconds=5.0)
        box.record(admitted=False, now=0.0)
        assert box.is_penalized(now=4.999)
        assert not box.is_penalized(now=5.0)
        assert box.recoveries == 1
        assert box.weight_factor(now=5.0) == 1.0

    def test_good_behaviour_forgives_accumulated_strikes(self):
        box = PenaltyBox(strike_limit=3, forgive_seconds=2.0)
        box.record(admitted=False, now=0.0)
        box.record(admitted=False, now=0.1)
        # A conforming arrival after the forgiveness window clears strikes,
        # so a short burst is not punished like sustained abuse.
        box.record(admitted=True, now=3.0)
        box.record(admitted=False, now=3.1)
        box.record(admitted=False, now=3.2)
        assert not box.is_penalized(now=3.2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PenaltyBox(strike_limit=0)
        with pytest.raises(ConfigurationError):
            PenaltyBox(penalty_weight=0.0)


class TestTenantIdentity:
    def test_organizations_are_their_own_tenant(self):
        assert tenant_of("Municipality-Trento/SocialWorkers") == \
            "Municipality-Trento/SocialWorkers"

    def test_platform_traffic_collapses_onto_the_system_tenant(self):
        assert tenant_of("federation:node-1") == SYSTEM_TENANT
        assert tenant_of("") == SYSTEM_TENANT


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_one_tenant_taking_everything_is_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_are_defined_as_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0


def saturated_run(policy: str) -> TenantScheduler:
    """Drive an overloaded virtual server: abuser floods, victim trickles.

    The server can complete 1 work-second over the run while ~4 arrive,
    so the serving policy — not spare capacity — decides who is served.
    """
    clock = Clock()
    sched = TenantScheduler(
        clock, policy=policy,
        config=SchedConfig(service_rate=0.1, bucket_rate=5.0,
                           bucket_burst=10.0),
    )
    sched.set_weight("abuser", 1.0)
    sched.set_weight("victim", 1.0)
    for step in range(100):
        now = step * 0.1
        sched.ingress("abuser", WORK_PUBLISH, now)
        for _ in range(9):
            sched.ingress("abuser", WORK_DETAILS, now)
        if step % 10 == 0:
            sched.ingress("victim", WORK_DETAILS, now)
        sched.drain(now)
    sched.drain(10.0)
    return sched


class TestFairnessInvariants:
    def test_victim_share_collapses_under_fifo(self):
        shares = saturated_run(POLICY_FIFO).shares()
        # FIFO serves proportional-to-arrival: the flood drowns the victim.
        assert shares["victim"] < 0.05

    def test_victim_demand_fully_served_under_drr(self):
        # Equal weights entitle the victim to ~half the served work; its
        # demand is far below that, so DRR must serve *all* of it — the
        # bounded-below isolation guarantee — while FIFO satisfies only
        # the queue-position lottery's fraction.
        drr = saturated_run(POLICY_DRR).tenant_report(10.0)
        assert drr["victim"]["served_work"] == \
            pytest.approx(drr["victim"]["arrived_work"])
        fifo = saturated_run(POLICY_FIFO).tenant_report(10.0)
        fifo_satisfaction = (fifo["victim"]["served_work"]
                             / fifo["victim"]["arrived_work"])
        assert fifo_satisfaction < 0.5

    def test_abuser_is_throttled_and_penalized_only_under_drr(self):
        fifo = saturated_run(POLICY_FIFO)
        drr = saturated_run(POLICY_DRR)
        assert fifo.throttled_total == 0          # baseline never shapes
        assert drr.throttled_total > 0
        assert not fifo.is_penalized("abuser", 10.0)
        assert drr.is_penalized("abuser", 10.0)
        assert not drr.is_penalized("victim", 10.0)

    def test_same_seed_schedules_are_deterministic(self):
        a = saturated_run(POLICY_DRR).tenant_report(10.0)
        b = saturated_run(POLICY_DRR).tenant_report(10.0)
        assert a == b

    def test_unknown_policy_rejected_with_suggestion_material(self):
        with pytest.raises(ConfigurationError, match="unknown scheduling"):
            TenantScheduler(Clock(), policy="fifoo")


class TestDrrService:
    def test_weights_shape_shares_under_saturation(self):
        clock = Clock()
        sched = TenantScheduler(
            clock, policy=POLICY_DRR,
            config=SchedConfig(service_rate=0.1, bucket_rate=1e9,
                               bucket_burst=1e9),
        )
        sched.set_weight("heavy", 3.0)
        sched.set_weight("light", 1.0)
        for step in range(100):
            now = step * 0.1
            for _ in range(10):
                sched.ingress("heavy", WORK_DETAILS, now)
                sched.ingress("light", WORK_DETAILS, now)
            sched.drain(now)
        report = sched.tenant_report(10.0)
        ratio = report["heavy"]["served_work"] / report["light"]["served_work"]
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_fifo_serves_in_global_arrival_order(self):
        clock = Clock()
        sched = TenantScheduler(
            clock, policy=POLICY_FIFO,
            config=SchedConfig(service_rate=1.0),
        )
        sched.submit("a", WORK_DETAILS, 0.0)
        sched.submit("b", WORK_DETAILS, 0.0)
        # Budget for exactly one item: the earliest arrival wins.
        sched.drain(0.003)
        report = sched.tenant_report(0.003)
        assert report["a"]["served"] == 1
        assert report["b"]["served"] == 0


class TestBackpressure:
    def make_bus(self, max_pending: int = 2):
        clock = Clock()
        sched = TenantScheduler(
            clock, policy=POLICY_DRR,
            config=SchedConfig(max_pending=max_pending),
        )
        bus = ServiceBus(clock=clock, auto_dispatch=False, sched=sched)
        bus.declare_topic("events.t")
        return bus, sched

    def test_overflow_sheds_to_dead_letter_and_replays_in_bulk(self):
        bus, sched = self.make_bus(max_pending=2)
        received = []
        bus.subscribe("consumer-org", "events.t", received.append)
        for i in range(5):
            bus.publish("events.t", "producer-org", f"m{i}")
        # Two enqueued, three shed past the bound — bounded real memory.
        assert bus.pending_messages() == 2
        assert bus.dead_letter_depth == 3
        assert sched.shed_total == 3
        bus.dispatch()
        assert len(received) == 2

        replayed = bus.replay_all_dead_letters()
        bus.dispatch()
        assert replayed == 3
        assert bus.dead_letter_depth == 0
        assert sorted(env.body for env in received) == [f"m{i}" for i in range(5)]

    def test_dead_letter_counts_accumulate_per_topic_across_replay(self):
        bus, _ = self.make_bus(max_pending=1)
        bus.declare_topic("events.u")
        bus.subscribe("consumer-org", "events.t", lambda e: None)
        bus.subscribe("consumer-org", "events.u", lambda e: None)
        for _ in range(3):
            bus.publish("events.t", "p", "x")
        for _ in range(2):
            bus.publish("events.u", "p", "x")
        assert bus.dead_letter_counts() == {"events.t": 2, "events.u": 1}
        bus.replay_all_dead_letters()
        # Cumulative arrivals survive replay — they are a counter, not a depth.
        assert bus.dead_letter_counts() == {"events.t": 2, "events.u": 1}
        assert bus.dead_letter_depth == 0

    def test_fifo_baseline_never_sheds(self):
        clock = Clock()
        sched = TenantScheduler(clock, policy=POLICY_FIFO,
                                config=SchedConfig(max_pending=1))
        bus = ServiceBus(clock=clock, auto_dispatch=False, sched=sched)
        bus.declare_topic("events.t")
        bus.subscribe("consumer-org", "events.t", lambda e: None)
        for _ in range(5):
            bus.publish("events.t", "p", "x")
        assert bus.dead_letter_depth == 0
        assert bus.pending_messages() == 5


class TestBusStatsResetContract:
    def test_reset_zeroes_counters_but_keeps_high_water_marks(self):
        bus = ServiceBus(auto_dispatch=False)
        bus.declare_topic("events.t")
        bus.subscribe("c", "events.t", lambda e: None)
        bus.publish("events.t", "s", "x")
        assert bus.stats.published == 1
        assert bus.queue_high_water() == 1

        bus.stats.reset()
        assert bus.stats.published == 0
        # High-water marks live on the bus, cleared only by the bus.
        assert bus.queue_high_water() == 1
        bus.reset_high_water()
        assert bus.queue_high_water() == 0

    def test_reset_docstring_pins_the_division_of_labour(self):
        from repro.bus.broker import BusStats

        assert "reset_high_water" in BusStats.reset.__doc__


class TestKernelWiring:
    def test_sched_kind_registered_with_both_policies(self):
        assert SWITCHES["sched"] == ("fair", "none")
        policies = {name: DataController(
            seed="wire", runtime=RuntimeConfig(sched=name)).sched.policy
            for name in SWITCHES["sched"]}
        assert policies == {"fair": POLICY_DRR, "none": POLICY_FIFO}

    def test_unknown_sched_name_gets_a_suggestion(self):
        with pytest.raises(ConfigurationError, match="did you mean 'fair'"):
            RuntimeConfig(sched="fiar")

    def test_fair_controller_gains_a_sched_stage(self):
        fifo = DataController(seed="wire")
        fair = DataController(seed="wire",
                              runtime=RuntimeConfig(sched="fair"))
        assert "sched" not in fifo.publish_pipeline.stage_names
        assert "sched" not in fifo.details_pipeline.stage_names
        assert fair.publish_pipeline.stage_names[0] == "sched"
        assert fair.details_pipeline.stage_names[0] == "sched"
        # Minus the leading sched stage, the chains are the pinned defaults.
        assert fair.publish_pipeline.stage_names[1:] == \
            fifo.publish_pipeline.stage_names
        assert fair.details_pipeline.stage_names[1:] == \
            fifo.details_pipeline.stage_names

    def test_both_policies_meter_but_only_fair_shapes(self):
        fifo = DataController(seed="wire")
        fair = DataController(seed="wire",
                              runtime=RuntimeConfig(sched="fair"))
        assert fifo.sched.policy == POLICY_FIFO
        assert not fifo.sched.shapes_ingress
        assert fair.sched.policy == POLICY_DRR
        assert fair.sched.shapes_ingress
