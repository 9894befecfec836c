"""Fair multi-tenant scheduling of broker and detail work.

The platform is shared by many consumer organizations (tenants); the
broker is the contention point.  :class:`TenantScheduler` is what the
``sched`` switch builds: it meters every unit of tenant-attributable work —
publishes, per-subscription fan-out, requests for details — into
per-tenant queues and *serves* them with a fluid-model virtual server
driven by the simulated clock (capacity accrues at ``service_rate``
work-seconds per simulated second; the policy decides who spends it):

* policy ``fifo`` (switch name ``none``) serves strictly in arrival
  order — exactly the dispatch behaviour the bus has always had, now
  with per-tenant accounting (shares, waits, starvation);
* policy ``drr`` (switch name ``fair``) serves tenant queues
  deficit-round-robin with per-tenant weights, token-bucket admission at
  ingress and an abusive-tenant penalty box
  (:mod:`repro.sched.tokens`).

The scheduler **shapes and accounts — it never changes decisions**.
Admission refusals are counted (and demote the abuser's weight), work is
re-ordered only inside the virtual server's cost model, and the actual
side-effect execution order on the bus stays arrival-ordered — which is
why two same-seed runs under ``none`` and ``fair`` produce *identical*
audit chains while reporting very different fairness figures.  The only
real intervention is backpressure: when a tenant's real bus backlog
exceeds ``max_pending`` under ``fair``, new fan-out for that tenant is
shed to the dead-letter queue (tagged with its subscription id, so
:meth:`~repro.bus.broker.ServiceBus.replay_all_dead_letters` can drain
it back after the episode).

Tenant identity derives from the existing sender/consumer organization
ids; every label leaving the scheduler is privacy-guard hashed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.obs.guard import PrivacyGuard
from repro.sched.tokens import PenaltyBox, TokenBucket

#: Work kinds the scheduler meters, and what each costs its fluid
#: virtual server in simulated seconds (the fairness figures are shares
#: of this server's work, never a measure of speed).
WORK_PUBLISH = "publish"
WORK_FANOUT = "fanout"
WORK_DETAILS = "details"

DEFAULT_COSTS = {
    WORK_PUBLISH: 0.004,
    WORK_FANOUT: 0.001,
    WORK_DETAILS: 0.003,
}

#: Serving policies.
POLICY_FIFO = "fifo"
POLICY_DRR = "drr"

#: The pseudo-tenant platform-internal work is attributed to (federation
#: relays, platform services).  Never throttled, shed or reported.
SYSTEM_TENANT = "platform"

#: Sender/subscriber prefixes that mark platform-internal traffic.
_SYSTEM_PREFIXES = ("federation:", "federation-relay:", "platform.")

#: Fairness metric names (gauges, labels guard-hashed).
TENANT_SHARE = "sched.tenant.share"
TENANT_STARVATION = "sched.tenant.starvation_seconds"
TENANT_THROTTLED = "sched.tenant.throttled"
TENANT_SHED = "sched.tenant.shed"
THROTTLED_TOTAL = "sched.throttled_total"
SHED_TOTAL = "sched.shed_total"


def tenant_of(actor_id: str) -> str:
    """The tenant a sender/consumer id is billed to.

    Organization ids are their own tenant; federation relay and
    platform-internal senders collapse onto :data:`SYSTEM_TENANT`.
    """
    if not actor_id or actor_id.startswith(_SYSTEM_PREFIXES):
        return SYSTEM_TENANT
    return actor_id


def jain_index(values: list[float]) -> float:
    """Jain's fairness index over per-tenant (weighted) service.

    ``(Σx)² / (n·Σx²)`` — 1.0 is perfectly fair, ``1/n`` is one tenant
    taking everything.  Defined as 1.0 for an empty or all-zero vector.
    """
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares <= 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True)
class SchedConfig:
    """Tuning knobs of one scheduler instance (all simulated-time units)."""

    #: Work-seconds the virtual server completes per simulated second.
    service_rate: float = 1.0
    #: DRR quantum: deficit credited per rotation visit, scaled by weight.
    quantum: float = 0.004
    #: Token-bucket sustained admissions/second per tenant.
    bucket_rate: float = 20.0
    #: Token-bucket burst capacity per tenant.
    bucket_burst: float = 40.0
    #: Real per-tenant bus backlog beyond which fan-out is shed (``fair``).
    max_pending: int = 256
    #: Penalty box: strikes before demotion, forgiveness and cool-down
    #: windows, and the demoted weight multiplier.
    strike_limit: int = 8
    forgive_seconds: float = 5.0
    cooldown_seconds: float = 30.0
    penalty_weight: float = 0.1
    #: Per-tenant wait samples retained for percentile reporting.
    wait_samples: int = 8192

    def __post_init__(self) -> None:
        if self.service_rate <= 0:
            raise ConfigurationError("service_rate must be positive")
        if self.quantum <= 0:
            raise ConfigurationError("quantum must be positive")
        if self.max_pending < 1:
            raise ConfigurationError("max_pending must be at least 1")
        if self.wait_samples < 1:
            raise ConfigurationError("wait_samples must be at least 1")


@dataclass
class _WorkItem:
    arrival: float
    cost: float
    kind: str
    count: int = 1  # a run: equal units that arrived together


@dataclass
class _TenantState:
    """One tenant's queue plus its admission and accounting state."""

    tenant: str
    weight: float = 1.0
    queue: deque = field(default_factory=deque)
    deficit: float = 0.0
    arrived: int = 0
    arrived_work: float = 0.0
    served: int = 0
    served_work: float = 0.0
    throttled: int = 0
    shed: int = 0
    max_wait: float = 0.0
    waits: list = field(default_factory=list)
    bucket: TokenBucket | None = None
    penalty: PenaltyBox | None = None

    def starvation(self, now: float) -> float:
        """Worst wait seen, including the still-waiting head of queue."""
        worst = self.max_wait
        if self.queue:
            worst = max(worst, now - self.queue[0].arrival)
        return worst


class TenantScheduler:
    """Per-tenant admission, fair queueing and fairness accounting.

    One instance per controller node (each federation node schedules its
    own ingress).  ``policy`` picks the serving discipline; everything
    else — metering, accounting, reporting — is identical across
    policies, so ``none`` vs ``fair`` comparisons measure the scheduler,
    not the instrumentation.
    """

    def __init__(
        self,
        clock,
        policy: str = POLICY_FIFO,
        config: SchedConfig | None = None,
        telemetry=None,
        secret: str = "css-sched",
        recorder=None,
    ) -> None:
        if policy not in (POLICY_FIFO, POLICY_DRR):
            raise ConfigurationError(
                f"unknown scheduling policy {policy!r}; "
                f"use {POLICY_FIFO!r} or {POLICY_DRR!r}"
            )
        self.clock = clock
        self.policy = policy
        self.config = config or SchedConfig()
        self._guard = PrivacyGuard(mode="hash", secret=secret)
        self._telemetry = telemetry
        self._tenants: dict[str, _TenantState] = {}
        #: FIFO: global arrival order (tenant ids, one per queued run).
        self._order: deque = deque()
        #: DRR: the active-tenant rotation.
        self._active: deque = deque()
        self._in_active: set[str] = set()
        #: Whether the front tenant's current visit already received its
        #: quantum (a budget-stalled visit resumes without re-crediting).
        self._visit_credited = False
        #: The fluid server: capacity accrues with simulated time at
        #: ``service_rate`` work-seconds per second; serving spends it.
        self._budget = 0.0
        self._last_drain = 0.0
        self.throttled_total = 0
        self.shed_total = 0
        # The flight recorder (duck-typed, like telemetry): penalty-box
        # transitions — demotion into the box, recovery out of it — leave
        # a trail in its ring with guard-hashed tenant labels.
        self._recorder = recorder
        #: Last (demotions, recoveries) observed per tenant, so the
        #: recorder sees each transition exactly once.
        self._penalty_seen: dict[str, tuple[int, int]] = {}
        #: Tenants last seen boxed: the only ones a drain can find recovered.
        self._boxed: set[str] = set()

    @property
    def shapes_ingress(self) -> bool:
        """Whether admission/backpressure actively shape traffic (``fair``)."""
        return self.policy == POLICY_DRR

    # -- tenant state ------------------------------------------------------

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            config = self.config
            state = _TenantState(
                tenant=tenant,
                bucket=TokenBucket(config.bucket_rate, config.bucket_burst),
                penalty=PenaltyBox(
                    strike_limit=config.strike_limit,
                    forgive_seconds=config.forgive_seconds,
                    cooldown_seconds=config.cooldown_seconds,
                    penalty_weight=config.penalty_weight,
                ),
            )
            self._tenants[tenant] = state
        return state

    def set_weight(self, tenant: str, weight: float) -> None:
        """Assign a tenant's fair-share weight (default 1.0)."""
        if weight <= 0:
            raise ConfigurationError("tenant weight must be positive")
        self._state(tenant_of(tenant)).weight = weight

    # -- ingress -----------------------------------------------------------

    def submit(self, actor_id: str, kind: str, now: float) -> None:
        """Meter one unit of work arriving for ``actor_id``'s tenant."""
        self._meter(tenant_of(actor_id), kind, now)

    def _meter(self, tenant: str, kind: str, now: float) -> None:
        """Queue one unit; it joins the tenant's last run if that arrived at
        ``now`` with nothing queued since (under fifo, by any tenant)."""
        state = self._state(tenant)
        cost = DEFAULT_COSTS[kind]
        state.arrived += 1
        state.arrived_work += cost
        fifo = self.policy == POLICY_FIFO
        last = state.queue[-1] if state.queue else None
        if (last is not None and last.arrival == now and last.kind == kind
                and (not fifo or self._order[-1] == tenant)):
            last.count += 1
            return
        state.queue.append(_WorkItem(arrival=now, cost=cost, kind=kind))
        if fifo:
            self._order.append(tenant)
        elif tenant not in self._in_active:
            self._active.append(tenant)
            self._in_active.add(tenant)

    def admit(self, actor_id: str, kind: str, now: float) -> bool:
        """Token-bucket admission verdict (pure accounting under fifo).

        Never raises and never blocks the caller — a refusal is counted,
        feeds the penalty box, and shapes the tenant's *future* share;
        the triggering operation itself proceeds unchanged, which is what
        keeps decisions and audit trails scheduler-invariant.
        """
        if not self.shapes_ingress:
            return True
        tenant = tenant_of(actor_id)
        if tenant == SYSTEM_TENANT:
            return True
        state = self._state(tenant)
        admitted = state.bucket.take(now)
        state.penalty.record(admitted, now)
        if not admitted:
            state.throttled += 1
            self.throttled_total += 1
        if self._recorder is not None:
            self._note_penalty_transitions(tenant, state, now)
        return admitted

    def _note_penalty_transitions(self, tenant: str, state: _TenantState,
                                  now: float) -> None:
        """Record demotion/recovery transitions seen since the last look."""
        if state.penalty is None:
            return
        # Poke the lazy recovery check so a cooled-down tenant's exit from
        # the box is surfaced now, not on its next weight lookup (the
        # check is a pure function of ``now``, so this changes nothing
        # about scheduling outcomes).
        state.penalty.is_penalized(now)
        if state.penalty.penalized_until:
            self._boxed.add(tenant)
        else:
            self._boxed.discard(tenant)
        seen = self._penalty_seen.get(tenant, (0, 0))
        current = (state.penalty.demotions, state.penalty.recoveries)
        if current == seen:
            return
        label = self.tenant_label(tenant)
        for _ in range(current[0] - seen[0]):
            self._recorder.record("sched.penalty_demotion", tenant=label,
                                  demotions=current[0])
        for _ in range(current[1] - seen[1]):
            self._recorder.record("sched.penalty_recovery", tenant=label,
                                  recoveries=current[1])
        self._penalty_seen[tenant] = current

    def ingress(self, actor_id: str, kind: str, now: float) -> bool:
        """Meter + admit in one step (the node/edge ingress hook)."""
        self.submit(actor_id, kind, now)
        return self.admit(actor_id, kind, now)

    # -- backpressure ------------------------------------------------------

    def should_shed(self, subscriber: str, pending: int) -> bool:
        """Whether new fan-out for ``subscriber`` must overflow to the DLQ.

        ``pending`` is the subscriber's *real* queue depth on the bus —
        shedding bounds actual memory, not the virtual server's model.
        Only the fair policy sheds, and never the system tenant.
        """
        if not self.shapes_ingress:
            return False
        if tenant_of(subscriber) == SYSTEM_TENANT:
            return False
        return pending >= self.config.max_pending

    def note_shed(self, subscriber: str) -> None:
        """Count one shed fan-out against ``subscriber``'s tenant."""
        state = self._state(tenant_of(subscriber))
        state.shed += 1
        self.shed_total += 1

    # -- bus-facing metering (no constant imports in the bus layer) --------

    def note_publish(self, sender: str, now: float) -> None:
        """Meter one publish against its sender's tenant."""
        self._meter(tenant_of(sender), WORK_PUBLISH, now)

    def note_fanout(self, subscribers: list[str], now: float) -> None:
        """Meter one fan-out in one call: a delivery per subscriber, each
        billed to that subscriber's tenant."""
        for subscriber in subscribers:
            self._meter(tenant_of(subscriber), WORK_FANOUT, now)

    # -- the fluid server --------------------------------------------------

    def drain(self, now: float) -> None:
        """Advance the server to ``now``, serving what the capacity allows.

        The server is a fluid model: each drain banks the simulated span
        since the last one as ``service_rate`` work-seconds of capacity,
        and the policy — global arrival order under fifo, weighted
        deficit rounds under drr — decides whose queued work spends it.
        """
        if now > self._last_drain:
            self._budget += (now - self._last_drain) * self.config.service_rate
            self._last_drain = now
        if self.policy == POLICY_FIFO:
            self._advance_fifo(now)
        else:
            self._advance_drr(now)
        if self._boxed:
            # Recoveries happen lazily as weights are looked up during the
            # rotation; sweep after the advance so they hit the ring at
            # the drain that exposed them.
            for tenant in [name for name in self._tenants if name in self._boxed]:
                self._note_penalty_transitions(tenant, self._tenants[tenant], now)

    def _serve(self, state: _TenantState, item: _WorkItem, now: float) -> None:
        """Serve one unit of the run at the head of ``state``'s queue."""
        item.count -= 1
        if not item.count:
            state.queue.popleft()
        self._budget -= item.cost
        wait = now - item.arrival
        state.served += 1
        state.served_work += item.cost
        if wait > state.max_wait:
            state.max_wait = wait
        if len(state.waits) < self.config.wait_samples:
            state.waits.append(wait)

    def _advance_fifo(self, now: float) -> None:
        while self._order:
            state = self._tenants[self._order[0]]
            item = state.queue[0]
            if self._budget < item.cost:
                return
            self._serve(state, item, now)
            if not item.count:
                self._order.popleft()

    def _effective_weight(self, state: _TenantState, now: float) -> float:
        factor = state.penalty.weight_factor(now) if state.penalty else 1.0
        return state.weight * factor

    def _deactivate(self, tenant: str, state: _TenantState) -> None:
        state.deficit = 0.0
        self._active.popleft()
        self._in_active.discard(tenant)

    def _advance_drr(self, now: float) -> None:
        # The rotation position must survive across drain() calls: a
        # bounded full-deque sweep is a cyclic identity, so restarting
        # it would hand the front tenant first claim on every drain and
        # let it monopolize a saturated server one item at a time.
        # Likewise, when the budget runs out mid-visit the drain stops
        # dead rather than rotating on — rotating would hand the next
        # tenant the capacity trickle the stalled tenant's unspent
        # deficit entitles it to, decoupling long-run service from the
        # weights.  A stalled visit resumes on the next drain *without*
        # a fresh quantum (``_visit_credited``), so stalling can't be
        # farmed for extra credit either.
        quantum = self.config.quantum
        while self._active:
            tenant = self._active[0]
            state = self._tenants[tenant]
            if not state.queue:
                self._deactivate(tenant, state)
                continue
            if self._budget < state.queue[0].cost:
                return
            # Credit this visit's deficit (weighted, penalty-demoted),
            # once per rotation visit.  A demoted tenant may need
            # several visits before its deficit affords one item.
            if not self._visit_credited:
                state.deficit += quantum * self._effective_weight(state, now)
                self._visit_credited = True
            while state.queue:
                head = state.queue[0]
                if self._budget < head.cost:
                    return
                if state.deficit < head.cost:
                    break
                state.deficit -= head.cost
                self._serve(state, head, now)
            self._visit_credited = False
            if state.queue:
                self._active.rotate(-1)
            else:
                self._deactivate(tenant, state)

    # -- reporting ---------------------------------------------------------

    @property
    def demotions_total(self) -> int:
        """Penalty-box demotions across all tenants (cheap watchdog read)."""
        return sum(
            state.penalty.demotions
            for state in self._tenants.values() if state.penalty is not None
        )

    def is_penalized(self, tenant: str, now: float) -> bool:
        """Whether a tenant currently sits in the penalty box."""
        state = self._tenants.get(tenant_of(tenant))
        if state is None or state.penalty is None:
            return False
        return state.penalty.is_penalized(now)

    def tenant_label(self, tenant: str) -> str:
        """The guard-hashed label a tenant id may be exported under."""
        return self._guard.hash_value(tenant)

    def tenant_report(self, now: float) -> dict[str, dict]:
        """Per-tenant accounting (raw tenant ids — in-process use only).

        Callers exporting any of this (telemetry, benchmark payloads)
        must hash the tenant keys; :meth:`record_fairness` and the
        fairness harness both do.
        """
        report: dict[str, dict] = {}
        for tenant, state in self._tenants.items():
            report[tenant] = {
                "weight": state.weight,
                "arrived": state.arrived,
                "arrived_work": state.arrived_work,
                "served": state.served,
                "served_work": state.served_work,
                "pending": sum(item.count for item in state.queue),
                "throttled": state.throttled,
                "shed": state.shed,
                "max_wait_seconds": state.max_wait,
                "wait_seconds": list(state.waits),
                "starvation_seconds": state.starvation(now),
                "penalized": bool(
                    state.penalty and state.penalty.is_penalized(now)
                ),
                "demotions": state.penalty.demotions if state.penalty else 0,
                "recoveries": state.penalty.recoveries if state.penalty else 0,
            }
        return report

    def shares(self) -> dict[str, float]:
        """Each non-system tenant's share of all served tenant work."""
        states = [
            state for tenant, state in self._tenants.items()
            if tenant != SYSTEM_TENANT
        ]
        total = sum(state.served_work for state in states)
        if total <= 0.0:
            return {state.tenant: 0.0 for state in states}
        return {state.tenant: state.served_work / total for state in states}

    def record_fairness(self, telemetry=None, now: float | None = None) -> None:
        """Publish fairness gauges (guard-hashed tenant labels only)."""
        telemetry = telemetry if telemetry is not None else self._telemetry
        if telemetry is None:
            return
        now = now if now is not None else self.clock.now()
        self.drain(now)
        shares = self.shares()
        for tenant, state in sorted(self._tenants.items()):
            if tenant == SYSTEM_TENANT:
                continue
            label = self.tenant_label(tenant)
            telemetry.gauge(TENANT_SHARE, shares.get(tenant, 0.0),
                            tenant=label)
            telemetry.gauge(TENANT_STARVATION, state.starvation(now),
                            tenant=label)
            telemetry.gauge(TENANT_THROTTLED, state.throttled, tenant=label)
            telemetry.gauge(TENANT_SHED, state.shed, tenant=label)
        telemetry.gauge(THROTTLED_TOTAL, self.throttled_total)
        telemetry.gauge(SHED_TOTAL, self.shed_total)
