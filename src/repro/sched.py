"""Per-tenant backpressure at fan-out: the one scheduling rule that acts.

A delivery into a subscriber queue whose real depth has reached
:data:`MAX_PENDING` goes to the bus's dead-letter queue instead, tagged
with its subscription id so
:meth:`~repro.bus.broker.ServiceBus.replay_all_dead_letters` can drive it
back once the backlog clears.  Platform-internal subscribers
(:data:`SYSTEM_TENANT`) are never shed.  The bound decides nothing about
access and writes no audit record, so a run's decisions and audit chain
are the same whether or not it sheds (docs/ARCHITECTURE.md,
"Backpressure").

Tenant identity derives from the sender/consumer organization ids; every
tenant label leaving this module is privacy-guard hashed.
"""

from __future__ import annotations

from repro.obs.guard import PrivacyGuard

#: Real queue depth at which new fan-out for a tenant is dead-lettered.
MAX_PENDING = 256

#: The pseudo-tenant platform-internal traffic is attributed to
#: (federation relays, platform services).  Never shed.
SYSTEM_TENANT = "platform"

#: Sender/subscriber prefixes that mark platform-internal traffic.
_SYSTEM_PREFIXES = ("federation:", "federation-relay:", "platform.")

#: Shed counters (tenant labels guard-hashed), read off the bound.
TENANT_SHED = "sched.tenant.shed"
SHED_TOTAL = "sched.shed_total"


def tenant_of(actor_id: str) -> str:
    """The tenant a sender/consumer id is billed to.

    Organization ids are their own tenant; federation relay and
    platform-internal senders collapse onto :data:`SYSTEM_TENANT`.
    """
    if not actor_id or actor_id.startswith(_SYSTEM_PREFIXES):
        return SYSTEM_TENANT
    return actor_id


class BacklogBound:
    """One node's per-tenant backlog bound, with its shed counts."""

    def __init__(self, secret: str = "css-sched") -> None:
        self._guard = PrivacyGuard(mode="hash", secret=secret)
        self.shed_by_tenant: dict[str, int] = {}
        self.shed_total = 0

    def should_shed(self, subscriber: str, pending: int) -> bool:
        """Whether a delivery to ``subscriber``, whose queue holds
        ``pending`` messages, must overflow to the dead-letter queue."""
        return pending >= MAX_PENDING and tenant_of(subscriber) != SYSTEM_TENANT

    def note_shed(self, subscriber: str) -> None:
        """Count one shed delivery against ``subscriber``'s tenant."""
        tenant = tenant_of(subscriber)
        self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1
        self.shed_total += 1

    def shed_rows(self):
        """``sched.tenant.shed`` rows: ``({"tenant": hashed label}, count)``."""
        return (({"tenant": self._guard.hash_value(tenant)}, count)
                for tenant, count in sorted(self.shed_by_tenant.items()))

    # Inert: nothing in src calls or sets these.  The wall ledger's tracer
    # (benchmarks/wall/trace.py) still shims the six methods by name and its
    # driver reads demotions_total; they go with ROADMAP items 1(c) and 8(a).
    demotions_total = 0

    def _inert(self, *args) -> None:
        return None

    submit = admit = ingress = note_publish = note_fanout = drain = _inert
