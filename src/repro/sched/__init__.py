"""Fair multi-tenant admission control and scheduling (the ``sched`` switch).

See :mod:`repro.sched.scheduler` for the policy engine and
``docs/SCHEDULING.md`` for the design.  The fairness benchmark harness
lives in :mod:`repro.sched.fairness` and is imported explicitly by its
consumers (it pulls in the workload engine, which must not load just
because the bus asked for a scheduler).
"""

from repro.sched.scheduler import (
    DEFAULT_COSTS,
    POLICY_DRR,
    POLICY_FIFO,
    SHED_TOTAL,
    SYSTEM_TENANT,
    TENANT_SHARE,
    TENANT_SHED,
    TENANT_STARVATION,
    TENANT_THROTTLED,
    THROTTLED_TOTAL,
    WORK_DETAILS,
    WORK_FANOUT,
    WORK_PUBLISH,
    SchedConfig,
    TenantScheduler,
    jain_index,
    tenant_of,
)
from repro.sched.tokens import PenaltyBox, TokenBucket

__all__ = [
    "DEFAULT_COSTS",
    "POLICY_DRR",
    "POLICY_FIFO",
    "SHED_TOTAL",
    "SYSTEM_TENANT",
    "TENANT_SHARE",
    "TENANT_SHED",
    "TENANT_STARVATION",
    "TENANT_THROTTLED",
    "THROTTLED_TOTAL",
    "WORK_DETAILS",
    "WORK_FANOUT",
    "WORK_PUBLISH",
    "PenaltyBox",
    "SchedConfig",
    "TenantScheduler",
    "TokenBucket",
    "jain_index",
    "tenant_of",
]
