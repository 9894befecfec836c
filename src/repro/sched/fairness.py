"""The fairness benchmark harness: ``sched=none`` vs ``sched=fair``.

``run_fairness`` executes one workload scenario (the PR 7 abusive-tenant
``anomaly`` preset by default, or ``multi_tenant``) twice against fresh
same-seed federations — once per scheduler — and assembles a
``BENCH_fairness.json`` payload (schema ``css-bench-fairness/1``):

* **per-tenant throughput shares** — each roster tenant's fraction of
  all served tenant work in the scheduler's virtual server, under a
  deliberately overloaded service rate so the serving *policy* decides
  who gets capacity;
* **Jain's fairness index** — over served work normalized by the
  *weighted max-min fair reference allocation* (progressive filling over
  each tenant's demand, weight and the arm's served capacity).  The
  reference is exactly the allocation deficit-round-robin pursues, so
  the index reads "how close did serving come to weighted max-min":
  demand-limited tenants don't distort it, and fifo scores lower
  whenever proportional-to-demand serving diverges from the fair ideal;
* **victim figures** — the lowest-weight roster tenant's demand
  satisfaction (``victim_share``: the share of its *own* requested work
  that got served), p99 wait and starvation.  Satisfaction is the
  isolation metric: under fifo it sinks with total overload — the
  abusive tenant's flood directly shrinks it, with no floor — while
  deficit-round-robin guarantees the victim its weighted entitlement no
  matter what anyone else demands;
* **audit digests** — the same-seed audit-chain digest of both arms.
  They must be *identical*: the scheduler reorders work inside its cost
  model and shapes future shares, but never changes a decision or an
  audit record (the acceptance gate checks this bit-for-bit).

Privacy: tenant ids are consumer organization names — every tenant key
in the payload is privacy-guard hashed with the workload secret (so the
two arms key identically), and the schema checker greps the serialized
payload for plaintext roster ids and assisted-person id shapes.
"""

from __future__ import annotations

from repro.obs.guard import PrivacyGuard
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.kernel import RuntimeConfig
from repro.sched.scheduler import SYSTEM_TENANT, SchedConfig, jain_index
from repro.workload.capacity import run_workload
from repro.workload.config import WorkloadConfig, workload_config

#: Schema identifier the fairness payload stamps and CI gates on.
SCHEMA_ID = "css-bench-fairness/1"

#: The two arms, in payload order.
ARMS = ("none", "fair")

#: Simulated drain window appended after the last operation — identical
#: in both arms.  Bounded on purpose: under overload an unbounded drain
#: would eventually serve every queue and equalize the shares, hiding
#: exactly the starvation the benchmark measures.
DEFAULT_DRAIN_SECONDS = 2.0

#: Virtual-server work-seconds per simulated second, per node.
#: Deliberately below the anomaly scenario's arrival rate (~0.54
#: work-s/s) so both arms run saturated and the serving policy — not
#: spare capacity — decides who gets served.
DEFAULT_SERVICE_RATE = 0.2

#: Federation size of the default comparison (the platform under study
#: is federated; per-node admission is part of what the bench shows).
DEFAULT_NODES = 2

#: Token-bucket admission rate/burst per tenant per node.  Sized so the
#: anomaly scenario's abusive tenant (~15 requests/s per node) runs the
#: bucket dry and lands in the penalty box while light tenants never
#: notice it exists.
DEFAULT_BUCKET_RATE = 12.0
DEFAULT_BUCKET_BURST = 24.0


def _p99(waits: list[float]) -> float:
    if not waits:
        return 0.0
    ordered = sorted(waits)
    index = max(0, int(0.99 * len(ordered) + 0.999999) - 1)
    return ordered[min(index, len(ordered) - 1)]


def weighted_maxmin(
    demands: list[float], weights: list[float], capacity: float
) -> list[float]:
    """Weighted max-min fair allocation by progressive filling.

    Distributes ``capacity`` so every tenant gets ``level * weight``
    capped at its demand, with the level raised until the capacity is
    exhausted — the reference allocation a weighted fair scheduler
    aims for.  Pure arithmetic, deterministic, no clock.
    """
    alloc = [0.0] * len(demands)
    active = {i for i, demand in enumerate(demands) if demand > 0.0}
    remaining = min(capacity, sum(demands))
    while active and remaining > 1e-12:
        level = remaining / sum(weights[i] for i in active)
        capped = [i for i in active
                  if demands[i] - alloc[i] <= level * weights[i] + 1e-15]
        if not capped:
            for i in active:
                alloc[i] += level * weights[i]
            break
        for i in capped:
            remaining -= demands[i] - alloc[i]
            alloc[i] = demands[i]
            active.remove(i)
    return alloc


def victim_of(workload: WorkloadConfig) -> str:
    """The roster's lowest-weight tenant — the one fifo starves first."""
    return min(workload.tenants, key=lambda t: (t.weight, t.tenant_id)).tenant_id


def _merge_tenant_reports(platform, now: float) -> dict[str, dict]:
    """Fold every node scheduler's per-tenant report into one table."""
    merged: dict[str, dict] = {}
    for node in platform.nodes():
        for tenant, row in node.controller.sched.tenant_report(now).items():
            into = merged.get(tenant)
            if into is None:
                merged[tenant] = dict(row)
                continue
            for key in ("arrived", "arrived_work", "served", "served_work",
                        "pending", "throttled", "shed", "demotions",
                        "recoveries"):
                into[key] += row[key]
            into["max_wait_seconds"] = max(into["max_wait_seconds"],
                                           row["max_wait_seconds"])
            into["starvation_seconds"] = max(into["starvation_seconds"],
                                             row["starvation_seconds"])
            into["wait_seconds"] = into["wait_seconds"] + row["wait_seconds"]
            into["penalized"] = into["penalized"] or row["penalized"]
    return merged


def bench_sched_config(service_rate: float = DEFAULT_SERVICE_RATE) -> SchedConfig:
    """The scheduler configuration both benchmark arms are built with."""
    return SchedConfig(
        service_rate=service_rate,
        bucket_rate=DEFAULT_BUCKET_RATE,
        bucket_burst=DEFAULT_BUCKET_BURST,
    )


def run_arm(
    workload: WorkloadConfig,
    sched: str,
    nodes: int = DEFAULT_NODES,
    drain_seconds: float = DEFAULT_DRAIN_SECONDS,
    service_rate: float = DEFAULT_SERVICE_RATE,
    telemetry: InMemoryTelemetry | None = None,
) -> dict:
    """One scheduler arm: run the workload, report fairness figures.

    Tenant keys in the returned ``tenants`` table are guard-hashed; the
    raw-id figures never leave this function except through the victim /
    abuser lookups, which re-hash before reporting.
    """
    guard = PrivacyGuard(mode="hash", secret=f"css-workload-{workload.seed}")
    run = run_workload(
        workload, nodes, RuntimeConfig(sched=sched),
        sched_config=bench_sched_config(service_rate),
        telemetry=telemetry, drain_seconds=drain_seconds,
    )

    # run_workload weights every roster tenant on every node up front, so
    # each one has a scheduler row even if it never sent anything.
    report = _merge_tenant_reports(run.platform, run.clock.now())
    roster = [t.tenant_id for t in workload.tenants]
    rows = {t: report[t] for t in roster}
    total_served = sum(row["served_work"] for row in rows.values())
    weights = {t.tenant_id: t.weight for t in workload.tenants}
    # The fairness yardstick: what a weighted max-min fair server would
    # have allocated, given this arm's demands and served capacity.
    references = weighted_maxmin(
        [rows[t]["arrived_work"] for t in roster],
        [weights[t] for t in roster],
        total_served,
    )
    normalized = [
        rows[t]["served_work"] / ref
        for t, ref in zip(roster, references) if ref > 0.0
    ]

    tenants: dict[str, dict] = {}
    for tenant_id, row in rows.items():
        tenants[guard.hash_value(tenant_id)] = {
            "weight": weights[tenant_id],
            "share": row["served_work"] / total_served if total_served else 0.0,
            "satisfaction": (
                row["served_work"] / row["arrived_work"]
                if row["arrived_work"] else 0.0
            ),
            "served_work": row["served_work"],
            "arrived_work": row["arrived_work"],
            "throttled": row["throttled"],
            "shed": row["shed"],
            "max_wait_seconds": row["max_wait_seconds"],
            "starvation_seconds": row["starvation_seconds"],
            "p99_wait_seconds": _p99(row["wait_seconds"]),
            "penalized": row["penalized"],
            "demotions": row["demotions"],
            "recoveries": row["recoveries"],
        }

    assert SYSTEM_TENANT not in tenants  # system work never reported
    victim = tenants[guard.hash_value(victim_of(workload))]
    return {
        "sched": sched,
        **run.counters,
        "jain_index": jain_index(normalized),
        # The gated victim figure is its demand satisfaction — the share
        # of the victim's own requested work that was actually served.
        "victim_share": victim["satisfaction"],
        "victim_total_share": victim["share"],
        "victim_p99_wait_seconds": victim["p99_wait_seconds"],
        "victim_starvation_seconds": victim["starvation_seconds"],
        "max_starvation_seconds": max(
            row["starvation_seconds"] for row in tenants.values()
        ),
        "throttled_total": sum(row["throttled"] for row in tenants.values()),
        "shed_total": sum(row["shed"] for row in tenants.values()),
        "penalized_tenants": sum(
            row["penalized"] for row in tenants.values()
        ),
        "tenants": tenants,
        "audit_records": run.audit_records,
        "audit_digest": run.audit_digest,
    }


def run_fairness(
    workload: WorkloadConfig | None = None,
    nodes: int = DEFAULT_NODES,
    source: str = "repro.sched.fairness",
    drain_seconds: float = DEFAULT_DRAIN_SECONDS,
    service_rate: float = DEFAULT_SERVICE_RATE,
) -> dict:
    """The full two-arm comparison payload (``css-bench-fairness/1``)."""
    workload = workload or workload_config("anomaly")
    guard = PrivacyGuard(mode="hash", secret=f"css-workload-{workload.seed}")
    arms = {
        arm: run_arm(
            workload, arm, nodes=nodes, drain_seconds=drain_seconds,
            service_rate=service_rate,
        )
        for arm in ARMS
    }
    return {
        "schema": SCHEMA_ID,
        "source": source,
        "scenario": workload.scenario,
        "seed": workload.seed,
        "population": workload.population,
        "ops": workload.ops,
        "nodes": nodes,
        "drain_seconds": drain_seconds,
        "service_rate": service_rate,
        "victim_tenant": guard.hash_value(victim_of(workload)),
        "abusive_tenant": (
            guard.hash_value(workload.abusive_tenant)
            if workload.abusive_tenant else None
        ),
        "arms": arms,
        "audit_digest_match": (
            arms["none"]["audit_digest"] == arms["fair"]["audit_digest"]
        ),
        "improvement": {
            "jain_index": arms["fair"]["jain_index"] - arms["none"]["jain_index"],
            "victim_share": (
                arms["fair"]["victim_share"] - arms["none"]["victim_share"]
            ),
        },
    }


def fairness_gate(payload: dict) -> list[str]:
    """The acceptance gate: problems (empty = the payload passes).

    Fair must beat fifo on Jain's index *and* on the victim tenant's
    share, while both arms reproduce the identical audit digest.
    """
    problems: list[str] = []
    none_arm, fair_arm = payload["arms"]["none"], payload["arms"]["fair"]
    if not fair_arm["jain_index"] > none_arm["jain_index"]:
        problems.append(
            f"jain index did not improve: fair {fair_arm['jain_index']:.4f} "
            f"<= none {none_arm['jain_index']:.4f}"
        )
    if not fair_arm["victim_share"] > none_arm["victim_share"]:
        problems.append(
            f"victim demand-satisfaction share did not improve: fair "
            f"{fair_arm['victim_share']:.4f} <= none "
            f"{none_arm['victim_share']:.4f}"
        )
    if not payload["audit_digest_match"]:
        problems.append(
            "audit digests differ across schedulers — the scheduler "
            "changed decisions or the audit trail"
        )
    return problems
