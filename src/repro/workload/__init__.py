"""Million-actor workload engine and capacity-trajectory harness.

The load source every scaling PR is measured against (ROADMAP: capacity
trajectory).  Four modules:

* :mod:`~repro.workload.population` — lazily materialized assisted-person
  population with the guardian / case-worker / clinician hierarchy,
  O(active set) memory at any population size;
* :mod:`~repro.workload.arrivals` — open-loop Poisson and bursty on/off
  arrival processes plus O(1)-memory Zipf popularity sampling;
* :mod:`~repro.workload.config` — scenario presets (``steady`` /
  ``stress`` / ``surge`` / ``anomaly`` / ``multi_tenant``) as frozen
  dataclasses, reproducible under ``seed``;
* :mod:`~repro.workload.engine` — the deterministic operation planner
  (byte-identical streams for equal configs);
* :mod:`~repro.workload.capacity` — ``run_workload``, the one run
  harness every workload-driven artifact reports over (fresh federation
  → deploy → seeded stream → barrier → verified digests), and the
  ``css-bench-capacity/1`` trajectory at 1/2/4/8 nodes built on it;
* :mod:`~repro.workload.batch` — the batched-execution equivalence gate
  and speedup figures (``css-bench-batch/1``).
"""

from repro.workload.arrivals import OnOffProcess, PoissonProcess, ZipfSampler
from repro.workload.batch import run_batch_suite
from repro.workload.capacity import (
    SCHEMA_ID,
    WorkloadRun,
    deploy_workload,
    execute_workload,
    run_capacity,
    run_point,
    run_workload,
)
from repro.workload.config import (
    DEFAULT_TENANTS,
    MULTI_TENANT_ROLES,
    OP_DETAILS,
    OP_PUBLISH,
    OP_SUBSCRIBE,
    SCENARIOS,
    CapacityConfig,
    TenantSpec,
    WorkloadConfig,
    multi_tenant_abuser,
    multi_tenant_roster,
    parse_node_counts,
    workload_config,
)
from repro.workload.engine import WorkloadEngine, WorkloadOp
from repro.workload.population import AssistedPerson, LazyPopulation

__all__ = [
    "AssistedPerson",
    "CapacityConfig",
    "DEFAULT_TENANTS",
    "LazyPopulation",
    "MULTI_TENANT_ROLES",
    "OP_DETAILS",
    "OP_PUBLISH",
    "OP_SUBSCRIBE",
    "OnOffProcess",
    "PoissonProcess",
    "SCENARIOS",
    "SCHEMA_ID",
    "TenantSpec",
    "WorkloadConfig",
    "WorkloadEngine",
    "WorkloadOp",
    "WorkloadRun",
    "ZipfSampler",
    "deploy_workload",
    "execute_workload",
    "multi_tenant_abuser",
    "multi_tenant_roster",
    "parse_node_counts",
    "run_batch_suite",
    "run_capacity",
    "run_point",
    "run_workload",
    "workload_config",
]
