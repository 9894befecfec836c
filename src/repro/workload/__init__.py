"""Million-actor workload engine and its run harness.

The seeded load source behind the wall-clock ledger's workloads and the
watched incident run.  Six modules:

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
  harness (fresh federation → deploy → seeded stream → barrier →
  verified digests), and ``run_point``, one run's outcome counters,
  saturation marks and digests;
* :mod:`~repro.workload.incidents` — the watched run behind
  ``repro incident`` / ``repro timeline``.
"""

from repro.workload.arrivals import OnOffProcess, PoissonProcess, ZipfSampler
from repro.workload.capacity import (
    WorkloadRun,
    deploy_workload,
    execute_workload,
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
    TenantSpec,
    WorkloadConfig,
    check_node_count,
    multi_tenant_abuser,
    multi_tenant_roster,
    workload_config,
)
from repro.workload.engine import WorkloadEngine, WorkloadOp
from repro.workload.population import AssistedPerson, LazyPopulation

__all__ = [
    "AssistedPerson",
    "DEFAULT_TENANTS",
    "LazyPopulation",
    "MULTI_TENANT_ROLES",
    "OP_DETAILS",
    "OP_PUBLISH",
    "OP_SUBSCRIBE",
    "OnOffProcess",
    "PoissonProcess",
    "SCENARIOS",
    "TenantSpec",
    "WorkloadConfig",
    "WorkloadEngine",
    "WorkloadOp",
    "WorkloadRun",
    "ZipfSampler",
    "check_node_count",
    "deploy_workload",
    "execute_workload",
    "multi_tenant_abuser",
    "multi_tenant_roster",
    "run_point",
    "run_workload",
    "workload_config",
]
