"""Scenario configurations of the workload engine.

One :class:`WorkloadConfig` fully determines a workload: population size
and hierarchy shape, the arrival process, popularity skew, the
publish/request-for-details/subscribe operation mix, tenant roster and
anomaly injection.  Together with ``seed`` it is the *entire* input of
:class:`~repro.workload.engine.WorkloadEngine` — two engines built from
equal configs emit byte-identical operation streams.

Four named scenarios ship with the platform:

``steady``
    The provisioning baseline: Poisson arrivals, gentle skew, the op mix
    of routine continuity-of-care traffic.
``stress``
    Saturation probe: several times the steady rate and a detail-heavy
    mix, the knob to find the knee of the throughput curve.
``surge``
    On/off bursts (telecare alarm storms, end-of-month administrative
    runs): same average rate as ``steady`` but concentrated in bursts.
``anomaly``
    Abuse injection: one consumer organization issues a large multiple
    of its fair share of detail requests and popularity collapses onto a
    few hot subjects — the scenario the incident harness watches.
``multi_tenant``
    Fair-sharing probe: a wider roster from :func:`multi_tenant_roster`
    (N consumer organizations with Zipf-skewed weights, one mid-rank
    abusive) at an elevated detail-heavy rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError
from repro.runtime.kernel import suggest
from repro.sim.domain import (
    ROLE_ADMINISTRATOR,
    ROLE_FAMILY_DOCTOR,
    ROLE_SOCIAL_WORKER,
    ROLE_STATISTICIAN,
)
from repro.sim.generators import DEFAULT_SEED

#: Operation kinds the engine emits.
OP_PUBLISH = "publish"
OP_DETAILS = "details"
OP_SUBSCRIBE = "subscribe"


@dataclass(frozen=True)
class TenantSpec:
    """One consumer organization in the workload's tenant roster."""

    tenant_id: str
    role: str
    #: Relative share of detail-request / subscribe traffic.
    weight: float = 1.0


#: The default tenant roster (the scenario cast plus the workload's
#: consumer organizations — ids reuse the deployment's naming style).
DEFAULT_TENANTS: tuple[TenantSpec, ...] = (
    TenantSpec("FamilyDoctors/Dr-Rossi", ROLE_FAMILY_DOCTOR, 3.0),
    TenantSpec("Municipality-Trento/SocialWorkers", ROLE_SOCIAL_WORKER, 3.0),
    TenantSpec("Province-Trentino/Statistics", ROLE_STATISTICIAN, 1.0),
    TenantSpec("Province-Trentino/SocialWelfare", ROLE_ADMINISTRATOR, 2.0),
)

#: Roles the synthetic multi-tenant roster cycles through.
MULTI_TENANT_ROLES: tuple[str, ...] = (
    ROLE_FAMILY_DOCTOR,
    ROLE_SOCIAL_WORKER,
    ROLE_STATISTICIAN,
    ROLE_ADMINISTRATOR,
)


def multi_tenant_roster(count: int = 8,
                        exponent: float = 0.8) -> tuple[TenantSpec, ...]:
    """A synthetic roster of ``count`` consumer organizations.

    Weights follow a Zipf law (rank r gets ``1/r**exponent``), scaled so
    they sum to ``count`` (mean weight 1.0) and rounded to 3 decimals —
    a skewed-but-not-degenerate share distribution for fairness studies.
    Roles cycle through :data:`MULTI_TENANT_ROLES`; ids use a synthetic
    ``Org-NN/…`` namespace that collides with no deployment producer or
    consumer organization.  Pure function of its arguments, so rosters
    are as reproducible as everything else under seed.
    """
    if count < 2:
        raise ConfigurationError("a multi-tenant roster needs >= 2 tenants")
    if exponent < 0:
        raise ConfigurationError("roster exponent must be non-negative")
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    scale = count / sum(raw)
    return tuple(
        TenantSpec(
            tenant_id=f"Org-{rank:02d}/{MULTI_TENANT_ROLES[(rank - 1) % len(MULTI_TENANT_ROLES)]}",
            role=MULTI_TENANT_ROLES[(rank - 1) % len(MULTI_TENANT_ROLES)],
            weight=round(weight * scale, 3),
        )
        for rank, weight in enumerate(raw, start=1)
    )


def multi_tenant_abuser(count: int = 8) -> str:
    """The mid-rank roster tenant the preset marks abusive.

    Mid-rank on purpose: an abuser with a *middling* fair share stands
    out from its neighbours — the top-ranked tenant would dominate
    legitimately anyway.
    """
    roster = multi_tenant_roster(count)
    return roster[len(roster) // 2].tenant_id


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything that determines one workload, reproducible under seed."""

    scenario: str = "steady"
    population: int = 100_000
    ops: int = 5_000
    seed: int = DEFAULT_SEED

    # arrival process --------------------------------------------------------
    #: ``poisson`` or ``onoff``.
    arrival: str = "poisson"
    #: Average operations per simulated second (poisson: the rate; onoff:
    #: the burst rate).
    rate: float = 50.0
    #: Mean ON / OFF period lengths for ``arrival="onoff"``.
    on_seconds: float = 20.0
    off_seconds: float = 60.0
    #: Trickle rate during OFF periods.
    base_rate: float = 0.0

    # popularity skew --------------------------------------------------------
    #: Zipf exponent over event classes (rank 1 = hottest class).
    type_exponent: float = 1.1
    #: Zipf exponent over assisted persons.
    subject_exponent: float = 1.05

    # operation mix ----------------------------------------------------------
    publish_weight: float = 1.0
    details_weight: float = 0.45
    subscribe_weight: float = 0.02

    # actor hierarchy --------------------------------------------------------
    guardian_rate: float = 0.12
    case_load: int = 250
    tenants: tuple[TenantSpec, ...] = DEFAULT_TENANTS

    # anomaly injection ------------------------------------------------------
    #: Tenant id whose detail-request share is multiplied by
    #: ``abusive_factor`` (None = no abusive tenant).
    abusive_tenant: str | None = None
    abusive_factor: float = 20.0
    #: Number of artificially hot subjects; 0 disables injection.  With k
    #: hot subjects, ``hot_subject_share`` of all subject draws collapse
    #: onto those k indexes.
    hot_subjects: int = 0
    hot_subject_share: float = 0.5

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ConfigurationError("population must be positive")
        if self.ops < 0:
            raise ConfigurationError("ops must be non-negative")
        if self.arrival not in ("poisson", "onoff"):
            raise ConfigurationError(
                f"unknown arrival process {self.arrival!r}; "
                "available: poisson, onoff"
            )
        if self.publish_weight <= 0:
            raise ConfigurationError("publish_weight must be positive")
        if self.details_weight < 0 or self.subscribe_weight < 0:
            raise ConfigurationError("op-mix weights must be non-negative")
        if not self.tenants:
            raise ConfigurationError("the tenant roster cannot be empty")
        if self.abusive_tenant is not None and self.abusive_factor < 1.0:
            raise ConfigurationError("abusive_factor must be >= 1")
        if self.hot_subjects < 0:
            raise ConfigurationError("hot_subjects must be non-negative")
        if not 0.0 <= self.hot_subject_share <= 1.0:
            raise ConfigurationError("hot_subject_share must be within [0, 1]")


#: The named scenario presets (field overrides on top of the defaults).
SCENARIOS: dict[str, dict[str, object]] = {
    "steady": {},
    "stress": {
        "rate": 200.0,
        "details_weight": 0.9,
        "subject_exponent": 1.2,
    },
    "surge": {
        "arrival": "onoff",
        "rate": 250.0,
        "on_seconds": 15.0,
        "off_seconds": 45.0,
        "type_exponent": 1.4,
    },
    "anomaly": {
        "rate": 120.0,
        "details_weight": 1.2,
        "abusive_tenant": "Province-Trentino/SocialWelfare",
        "abusive_factor": 25.0,
        "hot_subjects": 4,
        "hot_subject_share": 0.5,
        "subject_exponent": 1.3,
    },
    "multi_tenant": {
        "rate": 150.0,
        "details_weight": 1.0,
        "tenants": multi_tenant_roster(),
        "abusive_tenant": multi_tenant_abuser(),
        "abusive_factor": 20.0,
        "subject_exponent": 1.2,
    },
}


def workload_config(name: str, **overrides: object) -> WorkloadConfig:
    """A named scenario preset with field overrides applied on top.

    Unknown scenario names fail with the configuration's did-you-mean
    discipline, like every other enumeration in the platform.
    """
    try:
        preset = SCENARIOS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown workload scenario {name!r};"
            f"{suggest(name, SCENARIOS)} "
            f"available: {', '.join(sorted(SCENARIOS))}"
        ) from exc
    merged: dict[str, object] = {"scenario": name, **preset, **overrides}
    return replace(WorkloadConfig(), **merged)  # type: ignore[arg-type]


def check_node_count(nodes: int) -> None:
    """The one check behind every ``--nodes`` flag of ``repro``: a
    positive node count."""
    if nodes < 1:
        raise ConfigurationError(f"--nodes must be a positive node count; got '{nodes}'")
