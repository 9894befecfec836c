"""Simulation substrate: the synthetic Trentino deployment.

The paper validated CSS "with sample data given by the data providers" from
a real deployment (hospitals, municipalities, telecare companies in the
Trentino region).  That data is unavailable, so this subpackage generates
the closest synthetic equivalent (DESIGN.md §6): a seeded population of
patients, a cast of socio-health organizations, realistic event-class
templates (blood tests, home-care visits, autonomy assessments, telecare
alarms, ...), and reproducible event workloads that exercise every code
path of the platform.

* :mod:`~repro.sim.domain` — patients, organization descriptors and the
  deployment roster (who produces which class, who consumes, for what
  purpose);
* :mod:`~repro.sim.generators` — population, templates, workloads;
* :mod:`~repro.sim.metrics` — disclosure/exposure accounting;
* :mod:`~repro.sim.scenario` — the one seeded run (``deploy_roster``,
  ``CssScenario`` over an N-node platform, N ≥ 1) used by the CLI,
  examples and benchmarks.
"""

from repro.sim.domain import ORGANIZATIONS, OrganizationSpec, Patient
from repro.sim.generators import (
    DEFAULT_SEED,
    EventTemplate,
    SyntheticPopulation,
    WorkloadGenerator,
    WorkloadItem,
    standard_event_templates,
)
from repro.sim.metrics import DisclosureLedger, ExposureSummary
from repro.sim.scenario import CssScenario, ScenarioConfig, ScenarioReport

__all__ = [
    "CssScenario",
    "DEFAULT_SEED",
    "DisclosureLedger",
    "EventTemplate",
    "ExposureSummary",
    "ORGANIZATIONS",
    "OrganizationSpec",
    "Patient",
    "ScenarioConfig",
    "ScenarioReport",
    "SyntheticPopulation",
    "WorkloadGenerator",
    "WorkloadItem",
    "standard_event_templates",
]
