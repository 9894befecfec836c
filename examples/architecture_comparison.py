"""Side-by-side comparison: CSS vs every baseline architecture.

Runs one seeded workload through the CSS platform and the four
alternatives the paper argues against (manual document exchange,
point-to-point SOA, central warehouse, full-push pub/sub) and prints the
comparison table behind Fig. 1 / the two-phase ablation.

Run with::

    python examples/architecture_comparison.py
"""

from repro.baselines import (
    FullPushBaseline,
    ManualExchangeBaseline,
    PointToPointSoaBaseline,
    WarehouseBaseline,
)
from repro.sim.domain import DEFAULT_CONSUMERS, DEFAULT_PRODUCER_ASSIGNMENT
from repro.sim.scenario import CssScenario, ScenarioConfig


def main() -> None:
    config = ScenarioConfig(n_patients=30, n_events=200,
                            detail_request_rate=0.3, seed=2010)
    scenario = CssScenario(config)
    workload = scenario.generate_workload()
    consumers = list(DEFAULT_CONSUMERS)

    print(f"workload: {len(workload)} events, {len(consumers)} consumers, "
          f"detail-request rate {config.detail_request_rate:.0%}\n")

    css = scenario.run(workload)
    rows = [css.exposure]
    extras = {
        "CSS (two-phase)": (
            f"connections={css.subscriptions} "
            f"audit={css.audit_records} (chain ok)"
        ),
    }

    baselines = [
        ManualExchangeBaseline(scenario.templates, consumers),
        PointToPointSoaBaseline(scenario.templates, consumers,
                                DEFAULT_PRODUCER_ASSIGNMENT),
        WarehouseBaseline(scenario.templates, consumers),
        FullPushBaseline(scenario.templates, consumers,
                         DEFAULT_PRODUCER_ASSIGNMENT),
    ]
    for baseline in baselines:
        report = baseline.run(workload)
        rows.append(report.exposure)
        extras[baseline.system_name] = (
            f"connections={report.connections} "
            f"duplicated-sensitive={report.duplicated_sensitive_values}"
        )

    print("system                  events  disclosures  sensitive  "
          "overexposed  traced    notes")
    print("-" * 110)
    for exposure in rows:
        summary = exposure
        print(f"{summary.system:<22} {summary.events:>7} {summary.disclosures:>12} "
              f"{summary.sensitive_disclosures:>10} {summary.overexposed:>12} "
              f"{summary.traced_fraction:>7.0%}    {extras[summary.system]}")

    print("\nreading the table:")
    print(" * overexposed = values a receiver got but did not need "
          "(the paper's minimal-usage violations) — CSS is the only 0;")
    print(" * traced = share of disclosures visible to the privacy guarantor "
          "— CSS and the centralized designs trace, the legacy flows do not;")
    print(" * only the warehouse duplicates sensitive values outside their "
          "owner, which the Italian regulation prohibits outright.")


if __name__ == "__main__":
    main()
