"""Ablation A1: two-phase summary-then-request vs full-push pub/sub.

The heart of the paper (§4): "in many cases consumers do not need all the
details", so CSS circulates only notifications and releases details on
demand.  We sweep the detail-request rate and compare sensitive-value
exposure and bytes-on-the-wire against the full-push baseline, which
embeds every detail in every notification.

Expected shape: two-phase transfers far fewer sensitive values whenever
the request rate < 100 %; with 100 % requests *and* full-field grants the
two designs converge (two-phase pays the extra notification + request
round, which is its worst case).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import build_scenario
from repro.baselines import FullPushBaseline
from repro.sim.domain import DEFAULT_CONSUMERS, DEFAULT_PRODUCER_ASSIGNMENT
from repro.sim.scenario import CssScenario, ScenarioConfig


@pytest.mark.parametrize("request_rate", [0.0, 0.25, 0.5, 1.0])
def test_two_phase_exposure_sweep(benchmark, request_rate):
    """CSS sensitive exposure as the detail-request rate grows."""
    def run():
        scenario, workload = build_scenario(
            n_events=60, detail_request_rate=request_rate)
        css = scenario.run(workload)
        full_push = FullPushBaseline(
            scenario.templates, list(DEFAULT_CONSUMERS), DEFAULT_PRODUCER_ASSIGNMENT
        ).run(workload)
        return css, full_push

    css, full_push = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n[A1] rate={request_rate:.2f}  "
          f"css sensitive={css.exposure.sensitive_disclosures} "
          f"bytes={css.exposure.bytes_on_wire}  |  "
          f"full-push sensitive={full_push.exposure.sensitive_disclosures} "
          f"bytes={full_push.exposure.bytes_on_wire}")
    # Full-push always exposes every sensitive value to every subscriber;
    # two-phase exposure is bounded by (rate × policy-granted fields).
    assert css.exposure.sensitive_disclosures <= full_push.exposure.sensitive_disclosures
    if request_rate == 0.0:
        assert css.exposure.sensitive_disclosures == 0
    if request_rate < 1.0:
        assert css.exposure.sensitive_disclosures < full_push.exposure.sensitive_disclosures


def test_crossover_at_full_rate_with_full_grants(benchmark):
    """The worst case for two-phase: everyone requests everything and the
    policies grant every field — wire bytes then exceed full-push (the
    extra notification + request round), which locates the crossover."""
    def run():
        config = ScenarioConfig(n_patients=20, n_events=60,
                                detail_request_rate=1.0, seed=2010)
        scenario = CssScenario(config)
        # Replace the minimal-usage grants with full-field grants.
        for template_name, template in scenario.templates.items():
            producer = scenario.producers[
                DEFAULT_PRODUCER_ASSIGNMENT[template_name]]
            all_fields = list(template.build_schema().field_names)
            for consumer_id, role in DEFAULT_CONSUMERS:
                if template.needed_fields.get(role):
                    producer.define_policy(
                        template_name, fields=all_fields,
                        consumers=[(consumer_id, "unit")],
                        purposes=["healthcare-treatment", "statistical-analysis",
                                  "administration"],
                    )
        workload = scenario.generate_workload()
        css = scenario.run(workload)
        full_push = FullPushBaseline(
            scenario.templates, list(DEFAULT_CONSUMERS), DEFAULT_PRODUCER_ASSIGNMENT
        ).run(workload)
        return css, full_push

    css, full_push = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n[A1-crossover] css bytes={css.exposure.bytes_on_wire} "
          f"full-push bytes={full_push.exposure.bytes_on_wire}")
    # At the crossover the two designs transfer comparable sensitive data...
    assert css.exposure.sensitive_disclosures >= full_push.exposure.sensitive_disclosures * 0.9
    # ...and two-phase pays its protocol overhead on the wire.
    assert css.exposure.bytes_on_wire > full_push.exposure.bytes_on_wire * 0.8


def test_two_phase_runtime_overhead(benchmark):
    """Wall-clock cost of the richer two-phase protocol at a typical rate."""
    scenario, workload = build_scenario(n_events=40, detail_request_rate=0.3)

    report = benchmark.pedantic(scenario.run, args=(workload,), rounds=1, iterations=1)
    assert report.events_published == 40
