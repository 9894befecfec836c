"""Integration tests: the CSS scenario runner versus the four baselines.

These tests pin the *shape* claims of the paper (DESIGN.md §5): the CSS
two-phase architecture discloses no unneeded field, traces every access,
never duplicates sensitive data centrally, while every baseline breaks at
least one of those properties.
"""

import random
import re
from collections import Counter
from dataclasses import asdict

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.baselines import (
    FullPushBaseline,
    ManualExchangeBaseline,
    PointToPointSoaBaseline,
    WarehouseBaseline,
)
from repro.sim.domain import (
    DEFAULT_CONSUMERS,
    DEFAULT_PRODUCER_ASSIGNMENT,
    ROLE_PURPOSES,
)
from repro.sim.generators import (
    SyntheticPopulation,
    WorkloadGenerator,
    standard_event_templates,
)
from repro.sim.metrics import DisclosureLedger
from repro.sim.scenario import CssScenario, ScenarioConfig


@pytest.fixture(scope="module")
def scenario_run():
    config = ScenarioConfig(n_patients=15, n_events=80, detail_request_rate=0.4, seed=11)
    scenario = CssScenario(config)
    workload = scenario.generate_workload()
    report = scenario.run(workload)
    return scenario, workload, report


@pytest.fixture(scope="module")
def baseline_reports(scenario_run):
    scenario, workload, _ = scenario_run
    consumers = list(DEFAULT_CONSUMERS)
    return {
        "manual": ManualExchangeBaseline(scenario.templates, consumers).run(workload),
        "p2p": PointToPointSoaBaseline(
            scenario.templates, consumers, DEFAULT_PRODUCER_ASSIGNMENT
        ).run(workload),
        "warehouse": WarehouseBaseline(scenario.templates, consumers).run(workload),
        "full_push": FullPushBaseline(
            scenario.templates, consumers, DEFAULT_PRODUCER_ASSIGNMENT
        ).run(workload),
    }


class TestCssScenario:
    def test_all_events_published(self, scenario_run):
        _, workload, report = scenario_run
        assert report.events_published == len(workload)

    def test_zero_overexposure(self, scenario_run):
        """CSS grants exactly the needed fields: nothing unneeded leaks."""
        _, _, report = scenario_run
        assert report.exposure.overexposed == 0
        assert report.exposure.sensitive_overexposed == 0

    def test_full_traceability(self, scenario_run):
        _, _, report = scenario_run
        assert report.exposure.traced_fraction == 1.0
        assert report.audit_chains_verified

    def test_no_denies_in_well_configured_deployment(self, scenario_run):
        _, _, report = scenario_run
        assert report.detail_denies == 0
        assert report.detail_permits == report.detail_requests

    def test_notifications_fan_out(self, scenario_run):
        _, _, report = scenario_run
        assert report.notifications_delivered >= report.events_published

    def test_deterministic_under_seed(self):
        config = ScenarioConfig(n_patients=10, n_events=30, seed=5)
        first = CssScenario(config).run()
        second = CssScenario(ScenarioConfig(n_patients=10, n_events=30, seed=5)).run()
        assert first.exposure.disclosures == second.exposure.disclosures
        assert first.detail_requests == second.detail_requests

    def test_zero_request_rate_discloses_nothing(self):
        config = ScenarioConfig(n_patients=10, n_events=30,
                                detail_request_rate=0.0, seed=5)
        report = CssScenario(config).run()
        assert report.detail_requests == 0
        assert report.exposure.disclosures == 0

    def test_report_renders(self, scenario_run):
        _, _, report = scenario_run
        text = report.to_text()
        assert "CSS SCENARIO REPORT" in text


class TestBaselineShapes:
    def test_baselines_disclose_more_than_css(self, scenario_run, baseline_reports):
        _, _, css = scenario_run
        for name, report in baseline_reports.items():
            assert report.exposure.disclosures > css.exposure.disclosures, name

    def test_baselines_overexpose(self, baseline_reports):
        for name, report in baseline_reports.items():
            assert report.exposure.overexposed > 0, name
            assert report.exposure.sensitive_overexposed > 0, name

    def test_manual_and_p2p_are_untraced(self, baseline_reports):
        assert baseline_reports["manual"].exposure.traced_fraction == 0.0
        assert baseline_reports["p2p"].exposure.traced_fraction == 0.0

    def test_warehouse_duplicates_sensitive_data(self, baseline_reports):
        assert baseline_reports["warehouse"].duplicated_sensitive_values > 0

    def test_css_duplicates_nothing(self, scenario_run):
        """Sensitive details stay at the producer; the index holds only
        encrypted who/what/when/where."""
        scenario, _, _ = scenario_run
        for event_id in list(scenario.controller.id_map._by_global):  # noqa: SLF001
            row = scenario.controller.index.local_raw_get(event_id)
            assert set(row) == {"event_id", "event_type", "producer_id",
                                "occurred_at", "summary", "subject_ref",
                                "subject_display"}

    def test_full_push_transfers_more_sensitive_values(self, scenario_run, baseline_reports):
        _, _, css = scenario_run
        full_push = baseline_reports["full_push"]
        assert full_push.exposure.sensitive_disclosures > css.exposure.sensitive_disclosures

    def test_p2p_connector_count_exceeds_bus_subscriptions_at_scale(self):
        """O(N*M) connectors vs O(N+M) bus links, on a synthetic all-to-all
        interest matrix."""
        n_producers, n_consumers = 10, 12
        p2p_connectors = n_producers * n_consumers
        bus_links = n_producers + n_consumers
        assert p2p_connectors > 4 * bus_links


class TestConsentInScenario:
    def test_opt_out_blocks_publication_in_scenario(self):
        config = ScenarioConfig(n_patients=5, n_events=40, seed=3)
        scenario = CssScenario(config)
        workload = scenario.generate_workload()
        # Every patient opts out of everything at every producer.
        from repro.core.consent import ConsentScope

        for producer in scenario.producers.values():
            for patient in scenario.population:
                producer.consent.opt_out(patient.patient_id, ConsentScope.NOTIFICATIONS)
        report = scenario.run(workload)
        assert report.events_published == 0
        assert report.events_blocked_by_consent == len(workload)
        assert report.exposure.disclosures == 0


# -- the deleted single-controller driver, kept as the reference ---------------


def reference_run(seed: int, n_patients: int = 30, n_events: int = 200, rate: float = 0.3):
    """The parent's ``_build`` + ``run``: everyone on ONE bare controller (a deny raises)."""
    controller, templates = DataController(seed=f"scenario-{seed}"), standard_event_templates()
    home, producers, consumers, classes = DEFAULT_PRODUCER_ASSIGNMENT, {}, {}, {}
    for name, pid in home.items():
        if pid not in producers:
            producers[pid] = DataProducer(controller, pid, pid.replace("-", " "))
        t = templates[name]
        classes[name] = producers[pid].declare_event_class(
            t.build_schema(), category=t.category, description=t.schema_factory().documentation)
    for cid, role in DEFAULT_CONSUMERS:
        consumers[cid] = DataConsumer(controller, cid, cid.replace("-", " "), role=role)
        for name, t in templates.items():
            if t.needed_fields.get(role):
                producers[home[name]].define_policy(
                    event_type=name, fields=list(t.needed_fields[role]), consumers=[(cid, "unit")],
                    purposes=[ROLE_PURPOSES[role]], label=f"{role} access to {name}")
                consumers[cid].subscribe(name)
    deployed = sum(1 for _ in controller.audit_log.logical())
    rng, counts, released = random.Random(seed + 1), Counter(), []
    ledger = DisclosureLedger("CSS (two-phase)")
    for item in WorkloadGenerator(seed=seed).generate(
            SyntheticPopulation(n_patients, seed=seed), templates, n_events, 60.0):
        name, t = item.template_name, templates[item.template_name]
        controller.clock.set(max(controller.clock.now(), item.offset_seconds))
        notification = producers[home[name]].publish(
            classes[name], subject_id=item.patient.patient_id, subject_name=item.patient.name,
            summary=item.summary, details=dict(item.details))
        ledger.record_event()
        counts["events_blocked_by_consent" if notification is None else "events_published"] += 1
        if notification is None:
            continue
        ledger.add_bytes(len(notification.to_xml().encode()))
        for consumer in consumers.values():
            role, needed = consumer.actor.role, t.needed_fields.get(consumer.actor.role)
            if not needed or not consumer.is_subscribed_to(name) or rng.random() >= rate:
                continue
            detail = consumer.request_details(notification, ROLE_PURPOSES[role])
            counts["detail_permits"] += 1
            ledger.add_bytes(len(detail.to_xml().encode()))
            ledger.record_document(consumer.actor_id, role, name, detail.exposed_values(),
                                   set(t.build_schema().sensitive_fields), set(needed), True)
            released.append((consumer.actor_id, notification.event_id, sorted(detail.exposed_values())))
    counts["notifications_delivered"] = sum(len(c.inbox) for c in consumers.values())
    return controller, counts, ledger.summary(), released, deployed


def cut(text: str, keep: str = r"\1-\2") -> str:
    """Ids down to prefix-counter: the suffix hashes the seed string."""
    return re.sub(r"\b([a-z]+)-(\d{6})-[0-9a-f]{12}\b", keep, text or "")


def trail(log, start: int = 0, stop: int | None = None, **ids) -> list[tuple]:
    return [(r.timestamp, r.actor, r.action, r.outcome, r.event_type,
             r.purpose, cut(r.detail, **ids))
            for r in list(log.logical())[start:stop]]


class TestAgainstTheBareControllerReference:
    """A one-node scenario is the single controller the paper describes:
    same run, logically, as the driver this class replaced."""

    @pytest.fixture(scope="class", params=[2010, 42])
    def both(self, request):
        seed = request.param
        scenario = CssScenario(ScenarioConfig(nodes=1, seed=seed))
        deployed = sum(1 for _ in scenario.controller.audit_log.logical())
        released = []
        request_details = scenario.platform.request_details

        def spy(consumer_id, event_type, event_id, purpose):
            detail = request_details(consumer_id, event_type, event_id, purpose)
            released.append((consumer_id, event_id,
                             sorted(detail.exposed_values())))
            return detail

        scenario.platform.request_details = spy
        report = scenario.run()
        return (scenario, report, released, deployed), reference_run(seed)

    def test_every_counter_and_exposure_field_is_equal(self, both):
        (_, report, _, _), (controller, counts, exposure, _, _) = both
        controller.audit_log.verify_integrity()
        assert {name: getattr(report, name) for name in counts} == dict(counts)
        assert report.detail_permits > 0 and report.events_published == 200
        assert (report.detail_requests, report.detail_denies, report.endpoint_calls,
                report.subscriptions, report.audit_records) == (
            counts["detail_permits"], 0, controller.endpoints.total_calls(),
            controller.bus.subscription_count, len(controller.audit_log))
        assert asdict(report.exposure) == asdict(exposure)
        assert report.cross_node_hops == 0

    def test_the_same_fields_are_released_to_the_same_consumers(self, both):
        (_, _, released, _), (_, _, _, expected, _) = both
        assert [(consumer, cut(event_id), names)
                for consumer, event_id, names in released] == [
            (consumer, cut(event_id), names)
            for consumer, event_id, names in expected]

    def test_the_run_time_audit_trail_is_equal_in_order(self, both):
        (scenario, _, _, deployed), (controller, _, _, _, expected) = both
        assert deployed == expected
        assert trail(scenario.controller.audit_log, deployed) == trail(
            controller.audit_log, expected)

    def test_the_deployment_records_are_equal_as_a_multiset(self, both):
        """``deploy_roster`` registers every consumer before the first
        policy; the deleted ``_build`` interleaved them."""
        (scenario, _, _, deployed), (controller, _, _, _, _) = both
        # Policy ids count in definition order, so here the counter goes too.
        ours = trail(scenario.controller.audit_log, 0, deployed, keep=r"\1")
        theirs = trail(controller.audit_log, 0, deployed, keep=r"\1")
        assert ours != theirs
        assert Counter(ours) == Counter(theirs)
