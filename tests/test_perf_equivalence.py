"""The product's hot path against its reference.

The acceptance property: the product (Def. 3 over the repository's actor
buckets, the subscription trie and fan-out memo) and the
``linear_reference`` fixture (the XACML PEP/PDP over the repository's
whole compiled policy set, and the linear fan-out scan) produce the same
report, the same audit trail record for record and the same link
transcripts on the same seed — on one node and on three.
"""

from repro.sim.scenario import CssScenario, ScenarioConfig
from repro.xacml.pep import PolicyEnforcementPoint

NODE_COUNTS = (1, 3)


def observe(monkeypatch, **config):
    """(report, every node's audit payloads, link transcripts) of one run,
    plus the XACML authorizations and the fan-out memo lookups node-0
    made."""
    authorizations = []
    authorize = PolicyEnforcementPoint.authorize
    monkeypatch.setattr(PolicyEnforcementPoint, "authorize", lambda *args: (
        authorizations.append(1), authorize(*args))[1])
    scenario = CssScenario(ScenarioConfig(**config))
    report = scenario.run()
    monkeypatch.setattr(PolicyEnforcementPoint, "authorize", authorize)
    platform = scenario.platform
    audit = [[record.to_payload() for record in node.controller.audit_log.records()]
             for node in platform.nodes()]
    stats = scenario.controller.perf.stats
    paths = {"xacml": len(authorizations),
             "fanout": stats.hits.get("fanout", 0) + stats.misses.get("fanout", 0)}
    return (report, audit, platform.link_transcripts()), paths


class TestModeEquivalence:
    def test_equivalence_harness_reports_identical(self, linear_reference,
                                                   monkeypatch):
        for nodes in NODE_COUNTS:
            product, direct = observe(monkeypatch, nodes=nodes, n_patients=6,
                                      n_events=30, seed=11)
            with linear_reference():
                reference, general = observe(monkeypatch, nodes=nodes,
                                             n_patients=6, n_events=30, seed=11)
            assert product == reference, nodes
            # The two runs took different paths to the same bytes: the
            # product authorizes nothing through XACML and memoises
            # fan-outs, the reference does the opposite.
            assert direct["xacml"] == 0 and direct["fanout"] > 0, direct
            assert general["xacml"] > 0 and general["fanout"] == 0, general
            report, audit, transcripts = product
            assert report.detail_permits
            assert all(audit)
            assert bool(transcripts) == (nodes > 1)

    def test_scenario_audit_trails_match_record_for_record(self, linear_reference):
        def run(nodes: int):
            scenario = CssScenario(ScenarioConfig(
                nodes=nodes, n_patients=6, n_events=25, seed=5))
            scenario.run()
            return [[record.to_payload() for record in node.controller.audit_log.logical()]
                    for node in scenario.platform.nodes()]

        for nodes in NODE_COUNTS:
            indexed = run(nodes)
            with linear_reference():
                baseline = run(nodes)
            assert [len(trail) for trail in indexed] == [
                len(trail) for trail in baseline]
            assert indexed == baseline
