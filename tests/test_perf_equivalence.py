"""The indexed hot path against its linear reference.

The perf layer's acceptance property: the product (policy index,
versioned decision cache, subscription trie) and the ``linear_reference``
fixture (the repository's full compile-and-evaluate, uncached, and the
linear fan-out scan) produce the same report, the same audit trail record
for record and the same link transcripts on the same seed — on one node
and on three.
"""

from repro.sim.scenario import CssScenario, ScenarioConfig

NODE_COUNTS = (1, 3)


def observe(**config):
    """(report, every node's audit payloads, link transcripts) of one run,
    and the decision / fan-out cache lookups node-0's perf layer counted."""
    scenario = CssScenario(ScenarioConfig(**config))
    report = scenario.run()
    platform = scenario.platform
    audit = [[record.to_payload() for record in node.controller.audit_log.records()]
             for node in platform.nodes()]
    stats = scenario.controller.perf.stats
    lookups = {cache: stats.hits.get(cache, 0) + stats.misses.get(cache, 0)
               for cache in ("decision", "fanout")}
    return (report, audit, platform.link_transcripts()), lookups


class TestModeEquivalence:
    def test_equivalence_harness_reports_identical(self, linear_reference):
        for nodes in NODE_COUNTS:
            product, cached = observe(nodes=nodes, n_patients=6, n_events=30,
                                      seed=11)
            with linear_reference():
                reference, uncached = observe(nodes=nodes, n_patients=6,
                                              n_events=30, seed=11)
            assert product == reference, nodes
            # The two runs took different paths to the same bytes.
            assert all(cached.values()), cached
            assert not any(uncached.values()), uncached
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
