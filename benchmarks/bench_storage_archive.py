"""Operational benchmark: platform snapshot save/restore.

Not a paper figure — an adoption-relevant ablation of the persistence
substrate: snapshot cost scales with platform state, restore re-verifies
the audit chain, and restored platforms answer detail requests
identically.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.enforcement import DetailRequest
from repro.sim.scenario import CssScenario, ScenarioConfig
from repro.storage import PlatformArchive

_seq = itertools.count()


def populated_controller(n_events: int):
    scenario = CssScenario(ScenarioConfig(
        n_patients=15, n_events=n_events, detail_request_rate=0.3, seed=5))
    scenario.run()
    return scenario.controller


@pytest.mark.parametrize("n_events", [50, 200])
def test_snapshot_save_cost(benchmark, tmp_path, n_events):
    controller = populated_controller(n_events)

    def save():
        archive = PlatformArchive(tmp_path / f"snap-{next(_seq)}")
        archive.save(controller)
        return archive

    archive = benchmark.pedantic(save, rounds=10, iterations=1)
    assert archive.manifest_path.exists()


@pytest.mark.parametrize("n_events", [50, 200])
def test_snapshot_restore_cost(benchmark, tmp_path, n_events):
    controller = populated_controller(n_events)
    archive = PlatformArchive(tmp_path / "snap")
    archive.save(controller)

    restored = benchmark.pedantic(
        archive.restore, args=("css-platform-secret",), rounds=10, iterations=1)
    assert len(restored.audit_log) == len(controller.audit_log)
    assert restored.audit_log.head_digest == controller.audit_log.head_digest


def test_restored_platform_serves_details(benchmark, tmp_path):
    controller = populated_controller(100)
    archive = PlatformArchive(tmp_path / "snap")
    archive.save(controller)
    restored = archive.restore("css-platform-secret")
    entry = next(iter(restored.id_map._by_global.values()))  # noqa: SLF001
    consumers = [a for a in restored.actors.consumers()]
    # Find a consumer authorized for this event type.
    chosen = None
    for actor in consumers:
        if restored.policies.has_policy_for(
            entry.producer_id, entry.event_type, actor.actor_id, actor.role
        ):
            chosen = actor
            break
    assert chosen is not None
    from repro.sim.domain import ROLE_PURPOSES

    request = DetailRequest(
        actor=chosen, event_type=entry.event_type,
        event_id=entry.event_id, purpose=ROLE_PURPOSES[chosen.role],
    )
    detail = benchmark(restored.request_details, chosen.actor_id, request)
    assert detail.exposed_values()
