"""A sealed token's nonce is its plaintext's and context's, not a counter's.

Every index and channel seal of a durable 2-node federation is collected
across a restart (a second platform over the same directories and master
secret) and a node join that re-homes index entries.  No nonce may serve
two different inputs: a counter restarted at zero would hand a restarted
node's first channel seals the nonces it used before.  What the tokens
open to is pinned as it was under counter nonces.
"""

import dataclasses
import hashlib
import json
from collections import defaultdict

import pytest

from repro import RuntimeConfig
from repro.core.index import INDEX_KEY
from repro.crypto.keystore import KeyStore
from repro.federation.node import CHANNEL_KEY_PREFIX
from repro.sim.scenario import CssScenario, ScenarioConfig
from tests.conftest import build_federation

DOCTOR = "FamilyDoctors/Dr-Rossi"

#: sha256 of every opened index entry, and each node's audit head, of a
#: seeded durable 2-node scenario, computed when seals took counter nonces:
#: the nonce moved every token's bytes and must move nothing they open to.
OPENED_INDEX_SHA256 = (
    "b525b7107f644939ae34ed1d114325c32a0ff2fb48d4fa4e4fb7351ea73aae3a")


@pytest.fixture
def sealed(monkeypatch):
    """Every ``KeyStore.seal`` call as ``(key name, its other arguments, token)``."""
    calls = []
    seal = KeyStore.seal

    def spy(self, name, *rest):
        token = seal(self, name, *rest)
        calls.append((name, rest, token))
        return token

    monkeypatch.setattr(KeyStore, "seal", spy)
    return calls


def exercise(deployment, subjects):
    """Publish one blood test per subject and request each one's details
    from the other node (both sealed on the channel)."""
    platform = deployment.platform
    for subject in subjects:
        notification = deployment.publish_blood_test(subject_id=subject)
        platform.request_details(DOCTOR, "BloodTest", notification.event_id,
                                 "healthcare-treatment")
    platform.dispatch_all()
    platform.flush_batches()


def test_no_nonce_serves_two_inputs_across_a_restart_and_a_rehome(tmp_path, sealed):
    runtime = RuntimeConfig(data_dir=tmp_path, batch="on")
    before = build_federation(runtime=runtime)
    before.platform.subscribe(DOCTOR, "BloodTest")
    exercise(before, [f"pat-{n}" for n in range(8)])
    # The restart.  Its id seed is fresh only because a restarted node does
    # not yet fast-forward its event ids past the replayed ones (ROADMAP
    # item 9); the seals' keys and the data directories are the same.
    after = build_federation(runtime=runtime, seed="fedtest-restarted")
    after.platform.subscribe(DOCTOR, "BloodTest")
    exercise(after, [f"pat-{n}" for n in range(4, 12)])
    assert after.platform.add_node().entries_moved > 0
    exercise(after, [f"pat-{n}" for n in range(12)])

    inputs = defaultdict(set)
    for name, rest, token in sealed:
        inputs[token.partition(":")[2][:32]].add((name, *rest))
    assert {nonce: seen for nonce, seen in inputs.items() if len(seen) > 1} == {}
    channel = [name for name, _, _ in sealed if name.startswith(CHANNEL_KEY_PREFIX)]
    assert channel and len(channel) < len(sealed)  # both kinds were collected

    # One subject in many events: a token per event, never a shared one.
    by_subject = defaultdict(list)
    for name, (plaintext, *_), token in sealed:
        if name == INDEX_KEY:
            by_subject[plaintext].append(token)
    assert len(by_subject["pat-5"]) == 3
    assert all(len(set(tokens)) == len(tokens) for tokens in by_subject.values())

    # The same (context, plaintext) under the same key is the same token.
    keystore = KeyStore("css-platform-secret")
    for name, rest, token in list(sealed):
        keystore.create(name)
        assert keystore.seal(name, *rest) == token


def test_the_opened_index_is_the_counter_nonce_one(tmp_path):
    scenario = CssScenario(ScenarioConfig(
        nodes=2, n_patients=12, n_events=60, seed=5,
        runtime=RuntimeConfig(data_dir=tmp_path, batch="on")))
    scenario.run()
    opened = []
    for node in scenario.platform.nodes():
        local = node.controller.index.local
        opened += [dataclasses.asdict(local.get(obj.object_id))
                   for obj in local.registry.all_objects()]
        opened.append(node.controller.audit_log.head_digest)
    rendered = json.dumps(opened, sort_keys=True, default=str).encode()
    assert hashlib.sha256(rendered).hexdigest() == OPENED_INDEX_SHA256
