"""Ablation A2: encrypted identifying fields in the events index.

§4: "the identifying information of the person specified in the
notification is stored in encrypted form to comply with the privacy
regulations."  We measure what that compliance costs: index insertion and
inquiry with sealing on versus off.

Expected shape: encryption adds a modest constant per message (two sealed
slots on store, two opens per inquiry hit) and does not change the scaling
of either operation.
"""

from __future__ import annotations

import pytest

from repro.core.index import EventsIndex
from repro.core.messages import NotificationMessage
from repro.crypto.keystore import KeyStore


def notifications(count: int) -> list[NotificationMessage]:
    return [
        NotificationMessage(
            event_id=f"evt-{index:06d}",
            event_type="BloodTest",
            producer_id="Hospital",
            occurred_at=float(index),
            summary=f"blood test #{index}",
            subject_ref=f"pat-{index % 50:05d}",
            subject_display=f"Patient Number{index % 50}",
        )
        for index in range(count)
    ]


@pytest.mark.parametrize("encrypt", [True, False], ids=["encrypted", "plaintext"])
def test_index_store_cost(benchmark, encrypt):
    """Per-notification insertion cost, sealed vs plaintext."""
    batch = notifications(200)
    state = {"index": None, "cursor": 0}

    def store_one():
        if state["cursor"] % len(batch) == 0:
            state["index"] = EventsIndex(KeyStore("bench"), encrypt_identity=encrypt)
            state["cursor"] = 0
        state["index"].store(batch[state["cursor"]])
        state["cursor"] += 1

    benchmark(store_one)
    if encrypt:
        assert state["index"].stats.seal_operations > 0
    else:
        assert state["index"].stats.seal_operations == 0


@pytest.mark.parametrize("encrypt", [True, False], ids=["encrypted", "plaintext"])
@pytest.mark.parametrize("n_stored", [100, 1000])
def test_index_inquiry_cost(benchmark, encrypt, n_stored):
    """Window-inquiry cost over a populated index, sealed vs plaintext."""
    index = EventsIndex(KeyStore("bench"), encrypt_identity=encrypt)
    for notification in notifications(n_stored):
        index.store(notification)

    results = benchmark(
        index.inquire, ["BloodTest"],
        n_stored * 0.25, n_stored * 0.75,
    )
    expected = int(n_stored * 0.75) - int(n_stored * 0.25) + 1
    assert abs(len(results) - expected) <= 1
    # Decryption recovered the real identities.
    assert all(r.subject_ref.startswith("pat-") for r in results)


def test_at_rest_opacity_invariant(benchmark):
    """With encryption on, no stored row's identity field ever contains the identity."""
    index = EventsIndex(KeyStore("bench"), encrypt_identity=True)
    batch = notifications(100)

    def store_and_scan():
        for notification in batch:
            if notification.event_id not in index:
                index.store(notification)
        leaked = 0
        for row in index.entries(withdrawn=True):
            for field in ("subject_ref", "subject_display"):
                value = row[field] or ""
                if "pat-" in value or "Patient" in value:
                    leaked += 1
        return leaked

    assert benchmark(store_and_scan) == 0
