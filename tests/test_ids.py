"""Unit tests for repro.ids."""

import re
import threading

import pytest

from repro.ids import IdFactory, IdGenerator, opaque_token


class TestIdGenerator:
    def test_ids_are_unique(self):
        gen = IdGenerator("evt")
        ids = [gen.next() for _ in range(500)]
        assert len(set(ids)) == 500

    def test_ids_carry_prefix(self):
        gen = IdGenerator("pol")
        assert gen.next().startswith("pol-")

    def test_ids_are_ordered_by_counter(self):
        gen = IdGenerator("evt")
        first, second = gen.next(), gen.next()
        assert first < second  # zero-padded counters sort lexicographically

    def test_seed_changes_suffix_not_counter(self):
        a = IdGenerator("evt", seed="one").next()
        b = IdGenerator("evt", seed="two").next()
        assert a.split("-")[1] == b.split("-")[1]
        assert a != b

    def test_same_seed_is_deterministic(self):
        a = IdGenerator("evt", seed="s").next()
        b = IdGenerator("evt", seed="s").next()
        assert a == b

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            IdGenerator("")

    def test_thread_safety_no_duplicates(self):
        gen = IdGenerator("evt")
        results: list[str] = []
        lock = threading.Lock()

        def worker():
            local = [gen.next() for _ in range(200)]
            with lock:
                results.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == len(results) == 1600


    def test_nodes_of_a_federation_mint_no_common_event_id(self):
        """Every node counts from 1 under its own seed; with a 16-bit suffix
        8 nodes x 20,000 events collided with near certainty (and shipping
        the index entry raised ``DuplicateObjectError``)."""
        seen: set[str] = set()
        for node in range(8):
            mint = IdGenerator("evt", seed=f"2010-node-{node}")
            seen.update(mint.next() for _ in range(20_000))
        assert len(seen) == 8 * 20_000

    def test_one_shape_for_every_prefix(self):
        for prefix in ("evt", "aud", "pol", "sub"):
            assert re.fullmatch(rf"{prefix}-\d{{6}}-[0-9a-f]{{12}}",
                                IdGenerator(prefix, seed="s").next())


class TestIdFactory:
    def test_generators_are_cached_per_prefix(self):
        factory = IdFactory()
        assert factory.generator("evt") is factory.generator("evt")

    def test_distinct_prefixes_are_independent(self):
        factory = IdFactory()
        evt = factory.next("evt")
        pol = factory.next("pol")
        assert evt.startswith("evt-")
        assert pol.startswith("pol-")
        assert evt.split("-")[1] == pol.split("-")[1] == "000001"

    def test_seed_is_exposed(self):
        assert IdFactory(seed="x").seed == "x"


class TestOpaqueToken:
    def test_stable_for_same_parts(self):
        assert opaque_token("a", "b") == opaque_token("a", "b")

    def test_differs_for_different_parts(self):
        assert opaque_token("a", "b") != opaque_token("a", "c")

    def test_concatenation_ambiguity_is_avoided(self):
        assert opaque_token("ab", "c") != opaque_token("a", "bc")

    def test_length_is_respected(self):
        assert len(opaque_token("x", length=24)) == 24

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            opaque_token("x", length=3)
        with pytest.raises(ValueError):
            opaque_token("x", length=100)
