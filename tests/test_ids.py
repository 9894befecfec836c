"""Unit tests for repro.ids."""

import re
import sys
import threading

import pytest

from repro.ids import IdFactory, IdGenerator


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

    def test_skip_lands_on_the_next_id(self):
        skipped, fresh = IdGenerator("aud", seed="s"), IdGenerator("aud", seed="s")
        skipped.skip(41)
        assert skipped.next() == [fresh.next() for _ in range(42)][-1]

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

    @pytest.mark.parametrize("count", [0, 1, 7, 1000])
    def test_skip_lands_on_the_next_id(self, count):
        factory = IdFactory(seed="archive")
        factory.skip("evt", count)
        fresh = IdGenerator("evt", seed="archive")
        expected = [fresh.next() for _ in range(count + 1)][-1]
        assert factory.next("evt") == expected

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            IdFactory().skip("evt", -1)

    def test_concurrent_first_use_makes_one_generator_per_prefix(self):
        """``next`` reads the generator dict without the lock; threads that
        meet a new prefix together still share one generator and one
        counter: no id is minted twice.  (With ``generator`` unlocked too,
        a round of this mints a duplicate about every other time.)"""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                factory = IdFactory(seed="race")
                prefixes = [f"p{index}" for index in range(300)]
                minted: list[list[str]] = [[] for _ in range(12)]
                start = threading.Barrier(len(minted))

                def worker(out: list[str]) -> None:
                    start.wait(timeout=10)
                    for prefix in prefixes:
                        out.extend((factory.next(prefix), factory.next(prefix)))

                threads = [threading.Thread(target=worker, args=(out,)) for out in minted]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                ids = [identifier for out in minted for identifier in out]
                assert len(ids) == len(set(ids)) == 12 * 300 * 2
        finally:
            sys.setswitchinterval(interval)
