"""Unit tests for the lazily materialized million-actor population.

The load-bearing property is **access-order independence**: a person is a
pure function of ``(seed, index)``, so two populations touched in
completely different orders (and with different cache churn) materialize
identical records.  Without it the engine's byte-identical-stream
guarantee would silently depend on cache behaviour.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.workload import LazyPopulation
from repro.workload.population import SUBJECT_PREFIX


class TestLaziness:
    def test_construction_materializes_nothing(self):
        population = LazyPopulation(5_000_000, seed=42)
        assert population.materialized_total == 0
        assert population.resident == 0

    def test_id_arithmetic_materializes_nothing(self):
        population = LazyPopulation(1_000_000, seed=42)
        assert population.subject_id(123_456) == "ap-00123456"
        assert population.case_worker_of(123_456) == "cw-000493"
        assert population.materialized_total == 0

    def test_cache_is_bounded(self):
        population = LazyPopulation(10_000, seed=1, cache_size=64)
        for index in range(500):
            population.person(index)
        assert population.materialized_total == 500
        assert population.resident == 64

    def test_cache_hits_do_not_rematerialize(self):
        population = LazyPopulation(100, seed=1)
        first = population.person(7)
        second = population.person(7)
        assert first is second
        assert population.materialized_total == 1


class TestDeterminism:
    def test_access_order_does_not_change_people(self):
        forward = LazyPopulation(1_000, seed=99, cache_size=8)
        backward = LazyPopulation(1_000, seed=99, cache_size=8)
        indexes = [0, 500, 999, 3, 777, 42]
        first = [forward.person(i) for i in indexes]
        second = [backward.person(i) for i in reversed(indexes)]
        assert first == list(reversed(second))

    def test_eviction_and_refetch_is_identical(self):
        population = LazyPopulation(1_000, seed=7, cache_size=2)
        original = population.person(5)
        population.person(6)
        population.person(7)  # evicts index 5
        assert population.resident == 2
        assert population.person(5) == original

    def test_different_seeds_differ(self):
        a = LazyPopulation(1_000, seed=1)
        b = LazyPopulation(1_000, seed=2)
        assert any(a.person(i) != b.person(i) for i in range(20))

    def test_neighbouring_indexes_are_not_correlated(self):
        population = LazyPopulation(1_000, seed=3)
        names = {population.person(i).name for i in range(50)}
        assert len(names) > 25  # sha-derived streams, not seed+index


class TestHierarchy:
    def test_case_workers_own_contiguous_blocks(self):
        population = LazyPopulation(1_000, seed=5, case_load=250)
        assert population.case_worker_of(0) == population.case_worker_of(249)
        assert population.case_worker_of(249) != population.case_worker_of(250)
        person = population.person(251)
        assert person.case_worker_id == population.case_worker_of(251)

    def test_guardian_fraction_tracks_rate(self):
        population = LazyPopulation(2_000, seed=11, guardian_rate=0.25)
        guardians = sum(
            population.person(i).guardian_id is not None for i in range(2_000)
        )
        assert 0.18 < guardians / 2_000 < 0.32

    def test_zero_guardian_rate_means_no_guardians(self):
        population = LazyPopulation(200, seed=11, guardian_rate=0.0)
        assert all(
            population.person(i).guardian_id is None for i in range(200)
        )

    def test_clinician_pool_scales_sublinearly(self):
        small = LazyPopulation(100, seed=1)
        large = LazyPopulation(1_000_000, seed=1)
        assert small.clinician_pool == 16  # the floor
        assert large.clinician_pool == 1_000
        person = large.person(0)
        assert person.clinician_id.startswith("cl-")


class TestValidation:
    def test_subject_ids_carry_the_flagged_prefix(self):
        population = LazyPopulation(10, seed=1)
        assert population.person(3).person_id.startswith(SUBJECT_PREFIX)

    def test_out_of_range_index_rejected(self):
        population = LazyPopulation(10, seed=1)
        with pytest.raises(ConfigurationError):
            population.person(10)
        with pytest.raises(ConfigurationError):
            population.subject_id(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 0},
            {"size": 10, "guardian_rate": 1.5},
            {"size": 10, "case_load": 0},
            {"size": 10, "cache_size": 0},
        ],
    )
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LazyPopulation(seed=1, **kwargs)
