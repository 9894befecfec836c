"""Unit tests for repro.clock."""

import sys
import threading

import pytest

from repro.clock import DAY, MONTH, Clock


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Clock().now() == 0.0

    def test_custom_start(self):
        assert Clock(100.0).now() == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(-1.0)

    def test_advance_moves_time(self):
        clock = Clock()
        clock.advance(5.0)
        assert clock.now() == 5.0

    def test_advance_returns_new_instant(self):
        clock = Clock(10.0)
        assert clock.advance(2.5) == 12.5

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1.0)

    def test_set_jumps_forward(self):
        clock = Clock()
        clock.set(1000.0)
        assert clock.now() == 1000.0

    def test_set_backwards_rejected(self):
        clock = Clock(50.0)
        with pytest.raises(ValueError):
            clock.set(49.0)

    def test_months_later_requests_are_cheap(self):
        clock = Clock()
        clock.advance(3 * MONTH)
        assert clock.now() == 3 * MONTH

    def test_isoformat_of_epoch(self):
        assert Clock().isoformat(0.0).startswith("2010-01-01T00:00:00")

    def test_isoformat_one_day_later(self):
        assert Clock().isoformat(DAY).startswith("2010-01-02")

    def test_isoformat_defaults_to_now(self):
        clock = Clock()
        clock.advance(DAY)
        assert clock.isoformat() == clock.isoformat(DAY)

    def test_lock_free_now_never_reads_backwards_under_concurrent_advance(self):
        """``now()`` takes no lock; ``advance`` keeps its own, so readers
        racing writers see time only move forward and no step is lost."""
        clock = Clock()
        writers, steps, readers = 4, 2000, 2
        backwards: list[tuple[float, float]] = []
        done = threading.Event()

        def advance() -> None:
            for _ in range(steps):
                clock.advance(1.0)

        def read() -> None:
            last = clock.now()
            while not done.is_set():
                now = clock.now()
                if now < last:
                    backwards.append((last, now))
                last = now

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reading = [threading.Thread(target=read) for _ in range(readers)]
            writing = [threading.Thread(target=advance) for _ in range(writers)]
            for thread in reading + writing:
                thread.start()
            for thread in writing:
                thread.join(timeout=30)
            done.set()
            for thread in reading:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in reading + writing)
        assert backwards == []
        assert clock.now() == writers * steps
