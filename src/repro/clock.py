"""Simulated time for the platform.

The paper stresses *temporal decoupling*: a consumer may request the details
of a notification "even months after the publication" (§4), and policies may
carry validity windows (Fig. 7).  Testing those behaviours against the wall
clock would be slow and flaky, so every component takes a :class:`Clock` and
the default implementation is a controllable simulated clock.

Times are plain ``float`` seconds since an arbitrary epoch; helpers convert
to ISO-8601 strings for messages and audit records.
"""

from __future__ import annotations

import datetime as _dt
import threading
import time as _time

#: Epoch used to render simulated instants as ISO-8601 timestamps.
SIMULATION_EPOCH = _dt.datetime(2010, 1, 1, tzinfo=_dt.timezone.utc)

#: Convenience constants for advancing simulated time.
DAY = 86400.0
MONTH = 30 * DAY
YEAR = 365 * DAY


class Clock:
    """A monotonically advancing simulated clock.

    ``now()`` returns the current simulated instant in seconds.  Time only
    moves when :meth:`advance` (or :meth:`set`) is called, which makes tests
    of validity windows and months-later detail requests instantaneous.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before the epoch")
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current simulated time in seconds since the epoch.

        Takes no lock: reading one float attribute is atomic, and
        :meth:`advance` / :meth:`set` publish each new instant with one
        store under theirs, so a read never sees time go backwards.
        """
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new instant."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        with self._lock:
            self._now += seconds
            return self._now

    def set(self, instant: float) -> None:
        """Jump to an absolute ``instant`` (must not move backwards)."""
        with self._lock:
            if instant < self._now:
                raise ValueError("cannot set the clock backwards")
            self._now = float(instant)

    def isoformat(self, instant: float | None = None) -> str:
        """Render ``instant`` (default: now) as an ISO-8601 UTC timestamp."""
        if instant is None:
            instant = self.now()
        stamp = SIMULATION_EPOCH + _dt.timedelta(seconds=instant)
        return stamp.isoformat()


class WallClock(Clock):
    """A clock backed by real time, for live demos.

    ``advance``/``set`` are rejected: wall time cannot be steered.
    """

    def __init__(self) -> None:
        super().__init__(0.0)
        self._t0 = _time.monotonic()

    def now(self) -> float:  # noqa: D102 - inherited docstring
        return _time.monotonic() - self._t0

    def advance(self, seconds: float) -> float:  # noqa: D102
        raise NotImplementedError("wall clock cannot be advanced manually")

    def set(self, instant: float) -> None:  # noqa: D102
        raise NotImplementedError("wall clock cannot be set manually")
