"""Host-speed calibration: a fixed kernel run between the ops of a unit.

This VM's speed moves by itself: the same unit of the same code takes
between 1x and 2x of its best time, in phases that last from a second to
minutes (README, "Steadiness"), and no estimator inside a run outlasts a
phase as long as the run.  So every unit reads the host's speed while it
measures.  One *slice* of a fixed kernel — JSON encode, sha256, XML parse
and a dict loop over rows of a few-MB heap; nothing of the platform — is run
after every EVERY_OPS ops, and in bursts around the phases that are single
calls (plan, verify, recover).  The *speed factor* of a phase is the
trimmed mean of its slices over their reference duration, and ``run.py``
divides the phase's timings by it: time metrics are reported at reference
host speed.  Slices that share the seconds with the ops see what the ops see;
a kernel run before and after a unit, from another process, did not.

The time spent calibrating is taken out of every timing by reading the
clocks through :meth:`Calibrator.clock` and :meth:`Calibrator.cpu_clock`.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import xml.etree.ElementTree as ET

#: One slice between ops on this box in a quiet phase; a unit measured then
#: has a speed factor of about 1 and its metrics read as measured.
REFERENCE_SLICE_MS = 0.14
#: The same for a slice inside a burst, where the kernel's code and data
#: stay cached from one slice to the next.
REFERENCE_BURST_MS = 0.08

#: One slice after every so many ops (about 1 % of a unit's window).
EVERY_OPS = 16
#: Slices in a burst beside a phase that is a single call.
BURST = 96

# Flat str -> str rows: the garbage collector does not track them, so the
# heap costs the platform's collections nothing.
_ROWS = [{"id": f"evt-{i:06d}", "subject": f"ap-{i * 7919 % 100000:08d}",
          **{f"f{j}": f"v{i}-{j}" for j in range(6)}} for i in range(3000)]
_XML = "<n>" + "".join(f"<f k='k{i}'>v{i}</f>" for i in range(12)) + "</n>"
_STRIDE, _TAKEN = 37, 24


def kernel(cursor: int) -> int:
    """One slice of fixed work over the rows from ``cursor`` on."""
    rows = [_ROWS[(cursor + _STRIDE * k) % len(_ROWS)] for k in range(_TAKEN)]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    extra = sum(len(child.text) for child in ET.fromstring(_XML))
    table = {}
    for row in rows:
        table[row["id"]] = len(row["f3"]) + extra
    return len(digest) + len(table)


def speed_factor(slices_ms: list[float], reference_ms: float) -> float:
    """Speed factor of a phase: mean of its slices, slowest tenth dropped,
    over what such a slice takes at reference speed."""
    ordered = sorted(slices_ms)
    kept = ordered[:max(1, len(ordered) * 9 // 10)]
    return statistics.fmean(kept) / reference_ms


class Calibrator:
    """Runs slices, keeps their durations, and keeps them off the clocks."""

    def __init__(self) -> None:
        self.cursor = 0
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self.slices_ms: list[float] = []

    def clock(self) -> float:
        """``perf_counter`` without the time spent calibrating."""
        return time.perf_counter() - self.spent_s

    def cpu_clock(self) -> float:
        """``process_time`` without the CPU time spent calibrating."""
        return time.process_time() - self.spent_cpu_s

    def slice(self) -> None:
        cpu_started, started = time.process_time(), time.perf_counter()
        kernel(self.cursor)
        ended = time.perf_counter()
        self.cursor = (self.cursor + _STRIDE * _TAKEN) % len(_ROWS)
        self.slices_ms.append((ended - started) * 1000.0)
        self.spent_s += ended - started
        self.spent_cpu_s += time.process_time() - cpu_started

    def burst(self) -> None:
        for _ in range(BURST):
            self.slice()

    def take(self) -> list[float]:
        """The slices run since the last ``take``, in milliseconds."""
        taken, self.slices_ms = self.slices_ms, []
        return taken
