"""Privacy-safe profiling: deterministic time attribution per code section.

A real sampling profiler interrupts on a wall-clock timer; this platform
runs on a *simulated* clock, so :class:`SamplingProfiler` keeps the
facade (samples, attributed seconds, a top-N view) but takes one sample
per closed section and attributes the section's simulated duration to a
``(section, labels)`` bucket.  Same workload, same profile — byte for
byte, which is what the determinism tests require.

Sections that do not advance the simulated clock (sealing and opening a
federation channel is pure computation) still record a sample with zero
attributed seconds: the profile shows *how often* the crypto boundary is
crossed even when the cost model charges no time for it.

Every label bucket passes the :class:`~repro.obs.guard.PrivacyGuard`, so
a profile can say *which pipeline stage* or *which (hashed) link* was
hot, never *whose* request made it hot.
"""

from __future__ import annotations

from repro.clock import Clock
from repro.crypto.hashing import canonical_json
from repro.obs.guard import PrivacyGuard

#: Canonical section names the platform's hooks record.
SECTION_STAGE = "pipeline.stage"
SECTION_LINK_HOP = "link.hop"
SECTION_SEAL = "crypto.seal"
SECTION_OPEN = "crypto.open"

Labels = tuple[tuple[str, str], ...]


class SamplingProfiler:
    """Deterministic section profiler over the simulated clock."""

    def __init__(self, clock: Clock | None = None,
                 guard: PrivacyGuard | None = None) -> None:
        self.clock = clock or Clock()
        self.guard = guard or PrivacyGuard()
        self._buckets: dict[tuple[str, Labels], list[float]] = {}

    def record(self, section: str, seconds: float, **labels: object) -> None:
        """Attribute ``seconds`` of simulated time (one sample) to a bucket."""
        key = (section, self.guard.sanitize(labels))
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = [0.0, 0.0]  # [seconds, samples]
        bucket[0] += max(0.0, seconds)
        bucket[1] += 1.0

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Every bucket as a plain dict row, deterministically ordered."""
        rows = [
            {
                "section": section,
                "labels": dict(sorted(labels)),
                "seconds": seconds,
                "samples": int(samples),
                "mean": seconds / samples if samples else 0.0,
            }
            for (section, labels), (seconds, samples) in self._buckets.items()
        ]
        rows.sort(key=lambda row: (row["section"], sorted(row["labels"].items())))
        return rows

    def top(self, n: int = 10) -> list[dict]:
        """The ``n`` buckets with the most attributed simulated time."""
        rows = self.snapshot()
        rows.sort(key=lambda row: (-row["seconds"], row["section"],
                                   sorted(row["labels"].items())))
        return rows[:n]

    def total_seconds(self) -> float:
        """All simulated time attributed so far."""
        return sum(seconds for seconds, _ in self._buckets.values())

    def reset(self) -> None:
        """Drop every bucket."""
        self._buckets.clear()

    # -- export -------------------------------------------------------------

    def profile_lines(self) -> list[str]:
        """One canonical-JSON line per bucket (deterministic)."""
        return [canonical_json(row) for row in self.snapshot()]

    def to_table(self, n: int = 15) -> str:
        """Console rendering of the hottest buckets."""
        rows = self.top(n)
        if not rows:
            return "(no profile samples recorded)"
        rendered = [
            "profile (simulated seconds attributed per section):",
            f"  {'section':<16} {'labels':<42} {'seconds':>10} {'samples':>8}",
        ]
        for row in rows:
            labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
            rendered.append(
                f"  {row['section']:<16} {labels:<42} "
                f"{row['seconds']:>10.4f} {row['samples']:>8}"
            )
        return "\n".join(rendered)
