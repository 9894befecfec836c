"""Telemetry exporters: JSONL dumps and console tables.

JSONL export uses the same canonical JSON rendering as the audit hash
chain, so a trace export is a deterministic function of the workload —
the determinism tests compare two seeded runs byte for byte.  The console
renderers back the ``repro telemetry`` CLI subcommand.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.crypto.hashing import canonical_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span


def span_lines(spans: Iterable[Span]) -> list[str]:
    """One canonical-JSON line per finished span."""
    return [canonical_json(span.to_dict()) for span in spans]


def metric_lines(registry: MetricsRegistry) -> list[str]:
    """One canonical-JSON line per metric series (snapshot order)."""
    return [canonical_json(row) for row in registry.snapshot()]


def write_jsonl(path: str | Path, lines: Iterable[str]) -> Path:
    """Write ``lines`` to ``path`` with a trailing newline, atomically
    (:func:`~repro.storage.jsonl.write_atomic`); returns the path."""
    # Imported here, not at module level: repro.storage pulls in the
    # controller stack, and ``repro.obs`` must stay importable from it.
    from repro.storage.jsonl import write_atomic

    lines = list(lines)  # materialise before touching the filesystem
    return write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def render_metrics_table(registry: MetricsRegistry) -> str:
    """Counters and gauges as an aligned console table."""
    rows = [row for row in registry.snapshot() if row["type"] != "histogram"]
    if not rows:
        return "(no counters or gauges recorded)"
    rendered = ["counters and gauges:"]
    for row in rows:
        labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
        series = f"{row['name']}{{{labels}}}" if labels else row["name"]
        rendered.append(f"  {series:<58} {row['value']:>12g}")
    return "\n".join(rendered)


def render_latency_table(registry: MetricsRegistry, name: str,
                         unit: str = "s") -> str:
    """Per-series p50/p95/p99 table of histogram ``name``."""
    summaries = registry.histogram_summaries(name)
    if not summaries:
        return f"(no observations recorded under {name!r})"
    rendered = [
        f"{name} ({unit}):",
        f"  {'series':<40} {'count':>7} {'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}",
    ]
    for labels, summary in summaries:
        series = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        rendered.append(
            f"  {series:<40} {int(summary['count']):>7} "
            f"{summary['p50']:>10.6f} {summary['p95']:>10.6f} "
            f"{summary['p99']:>10.6f} {summary['max']:>10.6f}"
        )
    return "\n".join(rendered)
