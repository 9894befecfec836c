"""The ``BENCH_obs.json`` summary format.

One schema, two writers: the benchmark harness (``benchmarks/conftest.py``
summarises every pytest-benchmark figure run) and the ``repro telemetry``
CLI (summarises a scenario's pipeline histograms).  CI schema-checks the
file with ``benchmarks/check_bench.py`` so the perf trajectory stays
machine-readable from the first PR that emits it.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Schema identifier all writers stamp and the checker requires.
#: /2 adds the optional ``slo`` and ``stitched_trace`` sections.
SCHEMA_ID = "css-bench-obs/2"

#: The latency keys every benchmark entry must carry.
LATENCY_KEYS = ("p50", "p95", "p99", "mean", "min", "max")


def latency_summary(sorted_seconds: list[float]) -> dict[str, float]:
    """p50/p95/p99 + mean/min/max from pre-sorted raw timings.

    Degenerate series are exact: empty input reports all-zero, a single
    observation reports the lone value at every key.
    """
    if not sorted_seconds:
        return {key: 0.0 for key in LATENCY_KEYS}
    if len(sorted_seconds) == 1:
        return {key: sorted_seconds[0] for key in LATENCY_KEYS}

    def pct(q: float) -> float:
        index = min(len(sorted_seconds) - 1, int(q * len(sorted_seconds)))
        return sorted_seconds[index]

    return {
        "p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99),
        "mean": sum(sorted_seconds) / len(sorted_seconds),
        "min": sorted_seconds[0], "max": sorted_seconds[-1],
    }


def benchmark_entry(name: str, figure: str, ops_per_second: float,
                    latency: dict[str, float]) -> dict:
    """One well-formed ``benchmarks[]`` entry."""
    return {
        "name": name,
        "figure": figure,
        "ops_per_second": ops_per_second,
        "latency_seconds": {key: float(latency.get(key, 0.0))
                            for key in LATENCY_KEYS},
    }


def scenario_summary(telemetry, source: str, slo_report=None,
                     stitched=None) -> dict:
    """Summarise an :class:`~repro.obs.telemetry.InMemoryTelemetry` run.

    One entry per pipeline (simulated-clock latencies); throughput is
    executions over elapsed simulated time.  ``slo_report`` (an
    :class:`~repro.obs.slo.SLOReport`) and ``stitched`` (the
    :func:`~repro.obs.stitch.stitch_summary` dict) fill the optional
    schema-/2 sections.
    """
    from repro.obs.telemetry import PIPELINE_DURATION

    elapsed = max(telemetry.clock.now(), 1e-9)
    entries = []
    for labels, summary in telemetry.metrics.histogram_summaries(PIPELINE_DURATION):
        pipeline = labels.get("pipeline", "?")
        entries.append(benchmark_entry(
            name=f"pipeline.{pipeline}",
            figure="scenario",
            ops_per_second=summary["count"] / elapsed,
            latency=summary,
        ))
    counters = {
        f"{row['name']}{{{','.join(f'{k}={v}' for k, v in sorted(row['labels'].items()))}}}":
            row["value"]
        for row in telemetry.metrics.snapshot()
        if row["type"] == "counter"
    }
    summary = {
        "schema": SCHEMA_ID,
        "source": source,
        "benchmarks": entries,
        "counters": counters,
    }
    if slo_report is not None:
        summary["slo"] = slo_report.to_payload()
    if stitched is not None:
        summary["stitched_trace"] = dict(stitched)
    return summary


def write_summary(path: str | Path, payload: dict) -> Path:
    """Write a summary as stable, human-diffable JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
