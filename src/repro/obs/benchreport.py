"""The ``BENCH_obs.json`` summary format.

One writer: the ``repro telemetry`` CLI summarises a scenario's counters
(per-pipeline executions are ``pipeline.invocations_total``).  The
summary carries no rate or latency: speed is the wall-clock ledger's
(``benchmarks/wall/``).  CI schema-checks the file with
``benchmarks/check_bench.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Schema identifier the writer stamps and the checker requires.
#: /3 drops the ``benchmarks[]`` rates and latencies of simulated time.
SCHEMA_ID = "css-bench-obs/3"


def scenario_summary(telemetry, source: str, slo_report=None,
                     stitched=None) -> dict:
    """Summarise an :class:`~repro.obs.telemetry.InMemoryTelemetry` run.

    ``slo_report`` (an :class:`~repro.obs.slo.SLOReport`) and ``stitched``
    (the :func:`~repro.obs.stitch.stitch_summary` dict) fill the optional
    sections.
    """
    counters = {
        f"{row['name']}{{{','.join(f'{k}={v}' for k, v in sorted(row['labels'].items()))}}}":
            row["value"]
        for row in telemetry.metrics.snapshot()
        if row["type"] == "counter"
    }
    summary = {"schema": SCHEMA_ID, "source": source, "counters": counters}
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
