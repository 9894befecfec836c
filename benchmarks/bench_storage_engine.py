#!/usr/bin/env python
"""Storage-engine benchmark: a flat JSONL file vs the segmented engine.

Extends ``bench_storage_archive.py`` (platform snapshot figures) down to
the raw durable-log layer: for each point size this script measures, per
kind — ``jsonl``, a bare :class:`~repro.storage.jsonl.JsonlFile` (the
reference a log format is measured against), and ``segmented``, the
engine every durable node runs on —

* **ingest rate** — batched appends into a fresh log (events/second);
* **recovery time** — closing and reopening the log (torn-tail scan and
  record count) plus one full streaming iteration;
* **recovery peak memory** — ``tracemalloc`` peak during that replay,
  which must stay bounded (streaming readers, never a whole-log list);
* **on-disk size** — before and, for the segmented kind, after
  compaction.  The workload is the events index's own: the seven-field
  rows ``core/index.py::sealed_fields`` builds, a fixed share of them
  then withdrawn by a tombstone, as a rehome does; compaction drops the
  tombstones and the rows they hide.

A final equivalence section reruns one small scenario in memory and
durable and asserts the same audit head — the same invariant the unit
suite pins, kept visible in the benchmark payload.

Output (``--out BENCH_storage.json``) follows schema
``css-bench-storage/2`` and is validated by ``check_bench.py``
in CI.  ``--quick`` benches the 10k point only; the full run adds 100k.

Usage::

    python benchmarks/bench_storage_engine.py --quick --out BENCH_storage.json
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

SCHEMA_ID = "css-bench-storage/2"
QUICK_POINTS = (10_000,)
FULL_POINTS = (10_000, 100_000)
BATCH = 500
#: Every ``TOMBSTONE_EVERY``-th record withdraws the entry stored just
#: before it, so compaction has a fixed share of the log to reclaim.
TOMBSTONE_EVERY = 4


def _record(i: int) -> dict:
    from repro.core.index import SealedIdentity, sealed_fields
    from repro.core.messages import NotificationMessage

    if i % TOMBSTONE_EVERY == TOMBSTONE_EVERY - 1:
        return {"tombstone": True, "object_id": f"ev-{i - 1:06d}"}
    sealed = f"v1:{i:0128x}"  # a sealed token's length, not its bytes
    return sealed_fields(NotificationMessage(
        event_id=f"ev-{i:06d}", event_type=f"type-{i % 7}",
        producer_id=f"producer-{i % 5}", occurred_at=i * 0.5,
        summary=f"notification {i}", subject_ref="subject"),
        SealedIdentity(subject_ref=sealed, subject_display=sealed))


def _ingest(log, records: list[dict]) -> float:
    started = time.perf_counter()
    for first in range(0, len(records), BATCH):
        log.append_many(records[first:first + BATCH])
    return time.perf_counter() - started


def _replay(open_log) -> tuple[float, int, int]:
    """(seconds, peak KiB, records) for reopening and streaming a log."""
    tracemalloc.start()
    started = time.perf_counter()
    log = open_log()
    records = sum(1 for _ in log.iter_records())
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak // 1024, records


def _dir_size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _bench_point(base: Path, n_events: int) -> dict:
    from repro.storage import JsonlFile, SegmentedLog, StorageEngine

    point: dict = {"events": n_events, "kinds": {}}
    records = [_record(i) for i in range(n_events)]

    jsonl_dir = base / f"jsonl-{n_events}"
    jsonl_dir.mkdir(parents=True)
    jsonl_path = jsonl_dir / "index.jsonl"
    ingest_s = _ingest(JsonlFile(jsonl_path), records)
    recovery_s, peak_kb, replayed = _replay(lambda: JsonlFile(jsonl_path))
    assert replayed == n_events
    point["kinds"]["jsonl"] = {
        "wall_ingest_events_per_second": n_events / ingest_s,
        "recovery_seconds": recovery_s,
        "recovery_peak_kb": peak_kb,
        "size_bytes": _dir_size(jsonl_dir),
    }

    seg_dir = base / f"segmented-{n_events}"
    engine = StorageEngine(seg_dir)
    ingest_s = _ingest(engine.log("index"), records)
    recovery_s, peak_kb, replayed = _replay(
        lambda: SegmentedLog(seg_dir / "index"))
    assert replayed == n_events
    size_before = _dir_size(seg_dir)
    report = StorageEngine(seg_dir).compact("index")
    point["kinds"]["segmented"] = {
        "wall_ingest_events_per_second": n_events / ingest_s,
        "recovery_seconds": recovery_s,
        "recovery_peak_kb": peak_kb,
        "size_bytes": size_before,
        "post_compaction_bytes": _dir_size(seg_dir),
        "segments": report.segments_before,
    }
    point["compaction"] = {
        "records_before": report.records_before,
        "records_after": report.records_after,
        "bytes_reclaimed": report.bytes_reclaimed,
    }
    return point


def _equivalence(base: Path) -> dict:
    from repro.runtime.kernel import RuntimeConfig
    from repro.sim.scenario import CssScenario, ScenarioConfig

    heads = {}
    records = 0
    for arm, data_dir in (("memory", None), ("durable", base / "equiv")):
        scenario = CssScenario(ScenarioConfig(
            n_patients=10, n_events=60, seed=5,
            runtime=RuntimeConfig(data_dir=data_dir)))
        scenario.run(scenario.generate_workload())
        heads[arm] = scenario.controller.audit_log.head_digest
        records = len(scenario.controller.audit_log)
    return {
        "identical": heads["memory"] == heads["durable"],
        "audit_records": records,
    }


def run_suite(workdir: Path, quick: bool, source: str) -> dict:
    points = [
        _bench_point(workdir, n)
        for n in (QUICK_POINTS if quick else FULL_POINTS)
    ]
    return {
        "schema": SCHEMA_ID,
        "source": source,
        "quick": quick,
        "points": points,
        "equivalence": _equivalence(workdir),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="bench the 10k point only (CI-sized)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the css-bench-storage/2 payload to FILE")
    parser.add_argument("--workdir", metavar="DIR",
                        help="scratch directory (default: a temp dir, removed "
                             "afterwards)")
    args = parser.parse_args(argv)

    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        cleanup = False
    else:
        import tempfile

        workdir = Path(tempfile.mkdtemp(prefix="bench-storage-"))
        cleanup = True
    try:
        payload = run_suite(
            workdir, quick=args.quick,
            source="bench_storage_engine.py "
                   + ("--quick" if args.quick else "--full"),
        )
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)

    for point in payload["points"]:
        for kind, entry in point["kinds"].items():
            line = (f"{point['events']:>7} events  {kind:<9} "
                    f"ingest {entry['wall_ingest_events_per_second']:>9.0f} ev/s  "
                    f"recovery {entry['recovery_seconds'] * 1000:>7.1f} ms "
                    f"(peak {entry['recovery_peak_kb']} KiB)  "
                    f"size {entry['size_bytes']}")
            if "post_compaction_bytes" in entry:
                line += f" -> {entry['post_compaction_bytes']} compacted"
            print(line)
    equivalence = payload["equivalence"]
    print(f"equivalence: identical={equivalence['identical']} "
          f"({equivalence['audit_records']} audit records)")
    if args.out:
        from repro.obs.benchreport import write_summary

        write_summary(args.out, payload)
        print(f"wrote {args.out}")
    return 0 if equivalence["identical"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main())
