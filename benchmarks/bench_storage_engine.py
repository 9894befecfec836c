#!/usr/bin/env python
"""Storage-engine benchmark: jsonl baseline vs the segmented engine.

Extends ``bench_storage_archive.py`` (platform snapshot figures) down to
the raw durable-log layer: for each point size this script measures, per
store kind,

* **ingest rate** — batched appends into a fresh log (events/second);
* **recovery time** — closing and reopening the log (torn-tail scan,
  sparse-index rebuild) plus one full streaming iteration;
* **recovery peak memory** — ``tracemalloc`` peak during that replay,
  which must stay bounded (streaming readers, never ``read_all()``);
* **on-disk size** — before and, for the segmented kind, after
  compaction of a workload where most records supersede earlier ones.

A final equivalence section reruns one small scenario on both store
kinds and asserts byte-identical audit trails — the same invariant the
unit suite pins, kept visible in the benchmark payload.

Output (``--out BENCH_storage.json``) follows schema
``css-bench-storage/1`` and is validated by ``check_bench.py``
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

SCHEMA_ID = "css-bench-storage/1"
QUICK_POINTS = (10_000,)
FULL_POINTS = (10_000, 100_000)
BATCH = 500
#: Distinct object ids in the ingest workload — every later record for an
#: object supersedes the earlier ones, so compaction has space to reclaim.
DISTINCT_OBJECTS = 200


def _record(i: int) -> dict:
    return {
        "object_id": f"ev-{i % DISTINCT_OBJECTS:06d}",
        "object_type": "ExtrinsicObject",
        "status": "submitted",
        "name": f"notification {i}",
        "slots": {"eventType": [f"type-{i % 7}"], "sealed": ["0" * 64]},
        "sequence": i + 1,
    }


def _ingest(log, n_events: int) -> float:
    started = time.perf_counter()
    batch: list[dict] = []
    for i in range(n_events):
        batch.append(_record(i))
        if len(batch) >= BATCH:
            log.append_many(batch)
            batch = []
    if batch:
        log.append_many(batch)
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
    from repro.storage import JsonlRecordLog, SegmentedLog, StorageEngine

    point: dict = {"events": n_events, "kinds": {}}

    jsonl_dir = base / f"jsonl-{n_events}"
    jsonl_dir.mkdir(parents=True)
    jsonl_path = jsonl_dir / "index.jsonl"
    ingest_s = _ingest(JsonlRecordLog(jsonl_path), n_events)
    recovery_s, peak_kb, records = _replay(lambda: JsonlRecordLog(jsonl_path))
    assert records == n_events
    point["kinds"]["jsonl"] = {
        "ingest_events_per_second": n_events / ingest_s,
        "recovery_seconds": recovery_s,
        "recovery_peak_kb": peak_kb,
        "size_bytes": _dir_size(jsonl_dir),
    }

    seg_dir = base / f"segmented-{n_events}"
    engine = StorageEngine(seg_dir)
    ingest_s = _ingest(engine.log("index"), n_events)
    recovery_s, peak_kb, records = _replay(
        lambda: SegmentedLog(seg_dir / "index"))
    assert records == n_events
    size_before = _dir_size(seg_dir)
    report = StorageEngine(seg_dir).compact("index")
    point["kinds"]["segmented"] = {
        "ingest_events_per_second": n_events / ingest_s,
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
    for store in ("jsonl", "segmented"):
        runtime = RuntimeConfig(store=store, data_dir=base / f"equiv-{store}")
        scenario = CssScenario(ScenarioConfig(
            n_patients=10, n_events=60, seed=5, runtime=runtime))
        scenario.run(scenario.generate_workload())
        heads[store] = scenario.controller.audit_log.head_digest
        records = len(scenario.controller.audit_log)
    return {
        "identical": heads["jsonl"] == heads["segmented"],
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
                        help="write the css-bench-storage/1 payload to FILE")
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
                    f"ingest {entry['ingest_events_per_second']:>9.0f} ev/s  "
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
