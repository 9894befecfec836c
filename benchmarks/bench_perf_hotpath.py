#!/usr/bin/env python
"""Hot-path performance trajectory: indexed perf layer vs linear baseline.

Runs the three perf figures (PDP decide, publish fan-out, federated
request-for-details at 1/2/4/8 nodes) in both ``perf`` modes on identical
seeded work, checks decisions and audit trails are byte-identical between
the modes, and writes the ``css-bench-perf/1`` summary.  Usage::

    PYTHONPATH=src python benchmarks/bench_perf_hotpath.py \
        [--quick] [--nodes 1,2,4,8] [--out BENCH_perf.json]

``--quick`` scales every iteration count down for CI; the schema checker
(``benchmarks/check_bench.py``) validates the output either way and
fails the build if the indexed PDP-decide path is not at least as fast as
the baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __name__ == "__main__":  # allow running without an installed package
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.exceptions import ConfigurationError  # noqa: E402
from repro.obs.benchreport import write_summary  # noqa: E402
from repro.perf.bench import run_suite  # noqa: E402
from repro.workload.config import parse_node_counts  # noqa: E402


def _print_summary(payload: dict) -> None:
    def line(name: str, section: dict) -> None:
        indexed = section["indexed"]
        baseline = section["none"]
        print(f"{name:<24} indexed {indexed['ops_per_second']:>10.0f} ops/s "
              f"(p50 {indexed['latency_seconds']['p50'] * 1e6:>7.1f}us "
              f"p95 {indexed['latency_seconds']['p95'] * 1e6:>7.1f}us)   "
              f"none {baseline['ops_per_second']:>10.0f} ops/s "
              f"(p50 {baseline['latency_seconds']['p50'] * 1e6:>7.1f}us "
              f"p95 {baseline['latency_seconds']['p95'] * 1e6:>7.1f}us)   "
              f"speedup {section['speedup']:>6.2f}x")

    line("pdp.decide", payload["pdp_decide"])
    line("publish.fanout", payload["publish_fanout"])
    batch = payload["batch_publish"]
    baseline = batch["baseline"]
    print(f"{'publish.batch(off)':<24} "
          f"{baseline['ops_per_second']:>10.0f} ops/s "
          f"(per-op {baseline['per_op_seconds'] * 1e6:>7.1f}us)")
    for figure in batch["sweep"]:
        name = f"publish.batch@{figure['batch_size']}"
        print(f"{name:<24} "
              f"{figure['ops_per_second']:>10.0f} ops/s "
              f"(per-op {figure['per_op_seconds'] * 1e6:>7.1f}us)   "
              f"speedup {figure['speedup']:>6.2f}x")
    for point in payload["federated_details"]:
        line(f"federated.details@{point['nodes']}", point)
    equivalence = payload["equivalence"]
    print(f"equivalence: identical={equivalence['identical']} "
          f"({equivalence['audit_records']} audit records compared)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down iteration counts (CI)")
    parser.add_argument("--nodes", default="1,2,4,8",
                        help="comma-separated federation sizes (default 1,2,4,8)")
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--out", metavar="FILE",
                        help="write the summary JSON to FILE")
    args = parser.parse_args(argv)

    try:
        node_counts = parse_node_counts(args.nodes)
    except ConfigurationError as exc:
        print(f"bench_perf_hotpath: {exc}", file=sys.stderr)
        return 2

    payload = run_suite(
        quick=args.quick, node_counts=node_counts, seed=args.seed,
        source=f"benchmarks/bench_perf_hotpath.py --seed {args.seed}"
               + (" --quick" if args.quick else ""),
    )
    _print_summary(payload)

    if not payload["equivalence"]["identical"]:
        print("bench_perf_hotpath: indexed and none modes disagree — the "
              "perf layer changed a decision or an audit record",
              file=sys.stderr)
        return 1

    if args.out:
        print(f"wrote {write_summary(args.out, payload)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
