#!/usr/bin/env python
"""Batched-execution trajectory: group commit + coalesced frames vs off.

Runs the batch equivalence matrix (batch sizes 1/16/256 x node counts x
both durable store kinds) on the seeded capacity workload, checks that
every batched arm reproduces the unbatched arm's audit-chain digest and
PDP decision stream bit-for-bit, and writes the ``css-bench-batch/1``
summary with the speedup figures CI gates on.  Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py \
        [--full] [--nodes 1,2,4,8] [--out BENCH_batch.json]

The default is the quick CI sizing; ``--full`` runs the larger workload.
``benchmarks/check_bench.py`` validates the output and fails the
build on a broken equivalence or a speedup below the 1.3x floor.
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
from repro.workload.batch import run_batch_suite  # noqa: E402
from repro.workload.config import parse_node_counts  # noqa: E402


def _print_summary(payload: dict) -> None:
    equivalence = payload["equivalence"]
    print(f"equivalence: identical={equivalence['identical']} "
          f"({len(equivalence['checks'])} matrix cells: "
          f"batch sizes x nodes x store kinds)")
    for figure in payload["speedup"]["batch_sweep"]:
        name = f"capacity.batch@{figure['batch_size']}"
        print(f"{name:<22} {figure['events_per_second']:>9.1f} events/s   "
              f"speedup {figure['speedup']:>5.2f}x")
    for figure in payload["speedup"]["nodes"]:
        name = f"capacity@{figure['nodes']}nodes"
        print(f"{name:<22} off {figure['baseline_events_per_second']:>9.1f} "
              f"events/s   on(256) {figure['batched_events_per_second']:>9.1f} "
              f"events/s   speedup {figure['speedup']:>5.2f}x")
    print(f"min speedup at batch_size=256: "
          f"{payload['speedup']['min_speedup_at_256']:.2f}x "
          f"(floor {payload['speedup']['floor']:.1f}x)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="full workload sizing (default: quick, CI-sized)")
    parser.add_argument("--nodes", default="1,2,4,8",
                        help="comma-separated federation sizes (default 1,2,4,8)")
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--out", metavar="FILE",
                        help="write the summary JSON to FILE")
    args = parser.parse_args(argv)

    try:
        node_counts = parse_node_counts(args.nodes)
    except ConfigurationError as exc:
        print(f"bench_batch: {exc}", file=sys.stderr)
        return 2

    payload = run_batch_suite(
        quick=not args.full, node_counts=node_counts, seed=args.seed,
        source=f"benchmarks/bench_batch.py --seed {args.seed}"
               + (" --full" if args.full else ""),
    )
    _print_summary(payload)

    if not payload["equivalence"]["identical"]:
        print("bench_batch: batched and unbatched runs disagree — batching "
              "changed an audit digest or a PDP decision",
              file=sys.stderr)
        return 1

    if args.out:
        print(f"wrote {write_summary(args.out, payload)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
