#!/usr/bin/env python
"""Fair-scheduling benchmark: ``sched=none`` vs ``sched=fair``.

Runs the abusive-tenant ``anomaly`` workload twice through the same
seeded federation — once with the fifo baseline scheduler, once with the
deficit-round-robin fair scheduler — and emits the
``css-bench-fairness/1`` comparison payload (per-tenant shares, Jain's
fairness index over the weighted max-min reference, victim p99 wait and
starvation, throttle/shed counters, audit digests).

The script enforces the PR's acceptance gate and exits non-zero when it
fails: the fair arm must score strictly higher on Jain's index *and* on
the victim tenant's demand-satisfaction share, while both arms reproduce
bit-for-bit identical audit digests (the scheduler shapes shares, never
decisions).  Usage::

    PYTHONPATH=src python benchmarks/bench_fairness.py \
        --scenario anomaly --population 4000 --ops 600 --nodes 2 \
        --out BENCH_fairness.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __name__ == "__main__":  # allow running without an installed package
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.obs.benchreport import write_summary  # noqa: E402
from repro.sched.fairness import (  # noqa: E402
    DEFAULT_DRAIN_SECONDS,
    DEFAULT_NODES,
    DEFAULT_SERVICE_RATE,
    fairness_gate,
    run_fairness,
)
from repro.workload.config import workload_config  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="anomaly",
                        help="workload scenario preset (default: anomaly)")
    parser.add_argument("--population", type=int, default=4000)
    parser.add_argument("--ops", type=int, default=600)
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--service-rate", type=float,
                        default=DEFAULT_SERVICE_RATE,
                        help="virtual-server work-seconds per simulated "
                             "second per node")
    parser.add_argument("--drain-seconds", type=float,
                        default=DEFAULT_DRAIN_SECONDS)
    parser.add_argument("--out", default=None,
                        help="write the css-bench-fairness/1 payload here")
    args = parser.parse_args(argv)

    overrides: dict[str, object] = {
        "population": args.population, "ops": args.ops,
    }
    if args.seed is not None:
        overrides["seed"] = args.seed
    workload = workload_config(args.scenario, **overrides)

    payload = run_fairness(
        workload,
        nodes=args.nodes,
        source="benchmarks/bench_fairness.py",
        drain_seconds=args.drain_seconds,
        service_rate=args.service_rate,
    )

    print(f"fairness comparison ({args.scenario}, {args.ops} ops, "
          f"{args.nodes} nodes, seed {workload.seed})")
    print(f"{'sched':>6}  {'jain':>7}  {'victim':>7}  {'p99 wait':>9}  "
          f"{'throttled':>9}  {'shed':>5}")
    for arm in ("none", "fair"):
        point = payload["arms"][arm]
        print(f"{arm:>6}  {point['jain_index']:>7.4f}  "
              f"{point['victim_share']:>7.4f}  "
              f"{point['victim_p99_wait_seconds']:>8.3f}s  "
              f"{point['throttled_total']:>9}  {point['shed_total']:>5}")
    print(f"audit digests {'match' if payload['audit_digest_match'] else 'DIFFER'}")

    if args.out:
        write_summary(args.out, payload)
        print(f"wrote {args.out}")

    problems = fairness_gate(payload)
    if problems:
        for problem in problems:
            print(f"bench_fairness: {problem}", file=sys.stderr)
        return 1
    print("fair beats none on Jain's index and victim share; "
          "decisions unchanged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
