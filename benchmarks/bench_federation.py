#!/usr/bin/env python
"""Federation scaling benchmark: routing throughput at 1/2/4/8 nodes.

Runs the same seeded workload through :class:`CssScenario` at each
federation size and derives notification-routing throughput from the
simulated cost model: every node charges its :class:`WorkMeter` fixed
per-operation service times (publish, index store, relay, detail
resolution), the cluster makespan is the busiest node's total, and
throughput is ``events / makespan``.  Sharding the index and the
producer/consumer homes over more nodes shrinks the busiest node's
share, so throughput must rise monotonically with the node count — CI
checks exactly that through ``check_bench.py``.  Usage::

    PYTHONPATH=src python benchmarks/bench_federation.py \
        --nodes 1,2,4,8 --events 200 --out BENCH_federation.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without an installed package
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.exceptions import ConfigurationError  # noqa: E402
from repro.obs.benchreport import write_summary  # noqa: E402
from repro.sim.scenario import CssScenario, ScenarioConfig  # noqa: E402
from repro.workload.config import parse_node_counts  # noqa: E402

SCHEMA_ID = "css-bench-federation/1"


def run_point(nodes: int, events: int, patients: int, seed: int) -> dict:
    """One scaling point: build, run, and summarize an N-node federation."""
    started = time.perf_counter()
    scenario = CssScenario(ScenarioConfig(
        nodes=nodes, n_events=events, n_patients=patients, seed=seed,
    ))
    report = scenario.run()
    wall = time.perf_counter() - started
    return {
        "nodes": nodes,
        "events_published": report.events_published,
        "notifications_delivered": report.notifications_delivered,
        "detail_permits": report.detail_permits,
        "detail_denies": report.detail_denies,
        "cross_node_hops": report.cross_node_hops,
        "makespan_seconds": report.makespan_seconds,
        "events_per_simulated_second": report.routing_throughput,
        "wall_seconds": wall,
    }


def build_summary(points: list[dict], events: int, patients: int,
                  seed: int) -> dict:
    """The ``BENCH_federation.json`` payload."""
    return {
        "schema": SCHEMA_ID,
        "source": f"benchmarks/bench_federation.py --events {events} "
                  f"--patients {patients} --seed {seed}",
        "workload": {"events": events, "patients": patients, "seed": seed},
        "scaling": points,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", default="1,2,4,8",
                        help="comma-separated node counts (default 1,2,4,8)")
    parser.add_argument("--events", type=int, default=200)
    parser.add_argument("--patients", type=int, default=30)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--out", metavar="FILE",
                        help="write the summary JSON to FILE")
    args = parser.parse_args(argv)

    try:
        node_counts = parse_node_counts(args.nodes)
    except ConfigurationError as exc:
        print(f"bench_federation: {exc}", file=sys.stderr)
        return 2

    points = [
        run_point(count, args.events, args.patients, args.seed)
        for count in node_counts
    ]

    print(f"federation scaling ({args.events} events, {args.patients} "
          f"patients, seed {args.seed})")
    print(f"{'nodes':>5}  {'makespan':>9}  {'events/s':>9}  "
          f"{'hops':>6}  {'wall':>7}")
    for point in points:
        print(f"{point['nodes']:>5}  {point['makespan_seconds']:>8.3f}s  "
              f"{point['events_per_simulated_second']:>9.1f}  "
              f"{point['cross_node_hops']:>6}  "
              f"{point['wall_seconds']:>6.2f}s")

    throughputs = [point["events_per_simulated_second"] for point in points]
    if throughputs != sorted(throughputs) or len(set(throughputs)) != len(throughputs):
        print("bench_federation: throughput is not strictly increasing "
              "with the node count", file=sys.stderr)
        return 1
    print("throughput increases monotonically with the node count")

    if args.out:
        summary = build_summary(points, args.events, args.patients, args.seed)
        write_summary(args.out, summary)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
