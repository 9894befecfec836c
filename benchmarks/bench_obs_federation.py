#!/usr/bin/env python
"""Trace-propagation overhead benchmark at 1/2/4/8 federation nodes.

Runs the same seeded workload twice per node count — once bare (no
telemetry) and once with per-node telemetry, where every cross-node wire
message carries a :class:`~repro.obs.context.TraceContext` and each node
records its own span export — then reports the wall-clock overhead ratio
alongside the stitched-trace figures (traces, spans, how many traces
genuinely cross nodes).  The simulated figures are seed-deterministic;
only the wall times vary run to run, so no monotonicity is asserted.
Usage::

    PYTHONPATH=src python benchmarks/bench_obs_federation.py \
        --nodes 1,2,4,8 --events 200 --out BENCH_obs_federation.json
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
from repro.obs.stitch import stitch_summary  # noqa: E402
from repro.runtime.kernel import RuntimeConfig  # noqa: E402
from repro.sim.scenario import CssScenario, ScenarioConfig  # noqa: E402
from repro.workload.config import parse_node_counts  # noqa: E402

SCHEMA_ID = "css-bench-obs-federation/1"


def _run(nodes: int, events: int, patients: int, seed: int,
         traced: bool) -> tuple[float, CssScenario]:
    """One run; returns (wall seconds, the finished scenario)."""
    config = ScenarioConfig(
        nodes=nodes, n_events=events, n_patients=patients, seed=seed,
        per_node_telemetry=traced,
        runtime=RuntimeConfig(telemetry="inmemory" if traced else "noop"),
    )
    started = time.perf_counter()
    scenario = CssScenario(config)
    scenario.run()
    return time.perf_counter() - started, scenario


def run_point(nodes: int, events: int, patients: int, seed: int) -> dict:
    """One scaling point: bare vs traced run of the same workload."""
    bare_wall, _ = _run(nodes, events, patients, seed, traced=False)
    traced_wall, scenario = _run(nodes, events, patients, seed, traced=True)
    traces = scenario.platform.stitched_trace()
    summary = stitch_summary(traces)
    wire_bytes = sum(
        link.stats.bytes_carried for link in scenario.platform.membership.links()
    )
    return {
        "nodes": nodes,
        "bare_wall_seconds": bare_wall,
        "traced_wall_seconds": traced_wall,
        "overhead_ratio": (traced_wall / bare_wall) if bare_wall > 0 else 0.0,
        "cross_node_hops": scenario.platform.total_hops(),
        "wire_bytes": wire_bytes,
        "stitched": summary,
    }


def build_summary(points: list[dict], events: int, patients: int,
                  seed: int) -> dict:
    """The ``BENCH_obs_federation.json`` payload."""
    return {
        "schema": SCHEMA_ID,
        "source": f"benchmarks/bench_obs_federation.py --events {events} "
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
        print(f"bench_obs_federation: {exc}", file=sys.stderr)
        return 2

    points = [
        run_point(count, args.events, args.patients, args.seed)
        for count in node_counts
    ]

    print(f"trace propagation overhead ({args.events} events, "
          f"{args.patients} patients, seed {args.seed})")
    print(f"{'nodes':>5}  {'bare':>7}  {'traced':>7}  {'ovh':>5}  "
          f"{'traces':>6}  {'spans':>6}  {'x-node':>6}  {'orphans':>7}")
    for point in points:
        stitched = point["stitched"]
        print(f"{point['nodes']:>5}  {point['bare_wall_seconds']:>6.2f}s  "
              f"{point['traced_wall_seconds']:>6.2f}s  "
              f"{point['overhead_ratio']:>4.1f}x  "
              f"{stitched['traces']:>6}  {stitched['spans']:>6}  "
              f"{stitched['cross_node_traces']:>6}  "
              f"{stitched['orphan_spans']:>7}")

    # A stitched trace with orphan spans means a context was lost on the
    # wire — that is a propagation bug, not a tuning matter.
    orphans = sum(point["stitched"]["orphan_spans"] for point in points)
    if orphans:
        print(f"bench_obs_federation: {orphans} orphan spans — trace "
              "context was lost crossing a link", file=sys.stderr)
        return 1
    print("every span parented: no trace context lost on any link")

    if args.out:
        summary = build_summary(points, args.events, args.patients, args.seed)
        write_summary(args.out, summary)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
