#!/usr/bin/env python
"""Flight-recorder overhead benchmark: recorder off vs recorder on.

Runs the abusive-tenant ``anomaly`` workload twice through the same
seeded federation — once with ``recorder="noop"`` (no rings, no
time-series store, no watchdogs) and once fully watched
(``recorder="ring"``: rings recording every span and bus
event, the time-series store ticking, the SLO engine evaluating burn
windows, the incident monitor polling) — and emits the
``css-bench-incident/1`` payload.

Two gates, both enforced by exit code:

* **overhead**: the watched arm's median wall time must stay within
  ``--max-overhead-pct`` (default 5 %) of the baseline's.  Reps are
  alternating pairs (noop, ring, noop, ring, …) and each arm reports the
  median of its runs, so machine noise hits both arms alike.  The
  collector is held out of both timed arms: a full collection before
  each run, none during it, so where a collection happens to fall
  cannot decide the reading.  The absolute cost (median ring − median
  noop seconds) is printed beside the ratio;
* **observer effect**: both arms must report bit-for-bit identical
  simulated outcomes (published / blocked / permits / denies /
  subscribes and the simulated clock) — observability must never change
  a decision;

and the watched arm must actually capture an incident, otherwise the
overhead figure measured nothing interesting.  Usage::

    PYTHONPATH=src python benchmarks/bench_incident_overhead.py \
        --scenario anomaly --reps 3 --out BENCH_incident.json
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without an installed package
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.obs.benchreport import write_summary  # noqa: E402
from repro.workload.config import workload_config  # noqa: E402
from repro.workload.incidents import run_incident_capture  # noqa: E402

#: Schema identifier the overhead payload stamps and CI gates on.
SCHEMA_ID = "css-bench-incident/1"

#: The simulated outcomes both arms must reproduce identically.
OUTCOME_KEYS = (
    "published", "publish_blocked", "detail_permits", "detail_denies",
    "subscribe_ops", "simulated_seconds",
)


def _timed_run(workload, arm: str, source: str, kwargs: dict):
    """One run of ``arm`` with the collector held out: collected before,
    disabled during.  Returns the payload and its wall seconds."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        payload = run_incident_capture(
            workload, recorder=arm, source=source, **kwargs)
        return payload, time.perf_counter() - started
    finally:
        gc.enable()


def run_overhead(
    workload,
    nodes: int | None = None,
    reps: int = 3,
    source: str = "benchmarks/bench_incident_overhead.py",
) -> dict:
    """Median wall time of each arm over ``reps`` alternating pairs."""
    kwargs: dict[str, object] = {}
    if nodes is not None:
        kwargs["nodes"] = nodes
    walls: dict[str, list[float]] = {"noop": [], "ring": []}
    payloads: dict[str, dict] = {}
    # One discarded warmup run so import costs, allocator growth and
    # branch-predictor warmup land on neither measured arm.
    run_incident_capture(workload, recorder="noop", source=source, **kwargs)
    for _ in range(reps):
        for arm in ("noop", "ring"):
            payload, elapsed = _timed_run(workload, arm, source, kwargs)
            walls[arm].append(elapsed)
            previous = payloads.setdefault(arm, payload)
            for key in OUTCOME_KEYS:
                if previous[key] != payload[key]:
                    raise AssertionError(
                        f"{arm} arm not deterministic: {key} changed "
                        f"between reps ({previous[key]!r} vs {payload[key]!r})"
                    )
    median = {arm: statistics.median(runs) for arm, runs in walls.items()}
    noop, ring = payloads["noop"], payloads["ring"]
    overhead_pct = (median["ring"] - median["noop"]) / median["noop"] * 100.0
    arms = {}
    for arm, payload in (("noop", noop), ("ring", ring)):
        arms[arm] = {
            "recorder": arm,
            **{key: payload[key] for key in OUTCOME_KEYS},
            "wall_seconds": median[arm],
            "wall_ops_per_second": payload["ops"] / median[arm],
            "ticks": payload["ticks"],
            "timeline_rows": len(payload["timeline"]),
            "incidents": len(payload["incidents"]),
        }
    incident = ring["incidents"][0] if ring["incidents"] else None
    return {
        "schema": SCHEMA_ID,
        "source": source,
        "scenario": workload.scenario,
        "seed": workload.seed,
        "population": workload.population,
        "ops": workload.ops,
        "nodes": nodes if nodes is not None else noop["nodes"],
        "reps": reps,
        "arms": arms,
        "overhead_pct": overhead_pct,
        "trigger": incident["trigger"] if incident else None,
    }


def overhead_gate(payload: dict, max_overhead_pct: float) -> list[str]:
    """The acceptance gate; every problem as a human-readable string."""
    problems: list[str] = []
    noop, ring = payload["arms"]["noop"], payload["arms"]["ring"]
    if payload["overhead_pct"] > max_overhead_pct:
        problems.append(
            f"recorder overhead {payload['overhead_pct']:.2f}% "
            f"({ring['wall_seconds'] - noop['wall_seconds']:+.3f}s) exceeds "
            f"the {max_overhead_pct:.1f}% budget "
            f"(median noop {noop['wall_seconds']:.3f}s vs "
            f"ring {ring['wall_seconds']:.3f}s)"
        )
    for key in OUTCOME_KEYS:
        if noop[key] != ring[key]:
            problems.append(
                f"observer effect: {key} differs between arms "
                f"({noop[key]!r} vs {ring[key]!r})"
            )
    if ring["incidents"] < 1:
        problems.append(
            "the watched arm captured no incident — the overhead figure "
            "measured an idle recorder"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="anomaly",
                        help="workload scenario preset (default: anomaly)")
    parser.add_argument("--population", type=int, default=4000)
    parser.add_argument("--ops", type=int, default=5000)
    parser.add_argument("--nodes", type=int, default=None,
                        help="federation size (default 2)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--reps", type=int, default=3,
                        help="alternating noop/ring pairs (default 3; "
                             "each arm reports its median wall time)")
    parser.add_argument("--max-overhead-pct", type=float, default=5.0,
                        help="wall-time overhead budget of the watched arm "
                             "(default 5.0)")
    parser.add_argument("--out", default=None,
                        help="write the css-bench-incident/1 payload here")
    args = parser.parse_args(argv)

    overrides: dict[str, object] = {
        "population": args.population, "ops": args.ops,
    }
    if args.seed is not None:
        overrides["seed"] = args.seed
    workload = workload_config(args.scenario, **overrides)

    payload = run_overhead(workload, nodes=args.nodes, reps=args.reps)

    noop, ring = payload["arms"]["noop"], payload["arms"]["ring"]
    print(f"recorder overhead ({args.scenario}, {args.ops} ops, "
          f"{payload['nodes']} nodes, seed {workload.seed}, "
          f"median of {args.reps} pairs, collector held out):")
    for arm, point in (("noop", noop), ("ring", ring)):
        print(f"  {arm:>5}  wall={point['wall_seconds']:>7.3f}s  "
              f"ops/s={point['wall_ops_per_second']:>8.1f}  "
              f"ticks={point['ticks']:>4}  incidents={point['incidents']}")
    print(f"  overhead {payload['overhead_pct']:+.2f}% "
          f"({ring['wall_seconds'] - noop['wall_seconds']:+.3f}s; "
          f"budget {args.max_overhead_pct:.1f}%)")
    if payload["trigger"] is not None:
        print(f"  trigger {payload['trigger']['kind']} "
              f"at t={payload['trigger']['at']:.3f}s")

    if args.out:
        write_summary(args.out, payload)
        print(f"wrote {args.out}")

    problems = overhead_gate(payload, args.max_overhead_pct)
    if problems:
        for problem in problems:
            print(f"bench_incident_overhead: {problem}", file=sys.stderr)
        return 1
    print("recorder stays inside the overhead budget; decisions unchanged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
