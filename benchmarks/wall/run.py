"""The wall-clock performance ledger of the CSS platform — one command.

Two ways in:

* ``python3 benchmarks/wall/run.py`` — the full ledger: every workload,
  ``--repeats`` units each, interleaved round-robin, one fresh child
  process per unit and never two at once.  Prints every end-to-end metric
  by name with unit, direction, bound, quartiles and sample count, checks
  the outputs, and writes ``out/BENCH_wall.json`` (all ``wall_seconds``,
  at reference host speed: see ``calibration.py``).
  ``--trace`` adds one traced unit per workload and the per-layer table.
* ``python3 benchmarks/wall/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload for the benchmark driver; the last line of
  standard output is the result object of ``BENCHMARK.json``'s contract.

The platform is a synchronous single-process library, so the load is a
closed loop of one client on one thread; see README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from catalogue import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, FULL_UNITS, GATED, MIN_UNITS, PER_LAYER,
    UNIT_SECONDS, WALL_FACTOR, WORKLOADS, percentile, quartiles,
)

OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"
DIGESTS = ("plan_digest", "audit_digest", "decision_digest")
#: Longest a single child may take before the run is abandoned.
CHILD_TIMEOUT_S = 150
#: Op counts of ``--smoke`` (all four workloads, traced, well under 30 s).
SMOKE_OPS = 1200

_data_dirs = itertools.count()


def run_child(workload: str, seed: int, repeat_index: int, *,
              trace: bool = False, telemetry: bool = True,
              recover: bool = True, verify_passes: int = 3,
              ops: int | None = None, trace_out: Path | None = None) -> dict:
    """One unit in a fresh process; returns the child's result object."""
    data_dir = OUT / f"data-{os.getpid()}-{next(_data_dirs)}"
    command = [
        sys.executable, str(HERE / "driver.py"), "--workload", workload,
        "--seed", str(seed), "--repeat-index", str(repeat_index),
        "--trace", str(int(trace)),
        "--telemetry", "on" if telemetry else "off",
        "--recover", str(int(recover)),
        "--verify-passes", str(verify_passes),
        "--data-dir", str(data_dir),
    ]
    if ops is not None:
        command += ["--ops", str(ops)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    # One hash seed for every unit, so that an op does the same work, dict
    # and set order included, in each repeat it is compared across.
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"unit {workload}#{repeat_index} failed "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


# -- metrics of one unit, summary over units ---------------------------------


def at_reference_speed(unit: dict) -> dict:
    """``unit`` with every timing divided by its phase's speed factor.

    The host's speed moves by up to 2x for minutes at a time; the unit read
    it while it measured (``calibration.py``).  What comes out is what the
    unit would have timed on a host that runs the calibration slice in
    ``REFERENCE_SLICE_MS`` throughout.
    """
    speed = unit["speed"]
    window = speed["window"]

    def scaled(key: str) -> list[float]:
        return [value / window for value in unit[key]]

    return {
        **unit,
        "setup_s": unit["setup_s"] / speed["setup"],
        "publish_ms": scaled("publish_ms"),
        "details_ms": scaled("details_ms"),
        "lap_ms": scaled("lap_ms"),
        "cpu_lap_ms": scaled("cpu_lap_ms"),
        **{key: unit[key] / window for key in (
            "window_s", "barrier_s", "cpu_s", "barrier_cpu_s")},
        "verify_s": [seconds / factor for seconds, factor
                     in zip(unit["verify_s"], speed["verify"])],
        "recover_s": (None if unit["recover_s"] is None
                      else unit["recover_s"] / speed["recover"]),
    }


def unit_metrics(unit: dict) -> dict[str, float]:
    """Every end-to-end metric of one unit."""
    publish = sorted(unit["publish_ms"])
    details = sorted(unit["details_ms"])
    return {
        "setup_s": unit["setup_s"],
        "ops_per_s": unit["ops_timed"] / unit["window_s"],
        "publish_per_s": len(publish) / (sum(publish) / 1000.0),
        "details_per_s": len(details) / (sum(details) / 1000.0),
        "publish_p50_ms": percentile(publish, 50),
        "publish_p99_ms": percentile(publish, 99),
        "details_p50_ms": percentile(details, 50),
        "details_p99_ms": percentile(details, 99),
        "cpu_ms_per_op": unit["cpu_s"] * 1000.0 / unit["ops_timed"],
        "peak_rss_mb": unit["peak_rss_mb"],
        "audit_verify_s": statistics.median(unit["verify_s"]),
        "recover_s": unit["recover_s"],  # None where recovery was skipped
        "store_bytes_per_op": unit["store_bytes"] / unit["ops_total"],
    }


def attempted_failed(units: list[dict]) -> tuple[int, int]:
    """(ops + deliveries attempted, those that failed) over ``units``."""
    attempted = failed = 0
    for unit in units:
        lost = unit["dead_lettered"] + unit["shed"]
        attempted += unit["ops_timed"] + unit["deliveries"] + lost
        failed += unit["counts"]["unexpected_errors"] + lost
    return attempted, failed


#: Metrics whose ``value`` is read off :func:`fastest_unit`.
TIME_METRICS = (
    "ops_per_s", "publish_per_s", "details_per_s", "publish_p50_ms",
    "publish_p99_ms", "details_p50_ms", "details_p99_ms", "cpu_ms_per_op",
    "audit_verify_s", "recover_s",
)


def fastest_unit(units: list[dict]) -> dict:
    """A unit made of the fastest observation of each op across ``units``.

    Every unit of a run executes the identical op stream, and what the
    host adds to a timing is one-sided: a hiccup makes one execution of
    one op slower, never faster.  Taking, op by op, the fastest of the
    repeats removes hiccups that did not hit the same op every time;
    :func:`unit_metrics` then takes its sums and percentiles over those
    per-op figures.  CPU time is split and minimised the same way, and
    the barrier takes its fastest execution.  Verification and recovery
    are single long calls whose speed factor, read at their edges only,
    errs both ways: they take the median of their executions.
    """
    def fastest(key: str) -> list[float]:
        return [min(samples) for samples in zip(*(u[key] for u in units))]

    def least(key: str) -> float:
        return min(u[key] for u in units)

    recovered = [u["recover_s"] for u in units if u["recover_s"] is not None]
    return {
        **units[0],
        "publish_ms": fastest("publish_ms"),
        "details_ms": fastest("details_ms"),
        "window_s": sum(fastest("lap_ms")) / 1000.0 + least("barrier_s"),
        "cpu_s": (sum(fastest("cpu_lap_ms")) / 1000.0
                  + least("barrier_cpu_s")),
        "verify_s": [seconds for u in units for seconds in u["verify_s"]],
        "recover_s": statistics.median(recovered) if recovered else None,
    }


def summarise(units: list[dict]) -> dict[str, dict]:
    """Per metric: headline value, quartiles over units, sample count.

    Every timing is first brought to reference host speed
    (:func:`at_reference_speed`).  ``value`` is then read off
    :func:`fastest_unit` for the time metrics and is the median over units
    for set-up and the sizes; ``q1/median/q3`` and ``values`` are always the
    per-unit figures; ``as_measured`` is ``value`` without the speed
    factors.  ``n`` counts what ``value`` rests on: per-op samples for the
    percentiles, units otherwise.
    """
    per_unit = [unit_metrics(at_reference_speed(unit)) for unit in units]
    fastest = unit_metrics(fastest_unit(
        [at_reference_speed(unit) for unit in units]))
    best = {name: fastest[name] for name in TIME_METRICS}
    measured = unit_metrics(fastest_unit(units))
    measured["setup_s"] = statistics.median(u["setup_s"] for u in units)
    summary: dict[str, dict] = {}
    for metric in END_TO_END:
        if metric.name == "failed_ops_share":
            attempted, failed = attempted_failed(units)
            values, n = [failed / attempted], attempted
        else:
            values = [m[metric.name] for m in per_unit
                      if m[metric.name] is not None]
            n = len(values)
            if metric.name.endswith(("_p50_ms", "_p99_ms")):
                n = len(units[0][metric.name.split("_")[0] + "_ms"])
        q1, median, q3 = quartiles(values)
        summary[metric.name] = {
            "value": best.get(metric.name, median), "q1": q1,
            "median": median, "q3": q3, "n": n, "values": values,
            "as_measured": measured.get(metric.name, median),
        }
    return summary


# -- correctness ---------------------------------------------------------------


def check_units(workload: str, seed: int, units: list[dict],
                full_size: bool) -> dict[str, bool]:
    """The correctness gate over every unit of one workload."""
    checks: dict[str, bool] = {}
    for unit in units:
        for name, passed in unit["checks"].items():
            checks[name] = checks.get(name, True) and passed
    for name in DIGESTS:
        checks[f"{name}_repeats"] = len({u[name] for u in units}) == 1
    if full_size and seed == DEFAULT_SEED and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text())["workloads"][workload]
        for name in DIGESTS:
            checks[f"{name}_matches_reference"] = (
                units[0][name] == reference[name])
    if WORKLOADS[workload].nodes == 1:
        checks["no_link_calls_on_one_node"] = all(
            u["per_layer"]["federation.link.calls"] == 0
            and u["per_layer"]["federation.link.batch_calls"] == 0
            for u in units if "per_layer" in u)
    checks["store_bytes_repeat"] = len({u["store_bytes"] for u in units}) == 1
    return checks


def report_failures(workload: str, checks: dict, units: list[dict]) -> None:
    for name, passed in checks.items():
        if not passed:
            print(f"CHECK FAILED [{workload}] {name}", file=sys.stderr)
    for unit in units:
        if unit["first_error"]:
            print(unit["first_error"], file=sys.stderr)
            return


# -- traced units and per-layer metrics ----------------------------------------


def reference_window_s(unit: dict) -> float:
    """The unit's timed window at reference host speed."""
    return unit["window_s"] / unit["speed"]["window"]


def traced_units(workload: str, seed: int, untraced_window_s: float,
                 ops: int | None, trace_out: Path | None) -> tuple[dict, dict]:
    """The telemetry-off and the traced unit, overhead ratios filled in."""
    plain = run_child(workload, seed, -1, telemetry=False, recover=False,
                      ops=ops)
    traced = run_child(workload, seed, -2, trace=True, ops=ops,
                       trace_out=trace_out)
    layer = traced["per_layer"]
    layer["obs.overhead_ratio"] = (
        untraced_window_s / reference_window_s(plain) - 1.0)
    layer["trace.overhead_ratio"] = (
        reference_window_s(traced) / untraced_window_s - 1.0)
    return plain, traced


# -- the benchmark driver's contract ---------------------------------------------


def contract_units(workload: str, seed: int, seconds: float) -> list[dict]:
    """The untraced units of one driver run: a fixed count, time-boxed.

    ``--seconds`` is turned into ``round(seconds / UNIT_SECONDS)`` units of
    fixed work.  The first FULL_UNITS also time recovery and three verify
    passes.  No unit beyond MIN_UNITS is started when, taking as long as
    the one before it, it would end past ``WALL_FACTOR * seconds`` of wall
    time: in a slow hour of the host a run gives up repeats, not the
    driver's total time cap.
    """
    deadline = time.monotonic() + WALL_FACTOR * seconds
    units: list[dict] = []
    took = 0.0
    for index in range(max(MIN_UNITS, round(seconds / UNIT_SECONDS))):
        started = time.monotonic()
        if index >= MIN_UNITS and started + took > deadline:
            break
        full = index < FULL_UNITS
        units.append(run_child(workload, seed, index, recover=full,
                               verify_passes=3 if full else 1))
        took = time.monotonic() - started
    return units


def contract_run(args) -> int:
    """One workload; prints the result object as the last line."""
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    if trace:
        # A traced run times recovery in its traced unit only.
        units = [run_child(workload, seed, 0, recover=False)]
        units += traced_units(workload, seed, reference_window_s(units[0]),
                              None, None)
        metrics = {
            metric.name: {"value": units[-1]["per_layer"][metric.name],
                          "unit": metric.unit}
            for metric in PER_LAYER
        }
    else:
        units = contract_units(workload, seed, args.seconds)
        summary = summarise(units)
        metrics = {
            metric.name: {"value": summary[metric.name]["value"],
                          "unit": metric.unit}
            for metric in GATED
        }
    checks = check_units(workload, seed, units, full_size=True)
    correct = all(checks.values())
    if not correct:
        report_failures(workload, checks, units)
    attempted, failed = attempted_failed(units)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- the full ledger -----------------------------------------------------------------


def print_ledger(workload: str, summary: dict, checks: dict) -> None:
    print(f"\n== {workload}: {WORKLOADS[workload].why}")
    print(f"{'metric':<20}{'unit':>7} {'better':<7}{'bound':>6}"
          f"{'value':>12}{'q1':>12}{'median':>12}{'q3':>12}{'n':>8}"
          f"{'as measured':>13}")
    for metric in END_TO_END:
        row = summary[metric.name]
        print(f"{metric.name:<20}{metric.unit:>7} {metric.better:<7}"
              f"{metric.bound:>6.0%}{row['value']:>12.4f}{row['q1']:>12.4f}"
              f"{row['median']:>12.4f}{row['q3']:>12.4f}{row['n']:>8}"
              f"{row['as_measured']:>13.4f}"
              f"{'' if metric.gated else '  (ledger only)'}")
    failed = [name for name, passed in checks.items() if not passed]
    print(f"correctness: {len(checks) - len(failed)}/{len(checks)} checks "
          f"pass" + (f"; FAILED: {', '.join(failed)}" if failed else ""))


def print_layers(workload: str, traced: dict) -> None:
    layers = traced["layers"]
    window_s = traced["window_s"] + traced["calibration_s"]
    total = sum(layers.values())
    print(f"\n-- {workload}: self seconds per layer, as measured (traced "
          f"window with its calibration slices {window_s:.3f} s, table sums "
          f"to {total:.3f} s, "
          f"{1.0 - layers.get('driver', 0.0) / total:.1%} outside driver)")
    for layer, seconds in layers.items():
        print(f"{layer:<24}{seconds:>10.4f} s{seconds / total:>8.1%}")
    for metric in PER_LAYER:
        print(f"  {metric.name:<44}{traced['per_layer'][metric.name]:>14.6g}"
              f" {metric.unit}")


def ledger_run(args) -> int:
    """Every workload, interleaved; prints and writes the ledger."""
    ops = SMOKE_OPS if args.smoke else None
    repeats = 1 if args.smoke else args.repeats
    trace = bool(args.trace) or args.smoke
    units: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    # Round-robin, so drift of the machine falls on every workload alike.
    for index in range(repeats):
        for name in WORKLOADS:
            units[name].append(run_child(name, args.seed, index, ops=ops))
            print(f"  ran {name}#{index}: "
                  f"{units[name][-1]['window_s']:.2f} s", file=sys.stderr)
    ledger = {
        "schema": "css-bench-wall/1", "unit": "wall_seconds",
        "seed": args.seed, "repeats": repeats, "smoke": args.smoke,
        "workloads": {}, "digests": {"seed": args.seed, "workloads": {}},
    }
    correct = True
    for name in WORKLOADS:
        summary = summarise(units[name])
        entry = {"why": WORKLOADS[name].why, "end_to_end": summary}
        if trace:
            window_s = statistics.median(
                reference_window_s(u) for u in units[name])
            plain, traced = traced_units(
                name, args.seed, window_s, ops, OUT / f"trace_{name}.jsonl")
            units[name] += [plain, traced]
            entry.update(per_layer=traced["per_layer"],
                         layers=traced["layers"],
                         traced_window_s=reference_window_s(traced),
                         untraced_window_s=window_s)
        checks = check_units(name, args.seed, units[name],
                             full_size=not args.smoke)
        entry["checks"] = checks
        entry["digests"] = {d: units[name][0][d] for d in DIGESTS}
        ledger["workloads"][name] = entry
        ledger["digests"]["workloads"][name] = entry["digests"]
        print_ledger(name, summary, checks)
        if trace:
            print_layers(name, units[name][-1])
        if not all(checks.values()):
            correct = False
            report_failures(name, checks, units[name])
    target = OUT / "BENCH_wall.json"
    target.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"\nledger written to {target.relative_to(ROOT)} "
          f"({'all checks pass' if correct else 'CHECKS FAILED'})")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print the driver's "
                             "result object (default: the full ledger)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=3 * UNIT_SECONDS,
                        help="with --workload: seconds to measure, turned "
                             f"into units of ~{UNIT_SECONDS} s")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="add the traced run and per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5,
                        help="ledger mode: units per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="ledger mode: tiny traced run of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/wall needs the platform under src/repro",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    return contract_run(args) if args.workload else ledger_run(args)


if __name__ == "__main__":
    sys.exit(main())
