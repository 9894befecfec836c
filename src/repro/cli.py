"""Command-line interface.

All subcommands are built on the public API; ``python -m repro --help``
and ``python -m repro COMMAND --help`` print the usage, generated from
this module's two tables (``OPTIONS``: every option, stated once;
``COMMANDS``: one row per subcommand).

``scenario`` runs a full synthetic deployment — the one
:class:`~repro.sim.scenario.CssScenario`, on one node here and under
``--scenario default``, on ``--nodes`` where a command takes them — and
prints its report (optionally archiving the resulting platform;
``--durable DIR`` gives it a data directory, so index and audit log
write through to the segmented storage engine in ``DIR/node-0``);
``compare`` prints the CSS-vs-baselines table; ``monitor`` prints the
governing body's aggregated view; ``telemetry`` reruns the scenario on
the in-memory telemetry backend and prints wall-clock pipeline latency
percentiles and counters (JSONL trace/metric exports and a
``BENCH_obs.json``-style summary on request); ``federate`` runs the same workload
sharded over an N-node federation and prints per-node figures, the
federated guarantor inquiry and, with ``--rebalance``, a live add-node
rebalance; ``slo`` evaluates the stock service-level objectives over a
run (``--drops`` scripts link-level degradation so the link-delivery
objective demonstrably breaches); ``trace`` runs a federation with
per-node telemetry and stitches the per-node span exports into
federated traces; ``store`` operates the segmented storage engine on a
data directory (``snapshot``/``verify``/``restore``/``compact``/``stats``
— point-in-time recovery via ``restore --to-sequence``); ``workload``
drives the federated platform with a seeded open-loop workload scenario
at each requested node count and writes the ``css-bench-capacity/1``
trajectory (outcome counters, hops, saturation high-water marks, audit
digests); ``sched`` runs the same seeded workload twice —
fifo baseline vs the fair deficit-round-robin tenant scheduler — and
writes the ``css-bench-fairness/1`` comparison (Jain's index, victim
share, throttle/shed counters), failing when fair does not beat the
baseline or the audit digests diverge; ``incident`` runs a watched
workload — flight recorder on, time-series store ticking, watchdogs
armed — and writes the ``css-incident/1`` bundles the first trigger
captures (exit 1 when no watchdog fired); ``timeline`` runs the same
watched workload and prints the merged cross-node flight-recorder
timeline; ``inspect`` restores an archive
and prints its audit summary (verifying the hash chain in the process).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.analytics import ProcessMonitor
from repro.audit.reports import guarantor_report
from repro.baselines import (
    FullPushBaseline,
    ManualExchangeBaseline,
    PointToPointSoaBaseline,
    WarehouseBaseline,
)
from repro.clock import DAY
from repro.exceptions import ConfigurationError
from repro.obs.benchreport import write_summary
from repro.runtime.kernel import SWITCHES, RuntimeConfig, suggest
from repro.sim.domain import DEFAULT_CONSUMERS, DEFAULT_PRODUCER_ASSIGNMENT
from repro.sim.generators import DEFAULT_SEED
from repro.sim.scenario import CssScenario, ScenarioConfig
from repro.storage import PlatformArchive
from repro.workload import (
    SCENARIOS,
    CapacityConfig,
    parse_node_counts,
    run_capacity,
    workload_config,
)


#: Where a one-node run's durable backends write, under ``--durable DIR``.
_NODE_0 = "node-0"

#: Every option of the CLI, stated once: option string (a bare name is a
#: positional) -> its ``add_argument`` keywords.  ``{default}`` in a help
#: is filled with the default in force.  ``known`` is not an argparse
#: keyword: it holds the values the option enumerates, read from whoever
#: owns them, and ``_check_values`` refuses anything else.  A command row
#: overrides the keywords it spells differently.
OPTIONS: dict[str, dict] = {
    "--events": {"type": int, "default": ScenarioConfig.n_events},
    "--patients": {"type": int, "default": ScenarioConfig.n_patients},
    "--rate": {"type": float, "default": ScenarioConfig.detail_request_rate,
               "help": "detail-request rate in [0, 1] (default {default})"},
    "--seed": {"type": int, "default": DEFAULT_SEED,
               "help": "master seed of every generated stream "
                       "(default {default})"},
    "--archive": {"metavar": "DIR",
                  "help": "snapshot the platform into DIR afterwards"},
    "--durable": {"metavar": "DIR",
                  "help": "keep index and audit log in the segmented "
                          "storage engine under DIR/node-0"},
    "--sched": {"default": "none",
                "known": SWITCHES["sched"],
                "help": "tenant scheduler on every node: none (fifo "
                        "baseline) or fair (per-tenant admission + "
                        "deficit round-robin)"},
    "--batch": {"default": "off",
                "known": SWITCHES["batch"],
                "help": "batched execution on every node: off (per-event "
                        "writes and frames) or on (group commit + "
                        "coalesced shard frames)"},
    "--batch-size": {"type": int, "default": 256,
                     "help": "records per group commit / entries per "
                             "coalesced frame (default {default})"},
    "--threshold": {"type": int, "default": 5,
                    "help": "small-cell suppression threshold k "
                            "(default {default})"},
    "--scenario": {"default": "anomaly", "known": tuple(SCENARIOS),
                   "help": "workload scenario preset (default {default}; "
                           "incident/timeline also accept 'federated', an "
                           "alias for anomaly on the default 2-node "
                           "federation)"},
    "--nodes": {"type": int, "default": 2,
                "help": "federation size for --scenario federated "
                        "(default {default})"},
    "--guard": {"default": RuntimeConfig.telemetry_guard,
                "known": SWITCHES["telemetry_guard"],
                "help": "privacy-guard mode for labels/attributes"},
    "--trace-out": {"metavar": "FILE",
                    "help": "write the span trace as JSONL to FILE"},
    "--metrics-out": {"metavar": "FILE",
                      "help": "write the metrics snapshot as JSONL to FILE"},
    "--bench-out": {"metavar": "FILE",
                    "help": "write a BENCH_obs.json-style summary to FILE"},
    "--slo-out": {"metavar": "FILE",
                  "help": "write the SLO report payload as JSON to FILE"},
    "--rebalance": {"action": "store_true",
                    "help": "add a node after the run and re-home the "
                            "moved index entries"},
    "--drops": {"type": int, "default": 0,
                "help": "script this many link-level first-attempt drops "
                        "(federated only; degrades link-delivery)"},
    "--stitch": {"action": "store_true",
                 "help": "print the stitched federated traces as a table"},
    "--out": {"metavar": "FILE"},
    "action": {"known": ("snapshot", "verify", "restore", "compact", "stats"),
               "help": "one of: snapshot, verify, restore, compact, stats"},
    "--data": {"metavar": "DIR", "help": "storage-engine data directory"},
    "--snapshots": {"metavar": "DIR",
                    "help": "snapshot root directory "
                            "(default: DATA/../snapshots)"},
    "--id": {"dest": "snapshot_id", "metavar": "SNAP",
             "help": "snapshot id (default: the latest)"},
    "--target": {"metavar": "DIR",
                 "help": "restore target directory (must be empty)"},
    "--to-sequence": {"type": int,
                      "help": "point-in-time recovery: truncate every "
                              "restored log to this committed sequence "
                              "number"},
    "--log": {"default": "index",
              "help": "log to compact (default {default}; audit refuses)"},
    "--population": {"type": int, "default": 4_000,
                     "help": "assisted-person population size (default "
                             "{default}; lazily materialized)"},
    "--ops": {"type": int, "default": 600,
              "help": "operations per run (default {default})"},
    "--list": {"action": "store_true", "dest": "list_scenarios",
               "help": "list the scenario presets and exit"},
    "--limit": {"type": int, "default": 20,
                "help": "timeline rows to print (default {default}, "
                        "most recent; 0 prints all)"},
    "directory": {"help": "archive directory to restore"},
    "--secret": {"default": "css-platform-secret",
                 "help": "master secret the platform was created with"},
}


def _scenario(args: argparse.Namespace, **knobs) -> CssScenario:
    """The scenario of the ``--events/--patients/...`` flags, not yet run:
    ``--nodes`` nodes where the command takes that flag and ``--scenario``
    (if it has one) says ``federated``, otherwise one."""
    federated = "nodes" in args and getattr(
        args, "scenario", "federated") == "federated"
    return CssScenario(ScenarioConfig(
        nodes=args.nodes if federated else 1, n_patients=args.patients,
        n_events=args.events, detail_request_rate=args.rate, seed=args.seed,
        **knobs,
    ))


def _cmd_scenario(args: argparse.Namespace, out) -> int:
    runtime = RuntimeConfig(sched=args.sched)
    if args.durable:
        target = Path(args.durable)
        if target.exists() and not target.is_dir():
            raise ConfigurationError(
                f"--durable {args.durable}: not a directory")
        if (target / _NODE_0).is_dir() and any((target / _NODE_0).iterdir()):
            raise ConfigurationError(
                f"--durable {args.durable}: {target / _NODE_0} holds a "
                f"previous run; a scenario starts from an empty deployment, "
                f"so pick a new or empty directory (a previous run stays "
                f"readable: repro store stats --data {target / _NODE_0})")
        runtime = replace(runtime, data_dir=args.durable)
    scenario = _scenario(args, runtime=runtime)
    print(scenario.run().to_text(), file=out)
    if args.durable:
        written = target / _NODE_0
        print(f"durable backends wrote segmented index and audit logs "
              f"to {written} (inspect with: repro store stats "
              f"--data {written})", file=out)
    if args.archive:
        PlatformArchive(args.archive).save(scenario.controller)
        print(f"platform archived to {args.archive}", file=out)
    return 0


def _cmd_telemetry(args: argparse.Namespace, out) -> int:
    from repro.obs.benchreport import scenario_summary
    from repro.obs.exporters import render_latency_table, render_metrics_table
    from repro.obs.telemetry import PIPELINE_WALL_DURATION

    scenario = _scenario(args, runtime=RuntimeConfig(
        telemetry="inmemory", telemetry_guard=args.guard))
    telemetry = scenario.telemetry
    report = scenario.run()

    print(report.to_text(), file=out)
    print(file=out)
    print(f"TELEMETRY (scenario={args.scenario}, seed={args.seed}, "
          f"guard={args.guard}, simulated seconds={telemetry.clock.now():.0f})",
          file=out)
    print(render_latency_table(telemetry.wall, PIPELINE_WALL_DURATION,
                               unit="wall s, this run"), file=out)
    print(render_metrics_table(telemetry.metrics), file=out)
    print(f"finished spans: {len(telemetry.tracer.finished_spans())}", file=out)

    if args.trace_out or args.metrics_out:
        telemetry.dump(trace_path=args.trace_out, metrics_path=args.metrics_out)
        for path in (args.trace_out, args.metrics_out):
            if path:
                print(f"wrote {path}", file=out)
    if args.slo_out:
        report_payload = scenario.slo_report(alert=False).to_payload()
        write_summary(args.slo_out, report_payload)
        print(f"wrote {args.slo_out} ({report_payload['breaches']} breaches)",
              file=out)
    if args.bench_out:
        write_summary(args.bench_out, scenario_summary(
            telemetry, source=f"repro telemetry --scenario {args.scenario} "
                              f"--seed {args.seed}"))
        print(f"wrote {args.bench_out}", file=out)
    return 0


def _cmd_federate(args: argparse.Namespace, out) -> int:
    scenario = _scenario(args, runtime=RuntimeConfig(
        sched=args.sched, batch=args.batch, batch_size=args.batch_size,
        # SLO evaluation needs metric series, so --slo-out turns
        # telemetry on.
        telemetry="inmemory" if args.slo_out else "noop",
    ))
    report = scenario.run()
    print(report.to_text(), file=out)
    trail = scenario.platform.guarantor_inquiry()
    print(f"federated audit: {len(trail)} records over "
          f"{len(trail.heads)} verified chains", file=out)
    if args.rebalance:
        rebalance = scenario.platform.add_node()
        print(f"rebalance: added {rebalance.node_id}, re-homed "
              f"{rebalance.entries_moved} index entries", file=out)
    if args.slo_out:
        slo_payload = scenario.slo_report().to_payload()
        write_summary(args.slo_out, slo_payload)
        print(f"wrote {args.slo_out} ({slo_payload['breaches']} breaches)",
              file=out)
    return 0


def _cmd_slo(args: argparse.Namespace, out) -> int:
    from repro.obs.slo import SLO_ALERT_TOPIC

    scenario = _scenario(args, scripted_drops=args.drops, runtime=RuntimeConfig(
        telemetry="inmemory", telemetry_guard=args.guard))
    scenario.run()
    report = scenario.slo_report()
    print(report.to_text(), file=out)
    print(f"alerts: {len(report.breaches())} published on {SLO_ALERT_TOPIC}",
          file=out)
    if args.slo_out:
        write_summary(args.slo_out, report.to_payload())
        print(f"wrote {args.slo_out}", file=out)
    return 0


def _cmd_trace(args: argparse.Namespace, out) -> int:
    from repro.obs.exporters import write_jsonl
    from repro.obs.stitch import (
        render_stitch_table,
        stitch,
        stitch_summary,
        stitched_lines,
    )

    scenario = _scenario(args, per_node_telemetry=True,
                         runtime=RuntimeConfig(telemetry="inmemory"))
    scenario.run()
    exports = scenario.platform.trace_exports()
    rendered = ", ".join(
        f"{node}={len(lines)}" for node, lines in exports.items())
    print(f"per-node span exports: {rendered}", file=out)
    traces = stitch(exports)
    summary = stitch_summary(traces)
    print(f"stitched: {summary['traces']} traces / {summary['spans']} spans "
          f"({summary['cross_node_traces']} cross-node, "
          f"{summary['orphan_spans']} orphans)", file=out)
    if args.stitch:
        print(render_stitch_table(traces), file=out)
    if args.out:
        write_jsonl(args.out, stitched_lines(traces))
        print(f"wrote {args.out}", file=out)
    return 0


def _cmd_compare(args: argparse.Namespace, out) -> int:
    scenario = _scenario(args)
    workload = scenario.generate_workload()
    consumers = list(DEFAULT_CONSUMERS)
    print(scenario.run(workload).exposure.to_row(), file=out)
    for baseline in (
        ManualExchangeBaseline(scenario.templates, consumers),
        PointToPointSoaBaseline(scenario.templates, consumers,
                                DEFAULT_PRODUCER_ASSIGNMENT),
        WarehouseBaseline(scenario.templates, consumers),
        FullPushBaseline(scenario.templates, consumers,
                         DEFAULT_PRODUCER_ASSIGNMENT),
    ):
        print(baseline.run(workload).exposure.to_row(), file=out)
    return 0


def _cmd_monitor(args: argparse.Namespace, out) -> int:
    scenario = _scenario(args)
    scenario.run()
    monitor = ProcessMonitor(scenario.controller,
                             suppression_threshold=args.threshold)
    print(monitor.volume_report(bucket_seconds=7 * DAY).to_text(), file=out)
    print("per class:", file=out)
    for name, cell in sorted(monitor.class_breakdown().items()):
        print(f"  {name:<24} {cell.display}", file=out)
    print(f"distinct citizens served: "
          f"{monitor.distinct_citizens_served().display}", file=out)
    return 0


def _store_data_dir(args: argparse.Namespace) -> Path:
    if not args.data:
        raise SystemExit(f"repro store {args.action}: --data DIR is required")
    return Path(args.data)


def _store_snapshots_root(args: argparse.Namespace) -> Path:
    if args.snapshots:
        return Path(args.snapshots)
    return _store_data_dir(args).parent / "snapshots"


def _store_snapshot_id(manager, args: argparse.Namespace) -> str:
    if args.snapshot_id:
        return args.snapshot_id
    snapshots = manager.list()
    if not snapshots:
        raise SystemExit(
            f"repro store {args.action}: no snapshots under {manager.root}"
        )
    return snapshots[-1].snapshot_id


def _cmd_store(args: argparse.Namespace, out) -> int:
    from repro.exceptions import StorageError
    from repro.storage import SnapshotManager, StorageEngine

    if args.action == "stats":
        engine = StorageEngine(_store_data_dir(args))
        figures = engine.stats()
        if not figures:
            print(f"no segmented logs under {engine.directory}", file=out)
            return 0
        print(f"storage engine at {engine.directory}:", file=out)
        for name, entry in figures.items():
            print(f"  {name:<8} records={entry['records']} "
                  f"segments={entry['segments']} "
                  f"bytes={entry['size_bytes']} "
                  f"sequence={entry['sequence']}", file=out)
        return 0

    if args.action == "compact":
        engine = StorageEngine(_store_data_dir(args))
        try:
            report = engine.compact(args.log)
        except StorageError as exc:
            raise SystemExit(f"repro store compact: {exc}") from exc
        print(f"compacted {args.log!r}: {report.records_before} -> "
              f"{report.records_after} records, reclaimed "
              f"{report.bytes_reclaimed} bytes "
              f"({report.segments_before} -> {report.segments_after} "
              f"segments)", file=out)
        return 0

    manager = SnapshotManager(_store_snapshots_root(args))
    if args.action == "snapshot":
        engine = StorageEngine(_store_data_dir(args))
        info = engine.snapshot(manager.root, label=args.snapshot_id)
        sequences = ", ".join(f"{name}={seq}"
                              for name, seq in info.sequences.items())
        print(f"snapshot {info.snapshot_id}: {info.files} files, "
              f"{info.size_bytes} bytes ({sequences})", file=out)
        return 0

    if args.action == "verify":
        snapshot_id = _store_snapshot_id(manager, args)
        problems = manager.verify(snapshot_id)
        if args.data and _store_data_dir(args).is_dir():
            problems += manager.verify_against(snapshot_id,
                                               _store_data_dir(args))
        if problems:
            for problem in problems:
                print(f"  {problem}", file=out)
            print(f"snapshot {snapshot_id}: {len(problems)} problem(s)",
                  file=out)
            return 1
        print(f"snapshot {snapshot_id}: verified", file=out)
        return 0

    # restore
    if not args.target:
        raise SystemExit("repro store restore: --target DIR is required")
    snapshot_id = _store_snapshot_id(manager, args)
    report = manager.restore(snapshot_id, args.target,
                             to_sequence=args.to_sequence)
    sequences = ", ".join(f"{name}={seq}"
                          for name, seq in report.sequences.items())
    print(f"restored {snapshot_id} into {report.target}: {report.files} "
          f"files, truncated {report.truncated_records} records "
          f"({sequences})", file=out)
    return 0


def _list_scenarios(out) -> int:
    """``--list``: the workload presets, one row each."""
    print("workload scenarios:", file=out)
    for name in SCENARIOS:
        config = workload_config(name)
        print(f"  {name:<12} arrival={config.arrival:<8} "
              f"rate={config.rate:>6.1f}/s  "
              f"details={config.details_weight:.2f}  "
              f"hot-subjects={config.hot_subjects}  "
              f"tenants={len(config.tenants)}", file=out)
    return 0


def _resolve_workload(args: argparse.Namespace, scenario: str | None = None):
    """The workload config of one workload-engine subcommand
    (workload/sched/incident/timeline): the named preset with the
    ``--population/--ops/--seed`` overrides."""
    overrides: dict[str, object] = {
        "population": args.population, "ops": args.ops,
    }
    if args.seed is not None:
        overrides["seed"] = args.seed
    return workload_config(scenario or args.scenario, **overrides)


def _cmd_workload(args: argparse.Namespace, out) -> int:
    wl = _resolve_workload(args)
    config = CapacityConfig(
        workload=wl, node_counts=parse_node_counts(args.nodes),
        runtime=RuntimeConfig(sched=args.sched, batch=args.batch,
                              batch_size=args.batch_size),
    )
    source = (f"repro workload --scenario {args.scenario} "
              f"--population {args.population} --ops {args.ops} "
              f"--nodes {args.nodes} --seed {wl.seed} "
              f"--sched {args.sched} --batch {args.batch} "
              f"--batch-size {args.batch_size}")
    payload = run_capacity(config, source=source)

    print(f"capacity trajectory ({args.scenario} scenario, "
          f"population {args.population:,}, {args.ops:,} ops, "
          f"seed {wl.seed}):", file=out)
    for point in payload["nodes"]:
        print(f"  nodes={point['nodes']:<2} "
              f"published={point['published']:>6} "
              f"permits={point['detail_permits']:>6} "
              f"denies={point['detail_denies']:>5} "
              f"hops={point['cross_node_hops']:>6} "
              f"queue-hw={point['queue_depth_high_water']:>4} "
              f"dead-letter-hw={point['dead_letter_high_water']}", file=out)
    if args.out:
        write_summary(args.out, payload)
        print(f"wrote {args.out}", file=out)
    return 0


def _cmd_sched(args: argparse.Namespace, out) -> int:
    from repro.sched.fairness import fairness_gate, run_fairness

    wl = _resolve_workload(args)
    source = (f"repro sched --scenario {args.scenario} "
              f"--population {args.population} --ops {args.ops} "
              f"--seed {wl.seed}")
    payload = run_fairness(wl, nodes=args.nodes, source=source)

    print(f"fairness comparison ({args.scenario} scenario, {args.ops} ops, "
          f"{payload['nodes']} nodes, seed {wl.seed}):", file=out)
    print(f"  {'sched':>6}  {'jain':>7}  {'victim':>7}  {'p99 wait':>9}  "
          f"{'throttled':>9}  {'shed':>5}", file=out)
    for arm in ("none", "fair"):
        point = payload["arms"][arm]
        print(f"  {arm:>6}  {point['jain_index']:>7.4f}  "
              f"{point['victim_share']:>7.4f}  "
              f"{point['victim_p99_wait_seconds']:>8.3f}s  "
              f"{point['throttled_total']:>9}  {point['shed_total']:>5}",
              file=out)
    print(f"  audit digests "
          f"{'match' if payload['audit_digest_match'] else 'DIFFER'}", file=out)
    if args.out:
        write_summary(args.out, payload)
        print(f"wrote {args.out}", file=out)
    problems = fairness_gate(payload)
    if problems:
        for problem in problems:
            print(f"repro sched: {problem}", file=sys.stderr)
        return 1
    print("fair beats none on Jain's index and victim share; "
          "decisions unchanged", file=out)
    return 0


def _watched_run(args: argparse.Namespace, **capture):
    """The watched workload run shared by incident/timeline.

    ``federated`` is accepted as a scenario alias for ``anomaly`` on the
    default two-node federation — the shape the CI smoke exercises.
    """
    from repro.workload.incidents import run_incident_capture

    wl = _resolve_workload(
        args, scenario="anomaly" if args.scenario == "federated" else None)
    source = (f"repro {args.command} --scenario {args.scenario} "
              f"--population {args.population} --ops {args.ops} "
              f"--seed {wl.seed}")
    return run_incident_capture(wl, nodes=args.nodes, source=source,
                                **capture)


def _cmd_incident(args: argparse.Namespace, out) -> int:
    payload = _watched_run(args, out_dir=args.out)

    print(f"watched run ({payload['scenario']} scenario, {payload['ops']} "
          f"ops, {payload['nodes']} nodes, seed {payload['seed']}): "
          f"published={payload['published']} "
          f"ticks={payload['ticks']} "
          f"timeline-rows={len(payload['timeline'])}", file=out)
    for bundle in payload["incidents"]:
        trigger = bundle["trigger"]
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(trigger["detail"].items())
        )
        print(f"  {bundle['incident_id']}: trigger={trigger['kind']} "
              f"at t={trigger['at']:.3f}s ({detail})", file=out)
        for objective, windows in sorted(bundle["burn_rates"].items()):
            last = windows["short"][-1] if windows["short"] else None
            if last is not None:
                print(f"    {objective}: short-window burn-rate "
                      f"{last['burn_rate']:.3f} at capture", file=out)
        print(f"    events={len(bundle['events'])} "
              f"spans={len(bundle['spans'])}", file=out)
    for path in payload["bundle_paths"]:
        print(f"wrote {path}", file=out)
    if not payload["incidents"]:
        print("no incident captured: every watchdog stayed quiet", file=out)
        return 1
    return 0


def _cmd_timeline(args: argparse.Namespace, out) -> int:
    from repro.obs.exporters import write_jsonl
    from repro.obs.incident import WatchdogConfig

    # Disarm every watchdog: a trigger freezes the recorders, and the
    # timeline view wants the rings still recording at the end of the run.
    disarmed = WatchdogConfig(
        dead_letter_spike=2**31, queue_depth_ceiling=2**31,
        watch_demotions=False, watch_slo=False,
    )
    payload = _watched_run(args, watchdogs=disarmed)

    rows = payload["timeline"]
    shown = rows if args.limit <= 0 else rows[-args.limit:]
    print(f"flight-recorder timeline ({payload['scenario']} scenario, "
          f"{payload['ops']} ops, {payload['nodes']} nodes, seed "
          f"{payload['seed']}): {len(rows)} rows"
          + (f", last {len(shown)}" if len(shown) < len(rows) else ""),
          file=out)
    for row in shown:
        label = row.get("kind") or row.get("name")
        extras = {
            key: value for key, value in sorted(row.items())
            if key not in ("at", "node", "entry", "kind", "name", "seq")
        }
        detail = " ".join(f"{key}={value}" for key, value in extras.items())
        print(f"  t={row['at']:>9.3f}s {row['node']:<8} "
              f"{row['entry']:<5} {label:<28} {detail}", file=out)
    if args.out:
        from repro.crypto.hashing import canonical_json

        write_jsonl(args.out, [canonical_json(row) for row in rows])
        print(f"wrote {args.out}", file=out)
    return 0


def _cmd_inspect(args: argparse.Namespace, out) -> int:
    from repro.exceptions import TamperedLogError

    try:
        controller = PlatformArchive(args.directory).restore(args.secret)
    except TamperedLogError as exc:
        print(f"NOT restored: {exc}", file=out)
        return 1
    print(f"restored platform from {args.directory}", file=out)
    print(f"  clock: t={controller.clock.now():.0f}  "
          f"actors: {len(controller.actors)}  "
          f"classes: {len(controller.catalog)}  "
          f"policies: {len(controller.policies)}  "
          f"indexed events: {len(controller.index)}", file=out)
    log = controller.audit_log
    report = guarantor_report(log)
    print(f"  audit: {sum(1 for _ in log.logical())} records in {len(log)} chain links, "
          f"chain verified; every archived file matches the manifest's sha256", file=out)
    print(report.to_text(), file=out)
    return 0


#: The synthetic run every single-scenario command sizes.
_RUN = ("--events", "--patients", "--rate", "--seed")
#: ``--scenario`` where it picks one node or ``--nodes``.
_OBSERVED = {"default": "federated", "known": ("default", "federated"),
             "help": "named scenario preset (default or federated)"}
#: What the four workload-engine commands share after ``--scenario``.
_ENGINE_SEED = ("--seed", {"default": None, "help": (
    "master seed of population, arrivals and op mix "
    f"(default: the preset's, {DEFAULT_SEED})")})
_ENGINE = ("--population", "--ops",
           ("--nodes", {"help": "federation size (default {default})"}),
           _ENGINE_SEED)
_WATCHED = ("--scenario", {"known": (*SCENARIOS, "federated")})

#: One row per subcommand: ``(name, --help line, handler, options)``.  The
#: options come in ``--help`` order: a name from ``OPTIONS``, or
#: ``(name, keywords)`` where this command's default, help or known values
#: differ from that row.
COMMANDS = (
    ("scenario", "run a synthetic deployment", _cmd_scenario, (
        *_RUN, "--archive", "--durable",
        ("--sched", {"help": "tenant scheduler: none (fifo baseline) or "
                             "fair (per-tenant admission + deficit "
                             "round-robin)"}),
    )),
    ("compare", "CSS vs the four baselines", _cmd_compare, _RUN),
    ("monitor", "governing-body aggregate view", _cmd_monitor,
     (*_RUN, "--threshold")),
    ("telemetry", "run a scenario with telemetry enabled and report",
     _cmd_telemetry, (
        ("--scenario", {**_OBSERVED, "default": "default",
                        "help": "named scenario preset"}),
        "--nodes", *_RUN, "--guard", "--trace-out", "--metrics-out",
        "--bench-out",
        ("--slo-out", {"help": "evaluate the stock SLOs and write the "
                               "report payload as JSON to FILE"}),
    )),
    ("federate", "run the scenario sharded over an N-node federation",
     _cmd_federate, (
        *_RUN,
        ("--nodes", {"help": "number of controller nodes (default {default})"}),
        "--sched", "--batch", "--batch-size", "--rebalance",
        ("--slo-out", {"help": "enable telemetry, evaluate the stock SLOs "
                               "and write the report payload as JSON to "
                               "FILE"}),
    )),
    ("slo", "evaluate service-level objectives over a scenario run", _cmd_slo,
     (("--scenario", _OBSERVED), "--nodes", *_RUN, "--guard", "--drops",
      "--slo-out")),
    ("trace", "distributed tracing: stitch per-node span exports", _cmd_trace, (
        ("--scenario", _OBSERVED), "--nodes", *_RUN, "--stitch",
        ("--out", {"help": "write the stitched trace as JSONL to FILE"}),
    )),
    ("store", "operate the segmented storage engine on a data dir", _cmd_store,
     ("action", "--data", "--snapshots", "--id", "--target", "--to-sequence",
      "--log")),
    ("workload", "drive the federation with a seeded scenario, emit the "
                 "capacity trajectory", _cmd_workload, (
        ("--scenario", {"default": "steady"}),
        ("--population", {"default": 100_000}), ("--ops", {"default": 5_000}),
        ("--nodes", {"type": None, "default": "1,2,4,8",
                     "help": "comma-separated node counts of the "
                             "trajectory (default {default})"}),
        _ENGINE_SEED, "--list", "--sched", "--batch", "--batch-size",
        ("--out", {"help": "write the css-bench-capacity/1 payload "
                           "to FILE (e.g. BENCH_capacity.json)"}),
    )),
    ("sched", "fairness comparison: fifo baseline vs fair tenant scheduler",
     _cmd_sched, (
        "--scenario", *_ENGINE, "--list",
        ("--out", {"help": "write the css-bench-fairness/1 payload to FILE "
                           "(e.g. BENCH_fairness.json)"}),
    )),
    ("incident", "watched workload run: watchdogs, flight recorder, "
                 "css-incident/1 bundles", _cmd_incident, (
        _WATCHED, *_ENGINE, "--list",
        ("--out", {"metavar": "DIR",
                   "help": "write each captured css-incident/1 bundle "
                           "as a directory under DIR"}),
    )),
    ("timeline", "merged cross-node flight-recorder timeline of a watched run",
     _cmd_timeline, (
        _WATCHED, *_ENGINE, "--limit",
        ("--out", {"help": "write the full timeline as canonical "
                           "JSONL to FILE"}),
    )),
    ("inspect", "restore an archive and audit it", _cmd_inspect,
     ("directory", "--secret")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSS privacy-preserving event-driven integration platform "
                    "(reproduction of Armellin et al., SDM@VLDB 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary, handler, options in COMMANDS:
        command_parser = sub.add_parser(command, help=summary)
        enumerated = {}
        for option in options:
            name, spelled = (option, {}) if isinstance(option, str) else option
            keywords = {**OPTIONS[name], **spelled}
            known = keywords.pop("known", None)
            if keywords.get("help"):
                keywords["help"] = keywords["help"].format(
                    default=keywords.get("default"))
            action = command_parser.add_argument(name, **keywords)
            if known is not None:
                enumerated[action.dest] = known
        command_parser.set_defaults(handler=handler, enumerated=enumerated)
    return parser


def _check_values(args: argparse.Namespace) -> None:
    """Refuse what an option enumerates or counts cannot take — the one
    place, before anything runs, in the configuration's did-you-mean
    wording."""
    for dest, known in args.enumerated.items():
        value = vars(args)[dest]
        if value not in known:
            raise ConfigurationError(
                f"unknown {dest} {value!r};{suggest(value, known)} "
                f"available: {', '.join(known)}")
    if "nodes" in args:
        parse_node_counts(str(args.nodes))


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        if "list_scenarios" in args and args.list_scenarios:
            return _list_scenarios(out)  # like --help: before any check
        _check_values(args)
        return args.handler(args, out)
    except ConfigurationError as exc:
        # ``inspect`` configures nothing from its flags: its error is about
        # the archive on disk and propagates (tests/test_cli.py pins that).
        if args.handler is _cmd_inspect:
            raise
        raise SystemExit(f"repro {args.command}: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
