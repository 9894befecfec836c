"""Child entry point: one (workload, seed, repeat) unit in a fresh process.

``run.py`` starts this file once per unit so no run inherits another's
heap.  The unit builds a :class:`FederatedPlatform` under the fixed
production configuration :data:`PROD` on a fresh data directory, plans the
op stream, warms up, drives the rest closed-loop (one client, one thread)
inside the timed window, then verifies, recovers and checks the outputs,
and prints its figures as one JSON line.  Between the ops and beside the
other phases it runs the calibration kernel (``calibration.py``), so that
``run.py`` can bring its timings to reference host speed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict, deque
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from calibration import (  # noqa: E402
    EVERY_OPS, REFERENCE_BURST_MS, REFERENCE_SLICE_MS, Calibrator, speed_factor,
)
from catalogue import DEFAULT_SEED, WARMUP_OPS, WORKLOADS, Workload  # noqa: E402
from trace import Tracer, install_platform_shims, layer_table  # noqa: E402

from repro.clock import Clock  # noqa: E402
from repro.core.consent import ConsentScope  # noqa: E402
from repro.crypto.keystore import KeyStore  # noqa: E402
from repro.exceptions import AccessDeniedError  # noqa: E402
from repro.federation.platform import FederatedPlatform  # noqa: E402
from repro.ids import IdGenerator  # noqa: E402
from repro.obs.telemetry import InMemoryTelemetry  # noqa: E402
from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore  # noqa: E402
from repro.runtime.kernel import RuntimeConfig  # noqa: E402
from repro.storage.engine import SegmentedStore  # noqa: E402
from repro.workload.capacity import deploy_workload  # noqa: E402
from repro.workload.config import OP_DETAILS, OP_PUBLISH, workload_config  # noqa: E402
from repro.workload.engine import WorkloadEngine  # noqa: E402

#: The recommended production configuration every workload runs under.
PROD = {
    "perf": "indexed",
    "index_store": "jsonl",
    "audit_sink": "jsonl",
    "store": "segmented",
    "batch": "on",
    "batch_size": 256,
    "sched": "fair",
    "recorder": "ring",
    "slo": "noop",
    "profiling": "noop",
}
LINK_LATENCY = 0.005
POPULATION = 100_000
MASTER_SECRET = "css-platform-secret"

#: A registered purpose no tenant policy lists: requests carrying it must
#: be denied whoever issues them.
WRONG_PURPOSE = "reimbursement"


def _sha(parts) -> str:
    return "sha256:" + hashlib.sha256("|".join(parts).encode()).hexdigest()


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def graft(skeleton, content) -> list:
    """The skeleton's op sequence carrying the content stream's subjects.

    Which op comes when, on which class, from which tenant — and so how
    far fan-out climbs and how much work a run is — belongs to the
    workload's identity and is taken from the reference stream
    (:data:`DEFAULT_SEED`).  ``--seed`` redraws who the events are about
    and what they carry: the k-th publish of a class takes subject, summary
    and payload from the k-th publish of that class in the seed's own
    stream.  For the default seed the result *is* the engine's plan.
    (Ungrafted, ``steady_1n`` does +-16 % more or less work from one seed
    to the next, which would drown every bound.)
    """
    pools = defaultdict(list)
    for op in content:
        if op.kind == OP_PUBLISH:
            pools[op.template].append(op)
    taken: dict[str, int] = defaultdict(int)
    plan = []
    for op in skeleton:
        pool = pools[op.template] if op.kind == OP_PUBLISH else None
        if pool:
            donor = pool[taken[op.template] % len(pool)]
            taken[op.template] += 1
            op = replace(
                op, subject_index=donor.subject_index,
                subject_id=donor.subject_id, subject_name=donor.subject_name,
                summary=donor.summary, details=donor.details,
            )
        plan.append(op)
    return plan


def event_ids_collide(platform, events_per_node: int) -> bool:
    """Whether two nodes would mint the same event id within this run.

    A platform defect this benchmark found and steps around, because its
    workloads must be ones on which no operation fails: event ids end in
    a 16-bit digest of (node seed, counter), so two nodes mint the same
    ``evt-NNNNNN-xxxx`` about once in eleven 4-node runs, and shipping that
    index entry to the other node raises ``DuplicateObjectError``.  The
    unit then builds its platform under the next seed salt instead.
    """
    seen: set[str] = set()
    for node in platform.nodes():
        mint = IdGenerator("evt", seed=node.controller.ids.seed)
        for _ in range(events_per_node):
            event_id = mint.next()
            if event_id in seen:
                return True
            seen.add(event_id)
    return False


def recover_nodes(nodes, data_dir: Path,
                  calib: Calibrator) -> tuple[bool, float, float, int]:
    """Restart every node from its logs; compare with the live state.

    Per node: reopen the segmented store, replay and verify the audit
    trail, replay the index, with a calibration burst beside each step.
    Returns (recovered audit head, audit length and index sequence all
    equal the live ones; seconds for all of it; seconds of that spent
    replaying the segment logs; segment files).
    """
    same, recover_s, replay_s, segments = True, 0.0, 0.0, 0
    now = calib.clock
    calib.burst()
    for node in nodes:
        started = now()
        store = SegmentedStore(data_dir / node.node_id)
        audit_log, index_log = store.log("audit"), store.log("index")
        replay_s += now() - started
        calib.burst()
        audit = JsonlAuditSink(audit_log)
        audit.verify_integrity()
        calib.burst()
        index = JsonlIndexStore(index_log, KeyStore(MASTER_SECRET))
        recover_s += now() - started
        calib.burst()
        live = node.controller
        same = (
            same
            and audit.head_digest == live.audit_log.head_digest
            and len(audit) == len(live.audit_log)
            and index.sequence == live.index.local.sequence
        )
        segments += len(audit_log.segments()) + len(index_log.segments())
    return same, recover_s, replay_s, segments


def run_unit(workload: Workload, seed: int, data_dir: Path,
             trace: bool = False, telemetry_on: bool = True,
             recover: bool = True, ops: int | None = None,
             trace_out: Path | None = None, verify_passes: int = 3) -> dict:
    """Run one unit and return its figures (see module docstring).

    ``recover=False`` skips the timed restart recovery (``recover_s`` is
    then None) and ``verify_passes=1`` keeps only the pass the correctness
    gate needs: the later units of a driver-contract run are there for the
    timed window, and a traced run takes recovery from its traced unit.
    """
    total_ops = ops if ops is not None else workload.ops
    warmup = min(WARMUP_OPS, total_ops // 2)

    # Every timing below reads these clocks, which leave out the time spent
    # in calibration slices; ``speed`` gets each phase's speed factor.
    calib = Calibrator()
    now, cpu_now = calib.clock, calib.cpu_clock
    speed: dict[str, object] = {}

    # -- set-up: build + deploy + plan + warm-up ---------------------------
    setup_started = now()
    calib.burst()
    config = workload_config(
        workload.preset, population=POPULATION, ops=total_ops, seed=seed,
        **workload.overrides,
    )
    engine = WorkloadEngine(config)
    plan_started = now()
    skeleton = WorkloadEngine(replace(config, seed=DEFAULT_SEED)).plan()
    plan = graft(skeleton, engine.plan())
    plan_s = now() - plan_started
    calib.burst()
    publishes = sum(op.kind == OP_PUBLISH for op in plan)

    runtime = dict(PROD) if telemetry_on else {**PROD, "recorder": "noop"}
    for salt in itertools.count():
        clock = Clock()
        telemetry = InMemoryTelemetry(
            clock=clock, guard_mode="hash", secret=f"css-workload-{seed}",
        ) if telemetry_on else None
        platform = FederatedPlatform(
            shards=workload.nodes, clock=clock,
            seed=f"wl-{config.scenario}-{seed}" + (f"-{salt}" if salt else ""),
            runtime=RuntimeConfig(data_dir=data_dir, **runtime),
            telemetry=telemetry, link_latency=LINK_LATENCY,
        )
        if not event_ids_collide(platform, publishes):
            break
        shutil.rmtree(data_dir, ignore_errors=True)
    event_classes = deploy_workload(platform, engine, config)
    calib.burst()

    roles = engine.tenant_roles()
    producers = {name: engine.producer_of(name) for name in engine.templates}
    consumers = [platform.consumer(tenant) for tenant in roles]
    buses = {
        tenant: platform.controller_of(platform.home_of_consumer(tenant)).bus
        for tenant in roles
    }
    # Replace semantics need the ids of the deployment's subscriptions.
    topic_of = {name: cls.topic for name, cls in event_classes.items()}
    subscription_ids = {
        (tenant, name): sub.subscription_id
        for tenant in roles for sub in buses[tenant].subscriptions_of(tenant)
        for name, topic in topic_of.items() if topic == sub.pattern
    }

    recent = {name: deque(maxlen=64) for name in engine.templates}
    outcomes: list[str] = []
    counts = dict.fromkeys((
        "publish_ok", "publish_blocked", "details_permit", "details_deny",
        "details_skipped", "subscribe", "consent_toggles", "expected_denies",
        "expected_denies_permitted", "unexpected_errors",
    ), 0)
    publish_ms: list[float] = []
    details_ms: list[float] = []
    laps: list[float] = []  # perf_counter at the end of every op
    cpu_laps: list[float] = []  # process_time at the same moments
    released: list[tuple[str, str, object]] = []
    state = {"details_seen": 0, "last_publish": None, "opted_out": None,
             "first_error": "", "timed": False}
    tracer = None

    def execute(ops_slice) -> None:
        op_key = tracer.key_id("driver", "op") if tracer else 0
        for op in ops_slice:
            if op.at > clock.now():
                clock.set(op.at)
            if tracer:
                tracer.current_op = op.sequence
                root = tracer.open_span(op_key)
            every = workload.consent_toggle_every
            if every and op.sequence % every == 0 and state["last_publish"]:
                if state["opted_out"] is None:
                    producer_id, subject = state["last_publish"]
                    platform.producer(producer_id).record_opt_out(
                        subject, ConsentScope.DETAILS)
                    state["opted_out"] = (producer_id, subject)
                    outcomes.append("consent:out")
                else:
                    producer_id, subject = state["opted_out"]
                    platform.producer(producer_id).record_opt_in(
                        subject, ConsentScope.DETAILS)
                    state["opted_out"] = None
                    outcomes.append("consent:in")
                counts["consent_toggles"] += 1
            kind = op.kind
            try:
                if kind == OP_PUBLISH:
                    producer_id = producers[op.template]
                    started = now()
                    notification = platform.publish(
                        producer_id, event_classes[op.template],
                        subject_id=op.subject_id,
                        subject_name=op.subject_name,
                        summary=op.summary, details=dict(op.details or {}),
                    )
                    publish_ms.append((now() - started) * 1000.0)
                    if notification is None:
                        counts["publish_blocked"] += 1
                        outcomes.append("publish:blocked")
                    else:
                        counts["publish_ok"] += 1
                        recent[op.template].append(notification.event_id)
                        state["last_publish"] = (producer_id, op.subject_id)
                        outcomes.append("publish:ok")
                elif kind == OP_DETAILS:
                    window = recent[op.template]
                    if not window:
                        counts["details_skipped"] += 1
                        outcomes.append("details:skipped")
                        continue
                    target = window[
                        -1 - min(op.target_recency, len(window) - 1)]
                    state["details_seen"] += 1
                    wrong = bool(
                        workload.wrong_purpose_every
                        and state["details_seen"]
                        % workload.wrong_purpose_every == 0)
                    counts["expected_denies"] += wrong
                    purpose = WRONG_PURPOSE if wrong else op.purpose
                    started = now()
                    try:
                        detail = platform.request_details(
                            op.tenant_id, op.template, target, purpose)
                    except AccessDeniedError:
                        details_ms.append((now() - started) * 1000.0)
                        counts["details_deny"] += 1
                        outcomes.append("details:deny")
                    else:
                        details_ms.append((now() - started) * 1000.0)
                        counts["details_permit"] += 1
                        counts["expected_denies_permitted"] += wrong
                        released.append((op.template, roles[op.tenant_id],
                                         detail))
                        outcomes.append("details:permit")
                else:
                    key = (op.tenant_id, op.template)
                    if workload.replace_subscriptions \
                            and key in subscription_ids:
                        buses[op.tenant_id].unsubscribe(subscription_ids[key])
                    subscription_ids[key] = platform.subscribe(
                        op.tenant_id, op.template)
                    counts["subscribe"] += 1
                    outcomes.append("subscribe")
            except Exception:  # noqa: BLE001 - count it, keep measuring
                counts["unexpected_errors"] += 1
                outcomes.append(f"{kind}:error")
                state["first_error"] = (state["first_error"]
                                        or traceback.format_exc())
            finally:
                if tracer:
                    tracer.close_span(root)
                laps.append(now())
                cpu_laps.append(cpu_now())
                if state["timed"] and len(laps) % EVERY_OPS == 0:
                    calib.slice()

    execute(plan[:warmup])
    calib.burst()
    setup_s = now() - setup_started
    speed["setup"] = speed_factor(calib.take(), REFERENCE_BURST_MS)
    state["timed"] = True

    # -- timed window --------------------------------------------------------
    timed = plan[warmup:]
    publish_ms.clear()
    details_ms.clear()
    laps.clear()
    cpu_laps.clear()
    deliveries_before = sum(len(c.inbox) for c in consumers)
    bytes_before = _tree_bytes(data_dir)
    counters_before = public_counters(platform)
    if trace:
        tracer = Tracer()
        install_platform_shims(tracer, platform, set(producers.values()))
        tracer.watch_gc()
    span = tracer.span if tracer else (lambda layer, name: nullcontext())
    cpu_started = cpu_now()
    window_started = now()
    calibrating_before = calib.spent_s
    with span("driver", "window"):
        execute(timed)
        if tracer:
            tracer.current_op = -1
        # The barrier sits inside the window so batch=on cannot hide
        # deferred work; flush_batches drains every node's flush_storage.
        with span("driver", "barrier"):
            platform.dispatch_all()
            platform.flush_batches()
    window_s = now() - window_started
    cpu_s = cpu_now() - cpu_started
    speed["window"] = speed_factor(calib.take(), REFERENCE_SLICE_MS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counters = {name: value - counters_before[name]
                for name, value in public_counters(platform).items()}
    if tracer:
        tracer.unwatch_gc()
        tracer.restore()

    nodes = platform.nodes()
    store_bytes = _tree_bytes(data_dir)
    deliveries = sum(len(c.inbox) for c in consumers) - deliveries_before
    dead_lettered = sum(
        sum(node.controller.bus.dead_letter_counts().values())
        for node in nodes)
    shed = sum(node.controller.sched.shed_total for node in nodes)

    # -- audit verification (the guarantor-inquiry read) ---------------------
    checks: dict[str, bool] = {"audit_chain_verifies": True}
    pass_seconds = []
    speed["verify"] = []
    calib.burst()
    for _ in range(verify_passes):  # a read, so it can be repeated
        before = calib.take()
        started = now()
        try:
            for node in nodes:
                node.controller.audit_log.verify_integrity()
        except Exception:  # noqa: BLE001 - a broken chain is a failed check
            checks["audit_chain_verifies"] = False
            state["first_error"] = (state["first_error"]
                                    or traceback.format_exc())
        pass_seconds.append(now() - started)
        calib.burst()
        # A pass is one call: its speed is read just before and just after.
        speed["verify"].append(
            speed_factor(before + calib.slices_ms, REFERENCE_BURST_MS))
    calib.take()
    heads = [node.controller.audit_log.head_digest for node in nodes]

    # -- restart recovery (the storage read) ---------------------------------
    recover_s = None
    replay_s, segments = 0.0, 0
    if recover:
        (checks["recovered_equals_live"], recover_s, replay_s,
         segments) = recover_nodes(nodes, data_dir, calib)
        speed["recover"] = speed_factor(calib.take(), REFERENCE_BURST_MS)

    # -- correctness ---------------------------------------------------------
    leaked = 0
    fields_released = fields_total = 0
    for template, role, detail in released:
        allowed = set(engine.templates[template].needed_fields.get(role, ()))
        leaked += bool(set(detail.exposed_values()) - allowed)
        fields_released += len(detail.released_fields)
        fields_total += len(detail.payload)
    checks["released_fields_within_policy"] = leaked == 0
    checks["wrong_purpose_denied"] = counts["expected_denies_permitted"] == 0
    checks["no_unexpected_errors"] = counts["unexpected_errors"] == 0
    op_outcomes = sum(counts[k] for k in (
        "publish_ok", "publish_blocked", "details_permit", "details_deny",
        "details_skipped", "subscribe", "unexpected_errors"))
    checks["outcomes_sum_to_ops"] = op_outcomes == total_ops

    result = {
        "workload": workload.name, "seed": seed, "traced": trace,
        "telemetry": telemetry_on, "nodes": workload.nodes,
        "ops_total": total_ops, "ops_timed": len(timed), "counts": counts,
        "deliveries": deliveries, "dead_lettered": dead_lettered,
        "shed": shed,
        "setup_s": setup_s, "plan_s": plan_s, "window_s": window_s,
        # Seconds of slices between the window's ops, not part of window_s.
        "calibration_s": calib.spent_s - calibrating_before,
        "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "audit_verify_s": min(pass_seconds), "verify_s": pass_seconds,
        "recover_s": recover_s, "speed": speed,
        "store_bytes": store_bytes,
        "publish_ms": publish_ms, "details_ms": details_ms,
        # Whole loop iterations: they and the barrier add up to the window.
        "lap_ms": [(end - start) * 1000.0 for start, end
                   in zip([window_started, *laps], laps)],
        "barrier_s": window_s - (laps[-1] - window_started),
        # The same split of the window's CPU time.
        "cpu_lap_ms": [(end - start) * 1000.0 for start, end
                       in zip([cpu_started, *cpu_laps], cpu_laps)],
        "barrier_cpu_s": cpu_s - (cpu_laps[-1] - cpu_started),
        "plan_digest": _sha(op.to_line() for op in plan),
        "audit_digest": _sha(heads),
        "decision_digest": _sha(outcomes),
        "checks": checks, "first_error": state["first_error"],
    }
    if tracer:
        totals = tracer.totals()
        if trace_out is not None:
            tracer.write_jsonl(trace_out)
        result["per_layer"] = per_layer_metrics(
            tracer, totals, platform, result, counters, plan_s=plan_s,
            replay_s=replay_s, segments=segments,
            bytes_written=store_bytes - bytes_before,
            fields_share=fields_released / fields_total if fields_total else 0.0,
        )
        result["layers"] = layer_table(totals)
        # Self times form a tree, so the table must add up to the window.
        traced_window = totals[("driver", "window")]["total_s"]
        checks["layer_table_sums_to_window"] = abs(
            sum(result["layers"].values()) / traced_window - 1.0) < 0.01
    return result


def public_counters(platform) -> dict[str, float]:
    """Cumulative counters the layers publish themselves, summed over nodes."""
    controllers = [node.controller for node in platform.nodes()]
    links = platform.membership.links()

    def total(read) -> float:
        return sum(read(controller) for controller in controllers)

    counters = {
        "fanned_out": total(lambda c: c.bus.stats.fanned_out),
        "local_stores": total(lambda c: c.index.stats.local_stores),
        "remote_stores": total(lambda c: c.index.stats.remote_stores),
        "pdp_requests": total(lambda c: c.enforcer.pdp_stats.requests),
        "pdp_policies": total(
            lambda c: c.enforcer.pdp_stats.policies_evaluated),
        "demotions": total(lambda c: c.sched.demotions_total),
        "link_failed": sum(link.stats.failed_attempts for link in links),
        "hops": platform.total_hops(),
    }
    for cache in ("decision", "fanout"):
        counters[f"{cache}_hits"] = total(
            lambda c: c.perf.stats.hits.get(cache, 0))
        counters[f"{cache}_misses"] = total(
            lambda c: c.perf.stats.misses.get(cache, 0))
    return counters


def per_layer_metrics(tracer, totals, platform, result, counters, *, plan_s,
                      replay_s, segments, bytes_written, fields_share) -> dict:
    """The catalogue's per-layer metrics from spans and public counters.

    ``counters`` is :func:`public_counters` over the timed window only.
    """
    nodes = platform.nodes()
    publishes = len(result["publish_ms"])

    def row(layer, name):
        return totals.get((layer, name),
                          {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def self_s(layer, *names):
        return sum(row(layer, name)["self_s"] for name in names)

    def calls(layer, *names):
        return sum(row(layer, name)["calls"] for name in names)

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    def hit_ratio(cache):
        hits = counters[f"{cache}_hits"]
        return ratio(hits, hits + counters[f"{cache}_misses"])

    sched_names = [name for layer, name in totals if layer == "sched"]
    scanned = tracer.weights[("bus", "dispatch")]
    traced_total = sum(r["self_s"] for r in totals.values())
    return {
        "workload.plan_s": plan_s,
        "workload.ops_planned": result["ops_total"],
        "federation.platform.publish_self_s":
            self_s("federation.platform", "publish"),
        "federation.platform.details_self_s":
            self_s("federation.platform", "request_details"),
        "federation.platform.subscribe_self_s":
            self_s("federation.platform", "subscribe"),
        "federation.platform.barrier_s": row("driver", "barrier")["total_s"],
        "federation.link.calls": calls("federation.link", "call"),
        "federation.link.batch_calls": calls("federation.link", "call_batch"),
        "federation.link.self_s":
            self_s("federation.link", "call", "call_batch"),
        "federation.link.entries_per_batch": ratio(
            tracer.weights[("federation.link", "call_batch")],
            calls("federation.link", "call_batch")),
        "federation.link.failed": counters["link_failed"],
        "federation.link.hops": counters["hops"],
        "federation.node.handle_calls":
            calls("federation.node", "handle", "handle_batch"),
        "federation.node.handle_self_s":
            self_s("federation.node", "handle", "handle_batch"),
        "federation.index.store_self_s": self_s("federation.index", "store"),
        "federation.index.remote_share": ratio(
            counters["remote_stores"],
            counters["remote_stores"] + counters["local_stores"]),
        "core.controller.publish_self_s": self_s("core.controller", "publish"),
        "core.controller.details_self_s":
            self_s("core.controller", "request_details"),
        "core.controller.subscribe_self_s":
            self_s("core.controller", "subscribe"),
        "runtime.interceptors.publish_self_s":
            self_s("runtime.interceptors", "publish"),
        "runtime.interceptors.details_edge_self_s":
            self_s("runtime.interceptors", "details_edge"),
        "runtime.interceptors.enforcement_self_s":
            self_s("runtime.interceptors", "enforcement"),
        "runtime.interceptors.executions": calls(
            "runtime.interceptors", "publish", "details_edge", "enforcement"),
        "bus.publish_self_s": self_s("bus", "publish"),
        "bus.dispatch_self_s": self_s("bus", "dispatch"),
        "bus.dispatch_rounds": calls("bus", "dispatch"),
        "bus.fanned_out": counters["fanned_out"],
        "bus.deliveries": result["deliveries"],
        "bus.deliveries_per_publish": ratio(result["deliveries"], publishes),
        "bus.subscriptions_scanned": scanned,
        "bus.dispatch_useful_ratio": ratio(result["deliveries"], scanned),
        "bus.subscribe_self_s": self_s("bus", "subscribe"),
        "bus.unsubscribe_self_s": self_s("bus", "unsubscribe"),
        "bus.subscriptions_end":
            sum(n.controller.bus.subscription_count for n in nodes),
        "bus.queue_high_water":
            max(n.controller.bus.queue_high_water() for n in nodes),
        "bus.dead_lettered": result["dead_lettered"],
        "bus.shed": result["shed"],
        "core.messages.to_xml_calls": calls("core.messages", "to_xml"),
        "core.messages.to_xml_s": self_s("core.messages", "to_xml"),
        "core.messages.from_xml_calls": calls("core.messages", "from_xml"),
        "core.messages.from_xml_s": self_s("core.messages", "from_xml"),
        "core.messages.parses_per_publish":
            ratio(calls("core.messages", "from_xml"), publishes),
        "crypto.seal_calls": calls("crypto", "seal"),
        "crypto.seal_s": self_s("crypto", "seal"),
        "crypto.open_calls": calls("crypto", "open"),
        "crypto.open_s": self_s("crypto", "open"),
        "audit.append_calls": calls("audit", "append"),
        "audit.append_self_s": self_s("audit", "append"),
        "audit.appends_per_op":
            ratio(calls("audit", "append"), result["ops_timed"]),
        "audit.verify_s": result["audit_verify_s"],
        "storage.append_calls": calls("storage", "append"),
        "storage.append_many_calls": calls("storage", "append_many"),
        "storage.records_per_commit": ratio(
            tracer.weights[("storage", "append_many")],
            calls("storage", "append_many")),
        "storage.write_self_s": self_s("storage", "append", "append_many"),
        "storage.flush_s": self_s("storage", "flush"),
        "storage.bytes_written": bytes_written,
        "storage.segments": segments,
        "storage.replay_s": replay_s,
        "core.index.store_calls": calls("core.index", "store"),
        "core.index.store_self_s": self_s("core.index", "store"),
        "core.index.get_calls": calls("core.index", "get"),
        "core.index.get_self_s": self_s("core.index", "get"),
        "core.enforcement.get_event_details_self_s":
            self_s("core.enforcement", "get_event_details"),
        "xacml.authorize_calls": calls("xacml", "authorize"),
        "xacml.authorize_self_s": self_s("xacml", "authorize"),
        "xacml.policies_evaluated_per_decision": ratio(
            counters["pdp_policies"], counters["pdp_requests"]),
        "core.gateway.persist_s": self_s("core.gateway", "persist"),
        "core.gateway.get_response_calls":
            calls("core.gateway", "get_response"),
        "core.gateway.get_response_self_s":
            self_s("core.gateway", "get_response"),
        "core.gateway.fields_released_share": fields_share,
        "perf.decision_cache_hit_ratio": hit_ratio("decision"),
        "perf.fanout_memo_hit_ratio": hit_ratio("fanout"),
        "sched.calls": calls("sched", *sched_names),
        "sched.self_s": self_s("sched", *sched_names),
        "sched.shed": result["shed"],
        "sched.demotions": counters["demotions"],
        "obs.metric_calls": calls(
            "obs", "metric.count", "metric.gauge", "metric.observe"),
        "obs.metric_self_s": self_s(
            "obs", "metric.count", "metric.gauge", "metric.observe"),
        "obs.sanitize_calls": calls("obs", "sanitize"),
        "obs.sanitize_self_s": self_s("obs", "sanitize"),
        "obs.spans": len(platform.telemetry.tracer.finished_spans()),
        "process.gc_gen2_collections": tracer.gc_gen2_collections,
        "process.gc_pause_s": tracer.gc_pause_s,
        "trace.spans": len(tracer.start),
        "trace.driver_self_share": ratio(
            self_s("driver", "window", "op", "barrier"), traced_total),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeat-index", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--telemetry", choices=("on", "off"), default="on")
    parser.add_argument("--recover", type=int, default=1,
                        help="0 skips the timed restart recovery")
    parser.add_argument("--verify-passes", type=int, default=3,
                        help="timed verify_integrity() passes (at least 1)")
    parser.add_argument("--ops", type=int, default=None,
                        help="override the op count (smoke and self-tests)")
    parser.add_argument("--data-dir", required=True,
                        help="fresh directory for the durable logs")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True)
    try:
        result = run_unit(
            WORKLOADS[args.workload], args.seed, data_dir,
            trace=bool(args.trace), telemetry_on=args.telemetry == "on",
            recover=bool(args.recover), ops=args.ops,
            trace_out=Path(args.trace_out) if args.trace_out else None,
            verify_passes=max(1, args.verify_passes),
        )
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    result["repeat_index"] = args.repeat_index
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
