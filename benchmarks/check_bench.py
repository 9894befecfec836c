#!/usr/bin/env python
"""The one checker for every benchmark artifact this repo exports.

Every ``BENCH_*.json`` payload and every ``css-incident/1`` bundle is
validated by the same code against one declarative table
(:data:`SCHEMAS`): per schema id the field specs (each figure carrying
its unit), the semantic gates as small named functions (digest
equality, percentile ordering, fair-beats-none, matrix coverage,
bundle-manifest sha256) and the figures the bench trajectory tracks.
The schema is read from the payload's own ``schema`` field, so there is
nothing to select on the command line.

Two gates apply to *every* schema, not just the ones that used to have
them: the payload must name a known schema, and its serialized form must
carry no plaintext assisted-person id (``ap-NNNNNNNN``) or roster
tenant / organization id — the artifacts are shareable and must meet the
same no-re-identification bar as every other export of the platform.

Usage::

    python benchmarks/check_bench.py BENCH_capacity.json BENCH_batch.json
    python benchmarks/check_bench.py incidents            # bundle dir(s)
    python benchmarks/check_bench.py --trajectory BENCH_fairness.json ...
    python benchmarks/check_bench.py --update BENCH_fairness.json ...

Without flags each argument is validated: a ``.json`` payload, one
bundle directory (``manifest.json`` + ``incident.json`` + JSONL files),
or a directory of ``incident-*`` bundles.  ``--trajectory`` instead
compares the payloads' tracked figures against the committed
``benchmarks/baselines/<name>.json``: a changed schema id, a vanished
figure or a drop below ``--min-ratio`` (default 0.8) of the baseline
fails; a payload without a baseline is reported and skipped, and one
whose schema tracks no baselinable figure is an error (it would gate
nothing).  Only figures whose unit is not ``wall_seconds`` are ever
baselined — they are simulated-clock derived and therefore
machine-independent; wall figures are printed with their unit and never
gated here (``benchmarks/wall`` is the wall-clock ledger).  A rate or
latency is named for its clock: ``sim_*`` or ``wall_*``.  ``--update``
(re)writes the baselines — how the trajectory is seeded and how an
intentional change is recorded.

Exit codes: 0 ok, 1 problems, 2 usage.  Importable: ``validate(payload)``
returns the list of problems (empty = valid), which the tests exercise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: What a figure is measured in.  ``sim_seconds`` figures (and rates over
#: them) come off the simulated clock and reproduce bit-for-bit;
#: ``wall_seconds`` ones depend on the machine.
UNITS = ("sim_seconds", "wall_seconds", "count", "ratio")

#: The plaintext shape of an assisted-person identifier
#: (:data:`repro.workload.population.SUBJECT_PREFIX` + zero-padded index).
SUBJECT_ID_PATTERN = re.compile(r"\bap-\d{8}\b")

#: Plaintext fragments of deployment / roster organization ids that must
#: never appear in a shareable artifact (tenants are guard-hashed).
TENANT_ID_FRAGMENTS = (
    "Province-Trentino", "Municipality-Trento", "FamilyDoctors",
    "Hospital-S-Maria", "HomeAssist-Coop", "Org-0", "Org-1",
)

#: Replay must be streaming: peak replay memory is bounded regardless of
#: log size (sparse index + one record), far below this ceiling.
MAX_RECOVERY_PEAK_KB = 16_384


# -- field specs ------------------------------------------------------------
#
# A spec is anything with ``check(value, where) -> list[str]``.  Container
# specs run their own ``gates`` (functions of the same signature) only
# once the fields they read are well-formed, so a gate never has to
# re-check types.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _suffix(why: str) -> str:
    return f" — {why}" if why else ""


@dataclass(frozen=True)
class Num:
    """A JSON number (never a bool) within optional bounds."""

    min: float | None = None  # inclusive lower bound
    above: float | None = None  # exclusive lower bound
    max: float | None = None  # inclusive upper bound
    integer: bool = False
    unit: str | None = None
    why: str = ""

    def check(self, value, where: str) -> list[str]:
        ok = _is_number(value) and not (self.integer
                                        and not isinstance(value, int))
        if ok and self.min is not None:
            ok = value >= self.min
        if ok and self.above is not None:
            ok = value > self.above
        if ok and self.max is not None:
            ok = value <= self.max
        return [] if ok else [f"{where} must be {self}{_suffix(self.why)}"]

    def __str__(self) -> str:
        noun = "integer" if self.integer else "number"
        if self.max is not None:
            return f"a {noun} within [{self.min or 0:g}, {self.max:g}]"
        if self.above == 0:
            return f"a positive {noun}"
        if self.min == 0:
            return f"a non-negative {noun}"
        if self.min is not None:
            return f"a {noun} >= {self.min:g}"
        return f"a{'n' if self.integer else ''} {noun}"


@dataclass(frozen=True)
class Str:
    """A string: non-empty by default, optionally prefixed or patterned."""

    nonempty: bool = True
    prefix: str = ""
    pattern: str = ""
    why: str = ""

    def check(self, value, where: str) -> list[str]:
        ok = isinstance(value, str) and (bool(value) or not self.nonempty)
        ok = ok and value.startswith(self.prefix)
        ok = ok and (not self.pattern or re.match(self.pattern, value))
        return [] if ok else [f"{where} must be {self}{_suffix(self.why)}"]

    def __str__(self) -> str:
        if self.pattern:
            return f"a string matching {self.pattern!r}"
        if self.prefix:
            return f"a {self.prefix!r}-prefixed string"
        return "a non-empty string" if self.nonempty else "a string"


@dataclass(frozen=True)
class Is:
    """Exactly one of the listed JSON scalars."""

    values: tuple
    why: str = ""

    def check(self, value, where: str) -> list[str]:
        # ``True == 1`` in Python; a JSON gate must not accept 1 for true.
        if any(value == v and type(value) is type(v) for v in self.values):
            return []
        wanted = " or ".join(json.dumps(v) for v in self.values)
        return [f"{where} must be {wanted}{_suffix(self.why)}"]


@dataclass(frozen=True)
class Nullable:
    """``null`` or the wrapped spec."""

    spec: object

    def check(self, value, where: str) -> list[str]:
        return [] if value is None else self.spec.check(value, where)


@dataclass(frozen=True)
class ListOf:
    """A list of ``item``; non-empty unless said otherwise."""

    item: object
    nonempty: bool = True
    lengths: tuple[int, ...] = ()  # allowed lengths (empty = any)
    gates: tuple = ()

    def check(self, value, where: str) -> list[str]:
        if not isinstance(value, list) or (self.nonempty and not value):
            kind = "a non-empty list" if self.nonempty else "a list"
            return [f"{where} must be {kind}"]
        if self.lengths and len(value) not in self.lengths:
            return [f"{where} must have "
                    f"{' or '.join(map(str, self.lengths))} entries"]
        problems = [p for index, entry in enumerate(value)
                    for p in self.item.check(entry, f"{where}[{index}]")]
        if not problems:
            for gate in self.gates:
                problems.extend(gate(value, where))
        return problems


@dataclass(frozen=True)
class Obj:
    """A JSON object.

    ``fields`` are required, ``optional`` checked when present; keys named
    by neither are ignored unless ``rest`` gives the spec every other
    value must meet (and ``keys`` the spec of those keys) — which is how
    open-keyed maps (per-node rows, hashed tenant tables) are written.
    """

    fields: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)
    rest: object = None
    keys: object = None
    nonempty: bool = False
    gates: tuple = ()

    def check(self, value, where: str) -> list[str]:
        if not isinstance(value, dict) or (self.nonempty and not value):
            kind = "a non-empty object" if self.nonempty else "an object"
            return [f"{where or 'top level'} must be {kind}"]
        dot = f"{where}." if where else ""
        problems: list[str] = []
        for key, spec in self.fields.items():
            problems.extend(spec.check(value.get(key), f"{dot}{key}"))
        for key, spec in self.optional.items():
            if key in value:
                problems.extend(spec.check(value[key], f"{dot}{key}"))
        for key, entry in value.items():
            if key in self.fields or key in self.optional:
                continue
            if self.keys is not None:
                problems.extend(self.keys.check(key, f"{where} keys"))
            if self.rest is not None:
                problems.extend(self.rest.check(entry, f"{where}[{key!r}]"))
        if not problems:
            for gate in self.gates:
                problems.extend(gate(value, where))
        return problems


# -- gates ------------------------------------------------------------------


def resolve(payload: object, path: str):
    """Walk a dotted path; integer segments index lists; None = missing."""
    current = payload
    for segment in path.split("."):
        if isinstance(current, dict) and segment in current:
            current = current[segment]
        elif isinstance(current, list):
            try:
                current = current[int(segment)]
            except (ValueError, IndexError):
                return None
        else:
            return None
    return current


def _ascending(figures: list, strict: bool) -> bool:
    return all(a < b if strict else a <= b
               for a, b in zip(figures, figures[1:]))


def ordered(*keys: str, strict: bool = False, why: str = ""):
    """Gate: an object's ``keys`` hold non-decreasing (strict: increasing)
    values — compaction shrinking, published <= ops."""
    sign = " < " if strict else " <= "

    def gate(value: dict, where: str) -> list[str]:
        if _ascending([value[key] for key in keys], strict):
            return []
        return [f"{where}: must satisfy {sign.join(keys)}{_suffix(why)}"]
    return gate


def increasing(key: str):
    """Gate: a list's entries carry non-decreasing ``key`` values."""
    def gate(value: list, where: str) -> list[str]:
        if _ascending([entry[key] for entry in value], strict=False):
            return []
        return [f"{where}[].{key} must be in ascending order"]
    return gate


def covers(key: str, required: tuple):
    """Gate: a list's entries cover every ``required`` value of ``key``."""
    def gate(value: list, where: str) -> list[str]:
        seen = {entry[key] for entry in value}
        return [f"{where} must cover {key}={wanted}"
                for wanted in required if wanted not in seen]
    return gate


def digests_equal(first: str, second: str, why: str):
    """Gate: two digests of one payload are identical."""
    def gate(payload: dict, where: str) -> list[str]:
        if resolve(payload, first) == resolve(payload, second):
            return []
        return [f"gate: {first} and {second} differ{_suffix(why)}"]
    return gate


def fair_beats_none(payload: dict, where: str) -> list[str]:
    """Gate: the fair arm scores strictly higher on both fairness figures."""
    none_arm, fair_arm = payload["arms"]["none"], payload["arms"]["fair"]
    return [
        f"gate: fair must score strictly higher than none on {figure}"
        for figure in ("jain_index", "victim_share")
        if not fair_arm[figure] > none_arm[figure]
    ]


def events_in_merge_order(events: list, where: str) -> list[str]:
    """Gate: the merged timeline is sorted by ``(at, node, seq)`` — the
    discipline that makes same-seed bundles byte-identical."""
    keys = [(row["at"], row["node"], row["seq"]) for row in events]
    return [f"{where}[{index + 1}] breaks the (at, node, seq) merge order"
            for index, (a, b) in enumerate(zip(keys, keys[1:])) if b < a]


#: Watchdog trigger kinds and the objective each non-SLO one must carry a
#: burn-rate trajectory for (mirrors repro.obs.incident).
TRIGGER_OBJECTIVES = {
    "deadletter-spike": "bus-deadletter-ratio",
    "queue-depth-ceiling": "node-queues-drained",
    "penalty-demotion": "tenant-starvation",
}


def trigger_explains_itself(payload: dict, where: str) -> list[str]:
    """Gate: an ``slo-breach`` bundle carries a burn-rate series for every
    breached objective, every other trigger for its associated one."""
    trigger = payload["trigger"]
    if trigger["kind"] == "slo-breach":
        objectives = trigger["detail"].get("objectives")
        wanted = [o for o in objectives if isinstance(o, str)] \
            if isinstance(objectives, list) else []
    else:
        wanted = [TRIGGER_OBJECTIVES[trigger["kind"]]]
    return [f"burn_rates must carry the trigger's objective {objective!r}"
            for objective in wanted if objective not in payload["burn_rates"]]


def privacy_gate(payload: dict) -> list[str]:
    """No direct subject or tenant identifier may reach any artifact."""
    serialized = json.dumps(payload, sort_keys=True)
    problems: list[str] = []
    match = SUBJECT_ID_PATTERN.search(serialized)
    if match:
        problems.append(f"privacy: plaintext assisted-person id "
                        f"{match.group(0)!r} leaked into the artifact")
    problems.extend(
        f"privacy: plaintext tenant/organization id fragment {fragment!r} "
        "leaked into the artifact"
        for fragment in TENANT_ID_FRAGMENTS if fragment in serialized
    )
    return problems


# -- the table --------------------------------------------------------------

TEXT = Str()
BOOL = Is((True, False))
INT = Num(integer=True)
COUNT = Num(min=0, integer=True, unit="count")
POSINT = Num(above=0, integer=True, unit="count")
NUMBER = Num()
NONNEG = Num(min=0)
POSITIVE = Num(above=0)
SIM_SECONDS = Num(min=0, unit="sim_seconds")
#: A rate over the simulated clock.
SIM_RATE = Num(above=0, unit="sim_seconds")
WALL_SECONDS = Num(min=0, unit="wall_seconds")
#: A rate over wall time — machine-dependent, never baselined.
WALL_RATE = Num(above=0, unit="wall_seconds")
DIGEST = Str(prefix="sha256:",
             why="a digest of the verified audit chain / decision stream")
HASHED = Str(prefix="h:", why="tenant references must be privacy-guard "
                              "hashes ('h:…')")
ANY_OBJECT = Obj()


def each(keys, spec) -> dict:
    """``{key: spec}`` for every key — a run of same-typed fields."""
    return dict.fromkeys(keys, spec)


def identical(why: str) -> Obj:
    """An ``equivalence`` section whose ``identical`` flag must hold."""
    return Obj({"identical": Is((True,), why), "audit_records": POSINT})


OUTCOME_COUNTERS = ("published", "publish_blocked", "detail_permits",
                    "detail_denies", "subscribe_ops")

_STORAGE_KIND = {
    "wall_ingest_events_per_second": WALL_RATE,
    "recovery_seconds": WALL_SECONDS,
    "recovery_peak_kb": Num(min=0, max=MAX_RECOVERY_PEAK_KB,
                            why="the streaming-replay bound (KiB)"),
    "size_bytes": POSINT,
}

_FAIRNESS_TENANT = Obj({
    **each(("weight", "share", "satisfaction", "served_work",
               "arrived_work", "max_wait_seconds", "starvation_seconds",
               "p99_wait_seconds"), NONNEG),
    **each(("throttled", "shed", "demotions", "recoveries"), COUNT),
    "penalized": BOOL,
})


def _fairness_arm(name: str) -> Obj:
    return Obj({
        "sched": Is((name,)),
        **each((*OUTCOME_COUNTERS, "throttled_total", "shed_total",
                   "penalized_tenants", "audit_records"), COUNT),
        "jain_index": Num(min=0, max=1.0 + 1e-9, unit="ratio"),
        "victim_share": Num(min=0, unit="ratio"),
        "victim_total_share": Num(min=0, unit="ratio"),
        **each(("victim_p99_wait_seconds", "victim_starvation_seconds",
                   "max_starvation_seconds"), SIM_SECONDS),
        "audit_digest": DIGEST,
        "tenants": Obj(rest=_FAIRNESS_TENANT, keys=HASHED, nonempty=True),
    })


_OVERHEAD_ARM = Obj({
    **each((*OUTCOME_COUNTERS, "incidents", "ticks", "timeline_rows"),
              COUNT),
    "recorder": Is(("noop", "ring")),
    "simulated_seconds": SIM_SECONDS,
    "sim_events_per_second": SIM_RATE,
    "wall_seconds": WALL_SECONDS,
    "wall_ops_per_second": WALL_RATE,
})

_TRIGGER = Obj({
    "kind": Is(("slo-breach", *TRIGGER_OBJECTIVES)),
    "at": SIM_SECONDS,
    "detail": ANY_OBJECT,
})

_BURN_SERIES = ListOf(Obj({
    "at": NUMBER, "observed": NUMBER, "burn_rate": NUMBER,
    "attainment": Num(min=0, max=1),
}), nonempty=False)


@dataclass(frozen=True)
class Schema:
    """One row of the table: shape, payload-level gates, tracked figures."""

    fields: Obj
    gates: tuple = ()
    #: Dotted paths of the figures the trajectory reports; each resolves
    #: to a :class:`Num` carrying its unit (see :func:`unit_of`).
    tracked: tuple[str, ...] = ()


SCHEMAS: dict[str, Schema] = {
    # `repro telemetry --bench-out` (the CI artifact): the counter snapshot
    # (per-pipeline executions are `pipeline.invocations_total`); no rate
    # or latency — speed is the wall ledger's.
    "css-bench-obs/3": Schema(
        Obj({
            "source": TEXT,
            "counters": Obj(rest=NUMBER),
        }, optional={
            "slo": Obj({
                "evaluated_at": SIM_SECONDS,
                "breaches": COUNT,
                "objectives": ListOf(Obj({
                    "name": TEXT,
                    "target": Num(min=0, max=1),
                    "attainment": NUMBER,
                    "breached": BOOL,
                    "burn_rate": NONNEG,
                }), nonempty=False),
            }),
            "stitched_trace": Obj(each(
                ("traces", "spans", "cross_node_traces", "orphan_spans"),
                COUNT)),
        }),
    ),
    # benchmarks/bench_storage_engine.py: a flat JSONL file vs the engine.
    "css-bench-storage/2": Schema(
        Obj({
            "source": TEXT,
            "quick": BOOL,
            "points": ListOf(Obj({
                "events": POSINT,
                "kinds": Obj({
                    "jsonl": Obj(_STORAGE_KIND),
                    "segmented": Obj(
                        {**_STORAGE_KIND, "post_compaction_bytes": POSINT},
                        gates=(ordered("post_compaction_bytes", "size_bytes",
                                       strict=True,
                                       why="compaction reclaimed nothing"),),
                    ),
                }),
                "compaction": Obj(
                    {"records_before": POSINT, "records_after": POSINT,
                     "bytes_reclaimed": POSITIVE},
                    gates=(ordered("records_after", "records_before",
                                   strict=True,
                                   why="compaction dropped no records"),),
                ),
            })),
            "equivalence": identical(
                "a durable run's audit trail differs from the in-memory "
                "run's"),
        }),
        tracked=("points.0.kinds.segmented.wall_ingest_events_per_second",),
    ),
    # `repro workload`: the capacity trajectory — outcome counters, hops,
    # saturation marks and audit digests; speed is the wall ledger's.
    "css-bench-capacity/1": Schema(
        Obj({
            "source": TEXT,
            "scenario": TEXT,
            "seed": INT,
            "population": POSINT,
            "ops": COUNT,
            "arrival": Is(("poisson", "onoff")),
            "nodes": ListOf(Obj({
                "nodes": POSINT,
                **each(("ops", *OUTCOME_COUNTERS, "cross_node_hops",
                           "queue_depth_high_water", "dead_letter_high_water",
                           "audit_records"), COUNT),
                "simulated_seconds": SIM_SECONDS,
                "audit_digest": DIGEST,
            }, gates=(ordered("published", "ops",
                              why="published exceeds total ops"),)),
                gates=(increasing("nodes"),)),
        }),
    ),
    # `repro sched`: sched=none vs sched=fair over one seeded stream.
    "css-bench-fairness/1": Schema(
        Obj({
            "source": TEXT,
            "scenario": TEXT,
            "seed": INT,
            "population": POSINT,
            "ops": COUNT,
            "nodes": POSINT,
            "drain_seconds": Num(above=0, unit="sim_seconds"),
            "service_rate": POSITIVE,
            "arms": Obj({"none": _fairness_arm("none"),
                         "fair": _fairness_arm("fair")}),
            "improvement": Obj(each(("jain_index", "victim_share"),
                                       NUMBER)),
            "audit_digest_match": Is((True,)),
        }, optional={
            "victim_tenant": Nullable(HASHED),
            "abusive_tenant": Nullable(HASHED),
        }),
        gates=(fair_beats_none,
               digests_equal("arms.none.audit_digest",
                             "arms.fair.audit_digest",
                             "the scheduler changed decisions or the audit "
                             "trail")),
        tracked=("arms.fair.jain_index", "arms.fair.victim_share"),
    ),
    # benchmarks/bench_batch.py: the batched-execution equivalence matrix.
    "css-bench-batch/1": Schema(
        Obj({
            "source": TEXT,
            "quick": BOOL,
            "equivalence": Obj({
                "identical": Is((True,), "a batched run produced a different "
                                         "audit digest or decision stream"),
                "checks": ListOf(Obj({
                    "nodes": POSINT,
                    "batch_size": POSINT,
                    **each(("audit_identical", "decisions_identical"),
                              Is((True,), "batching changed this cell")),
                    "audit_digest": DIGEST,
                    "decision_digest": DIGEST,
                }), gates=(covers("batch_size", (1, 16, 256)),)),
            }),
        }),
    ),
    # benchmarks/bench_incident_overhead.py: recorder off vs on (the
    # bench enforces its own overhead / observer-effect gates).
    "css-bench-incident/1": Schema(
        Obj({
            "source": TEXT,
            "scenario": TEXT,
            "seed": INT,
            **each(("population", "ops", "nodes", "reps"), POSINT),
            "overhead_pct": NUMBER,
            "arms": Obj({"noop": _OVERHEAD_ARM, "ring": _OVERHEAD_ARM}),
        }, optional={"trigger": Nullable(_TRIGGER)}),
        tracked=("arms.ring.sim_events_per_second",
                 "arms.ring.wall_seconds"),
    ),
    # `repro incident`: one captured incident bundle (incident.json).
    "css-incident/1": Schema(
        Obj({
            "incident_id": Str(pattern=r"^incident-\d{4}$"),
            "source": Str(nonempty=False),
            "captured_at": SIM_SECONDS,
            "trigger": _TRIGGER,
            "burn_rates": Obj(
                rest=Obj({"short": _BURN_SERIES, "long": _BURN_SERIES}),
                nonempty=True),
            "events": ListOf(Obj({"kind": TEXT, "node": TEXT, "seq": POSINT,
                                  "at": SIM_SECONDS}),
                             nonempty=False, gates=(events_in_merge_order,)),
            "spans": ListOf(Obj({
                **each(("name", "trace_id", "span_id", "status", "node"),
                          TEXT),
                "at": SIM_SECONDS,
                "duration": NUMBER,
            }), nonempty=False),
            "series": ListOf(Obj({
                "name": TEXT,
                "type": Is(("counter", "gauge", "histogram")),
                "labels": ANY_OBJECT,
                # counters/gauges export [at, value]; histograms
                # [at, count, sum]
                "points": ListOf(ListOf(NUMBER, lengths=(2, 3))),
            }), nonempty=False),
            "queues": Obj(
                {"totals": Obj(each(("queue_depth", "dead_letter_depth"),
                                       COUNT))},
                rest=Obj(each(("queue_depth", "dead_letter_depth",
                                  "queue_high_water",
                                  "dead_letter_high_water"), COUNT))),
            "scheduler": Obj(rest=Obj({"policy": TEXT,
                                       "tenants": Obj(keys=HASHED)})),
            "recorder": Obj(
                rest=Obj(each(("dropped_events", "dropped_spans"), COUNT)),
                nonempty=True),
        }, optional={"slo": Nullable(ANY_OBJECT)}),
        gates=(trigger_explains_itself,),
    ),
}


def validate(payload: object) -> list[str]:
    """Every violation in ``payload``, human-readable (empty = valid).

    The schema row is picked by the payload's own ``schema`` field; its
    payload-level gates run once the shape is clean, the privacy gate
    always.
    """
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    schema = SCHEMAS.get(payload.get("schema"))
    if schema is None:
        return [f"schema must be one of {', '.join(SCHEMAS)}; got "
                f"{payload.get('schema')!r}", *privacy_gate(payload)]
    problems = schema.fields.check(payload, "")
    if not problems:
        for gate in schema.gates:
            problems.extend(gate(payload, ""))
    return problems + privacy_gate(payload)


# -- incident bundle directories --------------------------------------------

BUNDLE_SCHEMA = "css-incident/1"
BUNDLE_FILES = ("incident.json", "events.jsonl", "series.jsonl")


def _hash_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def validate_bundle_dir(root: Path) -> list[str]:
    """Check one on-disk bundle: manifest integrity, then the payload.

    ``manifest.json`` must list every payload file with a sha256 that
    matches the bytes on disk — a tampered or truncated bundle fails the
    same way a tampered storage snapshot does.
    """
    try:
        manifest = json.loads((root / "manifest.json").read_text())
        payload = json.loads((root / "incident.json").read_text())
    except FileNotFoundError as exc:
        return [f"{root}: {Path(exc.filename).name} is missing"]
    except json.JSONDecodeError as exc:
        return [f"{root}: not valid JSON: {exc}"]
    problems: list[str] = []
    if manifest.get("schema") != BUNDLE_SCHEMA:
        problems.append(f"{root}: manifest schema must be {BUNDLE_SCHEMA!r}")
    files = manifest.get("files")
    if not isinstance(files, dict):
        return problems + [f"{root}: manifest.files must be an object"]
    problems.extend(f"{root}: manifest does not cover {name}"
                    for name in BUNDLE_FILES if name not in files)
    for name, entry in files.items():
        target = root / name
        if not isinstance(entry, dict):
            problems.append(f"{root}: manifest.files[{name!r}] must be an "
                            "object")
        elif not target.exists():
            problems.append(f"{root}: manifest lists missing file {name}")
        elif entry.get("sha256") != _hash_file(target):
            problems.append(f"{root}/{name}: sha256 mismatch — bundle "
                            "tampered or truncated")
        elif entry.get("size") != target.stat().st_size:
            problems.append(f"{root}/{name}: size mismatch")
    problems.extend(validate(payload))
    if isinstance(payload, dict) \
            and manifest.get("incident_id") != payload.get("incident_id"):
        problems.append(f"{root}: manifest incident_id disagrees with bundle")
    return problems


def validate_path(path: Path) -> tuple[list[str], str]:
    """Validate a payload file, a bundle dir or a dir of bundles.

    Returns the problems and a one-line description of what was checked.
    """
    if not path.exists():
        return [f"{path} is missing"], ""
    if path.is_dir():
        bundles = [path] if (path / "manifest.json").exists() \
            or (path / "incident.json").exists() \
            else sorted(p for p in path.glob("incident-*") if p.is_dir())
        if not bundles:
            return [f"no incident bundle under {path}"], ""
        problems = [p for bundle in bundles
                    for p in validate_bundle_dir(bundle)]
        return problems, (f"{len(bundles)} {BUNDLE_SCHEMA} bundle(s), "
                          "manifests verified")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path} is not valid JSON: {exc}"], ""
    problems = validate(payload)
    if problems:
        return problems, ""
    figures = ", ".join(f"{key}={figure:.4g} [{unit}]"
                        for key, figure, unit in tracked_figures(payload))
    return [], payload["schema"] + (f": {figures}" if figures else "")


# -- trajectory -------------------------------------------------------------


def unit_of(spec: object, path: str) -> str | None:
    """The unit declared on the :class:`Num` a dotted ``path`` reaches."""
    for segment in path.split("."):
        if isinstance(spec, Nullable):
            spec = spec.spec
        if isinstance(spec, ListOf):
            spec = spec.item
        elif isinstance(spec, Obj):
            spec = spec.fields.get(segment) or spec.optional.get(segment) \
                or spec.rest
        else:
            return None
    return getattr(spec, "unit", None)


def tracked_units(schema_id: object) -> dict[str, str | None]:
    """Tracked figure → unit for one schema id ({} for an unknown id)."""
    schema = SCHEMAS.get(schema_id)
    if schema is None:
        return {}
    return {key: unit_of(schema.fields, key) for key in schema.tracked}


def tracked_figures(payload: dict) -> list[tuple[str, float, str | None]]:
    """``(path, value, unit)`` of every tracked figure the payload carries."""
    return [(key, resolve(payload, key), unit)
            for key, unit in tracked_units(payload.get("schema")).items()
            if _is_number(resolve(payload, key))]


def baseline_path(bench: Path) -> Path:
    return BASELINE_DIR / f"{bench.stem}.json"


def make_baseline(bench: Path, payload: dict) -> dict:
    """The baseline document for one payload: its tracked figures, minus
    the wall-clock ones (machine-dependent figures are never baselined)."""
    throughput = {key: figure
                  for key, figure, unit in tracked_figures(payload)
                  if unit != "wall_seconds"}
    return {
        "bench": bench.name,
        "schema": payload.get("schema"),
        "throughput": throughput,
    }


def compare(bench: Path, payload: dict, baseline: dict,
            min_ratio: float) -> list[str]:
    """Every trajectory regression of one payload, human-readable."""
    problems: list[str] = []
    expected_schema = baseline.get("schema")
    if payload.get("schema") != expected_schema:
        problems.append(
            f"{bench.name}: schema changed from {expected_schema!r} to "
            f"{payload.get('schema')!r} — bump the baseline deliberately "
            "(--update) if this is intentional"
        )
    throughput = baseline.get("throughput")
    if not isinstance(throughput, dict):
        return problems + [f"{bench.name}: baseline has no throughput map"]
    units = tracked_units(expected_schema)
    for key, reference in throughput.items():
        if units.get(key) not in UNITS or units[key] == "wall_seconds":
            problems.append(
                f"{bench.name}: baseline holds {key}, which is not a "
                "tracked non-wall figure of its schema — only "
                "machine-independent figures may be baselined"
            )
            continue
        current = resolve(payload, key)
        if not _is_number(current):
            problems.append(
                f"{bench.name}: tracked figure {key} disappeared from "
                "the payload"
            )
            continue
        floor_value = reference * min_ratio
        if current < floor_value:
            drop = (1 - current / reference) * 100 if reference else 100.0
            problems.append(
                f"{bench.name}: {key} [{units[key]}] dropped {drop:.1f}% "
                f"({current:.4f} vs baseline {reference:.4f}, "
                f"floor {floor_value:.4f})"
            )
    return problems


def trajectory(benches: list[str], update: bool, min_ratio: float) -> int:
    """Compare (or with ``update`` re-seed) payloads against baselines."""
    problems: list[str] = []
    compared = updated = skipped = 0
    for name in benches:
        bench = Path(name)
        try:
            payload = json.loads(bench.read_text())
        except FileNotFoundError:
            problems.append(f"{bench.name}: payload file is missing")
            continue
        except json.JSONDecodeError as exc:
            problems.append(f"{bench.name}: not valid JSON: {exc}")
            continue
        if not isinstance(payload, dict):
            problems.append(f"{bench.name}: top level must be a JSON object")
            continue
        for key, figure, unit in tracked_figures(payload):
            print(f"check_bench: {bench.name}: {key} = {figure:.6g} [{unit}]"
                  + (" (wall: reported, not gated)"
                     if unit == "wall_seconds" else ""))
        target = baseline_path(bench)
        units = tracked_units(payload.get("schema")).values()
        if not update and all(unit == "wall_seconds" for unit in units):
            problems.append(
                f"{bench.name}: {payload.get('schema')!r} tracks no "
                "baselinable figure, so its trajectory would gate nothing")
            continue
        if update:
            document = make_baseline(bench, payload)
            if not document["throughput"]:
                print(f"check_bench: {bench.name} tracks no non-wall figure "
                      "(add one to its SCHEMAS row first); skipped")
                skipped += 1
                continue
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"check_bench: wrote {target}")
            updated += 1
        elif not target.exists():
            print(f"check_bench: {bench.name} has no committed baseline "
                  "yet (seed with --update); skipped")
            skipped += 1
        else:
            baseline = json.loads(target.read_text())
            problems.extend(compare(bench, payload, baseline, min_ratio))
            compared += 1

    for problem in problems:
        print(f"check_bench: {problem}", file=sys.stderr)
    if problems:
        return 1
    if update:
        print(f"check_bench: {updated} baseline(s) updated, "
              f"{skipped} skipped")
    else:
        print(f"check_bench: {compared} payload(s) within "
              f"{(1 - min_ratio) * 100:.0f}% of baseline, {skipped} skipped")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_bench.py", description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="BENCH_*.json payloads, incident bundle "
                             "directories, or directories of bundles")
    parser.add_argument("--trajectory", action="store_true",
                        help="compare tracked figures against the committed "
                             "baselines instead of validating")
    parser.add_argument("--update", action="store_true",
                        help="(re)write the baselines from these payloads")
    parser.add_argument("--min-ratio", type=float, default=0.8,
                        help="minimum current/baseline ratio per tracked "
                             "figure (default 0.8 = fail on >20%% drops)")
    args = parser.parse_args(argv)
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2
    if args.trajectory or args.update:
        return trajectory(args.paths, args.update, args.min_ratio)

    failed = False
    for name in args.paths:
        problems, checked = validate_path(Path(name))
        for problem in problems:
            print(f"check_bench: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"check_bench: {name} ok ({checked}, no identifier leaks)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
