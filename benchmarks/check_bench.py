#!/usr/bin/env python
"""The one checker for every benchmark artifact this repo exports.

Every ``BENCH_*.json`` payload and every ``css-incident/1`` bundle is
validated by the same code against one declarative table
(:data:`SCHEMAS`): per schema id the field specs (each figure carrying
its unit) and the semantic gates as small named functions (merge order,
trigger explanation, bundle-manifest sha256).  The schema is read from
the payload's own ``schema`` field, so there is nothing to select on
the command line.

Two gates apply to *every* schema, not just the ones that used to have
them: the payload must name a known schema, and its serialized form must
carry no plaintext assisted-person id (``ap-NNNNNNNN``) or roster
tenant / organization id — the artifacts are shareable and must meet the
same no-re-identification bar as every other export of the platform.

Usage::

    python benchmarks/check_bench.py BENCH_obs.json BENCH_incident.json
    python benchmarks/check_bench.py incidents            # bundle dir(s)

Each argument is validated: a ``.json`` payload, one bundle directory
(``manifest.json`` + ``incident.json`` + JSONL files), or a directory of
``incident-*`` bundles.  No figure here is compared against a baseline:
speed is the wall-clock ledger's (``benchmarks/wall``), and an
equivalence a payload could state is a tier-1 test.  A rate or latency
is named for its clock: ``sim_*`` or ``wall_*``.

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

#: The plaintext shape of an assisted-person identifier
#: (:data:`repro.workload.population.SUBJECT_PREFIX` + zero-padded index).
SUBJECT_ID_PATTERN = re.compile(r"\bap-\d{8}\b")

#: Plaintext fragments of deployment / roster organization ids that must
#: never appear in a shareable artifact (tenants are guard-hashed).
TENANT_ID_FRAGMENTS = (
    "Province-Trentino", "Municipality-Trento", "FamilyDoctors",
    "Hospital-S-Maria", "HomeAssist-Coop", "Org-0", "Org-1",
)


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
SIM_SECONDS = Num(min=0, unit="sim_seconds")
WALL_SECONDS = Num(min=0, unit="wall_seconds")
#: A rate over wall time — machine-dependent.
WALL_RATE = Num(above=0, unit="wall_seconds")
HASHED = Str(prefix="h:", why="tenant references must be privacy-guard "
                              "hashes ('h:…')")
ANY_OBJECT = Obj()


def each(keys, spec) -> dict:
    """``{key: spec}`` for every key — a run of same-typed fields."""
    return dict.fromkeys(keys, spec)


OUTCOME_COUNTERS = ("published", "publish_blocked", "detail_permits",
                    "detail_denies", "subscribe_ops")

_OVERHEAD_ARM = Obj({
    **each((*OUTCOME_COUNTERS, "incidents", "ticks", "timeline_rows"),
              COUNT),
    "recorder": Is(("noop", "ring")),
    "simulated_seconds": SIM_SECONDS,
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
    """One row of the table: shape and payload-level gates."""

    fields: Obj
    gates: tuple = ()


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
                "type": Is(("counter", "gauge")),
                "labels": ANY_OBJECT,
                "points": ListOf(ListOf(NUMBER, lengths=(2,))),  # [at, value]
            }), nonempty=False),
            "queues": Obj(
                {"totals": Obj(each(("queue_depth", "dead_letter_depth"),
                                       COUNT))},
                rest=Obj(each(("queue_depth", "dead_letter_depth",
                                  "queue_high_water",
                                  "dead_letter_high_water"), COUNT))),
            "scheduler": Obj(rest=Obj({"tenants": Obj(
                keys=HASHED, rest=Obj({"shed": COUNT}))})),
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
    return problems, "" if problems else payload["schema"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_bench.py", description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="BENCH_*.json payloads, incident bundle "
                             "directories, or directories of bundles")
    args = parser.parse_args(argv)
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

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
