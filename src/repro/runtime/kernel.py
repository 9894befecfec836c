"""Runtime configuration — the named switches of one platform instance.

One wiring rule: **a name picks between real alternatives, a fact is
read; off builds nothing; a reader is built by whoever reads.**  Four
collaborators of the :class:`~repro.core.controller.DataController` have
a real choice — telemetry, recorder, batching — and each is a
:class:`RuntimeConfig` field naming one of the values :data:`SWITCHES`
lists; the controller builds each directly from its field, so swapping
one (say batching on for off) is a field, not an edit:

    >>> controller = DataController(runtime=RuntimeConfig(batch="on"))

What follows from a fact has no name: a node is durable iff it has a
``data_dir`` (its logs then live in the segmented storage engine), sharded
iff it was handed a membership, observed by the telemetry it was handed.
An off name (``telemetry: noop``, ``recorder: noop``, ``batch: off``)
builds nothing, and every seam checks for ``None``.  The SLO engine reads
a telemetry, it is not a collaborator: ``SLOEngine(telemetry)`` where the
report is read.  Where the time goes is the wall ledger's traced run.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import get_close_matches
from pathlib import Path

from repro.exceptions import ConfigurationError

#: The names each switch accepts, sorted, keyed by its ``RuntimeConfig``
#: field (``telemetry_guard`` is the guard mode of the telemetry switch).
#: ``RuntimeConfig`` refuses any other name; the CLI's ``--batch`` and
#: ``--guard`` enumerate from here.
SWITCHES: dict[str, tuple[str, ...]] = {
    "telemetry": ("inmemory", "noop"),
    "telemetry_guard": ("hash", "reject"),
    "recorder": ("noop", "ring"),
    "batch": ("off", "on"),
}


#: The spellings ``index_store`` / ``audit_sink`` still accept.
_STORAGE_SPELLINGS = ("jsonl", "memory")
#: The kept fields that select nothing: the one value each accepts, and
#: what to do instead.
_INERT_FIELDS = {
    "slo": ("noop", "build SLOEngine(telemetry) where the report is read"),
    "profiling": ("noop", "profile wall time with "
                          "python benchmarks/wall/run.py --trace"),
    "store": ("segmented", "a data_dir is stored in the segmented engine"),
    "perf": ("indexed", "'indexed' is the one hot path"),
    "sched": ("fair", "the backlog bound (repro.sched) is always on"),
}


@dataclass(frozen=True)
class RuntimeConfig:
    """Named implementation choices for one platform instance, plus the
    one storage fact: ``data_dir`` given means a durable events index and
    audit log in the segmented storage engine under it (``batch``
    group-commits them), none means both in memory.
    """

    #: Select nothing: ``data_dir`` decides.  Kept, and checked below, only
    #: while the wall ledger's frozen ``PROD`` passes them by keyword
    #: (ROADMAP item 8a deletes both, and ``slo`` / ``profiling`` /
    #: ``perf`` / ``store`` / ``sched`` below).
    index_store: str = "memory"
    audit_sink: str = "memory"
    #: Telemetry backend: "noop" (default — none is built) or "inmemory".
    telemetry: str = "noop"
    #: Privacy-guard mode for the telemetry backend ("hash" or "reject").
    telemetry_guard: str = "hash"
    #: Select nothing and accept "noop" alone: a reader is built by
    #: whoever reads.  Kept for ``PROD`` like the storage spellings.
    slo: str = "noop"
    profiling: str = "noop"
    #: Selects nothing and accepts "indexed" alone: Def. 3 over the policy
    #: buckets, the subscription trie and the wire caches are the one hot
    #: path.  Kept for ``PROD`` like ``slo``.
    perf: str = "indexed"
    #: Selects nothing and accepts "segmented" alone: every ``data_dir`` is
    #: the storage engine's.  Kept for ``PROD`` like ``slo``.
    store: str = "segmented"
    #: Selects nothing and accepts "fair" alone: every node bounds each
    #: tenant's backlog at fan-out.  Kept for ``PROD`` like ``slo``.
    sched: str = "fair"
    #: Batched execution across the hot path: "off" (default — one
    #: durable append and one wire frame per event) or "on" (group-commit
    #: durability and coalesced federation frames, ``batch_size`` records
    #: per batch).
    #: Audit digests and PDP decisions are byte-identical either way —
    #: see docs/PERFORMANCE.md.
    batch: str = "off"
    #: Records per batch when batching is on (commit boundary of each
    #: record log and flush boundary of the shard-frame coalescer).
    batch_size: int = 256
    #: Flight recorder: "noop" (default — none is built) or "ring"
    #: (bounded ring buffers of recent guard-sanitized spans, SLO alerts
    #: and bus saturation events — the raw material
    #: for incident bundles, cheap enough to stay on in every scenario).
    recorder: str = "noop"
    #: Where this node's index and audit logs live; ``None`` keeps both in
    #: memory.
    data_dir: str | Path | None = None

    def __post_init__(self) -> None:
        # The one place a name is refused: a storage spelling or a switch's.
        named = {"index_store": _STORAGE_SPELLINGS,
                 "audit_sink": _STORAGE_SPELLINGS, **SWITCHES}
        for field_name, names in named.items():
            name = getattr(self, field_name)
            if name not in names:
                raise ConfigurationError(
                    f"unknown {field_name} {name!r};{suggest(name, names)} "
                    f"available: {', '.join(names)}"
                )
            if name == "jsonl" and self.data_dir is None:
                raise ConfigurationError(
                    "'jsonl' storage needs RuntimeConfig.data_dir"
                )
        for field_name, (accepted, how_to) in _INERT_FIELDS.items():
            if getattr(self, field_name) != accepted:
                raise ConfigurationError(
                    f"RuntimeConfig.{field_name} selects nothing: {how_to}")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


def suggest(typo: str, known) -> str:
    """A did-you-mean fragment for error messages (empty if no close match).

    Public because the CLI reuses the configuration's suggestion wording
    for its own enumerations (scenario names, ...), so every "unknown X"
    error in the platform reads the same way.
    """
    matches = get_close_matches(typo, list(known), n=1)
    return f" did you mean {matches[0]!r}?" if matches else ""
