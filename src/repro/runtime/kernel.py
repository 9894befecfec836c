"""The service kernel — the platform's single composition root.

One wiring rule: **a name picks between real alternatives, a fact is
read; off builds nothing; a reader is built by whoever reads.**  Every
collaborator of the
:class:`~repro.core.controller.DataController` with interchangeable
implementations (store engine, telemetry, scheduler, perf layer, ...) is
constructed here, by *name*, from a registry of factories, so swapping one
— say the flat-file store for the segmented engine — is a
:class:`RuntimeConfig` field, not an edit to the controller:

    >>> controller = DataController(runtime=RuntimeConfig(
    ...     data_dir="/tmp/css", store="segmented"))

What follows from a fact has no name: a node is durable iff it has a
``data_dir``, sharded iff it was handed a membership, observed by the
telemetry it was handed — the controller reads those and constructs its
events index and audit log directly.  An off name (``telemetry: noop``,
``recorder: noop``, ``perf: none``, ``batch: off``) resolves to ``None``
and every seam checks for that.  The SLO engine and the profiler read a
telemetry, they are not collaborators: ``SLOEngine(telemetry)`` and
``telemetry.attach_profiler(SamplingProfiler(...))`` where the report is
read.

Factories receive the construction context (clock, ids, keystore, paths,
...) as keyword arguments and may ignore what they don't need.  They
import their implementation modules lazily, keeping the kernel itself
import-light and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import get_close_matches
from pathlib import Path
from typing import Any, Callable

from repro.exceptions import ConfigurationError

#: A service factory: ``factory(**context) -> implementation``.
ServiceFactory = Callable[..., Any]

#: Service kinds the default kernel wires: the collaborators with a real
#: choice.  What has one implementation (keystore, bus, enforcer, endpoint
#: fetcher, federation membership) its owner constructs directly, and so
#: does the controller its events index and audit log: which pair it gets
#: follows from facts (a data directory, a membership), not from a name.
KIND_TELEMETRY = "telemetry"
KIND_PERF = "perf"
KIND_STORE = "store"
KIND_SCHED = "sched"
KIND_RECORDER = "recorder"
KIND_BATCH = "batch"

#: What a :class:`~repro.core.controller.DataController` builds through the
#: kernel, in construction order: ``(kind, RuntimeConfig field that names the
#: implementation, controller attribute the service is exposed under)``.
#: Each service joins the construction context under its kind, which is
#: the key later factories read it by (``context["telemetry"]``,
#: ``context.get("store")``, ...).  Stated here once: the controller's loop,
#: ``repro kernel`` and the table in docs/ARCHITECTURE.md (held to these
#: rows by tests/test_docs_drift.py) all read them.
WIRING: tuple[tuple[str, str, str], ...] = (
    (KIND_TELEMETRY, "telemetry", "telemetry"),
    (KIND_RECORDER, "recorder", "recorder"),
    (KIND_PERF, "perf", "perf"),
    (KIND_SCHED, "sched", "sched"),
    (KIND_STORE, "store", "store"),
    (KIND_BATCH, "batch", "batch"),
)


#: The spellings ``index_store`` / ``audit_sink`` still accept.
_STORAGE_SPELLINGS = ("jsonl", "memory")
#: The kept fields that name a reader, and how each is built instead.
_READER_FIELDS = {
    "slo": "build SLOEngine(telemetry) where the report is read",
    "profiling": "telemetry.attach_profiler(SamplingProfiler(...)) where "
                 "the profile is read",
}


@dataclass(frozen=True)
class RuntimeConfig:
    """Named implementation choices for one platform instance, plus the
    one storage fact: ``data_dir`` given means a durable events index and
    audit log under it (``store`` picks the format, ``batch`` group-commits
    them), none means both in memory.
    """

    #: Select nothing: ``data_dir`` decides.  Kept, and checked below, only
    #: while the wall ledger's frozen ``PROD`` passes them by keyword
    #: (ROADMAP item 2d deletes both, and ``slo`` / ``profiling`` below).
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
    #: Hot-path performance layer: "indexed" (default — policy index,
    #: versioned decision cache, subscription trie, wire caches) or
    #: "none" (no layer is built: the linear-scan ablation baseline).
    #: Decisions and audit trails are identical either way; only the speed
    #: differs.
    perf: str = "indexed"
    #: Durable store engine behind the index/audit logs of a ``data_dir``:
    #: "jsonl" (flat files, the ablation baseline) or "segmented" (the
    #: storage engine — segmented checksummed logs with compaction,
    #: snapshots and point-in-time recovery).  Decisions and audit
    #: trails are byte-identical across both.
    store: str = "jsonl"
    #: Multi-tenant scheduler at the bus boundary: "none" (today's FIFO
    #: dispatch, with per-tenant accounting) or "fair" (deficit-round-robin
    #: fair queueing with token-bucket admission, backpressure shedding to
    #: the dead-letter queue, and abusive-tenant penalty weights).  Either
    #: way decisions and audit trails are identical — see docs/SCHEDULING.md.
    sched: str = "none"
    #: Batched execution across the hot path: "off" (default — one
    #: durable append, one wire frame, one work charge per event) or
    #: "on" (group-commit durability, coalesced federation frames and
    #: amortized per-event work, ``batch_size`` records per batch).
    #: Audit digests and PDP decisions are byte-identical either way —
    #: see docs/PERFORMANCE.md.
    batch: str = "off"
    #: Records per batch when batching is on (flush boundary of the
    #: group-commit writers and the shard-frame coalescer).
    batch_size: int = 256
    #: Flight recorder: "noop" (default — none is built) or "ring"
    #: (bounded ring buffers of recent guard-sanitized spans, SLO alerts,
    #: penalty-box transitions and bus saturation events — the raw material
    #: for incident bundles, cheap enough to stay on in every scenario).
    recorder: str = "noop"
    #: Where this node's index and audit logs live; ``None`` keeps both in
    #: memory.
    data_dir: str | Path | None = None

    def __post_init__(self) -> None:
        # The one place a storage spelling is refused.
        for field_name in ("index_store", "audit_sink"):
            name = getattr(self, field_name)
            if name not in _STORAGE_SPELLINGS:
                raise ConfigurationError(
                    f"unknown {field_name} {name!r};"
                    f"{suggest(name, _STORAGE_SPELLINGS)} "
                    f"available: {', '.join(_STORAGE_SPELLINGS)}"
                )
            if name == "jsonl" and self.data_dir is None:
                raise ConfigurationError(
                    "'jsonl' storage needs RuntimeConfig.data_dir"
                )
        for field_name, how_to in _READER_FIELDS.items():
            if getattr(self, field_name) != "noop":
                raise ConfigurationError(
                    f"RuntimeConfig.{field_name} selects nothing: {how_to}")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


class ServiceKernel:
    """A two-level registry: service kind → implementation name → factory."""

    def __init__(self) -> None:
        self._factories: dict[str, dict[str, ServiceFactory]] = {}

    def register(self, kind: str, name: str, factory: ServiceFactory) -> None:
        """Register (or replace) the factory for ``kind``/``name``."""
        self._factories.setdefault(kind, {})[name] = factory

    def create(self, kind: str, name: str, **context: Any) -> Any:
        """Instantiate implementation ``name`` of service ``kind``.

        Unknown kinds and names fail with a :class:`ConfigurationError`
        listing what *is* registered (plus a close-match suggestion for
        typos), never a bare ``KeyError``.
        """
        try:
            by_name = self._factories[kind]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown service kind {kind!r};{suggest(kind, self._factories)} "
                f"kinds: {', '.join(sorted(self._factories))}"
            ) from exc
        try:
            factory = by_name[name]
        except KeyError as exc:
            raise ConfigurationError(
                f"no {kind!r} implementation named {name!r};"
                f"{suggest(name, by_name)} "
                f"available: {', '.join(sorted(by_name))}"
            ) from exc
        return factory(**context)

    def kinds(self) -> tuple[str, ...]:
        """The registered service kinds, sorted."""
        return tuple(sorted(self._factories))

    def implementations(self, kind: str) -> tuple[str, ...]:
        """The implementation names registered for ``kind``, sorted."""
        if kind not in self._factories:
            raise ConfigurationError(f"unknown service kind {kind!r}")
        return tuple(sorted(self._factories[kind]))

    def wiring(self) -> dict[str, tuple[str, ...]]:
        """The full kind → implementations table (for docs and the CLI)."""
        return {kind: self.implementations(kind) for kind in self.kinds()}


def suggest(typo: str, known) -> str:
    """A did-you-mean fragment for error messages (empty if no close match).

    Public because the CLI reuses the kernel's suggestion discipline for
    its own enumerations (scenario names, ...), so every "unknown X"
    error in the platform reads the same way.
    """
    matches = get_close_matches(typo, list(known), n=1)
    return f" did you mean {matches[0]!r}?" if matches else ""


# -- default factories (lazy imports: the kernel must not cycle with core) --


def _off(**context: Any) -> Any:
    # No object at all: every seam checks for None and stays on its
    # uninstrumented / unindexed / per-record path.
    return None


def _inmemory_telemetry(**context: Any) -> Any:
    from repro.obs.telemetry import InMemoryTelemetry

    return InMemoryTelemetry(
        clock=context["clock"],
        guard_mode=context.get("telemetry_guard", "hash"),
        secret=context.get("master_secret", "css-telemetry"),
    )


def _indexed_perf(**context: Any) -> Any:
    from repro.perf import PerfLayer

    return PerfLayer(
        secret=context.get("master_secret", "css-perf"),
        telemetry=context.get("telemetry"),
    )


def _jsonl_store(**context: Any) -> Any:
    from repro.storage.engine import JsonlStore

    return JsonlStore(data_dir=context.get("data_dir"))


def _segmented_store(**context: Any) -> Any:
    from repro.storage.engine import SegmentedStore

    return SegmentedStore(
        data_dir=context.get("data_dir"),
        telemetry=context.get("telemetry"),
    )


def _sched(fair: bool) -> Callable[..., Any]:
    """Both ``sched`` names build the one tenant scheduler; the name picks
    only its serving discipline."""

    def build(**context: Any) -> Any:
        from repro.sched.scheduler import POLICY_DRR, POLICY_FIFO, TenantScheduler

        return TenantScheduler(
            clock=context["clock"],
            policy=POLICY_DRR if fair else POLICY_FIFO,
            config=context.get("sched_config"),
            telemetry=context.get("telemetry"),
            secret=context.get("master_secret", "css-sched"),
            recorder=context.get("recorder"),
        )

    return build


def _on_batch(**context: Any) -> Any:
    from repro.runtime.batching import BatchPolicy

    return BatchPolicy(batch_size=context.get("batch_size", 256))


def _ring_recorder(**context: Any) -> Any:
    from repro.obs.recorder import FlightRecorder

    telemetry = context.get("telemetry")
    return FlightRecorder(
        clock=context["clock"],
        guard=getattr(telemetry, "guard", None),
    )


def default_kernel() -> ServiceKernel:
    """A kernel pre-loaded with every in-tree implementation."""
    kernel = ServiceKernel()
    kernel.register(KIND_TELEMETRY, "noop", _off)
    kernel.register(KIND_TELEMETRY, "inmemory", _inmemory_telemetry)
    kernel.register(KIND_PERF, "none", _off)
    kernel.register(KIND_PERF, "indexed", _indexed_perf)
    kernel.register(KIND_STORE, "jsonl", _jsonl_store)
    kernel.register(KIND_STORE, "segmented", _segmented_store)
    kernel.register(KIND_SCHED, "none", _sched(fair=False))
    kernel.register(KIND_SCHED, "fair", _sched(fair=True))
    kernel.register(KIND_RECORDER, "noop", _off)
    kernel.register(KIND_RECORDER, "ring", _ring_recorder)
    kernel.register(KIND_BATCH, "off", _off)
    kernel.register(KIND_BATCH, "on", _on_batch)
    return kernel
