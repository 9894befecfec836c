"""The service kernel — the platform's single composition root.

Every collaborator of the :class:`~repro.core.controller.DataController`
that has more than one implementation (index store, audit sink, store
engine, telemetry, scheduler, ...) is constructed here, by *name*, from a
registry of factories.  The controller, CLI, examples and benchmarks all
build their service graph through one kernel, so swapping a backend —
say the in-memory events index for the JSONL-backed one — is a
:class:`RuntimeConfig` field, not an edit to the controller:

    >>> controller = DataController(runtime=RuntimeConfig(
    ...     index_store="jsonl", audit_sink="jsonl", data_dir="/tmp/css"))

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
#: fetcher, federation membership) its owner constructs directly.
KIND_INDEX = "index"
KIND_AUDIT = "audit"
KIND_TELEMETRY = "telemetry"
KIND_SLO = "slo"
KIND_PROFILING = "profiling"
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
    (KIND_PROFILING, "profiling", "profiler"),
    (KIND_RECORDER, "recorder", "recorder"),
    (KIND_SLO, "slo", "slo"),
    (KIND_PERF, "perf", "perf"),
    (KIND_SCHED, "sched", "sched"),
    (KIND_STORE, "store", "store"),
    (KIND_BATCH, "batch", "batch"),
    (KIND_INDEX, "index_store", "index"),
    (KIND_AUDIT, "audit_sink", "audit_log"),
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Named implementation choices for one platform instance.

    The defaults reproduce the historical all-in-memory wiring; ``jsonl``
    backends additionally need ``data_dir``.
    """

    index_store: str = "memory"
    audit_sink: str = "memory"
    telemetry: str = "noop"
    #: Privacy-guard mode for the telemetry backend ("hash" or "reject").
    telemetry_guard: str = "hash"
    #: SLO engine: "noop" (default) or "default" (stock objectives over
    #: the telemetry backend, which must then be enabled).
    slo: str = "noop"
    #: Profiler: "noop" (default) or "sampling" (deterministic section
    #: profiler over the simulated clock, labels guard-hashed).
    profiling: str = "noop"
    #: Hot-path performance layer: "indexed" (default — policy index,
    #: versioned decision cache, subscription trie, wire caches) or
    #: "none" (the linear-scan ablation baseline).  Decisions and audit
    #: trails are identical either way; only the speed differs.
    perf: str = "indexed"
    #: Durable store engine behind the jsonl index/audit backends:
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
    #: Flight recorder: "noop" (default) or "ring" (bounded ring buffers
    #: of recent guard-sanitized spans, SLO alerts, penalty-box
    #: transitions and bus saturation events — the raw material for
    #: incident bundles, cheap enough to stay on in every scenario).
    recorder: str = "noop"
    data_dir: str | Path | None = None


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


def _noop_telemetry(**context: Any) -> Any:
    from repro.obs.telemetry import NoopTelemetry

    return NoopTelemetry()


def _inmemory_telemetry(**context: Any) -> Any:
    from repro.obs.telemetry import InMemoryTelemetry

    return InMemoryTelemetry(
        clock=context["clock"],
        guard_mode=context.get("telemetry_guard", "hash"),
        secret=context.get("master_secret", "css-telemetry"),
    )


def _memory_index(**context: Any) -> Any:
    from repro.core.index import EventsIndex

    return EventsIndex(
        context["keystore"],
        encrypt_identity=context.get("encrypt_identity", True),
    )


def _durable_log(context: dict, name: str) -> Any:
    """The named record log from the runtime's store provider (``WIRING``
    builds ``store`` before the kinds that write to it), behind a
    group-commit writer when batching is on."""
    log = context["store"].log(name)
    policy = context.get("batch")
    if policy is None:
        return log
    from repro.runtime.batching import BatchWriter

    return BatchWriter(log, batch_size=policy.batch_size)


def _jsonl_index(**context: Any) -> Any:
    from repro.runtime.backends import JsonlIndexStore

    return JsonlIndexStore(
        _durable_log(context, "index"),
        context["keystore"],
        encrypt_identity=context.get("encrypt_identity", True),
    )


def _memory_audit(**context: Any) -> Any:
    from repro.audit.log import AuditLog

    return AuditLog()


def _jsonl_audit(**context: Any) -> Any:
    from repro.runtime.backends import JsonlAuditSink

    return JsonlAuditSink(_durable_log(context, "audit"))


def _federated_index(**context: Any) -> Any:
    from repro.federation.index import FederatedIndexStore

    # Durable deployment: this node's shard writes through to its own
    # index log, so rehome tombstones and adopted entries survive a
    # restart (the store kind decides flat-file vs segmented).
    durable = context.get("data_dir") is not None
    return FederatedIndexStore(
        local=(_jsonl_index if durable else _memory_index)(**context),
        membership=context["membership"],
        node_id=context["node_id"],
        perf=context.get("perf"),
        batch=context.get("batch"),
    )


def _noop_slo(**context: Any) -> Any:
    from repro.obs.slo import NoopSLOEngine

    return NoopSLOEngine()


def _default_slo(**context: Any) -> Any:
    from repro.obs.slo import SLOEngine

    return SLOEngine(
        telemetry=context["telemetry"],
        recorder=context.get("recorder"),
    )


def _noop_profiler(**context: Any) -> Any:
    from repro.obs.profiling import NoopProfiler

    return NoopProfiler()


def _sampling_profiler(**context: Any) -> Any:
    from repro.obs.profiling import SamplingProfiler

    telemetry = context.get("telemetry")
    return SamplingProfiler(
        clock=context["clock"],
        guard=getattr(telemetry, "guard", None),
    )


def _no_perf(**context: Any) -> Any:
    from repro.perf import NoopPerfLayer

    return NoopPerfLayer()


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


def _off_batch(**context: Any) -> Any:
    # No policy object at all: every batching seam checks for None and
    # stays on the historical per-record/per-frame path.
    return None


def _on_batch(**context: Any) -> Any:
    from repro.runtime.batching import BatchPolicy

    return BatchPolicy(batch_size=context.get("batch_size", 256))


def _noop_recorder(**context: Any) -> Any:
    from repro.obs.recorder import NoopFlightRecorder

    return NoopFlightRecorder()


def _ring_recorder(**context: Any) -> Any:
    from repro.obs.recorder import FlightRecorder

    telemetry = context.get("telemetry")
    return FlightRecorder(
        clock=context["clock"],
        guard=getattr(telemetry, "guard", None),
    )


def _shared_telemetry(**context: Any) -> Any:
    # The federated platform shares one telemetry instance across all its
    # node controllers; the factory just hands it through the kernel so the
    # controller's wiring stays uniform.
    return context["shared_telemetry"]


def default_kernel() -> ServiceKernel:
    """A kernel pre-loaded with every in-tree implementation."""
    kernel = ServiceKernel()
    kernel.register(KIND_INDEX, "memory", _memory_index)
    kernel.register(KIND_INDEX, "jsonl", _jsonl_index)
    kernel.register(KIND_INDEX, "federated", _federated_index)
    kernel.register(KIND_AUDIT, "memory", _memory_audit)
    kernel.register(KIND_AUDIT, "jsonl", _jsonl_audit)
    kernel.register(KIND_TELEMETRY, "noop", _noop_telemetry)
    kernel.register(KIND_TELEMETRY, "inmemory", _inmemory_telemetry)
    kernel.register(KIND_TELEMETRY, "shared", _shared_telemetry)
    kernel.register(KIND_SLO, "noop", _noop_slo)
    kernel.register(KIND_SLO, "default", _default_slo)
    kernel.register(KIND_PROFILING, "noop", _noop_profiler)
    kernel.register(KIND_PROFILING, "sampling", _sampling_profiler)
    kernel.register(KIND_PERF, "none", _no_perf)
    kernel.register(KIND_PERF, "indexed", _indexed_perf)
    kernel.register(KIND_STORE, "jsonl", _jsonl_store)
    kernel.register(KIND_STORE, "segmented", _segmented_store)
    kernel.register(KIND_SCHED, "none", _sched(fair=False))
    kernel.register(KIND_SCHED, "fair", _sched(fair=True))
    kernel.register(KIND_RECORDER, "noop", _noop_recorder)
    kernel.register(KIND_RECORDER, "ring", _ring_recorder)
    kernel.register(KIND_BATCH, "off", _off_batch)
    kernel.register(KIND_BATCH, "on", _on_batch)
    return kernel
