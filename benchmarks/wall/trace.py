"""Outside-in tracing: timing shims around each layer's public callables.

The platform is not edited.  :class:`Tracer` replaces a declared table of
public callables — on instances where the caller looks the attribute up
at call time, on the class otherwise — with shims that record one span
per call (layer, name, start, end, parent, op id) into flat in-memory
columns, and puts every original back afterwards.  Spans nest by call
order in the single measured thread, so they form a tree; a span's self
time is its duration minus its children's, and self times sum exactly to
the root spans' durations.
"""

from __future__ import annotations

import gc
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span recorder plus the install/restore bookkeeping of the shims."""

    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []
        self._key_ids: dict[tuple[str, str], int] = {}
        self.key = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: Sum of each key's ``weigh`` results (records per commit, ...).
        self.weights: dict[tuple[str, str], float] = defaultdict(float)
        self.current_op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, bool, object]] = []
        self.gc_gen2_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    # -- recording ---------------------------------------------------------

    def key_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def open_span(self, key_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.key.append(key_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close_span(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself (window, op roots)."""
        index = self.open_span(self.key_id(layer, name))
        try:
            yield
        finally:
            self.close_span(index)

    def wrap(self, func, layer: str, name: str, weigh=None):
        """``func`` timed as one span per call under ``(layer, name)``."""
        key_id = self.key_id(layer, name)
        open_, close = self.open_span, self.close_span
        if weigh is None:
            def shim(*args, **kwargs):
                index = open_(key_id)
                try:
                    return func(*args, **kwargs)
                finally:
                    close(index)
        else:
            weights, key = self.weights, (layer, name)

            def shim(*args, **kwargs):
                weights[key] += weigh(*args, **kwargs)
                index = open_(key_id)
                try:
                    return func(*args, **kwargs)
                finally:
                    close(index)
        shim.__wrapped__ = func
        return shim

    # -- shims -------------------------------------------------------------

    def install(self, owner, attr: str, layer: str, name: str | None = None,
                weigh=None) -> None:
        """Shim ``owner.attr`` (an instance or a class) until :meth:`restore`.

        On a class the raw descriptor is kept and put back, so the class
        ends up holding the very object it was imported with.
        """
        name = name or attr
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                shim = classmethod(
                    self.wrap(original.__func__, layer, name, weigh))
            else:
                shim = self.wrap(original, layer, name, weigh)
            self._installed.append((owner, attr, True, original))
        else:
            had_own = attr in vars(owner)
            original = vars(owner)[attr] if had_own else None
            shim = self.wrap(getattr(owner, attr), layer, name, weigh)
            self._installed.append((owner, attr, had_own, original))
        setattr(owner, attr, shim)

    def restore(self) -> None:
        """Remove every shim, newest first."""
        while self._installed:
            owner, attr, had_own, original = self._installed.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- garbage-collector pauses -------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2_collections += 1

    def watch_gc(self) -> None:
        """Start counting collector pauses (``gc.callbacks``)."""
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        """Stop counting collector pauses."""
        gc.callbacks.remove(self._on_gc)

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per ``(layer, name)``: calls, total seconds, self seconds."""
        return span_totals(self.keys, self.key, self.start, self.end,
                           self.parent)

    def write_jsonl(self, path) -> None:
        """Spans as JSON lines: id, parent, op, layer, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self.start)):
                layer, name = self.keys[self.key[index]]
                handle.write(json.dumps({
                    "id": index, "parent": self.parent[index],
                    "op": self.op[index], "layer": layer, "name": name,
                    "start": self.start[index], "end": self.end[index],
                }) + "\n")


def span_totals(keys, key, start, end, parent):
    """Calls / total / self seconds per key from parallel span columns.

    Self time of a span = its duration minus the durations of its direct
    children, so over a whole tree the self times add up to the roots.
    """
    durations = [end[i] - start[i] for i in range(len(start))]
    selfs = list(durations)
    for index, above in enumerate(parent):
        if above >= 0:
            selfs[above] -= durations[index]
    totals: dict[tuple[str, str], dict[str, float]] = {
        k: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for k in keys
    }
    for index, key_id in enumerate(key):
        row = totals[keys[key_id]]
        row["calls"] += 1
        row["total_s"] += durations[index]
        row["self_s"] += selfs[index]
    return totals


def layer_table(totals) -> dict[str, float]:
    """Self seconds per layer, largest first."""
    layers: dict[str, float] = defaultdict(float)
    for (layer, _name), row in totals.items():
        layers[layer] += row["self_s"]
    return dict(sorted(layers.items(), key=lambda item: -item[1]))


def install_platform_shims(tracer: Tracer, platform, producer_ids) -> None:
    """The declared table: every layer boundary reachable from outside.

    Only public attributes are touched.  ``Link`` and ``FederationNode``
    are shimmed on the class because links are created lazily; the XML
    messages and the PEP because no instance is reachable from outside.
    """
    from repro.core.messages import DetailMessage, NotificationMessage
    from repro.federation.link import Link
    from repro.federation.node import FederationNode
    from repro.xacml.pep import PolicyEnforcementPoint

    put = tracer.install
    put(platform, "publish", "federation.platform")
    put(platform, "request_details", "federation.platform")
    put(platform, "subscribe", "federation.platform")
    put(platform, "dispatch_all", "federation.platform")
    put(platform, "flush_batches", "federation.platform")
    put(Link, "call", "federation.link")
    put(Link, "call_batch", "federation.link",
        weigh=lambda link, operation, payload, count, advance=None: count)
    put(FederationNode, "handle", "federation.node")
    put(FederationNode, "handle_batch", "federation.node")
    put(NotificationMessage, "to_xml", "core.messages", "to_xml")
    put(NotificationMessage, "from_xml", "core.messages", "from_xml")
    put(DetailMessage, "to_xml", "core.messages", "to_xml")
    put(PolicyEnforcementPoint, "authorize", "xacml")

    telemetry = platform.telemetry
    for attr in ("count", "gauge", "observe"):
        put(telemetry, attr, "obs", f"metric.{attr}")
    put(telemetry.guard, "sanitize", "obs")

    for node in platform.nodes():
        controller = node.controller
        for attr in ("publish", "request_details", "subscribe"):
            put(controller, attr, "core.controller")
        put(controller.publish_pipeline, "execute",
            "runtime.interceptors", "publish")
        put(controller.details_pipeline, "execute",
            "runtime.interceptors", "details_edge")
        put(controller.enforcer.pipeline, "execute",
            "runtime.interceptors", "enforcement")
        put(controller.enforcer, "get_event_details", "core.enforcement")
        bus = controller.bus
        put(bus, "publish", "bus")
        put(bus, "dispatch", "bus",
            weigh=lambda bus=bus: bus.subscription_count)
        put(bus, "subscribe", "bus")
        put(bus, "unsubscribe", "bus")
        put(controller.audit_log, "append", "audit")
        put(controller.audit_log, "flush", "storage")
        for attr in ("store", "get", "seal_identity"):
            put(controller.index, attr, "federation.index")
        for attr in ("store", "get", "seal_identity", "open_identity"):
            put(controller.index.local, attr, "core.index")
        put(controller.index.local, "flush", "storage")
        put(controller.keystore, "seal", "crypto")
        put(controller.keystore, "open_", "crypto", "open")
        for log_name in ("index", "audit"):
            log = controller.store.log(log_name)
            put(log, "append", "storage")
            put(log, "append_many", "storage",
                weigh=lambda records: len(records))
        for attr in ("submit", "admit", "ingress", "should_shed", "note_shed",
                     "note_publish", "note_fanout", "drain"):
            put(controller.sched, attr, "sched")
    for producer_id in producer_ids:
        gateway = platform.producer(producer_id).gateway
        put(gateway, "persist", "core.gateway")
        put(gateway, "get_response", "core.gateway")
