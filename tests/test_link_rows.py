"""The row link against the eager one it replaced, and what a hop keeps.

A hop keeps nothing of what crossed: the link span and the server span
open and close by row, the counters are read by the metrics registry, and
a trace context is minted only for a serving node that records into other
telemetry.  The link before that — a generic span scope on each side,
counters through the generic label path, a context minted on every hop —
is kept here as the reference, and a hypothesis property drives both
through the same hop sequences: single calls and coalesced frames,
scripted drops within the retry budget and past it, handler failures (a
``CssError`` answered, anything else raised through), under shared,
per-node and no telemetry.  The outcomes, link stats, trace exports,
stitched traces and metrics must be the reference's, and so must what
crossed as the wire tap (``tests/conftest.py::wire_tap``) sees it — but
for the ``"trace"`` key the reference passes under shared telemetry,
where the product passes no context.  A last test drives a 2-node
deployment through hundreds of hops and finds nothing a link or a node
holds grown by them.
"""

from __future__ import annotations

import json
from collections.abc import Sized
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.delivery import MAX_ATTEMPTS
from repro.crypto.hashing import canonical_json
from repro.exceptions import CssError, LinkFailureError
from repro.federation import membership as membership_module
from repro.federation.link import (
    HOP_COUNTER,
    LINK_ATTEMPTS,
    LINK_DROPS,
    Link,
)
from repro.federation.node import MAX_RELAY_FRAMES, WIRE_ERRORS, FederationNode
from repro.obs.context import WIRE_KEY
from repro.runtime.kernel import RuntimeConfig
from tests.conftest import build_federation, wire_tap

# -- the reference: a generic span scope per side ------------------------------


class EagerLink(Link):
    """The link before rows, pushing its counters as the link did before
    readers (so it registers none)."""

    def __init__(self, *args, telemetry=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._telemetry = telemetry

    def _transmit(self, operation, payload, entries, hop_cost):
        batched = entries is not None
        count = entries if batched else 1
        self.stats.calls += 1
        telemetry, ends = self._telemetry, self._ends
        if telemetry is None:
            scope = nullcontext()
        elif batched:
            scope = telemetry.span("link.call_batch", op=operation,
                                   entries=str(count), **ends)
        else:
            scope = telemetry.span("link.call", op=operation, **ends)
        with scope:
            tracer = telemetry.tracer if telemetry is not None else None
            context = tracer.context(tracer.current_row) if tracer is not None else None
            last_error = None
            for attempt in range(1, MAX_ATTEMPTS + 1):
                if attempt > 1:
                    self.stats.retries += 1
                self._clock.advance(hop_cost)
                if telemetry is not None:
                    telemetry.count(LINK_ATTEMPTS, **ends)
                if self._should_fail(operation, payload):
                    self.stats.failed_attempts += count
                    if telemetry is not None:
                        telemetry.count(LINK_DROPS, **ends)
                    what = (f"batched {operation!r} of {count} entries"
                            if batched else repr(operation))
                    last_error = LinkFailureError(
                        f"link {self.source}->{self.target.node_id} dropped "
                        f"{what} (attempt {attempt}/{MAX_ATTEMPTS})")
                    continue
                if batched:
                    response = self.target.handle_batch(
                        operation, payload, count, trace=context)
                else:
                    response = self.target.handle(operation, payload, trace=context)
                self.stats.delivered += count
                if telemetry is not None:
                    telemetry.count(HOP_COUNTER, float(count), **ends, op=operation)
                return response
            raise last_error


def eager_serve(node, handler, operation, payload, trace, entries):
    """``FederationNode._serve`` before rows: a generic server span scope."""
    telemetry = node.telemetry
    attributes = {} if entries is None else {"entries": str(entries)}
    scope = (telemetry.span(f"federation.{operation}", remote_parent=trace,
                            node=node.label, **attributes)
             if telemetry is not None else nullcontext())
    with scope as span:
        try:
            response = handler(payload)
        except CssError as exc:
            code = WIRE_ERRORS.get(type(exc), type(exc).__name__)
            response = {"error": code, "message": str(exc)}
        if span is not None and "error" in response:
            telemetry.tracer.set_attribute(span, "outcome", response["error"])
        return response


# -- the property -------------------------------------------------------------

NODES = ("node-0", "node-1", "node-2")
PAIRS = [(source, target) for source in NODES for target in NODES
         if source != target]
TELEMETRY = {
    "shared": {"runtime": RuntimeConfig(telemetry="inmemory")},
    "per-node": {"per_node_telemetry": True},
    "off": {},
}

PAIR = st.sampled_from(PAIRS)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("publish"), st.integers(0, 5)),
    st.tuples(st.just("subscribe")),
    st.tuples(st.just("dispatch")),
    st.tuples(st.just("details"), st.integers(0, 3),
              st.sampled_from(("healthcare-treatment", "marketing"))),
    st.tuples(st.just("inquire"), st.sampled_from(NODES)),
    st.tuples(st.just("count"), st.sampled_from(NODES)),
    st.tuples(st.just("ask"), PAIR,
              st.sampled_from(("index.count", "no.such.op", "details.get"))),
    st.tuples(st.just("frame"), PAIR, st.integers(1, 6),
              st.sampled_from(("stored", "unknown", "raises"))),
    # The policy allows three attempts: 1-2 drops are retried, 3 fail the call.
    st.tuples(st.just("drop"), PAIR, st.integers(1, 3)),
), min_size=1, max_size=14)


def run(steps, telemetry: str) -> dict:
    """Drive one fresh three-node deployment; return everything observable."""
    with wire_tap() as wire:
        deployment = build_federation(shards=3, **TELEMETRY[telemetry])
        platform = deployment.platform
        published: list[str] = []
        outcomes = []
        for step in steps:
            try:
                outcomes.append(apply(deployment, published, *step))
            except Exception as exc:  # compared, type and text, with the reference's
                outcomes.append((type(exc).__name__, str(exc)))
    links = platform.membership.links()
    return {
        "outcomes": outcomes,
        "wire": wire,
        "stats": [(link.stats.calls, link.stats.delivered, link.stats.retries,
                   link.stats.failed_attempts) for link in links],
        "traces": platform.trace_exports(),
        "stitched": platform.stitched_trace(),
        "metrics": ({node.node_id: node.telemetry.metrics_export()
                     for node in platform.nodes()}
                    if telemetry != "off" else {}),
        "links": links,
    }


def apply(deployment, published, action, *args):
    platform = deployment.platform
    if action == "publish":
        published.append(deployment.publish_blood_test(
            subject_id=f"pat-{args[0]}").event_id)
        return None
    if action == "subscribe":
        return platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
    if action == "dispatch":
        return platform.dispatch_all()
    if action == "details":
        index, purpose = args
        event_id = published[index] if index < len(published) else "no-such-event"
        return platform.request_details("FamilyDoctors/Dr-Rossi", "BloodTest",
                                        event_id, purpose).exposed_values()
    if action == "inquire":
        return [n.event_id for n in
                platform.controller_of(args[0]).index.inquire(["BloodTest"])]
    if action == "count":
        return platform.controller_of(args[0]).index.count_for_type("BloodTest")
    (source, target), *rest = args
    node = platform.node(source)
    if action == "drop":
        return platform.membership.link(source, target).fail_next(rest[0])
    if action == "ask":
        payload = {"actor_id": "FamilyDoctors/Dr-Rossi", "event_type": "BloodTest",
                   "event_id": "no-such-event", "purpose": "healthcare-treatment"}
        return node.ask(target, rest[0], payload)
    count, kind = rest
    if kind == "unknown":
        return node.ask(target, "no.such.op", {"x": count}, entries=count)
    # "raises": an entry no shard can adopt fails the handler with a
    # TypeError, which is no CssError — it leaves the hop as an exception.
    entries = [] if kind == "stored" else [{"bogus": count}]
    return node.ask(target, "index.store", {"entries": entries}, seal=True,
                    entries=count)


@settings(max_examples=100, deadline=None)
@given(steps=STEPS, telemetry=st.sampled_from(sorted(TELEMETRY)))
def test_row_link_reads_as_the_eager_link(steps, telemetry):
    product = run(steps, telemetry)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(membership_module, "Link", EagerLink)
        patch.setattr(FederationNode, "_serve", eager_serve)
        reference = run(steps, telemetry)
    assert all(type(link) is EagerLink for link in reference["links"])
    assert product["outcomes"] == reference["outcomes"]
    for key in ("stats", "traces", "stitched", "metrics"):
        assert product[key] == reference[key], key
    wire = reference["wire"]
    if telemetry == "shared":  # the eager link passed a context on every hop
        wire = [canonical_json({key: value for key, value in json.loads(line).items()
                                if key != WIRE_KEY}) for line in wire]
    assert product["wire"] == wire


# -- what a hop keeps ---------------------------------------------------------


def test_a_hop_keeps_nothing_however_many_cross():
    """Relays, shipped index entries and requests for details cross a
    2-node deployment hundreds of times, and no container a link or a node
    holds grows with them.  Only the links' integer counters, their
    op-keyed ``delivered_by_op`` and the capped sealed-frame cache move
    (each node records its own telemetry, so the span-shape memos count)."""
    deployment = build_federation(per_node_telemetry=True)
    platform = deployment.platform
    platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")

    def cross(start: int, rounds: int) -> int:
        for n in range(start, start + rounds):
            event_id = deployment.publish_blood_test(subject_id=f"pat-{n}").event_id
            platform.dispatch_all()
            platform.request_details("FamilyDoctors/Dr-Rossi", "BloodTest",
                                     event_id, "healthcare-treatment")
        return platform.total_hops()

    def held() -> dict[str, int]:
        owners = [(f"link {link.source}->{link.target.node_id}", link)
                  for link in platform.membership.links()]
        owners += [(f"{label} stats", link.stats) for label, link in owners]
        owners += [(node.node_id, node) for node in platform.nodes()]
        sizes = {}
        for label, owner in owners:
            for name, value in vars(owner).items():
                if name == "_relay_frames":
                    assert len(value) <= MAX_RELAY_FRAMES
                elif (isinstance(value, Sized) and not isinstance(value, str)
                        and name != "delivered_by_op"):
                    sizes[f"{label}.{name}"] = len(value)
        return sizes

    warm = cross(0, 10)
    before = held()
    hops = cross(10, 100) - warm
    assert hops >= 200
    ops = {op for link in platform.membership.links()
           for op in link.stats.delivered_by_op}
    assert {"bus.relay", "details.get", "index.store"} <= ops
    assert held() == before
