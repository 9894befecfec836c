"""Service adapters binding the runtime interfaces to concrete transports.

The :class:`~repro.runtime.interfaces.DetailFetcher` implementations live
here: the SOA-endpoint fetcher the controller uses in production wiring
(every detail retrieval is a web-service invocation in the paper's
architecture) and a direct in-process fetcher for hand-wired enforcement
stacks (tests, benchmarks).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.exceptions import EndpointError, SourceUnavailableError
from repro.sched.scheduler import WORK_DETAILS, WORK_PUBLISH


class SchedulerGate:
    """The ingress face of the tenant scheduler (admission hooks).

    Pipeline stages and federation node endpoints call this instead of
    the scheduler directly, so ingress points share one convention: meter
    the work unit, take the token-bucket verdict, never block the
    operation.  ``publish`` admits the producing organization at the
    publish edge; ``details`` admits the consuming organization at the
    request-for-details edge.
    """

    def __init__(self, sched, clock) -> None:
        self._sched = sched
        self._clock = clock

    @property
    def shapes_ingress(self) -> bool:
        """Whether the wired scheduler is the fair (shaping) policy."""
        return self._sched.shapes_ingress

    def publish(self, producer_id: str) -> bool:
        """Admission verdict for one publish by ``producer_id``'s tenant."""
        return self._sched.admit(producer_id, WORK_PUBLISH, self._clock.now())

    def details(self, consumer_id: str) -> bool:
        """Meter + admission verdict for one request-for-details."""
        return self._sched.ingress(consumer_id, WORK_DETAILS, self._clock.now())

    def meter_details(self, consumer_id: str) -> None:
        """Meter a request-for-details without an admission verdict.

        Used by the fifo baseline, where no ``sched`` pipeline stage is
        composed: accounting still sees the work, admission stays inert.
        """
        self._sched.submit(consumer_id, WORK_DETAILS, self._clock.now())


def gateway_endpoint_name(producer_id: str) -> str:
    """The SOA endpoint a producer's cooperation gateway is exposed under."""
    return f"gateway.{producer_id}.getResponse"


class EndpointDetailFetcher:
    """Fetches details through the SOA endpoint layer (Algorithm 2 client).

    Keeps the endpoint call accounting honest and converts endpoint-level
    unavailability into the gateway's failure type.  ``require_producer``
    fails fast (with the controller's unknown-producer error) before any
    endpoint is invoked.
    """

    def __init__(self, endpoints, require_producer: Callable[[str], object]) -> None:
        self._endpoints = endpoints
        self._require_producer = require_producer

    def fetch(self, producer_id: str, src_event_id: str,
              allowed_fields: Iterable[str], event_id: str):
        self._require_producer(producer_id)
        try:
            return self._endpoints.call(
                gateway_endpoint_name(producer_id),
                (src_event_id, frozenset(allowed_fields), event_id),
            )
        except EndpointError as exc:
            raise SourceUnavailableError(str(exc)) from exc


class DirectDetailFetcher:
    """Fetches details straight from a resolved gateway (no endpoint hop)."""

    def __init__(self, gateway_resolver: Callable[[str], object]) -> None:
        self._resolve = gateway_resolver

    def fetch(self, producer_id: str, src_event_id: str,
              allowed_fields: Iterable[str], event_id: str):
        gateway = self._resolve(producer_id)
        return gateway.get_response(
            src_event_id, frozenset(allowed_fields), event_id=event_id
        )
