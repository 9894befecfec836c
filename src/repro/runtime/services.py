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
