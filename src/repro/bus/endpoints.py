"""Synchronous SOA endpoints.

The paper's architecture is "Event Driven SOA": asynchronous pub/sub for
notifications *plus* synchronous web-service invocations for the
request/response paths — the request for details (data consumer → data
controller → producer gateway) and the events-index inquiry.  This module
provides the web-service stand-in: named endpoints registered in an
:class:`EndpointRegistry` and invoked by name, with call accounting so the
benchmarks can count point-to-point connections versus bus hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import EndpointError

#: Signature of an endpoint implementation: request payload in, response out.
Operation = Callable[[object], object]


@dataclass
class EndpointStats:
    """Per-endpoint call accounting."""

    calls: int = 0
    failures: int = 0


class ServiceEndpoint:
    """A named synchronous service operation (a WSDL operation stand-in)."""

    def __init__(self, name: str, operation: Operation, description: str = "") -> None:
        if not name:
            raise EndpointError("endpoint needs a name")
        self.name = name
        self.description = description
        self._operation = operation
        self.stats = EndpointStats()
        self._available = True

    @property
    def available(self) -> bool:
        """Whether the endpoint currently accepts calls."""
        return self._available

    def take_offline(self) -> None:
        """Simulate the hosting system going down (used by ablation A4)."""
        self._available = False

    def bring_online(self) -> None:
        """Restore the endpoint."""
        self._available = True

    def invoke(self, request: object) -> object:
        """Call the operation; raises ``EndpointError`` when offline.

        Exceptions from the operation propagate to the caller (they are the
        service's fault responses) but are counted as failures.
        """
        if not self._available:
            self.stats.failures += 1
            raise EndpointError(f"endpoint {self.name!r} is offline")
        self.stats.calls += 1
        try:
            return self._operation(request)
        except Exception:
            self.stats.failures += 1
            raise


class EndpointRegistry:
    """All endpoints reachable through the platform (the service fabric)."""

    def __init__(self) -> None:
        self._endpoints: dict[str, ServiceEndpoint] = {}

    def __len__(self) -> int:
        return len(self._endpoints)

    def register(self, endpoint: ServiceEndpoint) -> None:
        """Expose an endpoint; duplicate names are rejected."""
        if endpoint.name in self._endpoints:
            raise EndpointError(f"endpoint {endpoint.name!r} already registered")
        self._endpoints[endpoint.name] = endpoint

    def expose(self, name: str, operation: Operation, description: str = "") -> ServiceEndpoint:
        """Create-and-register shorthand."""
        endpoint = ServiceEndpoint(name, operation, description)
        self.register(endpoint)
        return endpoint

    def withdraw(self, name: str) -> None:
        """Remove an endpoint so the name can be re-exposed (e.g. a gateway
        restart re-attaching under the same producer id)."""
        if name not in self._endpoints:
            raise EndpointError(f"no endpoint named {name!r}")
        del self._endpoints[name]

    def get(self, name: str) -> ServiceEndpoint:
        """Look up an endpoint by name."""
        try:
            return self._endpoints[name]
        except KeyError as exc:
            raise EndpointError(f"no endpoint named {name!r}") from exc

    def call(self, name: str, request: object) -> object:
        """Invoke endpoint ``name`` with ``request``."""
        return self.get(name).invoke(request)

    def names(self) -> list[str]:
        """Every registered endpoint name."""
        return list(self._endpoints)

    def total_calls(self) -> int:
        """Sum of calls across all endpoints (connection-count benchmarks)."""
        return sum(ep.stats.calls for ep in self._endpoints.values())
